import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_state
from expsplit import config as cfgmod
from expsplit import harness
from expsplit.errors import ContractionError, StudyFailedError, ValidationError
from expsplit.harness import (ConvergenceReport, StudyPlan, convergence_study,
                              order_prediction, reference_solution,
                              require_passed)
from expsplit.integrator import SchemeSpec, run, run_windowed
from expsplit.nonlinearities import PowerNonlinearity, ZeroNonlinearity
from expsplit.propagators import (HeatTorusProblem, OUProblem, SmoothingProfile,
                                  WaveProblem)


def logistic_exact(u0, t):
    """Closed form for u' = -u + u^2: u(t) = u0 e^-t / (1 - u0 + u0 e^-t)."""
    e = math.exp(-t)
    return u0 * e / (1.0 - u0 + u0 * e)


class TestOrderPrediction:
    def test_w_equals_v_gives_s(self):
        assert order_prediction(2, 0.0, "V") == 2.0
        assert order_prediction(3, 0.4, "V") == 3.0

    def test_w_equals_x_subtracts_alpha(self):
        assert order_prediction(2, 0.25, "X") == pytest.approx(1.75)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            order_prediction(2, 1.0, "X")

    def test_bad_w_choice_rejected(self):
        with pytest.raises(ValidationError):
            order_prediction(2, 0.0, "L2")


class TestStudyPlanValidate:
    def make_plan(self, **kw):
        base = dict(problem_id="p", scheme=SchemeSpec.with_stages(2),
                    h_list=[0.25, 0.125], horizon=1.0)
        base.update(kw)
        return StudyPlan(**base)

    def test_valid_plan_passes(self):
        self.make_plan().validate()

    def test_single_h_rejected(self):
        with pytest.raises(ValidationError):
            self.make_plan(h_list=[0.25]).validate()

    def test_nondivisor_h_rejected(self):
        with pytest.raises(ValidationError):
            self.make_plan(h_list=[0.3, 0.15]).validate()

    def test_nongeometric_sweep_rejected(self):
        with pytest.raises(ValidationError):
            self.make_plan(h_list=[0.25, 0.2]).validate()



class TestReferenceSolution:
    def test_linear_short_circuit_is_exact_flow(self, make_scalar):
        pr = make_scalar(lam=-0.7)
        ref = reference_solution(pr, ZeroNonlinearity(), np.array([2.0]),
                                 1.0, 1.0 / 640, 0.1, 0.0)
        assert ref.self_check_diff == 0.0
        for t, st in zip(ref.times, ref.states):
            assert abs(st[0] - 2.0 * math.exp(-0.7 * t)) < 1e-14

    def test_scalar_ode_matches_logistic_closed_form(self, make_scalar):
        pr = make_scalar(lam=-1.0)
        g = PowerNonlinearity(alpha=2.0, coeff=1.0)
        ref = reference_solution(pr, g, np.array([0.1]), 1.0,
                                 1.0 / 6400, 1.0 / 100, 1.0)
        assert abs(ref.terminal[0] - logistic_exact(0.1, 1.0)) < 1e-10
        # spot check an interior sample too
        mid = ref.at_time(0.5)
        assert abs(mid[0] - logistic_exact(0.1, 0.5)) < 1e-10
        assert ref.self_check_diff < 1e-10

    def test_odd_step_count_checks_against_a_coarser_run(self, make_scalar):
        # a validated sweep makes T / h_min even, so an odd N only reaches
        # reference_solution directly: T / h_min = 3 with h_ref = h_min / 65
        pr = make_scalar(lam=-1.0)
        g = PowerNonlinearity(alpha=2.0, coeff=1.0)
        u0, T, h_min = np.array([0.1]), 3 / 8, 1 / 8
        h_ref = h_min / 65
        n = round(T / h_ref)
        assert n % 2 == 1
        ref = reference_solution(pr, g, u0, T, h_ref, h_min, 1.0)
        scheme = SchemeSpec.with_stages(harness.REFERENCE_STAGES)
        # the scalar problem is diagonal: the reference solves it by windows
        stored = run_windowed(u0, T, n, scheme, pr, g, 1.0)
        coarse = run_windowed(u0, T, n // 2, scheme, pr, g, 1.0)  # step > 2 h_ref
        assert np.array_equal(ref.terminal, stored.states[-1])
        assert ref.self_check_diff == pr.v_norm(ref.terminal - coarse.states[-1])
        stepped = run(u0, T, n, scheme, pr, g, 1.0)
        assert pr.v_norm(ref.terminal - stepped.states[-1]) <= 1e-12
        assert math.isfinite(ref.self_check_diff) and ref.self_check_diff < 1e-10
        assert abs(ref.terminal[0] - logistic_exact(0.1, T)) < 1e-10

    def test_sample_spacing_must_be_multiple(self, make_scalar):
        pr = make_scalar()
        with pytest.raises(ValidationError):
            reference_solution(pr, ZeroNonlinearity(), np.array([1.0]),
                               1.0, 0.003, 0.01, 0.0)

    def test_horizon_must_be_multiple_of_sample_spacing(self):
        # 4 sample times (0 to 0.009375) beside 5 stored rows, before the check
        hp = HeatTorusProblem(dim=1, n=64)
        with pytest.raises(ValidationError, match="multiple of sample_dt"):
            reference_solution(hp, PowerNonlinearity(3.0, -1.0),
                               0.5 * np.sin(hp.grid()), 0.01, 1 / 1280, 1 / 320, 1.0)

    def test_unsampled_time_rejected(self, make_scalar):
        pr = make_scalar()
        ref = reference_solution(pr, ZeroNonlinearity(), np.array([1.0]),
                                 1.0, 1.0 / 640, 0.1, 0.0)
        with pytest.raises(ValidationError):
            ref.at_time(0.037)


# name -> problem of the exact-flow reference tests: a folded and a modal 1D
# heat grid, 2D heat, OU and wave
FLOW_GRIDS = {
    "heat-n64": lambda: HeatTorusProblem(dim=1, n=64),
    "heat-n128": lambda: HeatTorusProblem(dim=1, n=128),
    "heat-2d-n16": lambda: HeatTorusProblem(dim=2, n=16),
    "ou-n256": lambda: OUProblem(n=256),
    "wave-32": lambda: WaveProblem(n_modes=32),
}


class TestReferenceSolvers:
    @pytest.mark.parametrize("name", sorted(FLOW_GRIDS))
    def test_exact_flow_is_the_per_time_apply_bit_for_bit(self, name):
        # heat-linear's 161 sample times; the loop is the one-shot apply
        problem = FLOW_GRIDS[name]()
        u0 = 0.3 * random_state(problem, np.random.default_rng(3))
        ref = reference_solution(problem, ZeroNonlinearity(), u0, 0.5,
                                 1 / 320 / 64, 1 / 320, 0.0)
        loop = np.stack([problem.apply(float(t), u0) for t in ref.times])
        assert len(ref.times) == 161
        assert ref.states.dtype == loop.dtype
        assert np.array_equal(ref.states, loop)

    @pytest.mark.parametrize("name", ["heat", "ou"])
    def test_diagonal_references_are_windowed_others_stepped(self, name, monkeypatch):
        problem = HeatTorusProblem(dim=1, n=64) if name == "heat" else OUProblem(n=128)
        u0 = 0.3 * random_state(problem, np.random.default_rng(3))
        calls = []
        for solver in ("run", "run_windowed"):
            def counted(*args, solve=getattr(harness, solver), label=solver, **kwargs):
                calls.append(label)
                return solve(*args, **kwargs)

            monkeypatch.setattr(harness, solver, counted)
        ref = reference_solution(problem, PowerNonlinearity(3.0, -1.0), u0, 1 / 80,
                                 1 / 1280, 1 / 320, 3.0)
        assert calls == 2 * ["run_windowed" if name == "heat" else "run"]
        assert len(ref.times) == 5
        assert ref.states.shape == (5,) + u0.shape


class TestConvergenceStudy:
    def test_linear_study_takes_exact_path(self, make_scalar):
        pr = make_scalar(lam=-1.0)
        plan = StudyPlan(problem_id="scalar-linear",
                         scheme=SchemeSpec.with_stages(2),
                         h_list=[0.25, 0.125], horizon=1.0)
        report = convergence_study(plan, pr, ZeroNonlinearity(), np.array([1.0]))
        assert report.exact_linear
        assert report.passed
        assert max(report.errors) < 1e-11
        require_passed(report)

    def test_scalar_ode_second_order(self, make_scalar):
        pr = make_scalar(lam=-1.0)
        g = PowerNonlinearity(alpha=2.0, coeff=1.0)
        plan = StudyPlan(problem_id="scalar-logistic",
                         scheme=SchemeSpec.with_stages(2),
                         h_list=[1.0 / 8, 1.0 / 16, 1.0 / 32, 1.0 / 64],
                         horizon=1.0)
        report = convergence_study(plan, pr, g, np.array([0.1]))
        assert report.passed, report.abort_reason
        assert report.median_eoc == pytest.approx(2.0, abs=0.3)
        assert all(b >= e for e, b in zip(report.errors, report.bounds))
        assert all(a > b for a, b in zip(report.errors, report.errors[1:]))
        assert len(report.max_ratio_per_h) == len(report.h_list)
        require_passed(report)

    def test_smoothing_mismatch_rejected_before_running(self, rng):
        hp = HeatTorusProblem(dim=1, n=256)
        # declare a fractional alpha that the measured profile cannot match
        hp.profile_x = SmoothingProfile(c=1.0, alpha=0.5)
        plan = StudyPlan(problem_id="bad-smoothing",
                         scheme=SchemeSpec.with_stages(2),
                         h_list=[0.25, 0.125], horizon=0.5)
        g = PowerNonlinearity(alpha=3.0, coeff=-1.0)
        with pytest.raises(ValidationError, match="smoothing"):
            convergence_study(plan, hp, g, 0.1 * np.sin(hp.grid()))

    def test_heat_frac_grid_rejects_a_wrong_alpha(self):
        # heat-frac-s2's n = 128 grid measures -1/4; a declared 1/2 would set
        # the order to 1.5 and understate kappa's Omega, so setup must fail
        cfg = cfgmod._merge(cfgmod.resolve_config("heat-frac-s2"),
                            {"run": {"t_final": 0.05}})
        pr = cfgmod.build_problem(cfg)
        pr.profile_x = replace(pr.profile_x, alpha=0.5)
        with pytest.raises(ValidationError, match="smoothing"):
            convergence_study(cfgmod.build_plan(cfg), pr,
                              cfgmod.build_nonlinearity(cfg, pr),
                              cfgmod.build_initial(cfg, pr))

    def test_plan_built_in_code_takes_w_from_problem(self):
        # heat-frac-s2 is a W = X problem: its order is s - alpha = 2 - 1/4
        cfg = cfgmod._merge(cfgmod.resolve_config("heat-frac-s2"),
                            {"run": {"t_final": 0.05}})
        pr = cfgmod.build_problem(cfg)
        plan = StudyPlan(problem_id="heat-frac-s2", scheme=SchemeSpec.with_stages(2),
                         h_list=[1 / 40, 1 / 80], horizon=0.05)
        report = convergence_study(plan, pr, cfgmod.build_nonlinearity(cfg, pr),
                                   cfgmod.build_initial(cfg, pr))
        assert report.w_choice == "X"
        assert report.predicted_order == 1.75
        assert report.summary()["w_choice"] == "X"


class TestReport:
    def test_require_passed_raises_on_failure(self):
        report = ConvergenceReport(problem_id="x", passed=False,
                                   abort_reason="errors not strictly decreasing")
        with pytest.raises(StudyFailedError, match="strictly decreasing"):
            require_passed(report)

    def test_csv_lines_shape(self):
        report = ConvergenceReport(problem_id="x", s=2,
                                   h_list=[0.2, 0.1], n_list=[5, 10],
                                   errors=[1e-2, 2.5e-3], eoc=[2.0],
                                   bounds=[1.0, 0.5])
        lines = list(report.csv_lines())
        assert lines[0] == "h,N,error,eoc,bound"
        assert len(lines) == 3
        assert lines[2].startswith("0.1,10,2.5")

    def test_summary_round_trips_key_fields(self):
        report = ConvergenceReport(problem_id="x", s=3, median_eoc=2.9,
                                   predicted_order=3.0, passed=True)
        d = report.summary()
        assert d["problem"] == "x"
        assert d["stages"] == 3
        assert d["median_eoc"] == 2.9
        assert d["passed"] is True


@pytest.fixture
def ref_builds(monkeypatch):
    """Empties the reference memo and records every reference build."""
    builds = []
    build = harness.reference_solution

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(harness, "reference_solution", counted)
    harness._REFERENCE_MEMO.clear()
    yield builds
    harness._REFERENCE_MEMO.clear()


def short_heat_study(preset):
    """A shipped heat preset with its horizon and sweep cut short."""
    cfg = cfgmod._merge(cfgmod.resolve_config(preset),
                        {"run": {"t_final": 0.05},
                         "study": {"h_list": [1 / 40, 1 / 80]}})
    problem = cfgmod.build_problem(cfg)
    return (cfgmod.build_plan(cfg), problem, cfgmod.build_nonlinearity(cfg, problem),
            cfgmod.build_initial(cfg, problem))


def logistic_study(make_scalar):
    plan = StudyPlan(problem_id="scalar-logistic", scheme=SchemeSpec.with_stages(2),
                     h_list=[1 / 4, 1 / 8], horizon=0.5)
    return plan, make_scalar(lam=-1.0), PowerNonlinearity(alpha=2.0, coeff=1.0), \
        np.array([0.1])


def heat_study(n=16):
    pr = HeatTorusProblem(dim=1, n=n)
    plan = StudyPlan(problem_id="heat", scheme=SchemeSpec.with_stages(2),
                     h_list=[1 / 40, 1 / 80], horizon=0.05)
    return plan, pr, PowerNonlinearity(alpha=3.0, coeff=-1.0), np.sin(pr.grid())


def reassign_profile(plan, pr, g, u0):
    pr.profile_x = SmoothingProfile(c=2.0, alpha=0.0)
    return plan, pr, g, u0


# study inputs -> the same inputs with one change; heat studies start from
# heat_study(n=16), the others from logistic_study
MISSES = {
    "problem-lam": lambda plan, pr, g, u0: (plan, type(pr)(lam=-0.9), g, u0),
    "problem-n": lambda plan, pr, g, u0: heat_study(n=32),
    "profile_x-reassigned": reassign_profile,
    "nonlinearity-coeff": lambda plan, pr, g, u0: (
        plan, pr, PowerNonlinearity(alpha=2.0, coeff=0.9), u0),
    "u_0": lambda plan, pr, g, u0: (plan, pr, g, np.array([0.12])),
    "T": lambda plan, pr, g, u0: (replace(plan, horizon=0.25), pr, g, u0),
    "h_min": lambda plan, pr, g, u0: (
        replace(plan, h_list=[1 / 2, 1 / 4]), pr, g, u0),
    "seed": lambda plan, pr, g, u0: (replace(plan, seed=1), pr, g, u0),
}
HITS = {
    "scheme": lambda plan, pr, g, u0: (
        replace(plan, scheme=SchemeSpec.with_stages(1)), pr, g, u0),
    "eoc_tol": lambda plan, pr, g, u0: (replace(plan, eoc_tol=0.5), pr, g, u0),
}


class TestReferenceMemo:
    def test_hits_and_misses_give_identical_reports(self, ref_builds, make_scalar):
        studies = [short_heat_study("heat-cubic-s1"), short_heat_study("heat-cubic-s2"),
                   logistic_study(make_scalar), logistic_study(make_scalar)]
        cold = []
        for study in studies:
            harness._REFERENCE_MEMO.clear()
            cold.append(convergence_study(*study).summary())
        assert len(ref_builds) == 4
        warm = [convergence_study(*study).summary() for study in studies]
        assert len(ref_builds) == 4 + 2  # one per pair, not one per study
        for c, w in zip(cold, warm):
            assert json.dumps(c, sort_keys=True) == json.dumps(w, sort_keys=True)
        keys = [c["reference_key"] for c in cold]
        assert keys[0] == keys[1] and keys[2] == keys[3] and keys[1] != keys[2]
        assert all(len(k) == 16 for k in keys)

    @pytest.mark.parametrize("name", MISSES)
    def test_every_input_change_misses(self, ref_builds, make_scalar, name):
        study = heat_study(n=16) if name == "problem-n" else logistic_study(make_scalar)
        first = convergence_study(*study)
        second = convergence_study(*MISSES[name](*study))
        assert len(ref_builds) == 2
        assert first.reference_key != second.reference_key

    @pytest.mark.parametrize("change", HITS.values(), ids=HITS.keys())
    def test_scheme_and_tolerance_changes_hit(self, ref_builds, make_scalar, change):
        study = logistic_study(make_scalar)
        first = convergence_study(*study)
        second = convergence_study(*change(*study))
        assert len(ref_builds) == 1
        assert first.reference_key == second.reference_key

    def test_unhashable_input_bypasses_the_memo(self, ref_builds, make_scalar):
        plan, pr, g, u0 = logistic_study(make_scalar)
        pr.callback = lambda: None  # no content to key on
        first = convergence_study(plan, pr, g, u0)
        second = convergence_study(plan, pr, g, u0)
        assert len(ref_builds) == 2
        assert first.reference_key == second.reference_key == ""
        assert not harness._REFERENCE_MEMO

    def test_cached_reference_is_read_only(self, ref_builds, make_scalar):
        convergence_study(*logistic_study(make_scalar))
        ((ref, _, _),) = harness._REFERENCE_MEMO.values()
        with pytest.raises(ValueError):
            ref.states[-1][0] = 1.0
        with pytest.raises(ValueError):
            ref.times[0] = 1.0

    def test_failed_reference_is_not_stored(self, ref_builds, make_scalar):
        plan, pr, _, u0 = logistic_study(make_scalar)
        g = PowerNonlinearity(alpha=2.0, coeff=1e6)  # kappa >> 1 at h_ref
        for _ in range(2):
            with pytest.raises(ContractionError):
                convergence_study(plan, pr, g, u0)
        assert len(ref_builds) == 2
        assert not harness._REFERENCE_MEMO


def preset_study(preset, n_h=3):
    """A shipped study preset with its sweep cut to the n_h coarsest h."""
    cfg = cfgmod.resolve_config(preset)
    cfg["study"]["h_list"] = cfg["study"]["h_list"][:n_h]
    problem = cfgmod.build_problem(cfg)
    return (cfgmod.build_plan(cfg), problem, cfgmod.build_nonlinearity(cfg, problem),
            cfgmod.build_initial(cfg, problem))


class TestReferenceSelfCheck:
    def test_under_resolved_reference_is_rejected(self, ref_builds, monkeypatch):
        monkeypatch.setattr(harness, "REFERENCE_STAGES", 1)
        with pytest.raises(ValidationError, match="reference rejected"):
            convergence_study(*preset_study("heat-cubic-s2"))
        assert len(ref_builds) == 1

    def test_coarse_diff_bounds_the_fine_diff(self, ref_builds):
        plan, problem, g, u0 = preset_study("ou-cubic-s1")
        report = convergence_study(plan, problem, g, u0)
        ((_, _, _, T, h_ref, _, lipschitz),) = ref_builds
        ((ref, _, _),) = harness._REFERENCE_MEMO.values()
        # the fine check: a rerun at h_ref/2
        scheme = SchemeSpec.with_stages(harness.REFERENCE_STAGES)
        n_fine = 2 * round(T / h_ref)
        fine = run(u0, T, n_fine, scheme, problem, g, lipschitz,
                   store_stride=n_fine)
        fine_diff = problem.v_norm(ref.terminal - fine.states[-1])
        # below 1e-11 both diffs are rounding and their order says nothing
        assert fine_diff > 1e-11
        assert report.reference_check >= fine_diff
