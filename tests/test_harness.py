import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import ScalarProblem, random_state, src_env
from expsplit import config as cfgmod
from expsplit import harness
from expsplit.errors import ContractionError, StudyFailedError, ValidationError
from expsplit.harness import (ConvergenceReport, StudyPlan, convergence_study,
                              order_prediction, reference_solution,
                              require_passed)
from expsplit.integrator import SchemeSpec, run, run_windowed
from expsplit.nonlinearities import (AdvectionNonlinearity, PowerNonlinearity,
                                     WaveCubic, ZeroNonlinearity,
                                     estimate_lipschitz, stored_state)
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

    @pytest.mark.parametrize("tol", [math.nan, -0.5, 0.0, math.inf])
    def test_eoc_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValidationError, match="eoc_tol must be positive"):
            self.make_plan(eoc_tol=tol).validate()



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
        assert abs(ref.states[-1][0] - logistic_exact(0.1, 1.0)) < 1e-10
        # spot check an interior sample too
        mid = stored_state(ref.times, ref.states, 0.5)
        assert abs(mid[0] - logistic_exact(0.1, 0.5)) < 1e-10
        assert ref.self_check_diff < 1e-10

    def test_odd_step_count_checks_against_a_coarser_run(self):
        # a validated sweep makes T / h_min even, so an odd N only reaches
        # reference_solution directly: T / h_min = 3 with h_ref = h_min / 65;
        # OU has no diagonal flow, so its reference steps at h_ref itself
        pr = OUProblem(n=32)
        g = PowerNonlinearity(alpha=3.0, coeff=-1.0)
        u0 = 0.3 * random_state(pr, np.random.default_rng(5))
        T, h_min = 3 / 80, 1 / 80
        h_ref = h_min / 65
        n = round(T / h_ref)
        assert n % 2 == 1
        ref = reference_solution(pr, g, u0, T, h_ref, h_min, 1.0)
        scheme = SchemeSpec.with_stages(harness.REFERENCE_STAGES)
        stored = run(u0, T, n, scheme, pr, g, 1.0)
        coarse = run(u0, T, n // 2, scheme, pr, g, 1.0)  # step > 2 h_ref
        assert np.array_equal(ref.states[-1], stored.states[-1])
        assert ref.self_check_diff == pr.v_norm(ref.states[-1] - coarse.states[-1])
        assert ref.h_ref == T / n
        assert math.isfinite(ref.self_check_diff) and ref.self_check_diff > 0.0

    @pytest.mark.parametrize("name", ["heat", "ou"])  # windowed, stepped
    def test_one_step_reference_rejected(self, name):
        # one step leaves no run over half as many steps for the self-check
        problem = HeatTorusProblem(dim=1, n=64) if name == "heat" else OUProblem(n=32)
        u0 = 0.3 * random_state(problem, np.random.default_rng(3))
        T = 1 / 80
        with pytest.raises(ValidationError, match="half as many"):
            reference_solution(problem, PowerNonlinearity(3.0, -1.0), u0, T, T, T, 1.0)

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
        with pytest.raises(ValidationError, match="no reference state stored"):
            stored_state(ref.times, ref.states, 0.037)


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


def heat_benchmark_reference():
    """The study-heat-pair benchmark's reference inputs: heat-torus-1d with
    n = 64, T = 0.05, finest h 1/320, the study's bootstrap Lipschitz."""
    cfg = cfgmod.resolve_config("heat-torus-1d")
    problem = cfgmod.build_problem(cfg)
    g = cfgmod.build_nonlinearity(cfg, problem)
    u0 = np.asarray(cfgmod.build_initial(cfg, problem))
    T, h_min = 0.05, 1 / 320
    lip0 = estimate_lipschitz(g, problem, u0, 0.5 * max(problem.v_norm(u0), 1.0),
                              (0.0, T), n_samples=120,
                              rng=np.random.default_rng(cfg["seed"]))
    return problem, g, u0, T, h_min / harness.REF_FACTOR, h_min, lip0


@pytest.fixture
def rungs(monkeypatch):
    """Records (steps, status) of every run_windowed call of the harness."""
    calls = []
    solve = harness.run_windowed

    def counted(u_0, T, N, *args, **kwargs):
        rec = solve(u_0, T, N, *args, **kwargs)
        calls.append((N, rec.status))
        return rec

    monkeypatch.setattr(harness, "run_windowed", counted)
    return calls


class TestReferenceLadder:
    """A diagonal reference halves its step from sample_dt until its 2h
    diff is at most LADDER_TOL, never stepping finer than h_ref."""

    def test_stops_at_factor_four_on_the_benchmark_heat_setup(self, rungs):
        args = heat_benchmark_reference()
        T, h_min = args[3], args[5]
        ref = reference_solution(*args)
        assert rungs == [(16, "ok"), (32, "ok"), (64, "ok")]
        assert ref.h_ref == T / 64 == pytest.approx(h_min / 4)
        assert ref.self_check_diff <= harness.LADDER_TOL
        # the stored rung against an independent run at the same step
        scheme = SchemeSpec.with_stages(harness.REFERENCE_STAGES)
        stepped = run(args[2], T, 64, scheme, args[0], args[1], args[6],
                      store_stride=4)
        assert np.max(args[0].v_norm(ref.states - stepped.states)) <= 1e-12

    @pytest.mark.parametrize("cap", [8, 12])
    def test_never_steps_finer_than_the_cap(self, cap, rungs, make_scalar,
                                            monkeypatch):
        # a 1-stage reference never reaches LADDER_TOL: it climbs to the last
        # rung not finer than h_ref, h_min / 8 for both caps
        monkeypatch.setattr(harness, "REFERENCE_STAGES", 1)
        pr, g, u0 = make_scalar(lam=-1.0), PowerNonlinearity(2.0, 1.0), np.array([0.1])
        T, h_min = 0.5, 1 / 8
        ref = reference_solution(pr, g, u0, T, h_min / cap, h_min, 1.0)
        assert rungs == [(4, "ok"), (8, "ok"), (16, "ok"), (32, "ok")]
        assert ref.h_ref == T / 32
        scheme = SchemeSpec.with_stages(1)
        assert ref.self_check_diff == pr.v_norm(
            ref.states[-1] - run_windowed(u0, T, 16, scheme, pr, g, 1.0).states[-1])
        assert ref.self_check_diff > harness.LADDER_TOL

    def test_a_failed_rung_moves_on_to_the_next_finer_one(self, rungs, make_scalar):
        # kappa(h) = h * C_ell * s * L on the scalar problem: 1.5 at h_min,
        # 0.75 at h_min / 2; the rung after a failed one has no check
        pr, g, u0 = make_scalar(lam=-1.0), PowerNonlinearity(2.0, 1.0), np.array([0.1])
        T, h_min = 0.5, 1 / 8
        scheme = SchemeSpec.with_stages(harness.REFERENCE_STAGES)
        lip = 1.5 / (h_min * scheme.lag.c_ell * scheme.s)
        ref = reference_solution(pr, g, u0, T, h_min / 64, h_min, lip)
        assert rungs[:3] == [(4, "contraction"), (8, "ok"), (16, "ok")]
        assert all(status == "ok" for _, status in rungs[1:])
        steps = rungs[-1][0]
        assert ref.h_ref == T / steps
        checked = run_windowed(u0, T, steps // 2, scheme, pr, g, lip)
        assert ref.self_check_diff == pr.v_norm(ref.states[-1] - checked.states[-1])
        assert ref.self_check_diff <= harness.LADDER_TOL

    @pytest.mark.parametrize("failing", ["last", "before-last"])
    def test_a_failed_last_rung_or_check_raises(self, failing, rungs, make_scalar):
        # kappa is 1.5 at h_min / 4, the last rung, or at h_min / 2: then the
        # last rung has no check and reruns the failed one over N // 2 steps
        pr, g, u0 = make_scalar(lam=-1.0), PowerNonlinearity(2.0, 1.0), np.array([0.1])
        T, h_min = 0.5, 1 / 8
        scheme = SchemeSpec.with_stages(harness.REFERENCE_STAGES)
        h_fail = h_min / 4 if failing == "last" else h_min / 2
        lip = 1.5 / (h_fail * scheme.lag.c_ell * scheme.s)
        with pytest.raises(ContractionError):
            reference_solution(pr, g, u0, T, h_min / 4, h_min, lip)
        assert rungs == {"last": [(4, "contraction"), (8, "contraction"),
                                  (16, "contraction")],
                         "before-last": [(4, "contraction"), (8, "contraction"),
                                         (16, "ok"), (8, "contraction")]}[failing]

    def test_stepped_reference_is_a_direct_run_at_h_ref(self):
        pr = OUProblem(n=32)
        g = PowerNonlinearity(alpha=3.0, coeff=-1.0)
        u0 = 0.3 * random_state(pr, np.random.default_rng(5))
        T, h_min = 1 / 40, 1 / 80
        n = round(T / (h_min / harness.REF_FACTOR))
        ref = reference_solution(pr, g, u0, T, h_min / harness.REF_FACTOR, h_min, 1.0)
        scheme = SchemeSpec.with_stages(harness.REFERENCE_STAGES)
        stored = run(u0, T, n, scheme, pr, g, 1.0, store_stride=harness.REF_FACTOR)
        check = run(u0, T, n // 2, scheme, pr, g, 1.0, store_stride=n // 2)
        assert ref.states.dtype == stored.states.dtype
        assert np.array_equal(ref.states, stored.states)
        assert ref.self_check_diff == pr.v_norm(stored.states[-1] - check.states[-1])
        assert ref.h_ref == T / n

    def test_study_reports_where_the_reference_stopped(self, ref_builds, make_scalar):
        plan, pr, g, u0 = logistic_study(make_scalar)
        report = convergence_study(plan, pr, g, u0)
        ((ref, _, _),) = harness._REFERENCE_MEMO.values()
        assert report.reference_h == ref.h_ref > 0.0
        assert report.summary()["reference_h"] == report.reference_h
        linear = convergence_study(plan, pr, ZeroNonlinearity(), u0)
        assert linear.summary()["reference_h"] == 0.0


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


class SubclassedPower(PowerNonlinearity):
    """The same arguments in another class, whose eval may differ."""


# study inputs -> the same inputs with one change; heat studies start from
# heat_study(n=16), the others from logistic_study
MISSES = {
    "problem-lam": lambda plan, pr, g, u0: (plan, type(pr)(lam=-0.9), g, u0),
    "problem-n": lambda plan, pr, g, u0: heat_study(n=32),
    "profile_x-reassigned": reassign_profile,
    "nonlinearity-coeff": lambda plan, pr, g, u0: (
        plan, pr, PowerNonlinearity(alpha=2.0, coeff=0.9), u0),
    "nonlinearity-class": lambda plan, pr, g, u0: (
        plan, pr, SubclassedPower(alpha=2.0, coeff=1.0), u0),
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

    @pytest.mark.parametrize("name,value", [("STRIP_RADIUS_FRAC", 0.5),
                                            ("LADDER_TOL", 1e-10)])
    def test_module_constant_change_misses(self, ref_builds, make_scalar,
                                           monkeypatch, name, value):
        # the strip radius and the ladder's stop read these constants: a
        # study after either changes builds its own reference context
        study = logistic_study(make_scalar)
        first = convergence_study(*study)
        monkeypatch.setattr(harness, name, value)
        second = convergence_study(*study)
        assert len(ref_builds) == 2
        assert first.reference_key != second.reference_key

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


class UndeclaredProblem(ScalarProblem):
    """The scalar problem, declaring no inputs."""

    spec = None


class UndeclaredPower(PowerNonlinearity):
    """A power nonlinearity declaring no inputs."""

    spec = None


def study_key(plan, problem, g, u0):
    """The reference key of a study, from the inputs convergence_study
    passes: its horizon, finest h, h_min / REF_FACTOR and seed."""
    h_min = min(plan.h_list)
    return harness._reference_key(problem, g, u0, plan.horizon, h_min,
                                  h_min / harness.REF_FACTOR, plan.seed)


def shipped_pairs():
    """name -> (problem, nonlinearity) for every shipped problem class and
    every shipped nonlinearity, each on a small grid."""
    heat, wave = HeatTorusProblem(dim=1, n=16), WaveProblem(n_modes=8)
    return {"heat-power": (heat, PowerNonlinearity(3.0, -1.0)),
            "heat2d-power": (HeatTorusProblem(dim=2, n=8), PowerNonlinearity(3.0, -1.0)),
            "heat-zero": (heat, ZeroNonlinearity()),
            "heat-advection": (heat, AdvectionNonlinearity(heat)),
            "ou-power": (OUProblem(n=32), PowerNonlinearity(2.5, 0.5)),
            "wave-cubic": (wave, WaveCubic(wave))}


KEY_SCRIPT = """
from expsplit import config as cfgmod, harness
for name in sorted(cfgmod.STUDY_PRESETS):
    cfg = cfgmod.resolve_config(name)
    problem, plan = cfgmod.build_problem(cfg), cfgmod.build_plan(cfg)
    h_min = min(plan.h_list)
    print(name, harness._reference_key(
        problem, cfgmod.build_nonlinearity(cfg, problem),
        cfgmod.build_initial(cfg, problem), plan.horizon, h_min,
        h_min / harness.REF_FACTOR, plan.seed))
"""


def built_preset(name):
    cfg = cfgmod.resolve_config(name)
    problem = cfgmod.build_problem(cfg)
    return cfg, (cfgmod.build_plan(cfg), problem, cfgmod.build_nonlinearity(cfg, problem),
                 cfgmod.build_initial(cfg, problem))


class TestReferenceKey:
    def test_study_key_is_the_key_of_the_study(self, ref_builds, make_scalar):
        for study in (built_preset("heat-linear")[1], logistic_study(make_scalar)):
            assert convergence_study(*study).reference_key == study_key(*study)

    @pytest.mark.parametrize("name", shipped_pairs())
    def test_a_cache_attribute_keeps_the_key(self, name):
        problem, g = shipped_pairs()[name]
        plan = StudyPlan(problem_id=name, scheme=SchemeSpec.with_stages(2),
                         h_list=[1 / 40, 1 / 80], horizon=0.05)
        u0 = 0.3 * random_state(problem, np.random.default_rng(2))
        key = study_key(plan, problem, g, u0)
        for obj in (problem, g):
            obj.callback = lambda: None  # no content to key on
            obj._table = np.arange(3.0)
        assert len(key) == 16
        assert study_key(plan, problem, g, u0) == key

    @pytest.mark.parametrize("undeclared", ["problem", "nonlinearity"])
    def test_an_undeclared_class_bypasses_the_memo(self, ref_builds, make_scalar,
                                                   undeclared):
        plan, pr, g, u0 = logistic_study(make_scalar)
        if undeclared == "problem":
            pr = UndeclaredProblem(lam=-1.0)
        else:
            g = UndeclaredPower(alpha=2.0, coeff=1.0)
        first = convergence_study(plan, pr, g, u0)
        second = convergence_study(plan, pr, g, u0)
        assert len(ref_builds) == 2
        assert first.reference_key == second.reference_key == ""
        assert not harness._REFERENCE_MEMO
        declared = convergence_study(*logistic_study(make_scalar))
        assert declared.summary() | {"reference_key": ""} == first.summary()

    def test_wave_cubic_of_another_alpha_w_misses(self):
        wave, other = WaveProblem(n_modes=8), WaveProblem(n_modes=8, alpha_w=2.0)
        plan = StudyPlan(problem_id="wave", scheme=SchemeSpec.with_stages(2),
                         h_list=[1 / 20, 1 / 40], horizon=0.1)
        u0 = wave.encode(0.1 * np.sin(wave.x), np.zeros(8))
        keys = {study_key(plan, wave, WaveCubic(p), u0) for p in (wave, other)}
        keys.add(study_key(plan, other, WaveCubic(other), u0))
        assert len(keys) == 3

    @pytest.mark.parametrize("name", sorted(cfgmod.STUDY_PRESETS))
    def test_every_preset_spec_rebuilds_its_study(self, name):
        cfg, (plan, problem, g, u0) = built_preset(name)
        assert problem.spec == cfg["problem"]
        assert {k: v for k, v in g.spec.items() if k != "problem"} == cfg["nonlinearity"]
        rebuilt = cfgmod.build_problem({"problem": problem.spec})
        g_rebuilt = cfgmod.build_nonlinearity({"nonlinearity": g.spec}, rebuilt)
        assert (rebuilt.spec, g_rebuilt.spec) == (problem.spec, g.spec)
        assert study_key(plan, rebuilt, g_rebuilt, u0) == study_key(plan, problem, g, u0)

    def test_numpy_integers_declare_plain_values(self):
        heat = HeatTorusProblem(dim=np.int64(1), n=np.int64(16))
        assert json.loads(json.dumps(heat.spec)) == HeatTorusProblem(dim=1, n=16).spec

    def test_preset_keys_are_the_same_in_every_process(self):
        outputs = [subprocess.run([sys.executable, "-c", KEY_SCRIPT], check=True,
                                  capture_output=True, text=True,
                                  env=src_env(PYTHONHASHSEED=seed)).stdout
                   for seed in ("1", "2")]
        here = "".join(f"{name} {study_key(*built_preset(name)[1])}\n"
                       for name in sorted(cfgmod.STUDY_PRESETS))
        assert outputs == [here, here]
        assert len(set(here.split()[1::2])) == 5  # heat-cubic-s1 and -s2 share one


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
        fine_diff = problem.v_norm(ref.states[-1] - fine.states[-1])
        # below 1e-11 both diffs are rounding and their order says nothing
        assert fine_diff > 1e-11
        assert report.reference_check >= fine_diff


# the step sweep of the study-heat-pair benchmark workload
HEAT_PAIR_H = [1 / 40, 1 / 80, 1 / 160, 1 / 320]


@pytest.fixture
def narrow_strip(ref_builds, monkeypatch):
    """A strip radius of 1e-9 times the reference's largest V-norm; the
    memo, whose contexts keep their radius, is empty before and after."""
    monkeypatch.setattr(harness, "STRIP_RADIUS_FRAC", 1e-9)


class TestStripVerdict:
    def test_a_sweep_outside_the_strip_fails_the_study(self, narrow_strip):
        plan, problem, g, u0 = short_heat_study("heat-cubic-s2")
        report = convergence_study(replace(plan, h_list=HEAT_PAIR_H), problem, g, u0)
        assert not report.passed
        assert report.abort_reason == (
            "strip: trajectory left the strip at t=0.025: "
            "distance 1.421e-05 > radius 9.708e-10")
        assert report.errors == report.kappa == report.bounds == []

    @pytest.mark.parametrize("nan_after,first", [(0.03, "strip"),
                                                 (0.0, "divergence")])
    def test_the_first_event_of_a_sweep_run_decides(self, narrow_strip,
                                                    monkeypatch, nan_after, first):
        # every sweep step leaves the narrow strip, and a sweep run diverges
        # at its first step with a stage time past nan_after: the second
        # step (t = 0.025 to 0.05) of the first run, or its first step
        plan, problem, g, u0 = heat_study()
        stepper = harness.run

        class NanLate:
            def eval(self, t, v):
                out = g.eval(t, v)
                return np.full_like(out, np.nan) if np.max(t) > nan_after else out

        def nan_late_run(u_0, T, N, scheme, problem, g, *args, **kwargs):
            return stepper(u_0, T, N, scheme, problem, NanLate(), *args, **kwargs)

        monkeypatch.setattr(harness, "run", nan_late_run)
        report = convergence_study(plan, problem, g, u0)
        assert not report.passed
        assert report.abort_reason.startswith({
            "strip": "strip: trajectory left the strip at t=0.025: ",
            "divergence": "divergence: stage iteration diverged at t=0 "}[first])
