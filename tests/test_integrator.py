import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScalarProblem, random_state
from expsplit import config as cfgmod
from expsplit.errors import (ContractionError, FixedPointDivergenceError,
                             ValidationError)
from expsplit.harness import reference_solution
from expsplit.integrator import (FP_MAX_ITER, WINDOW_MAX, SchemeSpec, StageInfo,
                                 contraction_certificate, internal_stages,
                                 plan_step, run, run_windowed, step)
from expsplit.lagrange import NodeSet
from expsplit.nonlinearities import PowerNonlinearity, WaveCubic, ZeroNonlinearity
from expsplit.phi import phi
from expsplit.propagators import HeatTorusProblem, OUProblem, WaveProblem


# name -> (preset, problem overrides) of a grid whose ops stay modal
MODAL_GRIDS = {
    "heat-1d-n128": ("heat-frac-s2", {"n": 128}),
    "heat-2d-n16": ("heat-torus-2d", {"n": 16}),
    "heat-2d-n128": ("heat-torus-2d", {"n": 128}),
    "wave-32modes": ("wave-dirichlet-1d", {"n_modes": 32}),
}


def eager_stages(u_n, t_n, g, plan, start=None):
    """Reference copy of the stage solve that works on the whole stage
    stack: it norms the anchors up front on every call, so the stage-scale
    floors are set before the first iteration, and every iteration
    evaluates g on all s rows and takes the increments of all of them.
    The anchors are one-time flows of u_n, stage 1 u_n itself when c_1 = 0;
    start and the correction hold the unknown rows, from plan.fixed on."""
    propagator, kappa, tol, fixed = plan.propagator, plan.kappa, plan.tol, plan.fixed
    times = t_n + plan.offsets
    base = np.stack([propagator.apply(t, u_n) for t in plan.offsets])
    stages = base.copy()
    if start is not None:
        stages[fixed:] += start
    info = StageInfo()
    scale = max(float(np.max(propagator.v_norm(base))), 1.0)
    tol = max(tol, 1e-14 * scale)
    ratio_floor = max(1e3 * tol, 1e-11 * scale)
    prev_inc = None
    for it in range(1, FP_MAX_ITER + 1):
        G = g.eval(times, stages)
        new_stages = base.copy()
        if fixed < plan.s:
            info.correction = propagator.convolve_modes(
                plan.stage_rows, propagator.stage_modes(G))
            new_stages[fixed:] += info.correction
        else:
            info.correction = base[:0]
        inc = float(np.max(propagator.v_norm(new_stages - stages)))
        stages = new_stages
        info.iterations = it
        info.increment = inc
        if prev_inc is not None and prev_inc > ratio_floor:
            info.contraction_ratios.append(inc / prev_inc)
        prev_inc = inc
        if not np.isfinite(inc):
            raise FixedPointDivergenceError("non-finite increment")
        if inc <= tol or inc * kappa <= tol * (1.0 - kappa):
            break
    else:
        raise FixedPointDivergenceError(f"did not reach tol={tol:.1e}")
    info.residual_bound = inc * kappa / (1.0 - kappa)
    return stages, info


def eager_step(u_n, t_n, g, plan, start=None):
    """Reference copy of a step that evaluates g on the whole stage stack
    and transforms all of it in every iteration and in the update."""
    stages, info = eager_stages(u_n, t_n, g, plan, start)
    propagator = plan.propagator
    flow_end = propagator.apply_nodes(plan.node_flow, u_n)[-1]
    G = g.eval(t_n + plan.offsets, stages)
    (conv,) = propagator.convolve_modes(plan.update_row, propagator.stage_modes(G))
    return flow_end + conv, info


def certificate(problem, scheme, lipschitz, h):
    """kappa(h) = Omega(h) * C_ell * s * L with L floored at 1e-12."""
    return (problem.profile_x.omega(h) * scheme.lag.c_ell * scheme.s
            * max(lipschitz, 1e-12))


GAUSS2 = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)

# name -> problem factory of the end-row and stage-scale tests
STEP_PROBLEMS = {
    "heat-1d": lambda: HeatTorusProblem(dim=1, n=64),
    "heat-1d-n128": lambda: HeatTorusProblem(dim=1, n=128),
    "heat-2d": lambda: HeatTorusProblem(dim=2, n=16),
    "ou": lambda: OUProblem(n=128),
    "wave": lambda: WaveProblem(n_modes=16),
}

# name -> scheme: the shipped node sets, whose last node is 1 for s >= 2,
# and two user node sets, without 1 (Gauss-Legendre) and with it
END_ROW_SCHEMES = {
    **{f"s{s}": SchemeSpec.with_stages(s) for s in range(1, 5)},
    "gauss2": SchemeSpec.with_nodes(GAUSS2),
    "third-one": SchemeSpec.with_nodes((1 / 3, 1.0)),
}


class TestInternalStages:
    def test_zero_nonlinearity_fixed_in_one_iteration(self, rng):
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(3)
        u = random_state(hp, rng)
        stages, info = internal_stages(u, 0.0, ZeroNonlinearity(),
                                       plan_step(0.01, scheme, hp, 1e-12))
        assert info.iterations == 1
        for c, st in zip(scheme.nodes.nodes, stages):
            assert hp.v_norm(st - hp.apply(c * 0.01, u)) < 1e-14

    def test_left_endpoint_stage_is_u_n(self, rng):
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(1)  # single node c_1 = 0
        g = PowerNonlinearity(alpha=3.0, coeff=-1.0)
        u = 0.3 * random_state(hp, rng)
        stages, info = internal_stages(u, 0.0, g, plan_step(0.01, scheme, hp, 3.0))
        # the c = 0 anchor is u_n up to an FFT round trip
        assert hp.v_norm(stages[0] - u) < 1e-15

    @pytest.mark.parametrize("case", sorted(MODAL_GRIDS))
    def test_left_endpoint_stage_is_u_n_exactly_on_modal_grids(self, case):
        preset, over = MODAL_GRIDS[case]
        cfg = cfgmod.resolve_config(preset)
        cfg["problem"].update(over)
        pr = cfgmod.build_problem(cfg)
        g = cfgmod.build_nonlinearity(cfg, pr)
        u = np.asarray(cfgmod.build_initial(cfg, pr))
        h = 1e-3
        # the flow op holds the unknown stages' times alone and takes one state
        with pytest.raises(ValidationError):
            pr.apply_nodes(pr.flow_op((0.5 * h, h)), np.stack([u, 2.0 * u]))
        for s in (1, 2, 3, 4):
            stages, _ = internal_stages(u, 0.0, g,
                                        plan_step(h, SchemeSpec.with_stages(s), pr, 3.0))
            assert np.array_equal(stages[0], u)

    def test_contraction_ratios_below_kappa(self, rng):
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(2)
        g = PowerNonlinearity(alpha=3.0, coeff=-1.0)
        lip = 3.0
        u = 0.5 * np.sin(hp.grid())
        h = 1e-3
        plan = replace(plan_step(h, scheme, hp, lip), tol=1e-15)
        _, info = internal_stages(u, 0.0, g, plan)
        kappa = certificate(hp, scheme, lip, h)
        assert plan.kappa == kappa
        for r in info.contraction_ratios:
            assert r <= kappa

    def test_kappa_at_least_one_aborts(self):
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(2)
        with pytest.raises(ContractionError):
            internal_stages(np.zeros(64), 0.0, ZeroNonlinearity(),
                            plan_step(0.5, scheme, hp, 50.0))

    def test_divergence_detected(self):
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(2)

        class Exploder(ZeroNonlinearity):
            def eval(self, t, v):
                return np.full_like(np.asarray(v), np.nan)

        with pytest.raises(FixedPointDivergenceError):
            internal_stages(np.ones(64), 0.0, Exploder(),
                            plan_step(0.1, scheme, hp, 0.5))


class TestStep:
    def test_linear_step_is_pure_flow(self, rng):
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(2)
        u = random_state(hp, rng)
        u1, _ = step(u, 0.0, ZeroNonlinearity(), plan_step(0.05, scheme, hp, 1e-12))
        assert hp.v_norm(u1 - hp.apply(0.05, u)) < 1e-13

    @pytest.mark.parametrize("scheme_name", sorted(END_ROW_SCHEMES))
    @pytest.mark.parametrize("name", sorted(STEP_PROBLEMS))
    def test_linear_step_is_the_flow_bit_for_bit(self, name, scheme_name, rng):
        # e^{hA} u_n is the last row of the anchor flow: the anchor of stage
        # s when c_s = 1, an extra row at h otherwise
        problem = STEP_PROBLEMS[name]()
        scheme = END_ROW_SCHEMES[scheme_name]
        h = 0.01
        plan = plan_step(h, scheme, problem, 1e-12)
        u = random_state(problem, rng)
        u1, _ = step(u, 0.0, ZeroNonlinearity(), plan)
        assert np.array_equal(u1, problem.apply(h, u))

    def test_s1_equals_independent_exponential_euler(self, rng):
        # independent oracle: u1 = e^{hA} u + h phi_1(hA) g(t, u) per mode
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(1)
        g = PowerNonlinearity(alpha=3.0, coeff=-1.0)
        u = 0.4 * np.sin(hp.grid()) + 0.1
        h = 0.02
        u1, _ = step(u, 0.0, g, plan_step(h, scheme, hp, 3.0))
        lam = -np.fft.fftfreq(64, d=1.0 / 64) ** 2  # heat eigenvalues, full spectrum
        gh = np.fft.fft(g.eval(0.0, u))
        uh = np.fft.fft(u)
        phi1 = np.array([phi(1, h * complex(l)) for l in lam])
        ref = np.fft.ifft(np.exp(h * lam) * uh + h * phi1 * gh).real
        assert hp.v_norm(u1 - ref) < 1e-12

    def test_one_step_scalar_ode_order(self, make_scalar):
        # u' = -u + u^2, brute-force fine integration as the oracle
        pr = make_scalar(lam=-1.0)
        g = PowerNonlinearity(alpha=2.0, coeff=1.0)
        scheme = SchemeSpec.with_stages(1)
        u0 = np.array([0.1])
        h = 1e-3
        u1, _ = step(u0, 0.0, g, plan_step(h, scheme, pr, 1.0))
        n_fine = 10 ** 6
        dt = h / n_fine
        u = 0.1
        for _ in range(n_fine):
            u += dt * (-u + u * u)
        assert abs(u1[0] - u) < 5.0 * h ** 2


class TestRun:
    def test_zero_steps_returns_initial_only(self):
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(1)
        rec = run(np.ones(64), 1.0, 0, scheme, hp, ZeroNonlinearity(), 1e-12)
        assert len(rec.states) == 1
        assert rec.times == [0.0]

    def test_negative_steps_rejected(self):
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(1)
        with pytest.raises(ValidationError):
            run(np.ones(64), 1.0, -1, scheme, hp, ZeroNonlinearity(), 1e-12)

    def test_linear_run_matches_single_apply(self, rng):
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(2)
        u = random_state(hp, rng)
        rec = run(u, 0.5, 100, scheme, hp, ZeroNonlinearity(), 1e-12)
        rec.raise_if_failed()
        assert hp.v_norm(rec.states[-1] - hp.apply(0.5, u)) < 1e-11

    def test_monotone_error_decay_under_halving(self):
        hp = HeatTorusProblem(dim=1, n=32)
        scheme = SchemeSpec.with_stages(2)
        g = PowerNonlinearity(alpha=3.0, coeff=-1.0)
        lip = 3.0
        u = 0.5 * np.sin(hp.grid())
        ref = run(u, 0.25, 3200, scheme, hp, g, lip)
        ref.raise_if_failed()
        errs = []
        for n in (25, 50, 100, 200, 400):
            rec = run(u, 0.25, n, scheme, hp, g, lip)
            rec.raise_if_failed()
            errs.append(hp.v_norm(rec.states[-1] - ref.states[-1]))
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_contraction_abort_recorded_not_raised(self):
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(2)
        rec = run(np.ones(64), 1.0, 1, scheme, hp, ZeroNonlinearity(), 50.0)
        assert rec.status == "contraction"
        assert "kappa" in rec.error
        with pytest.raises(ContractionError):
            rec.raise_if_failed()

    def test_store_stride_keeps_endpoints(self, rng):
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(1)
        u = random_state(hp, rng)
        rec = run(u, 1.0, 10, scheme, hp, ZeroNonlinearity(), 1e-12,
                  store_stride=4)
        assert rec.times[0] == 0.0
        assert rec.times[-1] == pytest.approx(1.0)
        assert len(rec.times) == 4  # t = 0, 0.4, 0.8, 1.0

    def test_states_are_one_array_of_the_stored_steps(self):
        hp = HeatTorusProblem(dim=1, n=32)
        g = PowerNonlinearity(alpha=3.0, coeff=-1.0)
        rec = run(0.5 * np.sin(hp.grid()), 0.25, 10, SchemeSpec.with_stages(2),
                  hp, g, 3.0, store_stride=3)
        assert np.array_equal(rec.steps, [0, 3, 6, 9, 10])
        assert isinstance(rec.states, np.ndarray)
        assert rec.states.shape == (5, 32)
        assert np.array_equal(rec.times, rec.steps * 0.025)

    # a run's one abort after its first step; the strip is a study verdict.
    # With s = 2 step 8 (t = 0.175) evaluates g past t = 0.18 at its second
    # stage and fails.  An s = 1 run evaluates g at t_n alone: step 9 (t =
    # 0.2) sees g(t_n, u_n) non-finite and fails before it makes u_9
    @pytest.mark.parametrize("abort,name,s,failure_step,kept", [
        pytest.param("divergence", "heat", 2, 7, [0, 3, 6], id="divergence"),
        pytest.param("divergence", "heat", 1, 8, [0, 3, 6], id="divergence-s1-heat"),
        pytest.param("divergence", "ou", 1, 8, [0, 3, 6], id="divergence-s1-ou"),
    ])
    def test_abort_keeps_exactly_the_rows_reached(self, abort, name, s, failure_step,
                                                  kept):
        # the steps before the failing one run as in a clean run
        if name == "heat":  # folded
            pr = HeatTorusProblem(dim=1, n=32)
            u = 0.5 * np.sin(pr.grid())
        else:
            pr = OUProblem(n=128)
            u = 0.5 * np.exp(-pr.x ** 2)
        scheme = SchemeSpec.with_stages(s)
        g = PowerNonlinearity(alpha=3.0, coeff=-1.0)
        clean = run(u, 0.25, 10, scheme, pr, g, 3.0, store_stride=3)

        class NanLate(PowerNonlinearity):
            def eval(self, t, v):
                out = super().eval(t, v)
                return np.full_like(out, np.nan) if np.max(t) > 0.18 else out

        with np.errstate(invalid="ignore"):
            rec = run(u, 0.25, 10, scheme, pr, NanLate(3.0, coeff=-1.0), 3.0,
                      store_stride=3)
        assert (rec.status, rec.failure_step) == (abort, failure_step)
        assert f"t={failure_step * 0.025:.6g} (non-finite increment)" in rec.error
        assert np.array_equal(rec.steps, kept)
        assert np.array_equal(rec.times, clean.times[:len(kept)])
        assert rec.states.shape == (len(kept),) + pr.shape
        assert np.array_equal(rec.states, clean.states[:len(kept)])

    def test_trace_rows_align_with_stored_steps(self):
        hp = HeatTorusProblem(dim=1, n=32)
        scheme = SchemeSpec.with_stages(2)
        g = PowerNonlinearity(alpha=3.0, coeff=-1.0)
        rec = run(0.5 * np.sin(hp.grid()), 0.25, 10, scheme, hp, g, 3.0,
                  store_stride=4)
        rows = [line.split() for line in rec.text_lines()][1:]
        assert [int(r[0]) for r in rows] == [0, 4, 8, 10]
        # the initial state took no iterations; each later row shows the
        # count of the step that produced it
        expected = [0] + [rec.stage_iterations[n - 1] for n in (4, 8, 10)]
        assert [int(r[2]) for r in rows] == expected

    def test_summary_fields(self, rng):
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(2)
        g = PowerNonlinearity(alpha=3.0, coeff=-1.0)
        lip = 3.0
        rec = run(0.3 * np.sin(hp.grid()), 0.1, 10, scheme, hp, g, lip)
        s = rec.summary()
        assert s["status"] == "ok"
        assert s["steps"] == 10
        assert s["kappa"] == pytest.approx(certificate(hp, scheme, lip, 0.01))

    def test_summary_mean_stage_iterations(self, rng):
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(2)
        g = PowerNonlinearity(alpha=3.0, coeff=-1.0)
        lip = 3.0
        rec = run(0.3 * np.sin(hp.grid()), 0.1, 10, scheme, hp, g, lip)
        s = rec.summary()
        assert s["mean_stage_iterations"] == pytest.approx(
            np.mean(rec.stage_iterations))
        assert 1.0 <= s["mean_stage_iterations"] <= s["max_stage_iterations"]
        empty = run(np.ones(64), 1.0, 0, scheme, hp, g, lip).summary()
        assert empty["mean_stage_iterations"] == 0.0

    @pytest.mark.parametrize("name", ["heat-1d", "heat-2d", "ou", "wave"])
    def test_run_leaves_problem_unchanged(self, name, rng):
        # a run builds its operators once; nothing accumulates on the problem
        problem = {"heat-1d": lambda: HeatTorusProblem(dim=1, n=64),
                   "heat-2d": lambda: HeatTorusProblem(dim=2, n=16),
                   "ou": lambda: OUProblem(n=128),
                   "wave": lambda: WaveProblem(n_modes=16)}[name]()
        g = WaveCubic(problem) if name == "wave" else PowerNonlinearity(3.0, -1.0)

        def footprint():
            return {key: (type(v), np.shape(v) if isinstance(v, np.ndarray) else
                          len(v) if isinstance(v, (list, tuple, dict)) else None)
                    for key, v in vars(problem).items()}

        before = footprint()
        scheme = SchemeSpec.with_stages(2)
        u = 0.3 * random_state(problem, rng)
        rec = run(u, 0.5, 50, scheme, problem, g, 3.0)
        rec.raise_if_failed()
        assert len(rec.stage_iterations) == 50
        assert footprint() == before


# name -> (problem factory, stages, T, N)
WARM_CASES = {
    "heat-1d-s4": (lambda: HeatTorusProblem(dim=1, n=64), 4, 0.05, 40),
    "heat-2d-s2": (lambda: HeatTorusProblem(dim=2, n=16), 2, 0.1, 40),
    "ou-s4": (lambda: OUProblem(n=128), 4, 0.05, 40),
    "wave-s2": (lambda: WaveProblem(n_modes=16), 2, 0.25, 40),
    "wave-s4": (lambda: WaveProblem(n_modes=16), 4, 0.25, 40),
}


# name -> problem of the arbitrary-start property test
START_PROBLEMS = {
    "heat-1d": HeatTorusProblem(dim=1, n=64),
    "ou": OUProblem(n=128),
    "wave": WaveProblem(n_modes=16),
}


class TestWarmStart:
    """run starts each stage iteration from the polynomial extrapolation of
    the last k <= 4 corrections: the anchor on step 1, c_1 on step 2,
    2 c_2 - c_1 on step 3, the quadratic on step 4 and the cubic
    4 c_n - 6 c_{n-1} + 4 c_{n-2} - c_{n-3} from step 5 on."""

    @staticmethod
    def make_case(name, rng):
        make, s, T, N = WARM_CASES[name]
        problem = make()
        g = WaveCubic(problem) if name.startswith("wave") \
            else PowerNonlinearity(3.0, -1.0)
        scheme = SchemeSpec.with_stages(s)
        lip = 3.0
        u = 0.3 * random_state(problem, rng)
        return problem, g, scheme, lip, u, T, N

    @staticmethod
    def cold_steps(u, T, N, scheme, problem, g, lip):
        """States and iteration counts of N steps, each started cold."""
        plan = plan_step(T / N, scheme, problem, lip)
        states, iterations = [u], []
        for n in range(N):
            u, info = step(u, n * (T / N), g, plan)
            states.append(u)
            iterations.append(info.iterations)
        return states, iterations

    @pytest.mark.parametrize("name", sorted(WARM_CASES))
    def test_warm_run_matches_cold_steps(self, name, rng):
        problem, g, scheme, lip, u, T, N = self.make_case(name, rng)
        rec = run(u, T, N, scheme, problem, g, lip)
        rec.raise_if_failed()
        cold, iterations = self.cold_steps(u, T, N, scheme, problem, g, lip)
        for n, state in zip(rec.steps, rec.states):
            assert problem.v_norm(state - cold[n]) <= 1e-12
        assert rec.stage_iterations[0] == iterations[0]
        assert sum(rec.stage_iterations) <= sum(iterations)

    def test_warm_start_saves_iterations(self, rng):
        # on a fine step the previous correction is a close start
        problem, g, scheme, lip, u, T, N = self.make_case("heat-1d-s4", rng)
        rec = run(u, T, N, scheme, problem, g, lip)
        _, iterations = self.cold_steps(u, T, N, scheme, problem, g, lip)
        assert sum(rec.stage_iterations) < sum(iterations)

    @staticmethod
    def line_started_iterations(u, T, N, scheme, problem, g, lip, points):
        """Iteration counts of N steps, each started from the previous
        step's correction alone (points = 1) or from the line through the
        last two, 2 c_n - c_{n-1} (points = 2; c_1 alone on step 2)."""
        plan = plan_step(T / N, scheme, problem, lip)
        previous = correction = None
        iterations = []
        for n in range(N):
            start = correction if points == 1 or previous is None \
                else 2.0 * correction - previous
            u, info = step(u, n * (T / N), g, plan, start)
            previous, correction = correction, info.correction
            iterations.append(info.iterations)
        return iterations

    @pytest.mark.parametrize("name", sorted(WARM_CASES))
    def test_extrapolated_start_saves_iterations(self, name, rng):
        # the cubic through the last four corrections is closer to the next
        # step's correction than c_n; on the heat cases that saves
        # iterations, on the others both starts stop after the same count
        problem, g, scheme, lip, u, T, N = self.make_case(name, rng)
        rec = run(u, T, N, scheme, problem, g, lip)
        rec.raise_if_failed()
        one_point = self.line_started_iterations(u, T, N, scheme, problem, g,
                                                 lip, points=1)
        assert rec.stage_iterations[:2] == one_point[:2]
        if name in ("heat-1d-s4", "heat-2d-s2"):
            assert sum(rec.stage_iterations) < sum(one_point)
        else:
            assert sum(rec.stage_iterations) <= sum(one_point)

    @pytest.mark.parametrize("name", sorted(WARM_CASES))
    def test_cubic_start_saves_iterations_over_the_line(self, name, rng):
        # 2 c_n - c_{n-1} is O(h^3) from the next correction, the cubic
        # O(h^5): on every case the cubic stops earlier in total
        problem, g, scheme, lip, u, T, N = self.make_case(name, rng)
        rec = run(u, T, N, scheme, problem, g, lip)
        rec.raise_if_failed()
        line = self.line_started_iterations(u, T, N, scheme, problem, g, lip,
                                            points=2)
        assert rec.stage_iterations[:3] == line[:3]
        assert sum(rec.stage_iterations) < sum(line)

    @pytest.mark.parametrize("name", sorted(WARM_CASES))
    def test_first_three_steps_keep_the_line_starts(self, name, rng):
        # with one and two corrections the polynomial is c_1 and 2 c_2 - c_1,
        # bit for bit
        problem, g, scheme, lip, u, T, N = self.make_case(name, rng)
        rec = run(u, T, N, scheme, problem, g, lip)
        rec.raise_if_failed()
        plan = plan_step(T / N, scheme, problem, lip)
        h = T / N
        u1, first = step(u, 0.0, g, plan)
        u2, second = step(u1, h, g, plan, first.correction)
        u3, _ = step(u2, 2 * h, g, plan, 2.0 * second.correction - first.correction)
        for n, expected in enumerate((u1, u2, u3), start=1):
            assert np.array_equal(rec.states[n], expected)

    def test_ou_reference_steps_once_from_the_fifth(self):
        # the study-ou reference: ou-1d at n = 256, s = 4 and h = 1/5120
        cfg = cfgmod.resolve_config("ou-1d")
        cfg["problem"]["n"] = 256
        problem = cfgmod.build_problem(cfg)
        g = cfgmod.build_nonlinearity(cfg, problem)
        u0 = cfgmod.build_initial(cfg, problem)
        N = 40
        rec = run(u0, N / 5120, N, SchemeSpec.with_stages(4), problem, g, 3.0)
        rec.raise_if_failed()
        assert rec.stage_iterations[4:] == [1] * (N - 4)

    @given(st.sampled_from(sorted(START_PROBLEMS)), st.integers(1, 4),
           st.floats(-16.0, math.log2(1 / 20)), st.floats(-50.0, 50.0),
           st.floats(-50.0, 50.0), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_any_start_reaches_cold_stages(self, name, s, log2_h, a, b, seed):
        # h spans the presets' steps, from 1/20 down past the reference
        # step 1/640 / 64; the start a c + b c' mixes
        # the cold corrections of two consecutive steps
        problem = START_PROBLEMS[name]
        g = WaveCubic(problem) if name == "wave" else PowerNonlinearity(3.0, -1.0)
        scheme = SchemeSpec.with_stages(s)
        h = 2.0 ** log2_h
        plan = plan_step(h, scheme, problem, 3.0)
        u = 0.3 * random_state(problem, np.random.default_rng(seed))
        u1, first = step(u, 0.0, g, plan)
        cold, cold_info = internal_stages(u1, h, g, plan)
        start = a * cold_info.correction + b * first.correction
        warm, info = internal_stages(u1, h, g, plan, start)
        gap = np.max(problem.v_norm(warm - cold))
        assert gap <= cold_info.residual_bound + info.residual_bound

    @pytest.mark.parametrize("scale", [-1.0, 5.0, 50.0])
    def test_poor_start_reaches_same_stages(self, scale, rng):
        # the stopping rule bounds the distance to the fixed point from any
        # start in the ball: both solves land within their residual bounds
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(2)
        g = PowerNonlinearity(alpha=3.0, coeff=-1.0)
        plan = plan_step(0.01, scheme, hp, 3.0)
        u = 0.5 * np.sin(hp.grid())
        cold, cold_info = internal_stages(u, 0.0, g, plan)
        poor, info = internal_stages(u, 0.0, g, plan, scale * cold_info.correction)
        assert info.iterations >= cold_info.iterations
        gap = np.max(hp.v_norm(poor - cold))
        assert gap <= cold_info.residual_bound + info.residual_bound


class TestStageScale:
    """The stopping tolerance and the ratio floor grow with the stage scale
    max(v_norm(anchor), 1).  internal_stages tries both tests at scale 1,
    where the floors are lowest, and norms the anchor only when a test is
    left open there, so it decides as if it had normed it up front."""

    def test_stack_is_normed_only_when_a_test_stays_open(self, rng):
        # a warm heat run at about the reference step of the heat presets;
        # the anchor's V-norm stays below 1, so the scaled floors are those
        # of scale 1: a solve that stops in one iteration makes one v_norm
        # call, its increment's, and a longer solve norms the anchor once
        problem, g, scheme, lip, u, _, _ = TestWarmStart.make_case("heat-1d-s4", rng)
        assert problem.v_norm(u) <= 1.0
        calls = []
        v_norm = problem.v_norm

        def counted(v):
            calls.append(len(v))
            return v_norm(v)

        problem.v_norm = counted
        rec = run(u, 0.002, 40, scheme, problem, g, lip)
        rec.raise_if_failed()
        iterations = rec.stage_iterations
        longer = sum(1 for it in iterations if it > 1)
        assert len(calls) == sum(iterations) + longer
        # most solves stop in one iteration; an eager norm would add 40
        assert longer < len(iterations) // 2

    def test_large_stages_stop_at_the_scaled_floor(self, rng):
        # at V-norm 1e3 and h = 1e-5, h^(s+1) and the floor of scale 1 lie
        # below the rounding of the stages: only the scaled tolerance stops
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(2)
        g = PowerNonlinearity(alpha=3.0, coeff=-1e-6)
        plan = plan_step(1e-5, scheme, hp, 3.0)
        v = random_state(hp, rng)
        u = 1e3 / hp.v_norm(v) * v
        stages, info = internal_stages(u, 0.0, g, plan)
        ref, ref_info = eager_stages(u, 0.0, g, plan)
        assert np.array_equal(stages, ref)
        assert info.iterations == ref_info.iterations
        assert info.increment == ref_info.increment
        # the last increment passes the scaled tolerance only
        floor = max(plan.tol, 1e-14)
        assert info.increment * plan.kappa > floor * (1.0 - plan.kappa)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_anchor_diverges_on_the_first_iteration(self, bad, rng):
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(2)
        plan = plan_step(0.01, scheme, hp, 3.0)
        u = random_state(hp, rng)
        u[5] = bad
        evals = []

        class Counted(PowerNonlinearity):
            def eval(self, t, v):
                evals.append(t)
                return super().eval(t, v)

        for solve in (internal_stages, eager_stages):
            with np.errstate(invalid="ignore", over="ignore"), \
                    pytest.raises(FixedPointDivergenceError, match="non-finite"):
                solve(u, 0.0, Counted(3.0, -1.0), plan)
        assert len(evals) == 2

    @given(st.sampled_from(sorted(START_PROBLEMS)),
           st.sampled_from(["s1", "s2", "s3", "s4", "gauss2"]),
           st.floats(-16.0, math.log2(1 / 20)), st.floats(-3.0, 4.0),
           st.sampled_from([None, -1.0, 1.0, 2.0]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_lazy_floors_decide_as_eager_ones(self, name, scheme_name, log2_h,
                                              log10_amp, warm, seed):
        # h spans the presets' steps; the amplitude puts the stage scale
        # below 1 and far above it, with the cubic rescaled to keep its
        # Lipschitz constant; a warm solve starts from a multiple of the
        # previous step's correction
        problem = START_PROBLEMS[name]
        scheme = END_ROW_SCHEMES[scheme_name]
        amp = 10.0 ** log10_amp
        g = PowerNonlinearity(3.0, -1.0 / amp ** 2)
        h = 2.0 ** log2_h
        plan = plan_step(h, scheme, problem, 3.0)
        u = 0.3 * amp * random_state(problem, np.random.default_rng(seed))
        start = None
        if warm is not None:
            u, first = step(u, 0.0, g, plan)
            start = warm * first.correction
        stages, info = internal_stages(u, h, g, plan, start)
        ref, ref_info = eager_stages(u, h, g, plan, start)
        assert np.array_equal(stages, ref)
        assert info.iterations == ref_info.iterations
        assert info.increment == ref_info.increment
        assert info.contraction_ratios == ref_info.contraction_ratios
        assert info.residual_bound == ref_info.residual_bound


class TestFixedFirstStage:
    """With c_1 = 0 a step evaluates and transforms g(t_n, u_n) once and
    iterates only on stages 2..s; the results are those of a step that
    evaluates and transforms the whole stack every time."""

    @given(st.sampled_from(sorted(START_PROBLEMS)),
           st.sampled_from(["s1", "s2", "s3", "s4", "gauss2"]),
           st.floats(-16.0, math.log2(1 / 20)), st.sampled_from([None, -1.0, 1.0, 2.0]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_step_equals_the_full_stack_step(self, name, scheme_name, log2_h,
                                             warm, seed):
        # a cold step from u, then one from its successor started cold or
        # from a multiple of the first correction
        problem = START_PROBLEMS[name]
        scheme = END_ROW_SCHEMES[scheme_name]
        g = WaveCubic(problem) if name == "wave" else PowerNonlinearity(3.0, -1.0)
        h = 2.0 ** log2_h
        plan = plan_step(h, scheme, problem, 3.0)
        u = 0.3 * random_state(problem, np.random.default_rng(seed))
        u1, first = step(u, 0.0, g, plan)
        ref1, ref_first = eager_step(u, 0.0, g, plan)
        start = None if warm is None else warm * ref_first.correction
        u2, second = step(ref1, h, g, plan, start)
        ref2, ref_second = eager_step(ref1, h, g, plan, start)
        for got, ref, info, ref_info in ((u1, ref1, first, ref_first),
                                         (u2, ref2, second, ref_second)):
            assert np.array_equal(got, ref)
            assert np.array_equal(info.correction, ref_info.correction)
            assert info.iterations == ref_info.iterations
            assert info.increment == ref_info.increment
            assert info.contraction_ratios == ref_info.contraction_ratios
            assert info.residual_bound == ref_info.residual_bound

    @pytest.mark.parametrize("scheme_name", ["s1", "s2", "s3", "s4", "gauss2"])
    @pytest.mark.parametrize("name", ["heat-2d", "ou", "wave"])
    def test_rows_evaluated_and_transformed(self, name, scheme_name, monkeypatch, rng):
        # s rows in the first iteration, then s - 1 in each later one and
        # in the update: s + k (s - 1) for k iterations; without c_1 = 0
        # every iteration and the update see all s rows
        problem = STEP_PROBLEMS[name]()
        scheme = END_ROW_SCHEMES[scheme_name]
        base_g = WaveCubic(problem) if name == "wave" else PowerNonlinearity(3.0, -1.0)
        evals, transformed = [], []

        class Counted:
            def eval(self, t, v):
                evals.append(len(v))
                return base_g.eval(t, v)

        stage_modes = problem.stage_modes

        def counted_modes(G):
            transformed.append(len(G))
            return stage_modes(G)

        monkeypatch.setattr(problem, "stage_modes", counted_modes)
        plan = plan_step(0.002, scheme, problem, 3.0)
        u = 0.3 * random_state(problem, rng)
        _, info = step(u, 0.0, Counted(), plan)
        _, warm = step(u, 0.0, Counted(), plan, info.correction)
        s = scheme.s
        per_row = s if scheme_name == "gauss2" else s - 1
        calls = [[s] + [per_row] * k for k in (info.iterations, warm.iterations)]
        expected = [rows for step_calls in calls for rows in step_calls if rows]
        assert evals == transformed == expected
        if s == 1:
            assert evals == [1, 1]  # one g.eval a step
        assert max(info.iterations, warm.iterations) >= (1 if s == 1 else 2)


# name -> problem whose op requests are spied on: folded and modal 1D heat,
# 2D heat, OU and wave
REQUEST_PROBLEMS = {
    "heat-1d-folded": lambda: HeatTorusProblem(dim=1, n=64),
    "heat-1d-modal": lambda: HeatTorusProblem(dim=1, n=128),
    "heat-2d": lambda: HeatTorusProblem(dim=2, n=16),
    "ou": lambda: OUProblem(n=128),
    "wave": lambda: WaveProblem(n_modes=16),
}


class TestOpRequests:
    """The ops compute every row they are given, so the stepper and the
    exact reference ask for no t = 0 flow and no e_i h = 0 end: stage 1 is
    u_n itself when c_1 = 0, and row 0 of an exact reference is u_0."""

    @staticmethod
    def spy(monkeypatch, problem):
        """Lists that collect the times of every flow_op call and the
        (h, ends) of every convolve_op call on problem."""
        times, ends = [], []
        flow_op, convolve_op = problem.flow_op, problem.convolve_op

        def spied_flow_op(t):
            times.append(np.array(t, dtype=float))
            return flow_op(t)

        def spied_convolve_op(h, lag, e):
            ends.append((h, tuple(e)))
            return convolve_op(h, lag, e)

        monkeypatch.setattr(problem, "flow_op", spied_flow_op)
        monkeypatch.setattr(problem, "convolve_op", spied_convolve_op)
        return times, ends

    @pytest.mark.parametrize("scheme_name", ["s1", "s2", "s3", "s4", "gauss2"])
    @pytest.mark.parametrize("name", sorted(REQUEST_PROBLEMS))
    def test_plan_step_requests_no_zero_rows(self, name, scheme_name, monkeypatch, rng):
        problem = REQUEST_PROBLEMS[name]()
        scheme = END_ROW_SCHEMES[scheme_name]
        times, ends = self.spy(monkeypatch, problem)
        h = 0.01
        plan = plan_step(h, scheme, problem, 3.0)
        # the unknown stages' flows, then e^{hA} when c_s != 1; their stage
        # ends, then the update's
        unknown = scheme.nodes.nodes[plan.fixed:]
        flows = unknown if unknown[-1:] == (1.0,) else unknown + (1.0,)
        assert len(times) == 1 and np.array_equal(times[0], h * np.array(flows))
        assert ends == ([(h, unknown)] if unknown else []) + [(h, (1.0,))]
        assert all(t != 0.0 for t in times[0])
        assert all(e * h != 0.0 for h, row_ends in ends for e in row_ends)
        # a step applies the ops it has and builds none
        g = WaveCubic(problem) if name == "wave" else PowerNonlinearity(3.0, -1.0)
        step(0.3 * random_state(problem, rng), 0.0, g, plan)
        assert len(times) == 1 and len(ends) == len(unknown[:1]) + 1

    @pytest.mark.parametrize("name", sorted(REQUEST_PROBLEMS))
    def test_exact_reference_requests_no_zero_time(self, name, monkeypatch, rng):
        problem = REQUEST_PROBLEMS[name]()
        u0 = 0.3 * random_state(problem, rng)
        times, ends = self.spy(monkeypatch, problem)
        ref = reference_solution(problem, ZeroNonlinearity(), u0, 0.1, 0.0125, 0.025, 0.0)
        assert len(times) == 1 and np.array_equal(times[0], ref.times[1:])
        assert np.all(times[0] != 0.0) and not ends
        assert np.array_equal(ref.states[0], u0)


class TestSchemeSpec:
    def test_with_nodes(self):
        spec = SchemeSpec.with_nodes([0.0, 0.5, 1.0])
        assert spec.s == 3
        assert spec.nodes == NodeSet((0.0, 0.5, 1.0))

    def test_guard_tolerance_default(self):
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(2)
        assert plan_step(0.5, scheme, hp, 0.5).tol == pytest.approx(min(1e-12, 0.5 ** 3))
        assert plan_step(1e-2, scheme, hp, 0.5).tol == pytest.approx(1e-12)


# small grids: plan_step's certificate does not depend on the grid
CERTIFICATE_PROBLEMS = {
    "heat-1d": HeatTorusProblem(dim=1, n=16),
    "heat-frac": HeatTorusProblem(dim=1, n=16, p=1, r=2),  # alpha = 1/4
    "ou": OUProblem(n=16),
    "wave": WaveProblem(n_modes=8),
}


class TestCertificate:
    @settings(max_examples=120, deadline=None)
    @given(h=st.floats(1e-4, 1.0), lip=st.sampled_from([0.0, 1e-12, 0.5, 3.0]),
           name=st.sampled_from(sorted(END_ROW_SCHEMES)),
           problem=st.sampled_from(sorted(CERTIFICATE_PROBLEMS)))
    def test_plan_derives_certificate(self, h, lip, name, problem):
        pr, scheme = CERTIFICATE_PROBLEMS[problem], END_ROW_SCHEMES[name]
        kappa = certificate(pr, scheme, lip, h)
        if kappa >= 1.0:
            with pytest.raises(ContractionError) as exc:
                plan_step(h, scheme, pr, lip)
            for factor in (f"Omega(h)={pr.profile_x.omega(h):.3g}",
                           f"C_ell={scheme.lag.c_ell:.3g}", f"s={scheme.s}",
                           f"L={max(lip, 1e-12):.3g}"):
                assert factor in str(exc.value)
        else:
            plan = plan_step(h, scheme, pr, lip)
            assert plan.kappa == kappa
            assert plan.tol == min(1e-12, h ** (scheme.s + 1))


class Forced:
    """base plus a time-dependent forcing cos(3 t) * field, so that a stage
    evaluated at the wrong time gives a different value."""

    def __init__(self, base, field):
        self.base, self.field = base, np.asarray(field)

    def eval(self, t, v):
        t = np.asarray(t, dtype=float)
        wave = np.cos(3.0 * t).reshape(t.shape + (1,) * self.field.ndim)
        return self.base.eval(t, v) + wave * self.field


def forced_cubic(problem, rng):
    base = WaveCubic(problem) if isinstance(problem, WaveProblem) \
        else PowerNonlinearity(3.0, -1.0)
    return Forced(base, 0.5 * random_state(problem, rng))


def heat_frac_grid():
    return HeatTorusProblem(dim=1, n=128, p=1, r=2, w_choice="X")


# name -> (problem factory, T, N) at about the reference step of the studies,
# and two stiff cases: h max|lambda| = 6.4 at h = 1/640, and 32 at h = 1/128,
# where e^{-l h lambda} over a window overflows; no N is a multiple of
# WINDOW_MAX
WINDOW_CASES = {
    "heat-1d-n64": (lambda: HeatTorusProblem(dim=1, n=64), 0.01, 200),
    "heat-1d-n128-p1": (heat_frac_grid, 0.01, 400),
    "heat-1d-n128-p1-stiff": (heat_frac_grid, 80 / 640, 80),
    "heat-1d-n128-p1-stiffer": (heat_frac_grid, 80 / 128, 80),
    "heat-2d-n16": (lambda: HeatTorusProblem(dim=2, n=16), 0.05, 200),
    "wave-32": (lambda: WaveProblem(n_modes=32), 0.1, 200),
    "scalar": (ScalarProblem, 0.5, 100),
}


class TestRunWindowed:
    """run_windowed solves run's stage equations over windows of steps: its
    states agree with run's to 1e-12 in V-norm at every stored row."""

    @staticmethod
    def make_case(name, seed=7):
        make, T, N = WINDOW_CASES[name]
        problem = make()
        rng = np.random.default_rng(seed)
        g = forced_cubic(problem, rng)
        return problem, g, 0.3 * random_state(problem, rng), T, N

    @staticmethod
    def assert_agrees(problem, g, u, T, N, s=4, store_stride=1):
        scheme = SchemeSpec.with_stages(s)
        stepped = run(u, T, N, scheme, problem, g, 3.0, store_stride=store_stride)
        windowed = run_windowed(u, T, N, scheme, problem, g, 3.0,
                                store_stride=store_stride)
        stepped.raise_if_failed()
        windowed.raise_if_failed()
        assert np.array_equal(windowed.steps, stepped.steps)
        assert np.array_equal(windowed.times, stepped.times)
        assert windowed.states.dtype == stepped.states.dtype
        assert np.array_equal(windowed.states[0], stepped.states[0])
        assert np.max(problem.v_norm(windowed.states - stepped.states)) <= 1e-12
        assert windowed.kappa == stepped.kappa
        assert len(windowed.stage_iterations) == N
        return windowed

    @pytest.mark.parametrize("stride", ["1", "7", "64", "N"])
    @pytest.mark.parametrize("name", sorted(WINDOW_CASES))
    def test_agrees_with_run(self, name, stride):
        problem, g, u, T, N = self.make_case(name)
        self.assert_agrees(problem, g, u, T, N,
                           store_stride=N if stride == "N" else int(stride))

    @pytest.mark.parametrize("steps", ["one", "below-window", "window",
                                       "window-plus-one"])
    def test_step_counts_around_the_window(self, steps):
        problem, g, u, T, N = self.make_case("heat-1d-n64")
        h, K = T / N, WINDOW_MAX
        assert 1 < K < N
        n = {"one": 1, "below-window": K - 3, "window": K,
             "window-plus-one": K + 1}[steps]
        self.assert_agrees(problem, g, u, n * h, n)

    @pytest.mark.parametrize("name", ["heat-1d-n64", "heat-2d-n16", "wave-32"])
    def test_single_stage_without_a_live_stage_row(self, name):
        # s = 1 has its only node at 0: the stages are the window's states
        problem, g, u, T, N = self.make_case(name)
        self.assert_agrees(problem, g, u, T, N, s=1, store_stride=7)

    def test_non_finite_g_diverges(self):
        problem, _, u, T, N = self.make_case("heat-1d-n64")

        class Blowup(PowerNonlinearity):
            def eval(self, t, v):
                return np.full_like(np.asarray(v), np.inf)

        with np.errstate(invalid="ignore"):
            rec = run_windowed(u, T, N, SchemeSpec.with_stages(4), problem,
                               Blowup(3.0), 3.0, store_stride=10)
        assert (rec.status, rec.failure_step) == ("divergence", 0)
        assert "non-finite" in rec.error
        assert np.array_equal(rec.states, u[None])
        with pytest.raises(FixedPointDivergenceError):
            rec.raise_if_failed()

    def test_unconverged_window_diverges_keeping_the_rows_reached(self):
        # past the first window g flips between two values on every call, so
        # the first window converges and the second never does
        problem, g, u, T, N = self.make_case("heat-1d-n64")
        K = WINDOW_MAX
        clean = run_windowed(u, T, N, SchemeSpec.with_stages(4), problem, g, 3.0)

        class Flipping(Forced):
            calls = 0

            def eval(self, t, v):
                self.calls += 1
                late = (np.asarray(t) > (K + 0.5) * T / N)[:, None]
                return super().eval(t, v) + late * (self.calls % 2) * 1e-3

        rec = run_windowed(u, T, N, SchemeSpec.with_stages(4), problem,
                           Flipping(g.base, g.field), 3.0)
        assert (rec.status, rec.failure_step) == ("divergence", K)
        assert f"in {FP_MAX_ITER} sweeps" in rec.error
        assert rec.stage_iterations == clean.stage_iterations[:K]
        assert np.array_equal(rec.steps, np.arange(K + 1))
        assert np.array_equal(rec.states, clean.states[:K + 1])
        with pytest.raises(FixedPointDivergenceError):
            rec.raise_if_failed()

    def test_huge_lipschitz_fails_the_certificate(self):
        problem, g, u, T, N = self.make_case("heat-1d-n64")
        scheme = SchemeSpec.with_stages(4)
        rec = run_windowed(u, T, N, scheme, problem, g, 1e9)
        assert (rec.status, rec.failure_step) == ("contraction", 0)
        assert len(rec.states) == 1
        with pytest.raises(ContractionError) as exc:
            rec.raise_if_failed()
        assert str(exc.value) == run(u, T, N, scheme, problem, g, 1e9).error

    def test_zero_steps_and_a_non_diagonal_problem(self):
        problem, g, u, T, _ = self.make_case("heat-1d-n64")
        rec = run_windowed(u, T, 0, SchemeSpec.with_stages(4), problem, g, 3.0)
        assert rec.status == "ok" and np.array_equal(rec.states, u[None])
        with pytest.raises(ValidationError):
            run_windowed(np.zeros(128), T, 4, SchemeSpec.with_stages(4),
                         OUProblem(n=128), g, 3.0)

    def test_certificate_is_plan_steps(self):
        problem, _, _, _, _ = self.make_case("heat-1d-n64")
        scheme = SchemeSpec.with_stages(3)
        for h, lip in ((1e-3, 3.0), (0.5, 50.0)):
            try:
                kappa = contraction_certificate(h, scheme, problem, lip)
            except ContractionError as exc:
                with pytest.raises(ContractionError, match=re.escape(str(exc))):
                    plan_step(h, scheme, problem, lip)
            else:
                assert plan_step(h, scheme, problem, lip).kappa == kappa
