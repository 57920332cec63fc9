import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from expsplit.errors import (ContractionError, FixedPointDivergenceError,
                             StripViolationError, ValidationError)
from expsplit.integrator import (FP_MAX_ITER, SchemeSpec, StageInfo,
                                 internal_stages, plan_step, run, step)
from expsplit.lagrange import NodeSet
from expsplit.nonlinearities import (PowerNonlinearity, StripMonitor, WaveCubic,
                                     ZeroNonlinearity)
from expsplit.phi import phi
from expsplit.propagators import HeatTorusProblem, OUProblem, WaveProblem


def eager_stages(u_n, t_n, g, plan, start=None):
    """Reference copy of the stage solve that norms the stage stack up front
    on every call: the stage-scale floors are set before the first
    iteration, from a flow op of the node offsets alone."""
    propagator, kappa, tol = plan.propagator, plan.kappa, plan.tol
    times = t_n + plan.offsets
    base = propagator.apply_nodes(propagator.flow_op(plan.offsets), u_n)
    stages = base if start is None else base + start
    info = StageInfo()
    scale = max(float(np.max(propagator.v_norm(base))), 1.0)
    tol = max(tol, 1e-14 * scale)
    ratio_floor = max(1e3 * tol, 1e-11 * scale)
    prev_inc = None
    for it in range(1, FP_MAX_ITER + 1):
        G = g.eval(times, stages)
        info.correction = propagator.stage_convolve(plan.stage_rows, G)
        new_stages = base + info.correction
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


def certificate(problem, scheme, lipschitz, h):
    """kappa(h) = Omega(h) * C_ell * s * L with L floored at 1e-12."""
    return (problem.profile_x.omega(h) * scheme.lag.c_ell * scheme.s
            * max(lipschitz, 1e-12))


GAUSS2 = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)

# name -> problem factory of the end-row and stage-scale tests
STEP_PROBLEMS = {
    "heat-1d": lambda: HeatTorusProblem(dim=1, n=64),
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

    def test_strip_violation_aborts_run(self):
        hp = HeatTorusProblem(dim=1, n=64)
        scheme = SchemeSpec.with_stages(1)
        u = np.ones(64)
        times = np.linspace(0.0, 1.0, 11)
        # reference pinned far away from the trajectory
        mon = StripMonitor(radius=1e-6, times=times,
                           states=[5.0 * np.ones(64)] * 11, v_norm=hp.v_norm)
        rec = run(u, 1.0, 10, scheme, hp, ZeroNonlinearity(), 1e-12,
                  monitor=mon)
        assert rec.status == "strip"
        with pytest.raises(StripViolationError):
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
    """run starts each stage iteration from the linear extrapolation of the
    last two corrections: the anchor on step 1, c_1 on step 2, then
    2 c_n - c_{n-1}."""

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
    def one_point_iterations(u, T, N, scheme, problem, g, lip):
        """Iteration counts of N steps, each started from the previous
        step's correction alone."""
        plan = plan_step(T / N, scheme, problem, lip)
        correction, iterations = None, []
        for n in range(N):
            u, info = step(u, n * (T / N), g, plan, correction)
            correction = info.correction
            iterations.append(info.iterations)
        return iterations

    @pytest.mark.parametrize("name", sorted(WARM_CASES))
    def test_extrapolated_start_saves_iterations(self, name, rng):
        # 2 c_n - c_{n-1} is closer to the next step's correction than c_n;
        # on the heat cases that saves iterations, on the others both
        # starts stop after the same count
        problem, g, scheme, lip, u, T, N = self.make_case(name, rng)
        rec = run(u, T, N, scheme, problem, g, lip)
        rec.raise_if_failed()
        one_point = self.one_point_iterations(u, T, N, scheme, problem, g, lip)
        assert rec.stage_iterations[:2] == one_point[:2]
        if name in ("heat-1d-s4", "heat-2d-s2"):
            assert sum(rec.stage_iterations) < sum(one_point)
        else:
            assert sum(rec.stage_iterations) <= sum(one_point)

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
