"""Micro-benchmarks of one integrator step per model problem, of the
sampled Lipschitz estimate that `expsplit run` makes before its steps, and
of a study context's strip estimate on the benchmark's grids.

Each benchmark also checks that its timed call returns the same value,
bit for bit, as an untimed call from the same inputs.  The Gauss-Legendre
case has neither 0 nor 1 among its nodes, so its anchor flow carries an
extra row at h for e^{hA} u_n.  Two cases time a
warm-started step: the second step of a run, whose iteration starts from
the first correction, and the third, which starts from the extrapolation
of the first two.  Three cases time a study's reference trajectory with the
benchmark's h_ref: a halving ladder solved by windows of steps on heat and
wave, steps of h_ref on OU.  Two cases time OU's stage convolution alone,
the stage op and the update op of a 4-stage step, each applied to the
stage modes of all four stage values.  Two cases time the build of an
OU step plan, at s = 1 and s = 4, and check it against an untimed build
array by array.  One case times both
Lipschitz estimates of the benchmark's wave study, and one its step-size
sweep: a run and a strip check per h.
Run only these with ``pytest tests/test_step_bench.py``;
``--benchmark-skip`` leaves them out.
"""

import math

import numpy as np
import pytest

from expsplit import config as cfgmod
from expsplit import harness
from expsplit.integrator import SchemeSpec, plan_step, step
from expsplit.nonlinearities import StripMonitor, estimate_lipschitz

GAUSS2 = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)

# (preset, problem overrides, stage count or node tuple, h)
STEP_CASES = {
    "heat1d-n64-s1": ("heat-torus-1d", {"n": 64}, 1, 1 / 640),
    "heat1d-n64-gauss2": ("heat-torus-1d", {"n": 64}, GAUSS2, 1 / 640),
    "heat1d-n64-s3": ("heat-torus-1d", {"n": 64}, 3, 1 / 640),
    "heat1d-n64-s4": ("heat-torus-1d", {"n": 64}, 4, 1 / 640),
    "heat1d-n128-s2": ("heat-frac-s2", {"n": 128}, 2, 1 / 640),
    "heat2d-n32-s2": ("heat-torus-2d", {"n": 32}, 2, 1 / 100),
    "heat2d-n128-s2": ("heat-torus-2d", {"n": 128}, 2, 0.002),
    "heat2d-n128-s4": ("heat-torus-2d", {"n": 128}, 4, 0.002),
    "ou-n256-s4": ("ou-1d", {"n": 256}, 4, 1 / 5120),
    "ou-n512-s4": ("ou-1d", {"n": 512}, 4, 1 / 5120),
    "wave-32modes-s2": ("wave-dirichlet-1d", {"n_modes": 32}, 2, 1 / 160),
    "wave-32modes-s4": ("wave-dirichlet-1d", {"n_modes": 32}, 4, 1 / 160),
}


def _step_args(preset, problem_over, stages, h):
    cfg = cfgmod.resolve_config(preset)
    cfg["problem"].update(problem_over)
    problem = cfgmod.build_problem(cfg)
    g = cfgmod.build_nonlinearity(cfg, problem)
    u0 = cfgmod.build_initial(cfg, problem)
    scheme = (SchemeSpec.with_nodes(stages) if isinstance(stages, tuple)
              else SchemeSpec.with_stages(stages))
    return (u0, 0.0, g, plan_step(h, scheme, problem, 3.0))


def _bench_step(benchmark, args):
    expected, info = step(*args)
    assert info.iterations >= 1
    got, _ = benchmark.pedantic(step, args=args, rounds=30, iterations=1,
                                warmup_rounds=2)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    return info


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_single_step(benchmark, case):
    _bench_step(benchmark, _step_args(*STEP_CASES[case]))


def test_warm_started_step(benchmark):
    # the second step of a run: started from the first step's correction
    preset, over, stages, h = STEP_CASES["heat1d-n64-s3"]
    u0, t0, g, plan = _step_args(preset, over, stages, h)
    u1, first = step(u0, t0, g, plan)
    warm = _bench_step(benchmark, (u1, t0 + h, g, plan, first.correction))
    assert warm.iterations < step(u1, t0 + h, g, plan)[1].iterations


def test_extrapolated_step(benchmark):
    # the third step of a run: started from 2 c_2 - c_1, the linear
    # extrapolation of the first two corrections
    preset, over, stages, h = STEP_CASES["heat1d-n64-s4"]
    u0, t0, g, plan = _step_args(preset, over, stages, h)
    u1, first = step(u0, t0, g, plan)
    u2, second = step(u1, t0 + h, g, plan, first.correction)
    start = 2.0 * second.correction - first.correction
    warm = _bench_step(benchmark, (u2, t0 + 2 * h, g, plan, start))
    one_point = step(u2, t0 + 2 * h, g, plan, second.correction)[1]
    assert warm.iterations < one_point.iterations


def test_run_lipschitz_estimate(benchmark):
    # the estimate of `expsplit run --config heat-torus-2d --grid 128`:
    # cubic on a 128^2 heat grid, with cmd_run's radius, times and 120 pairs
    cfg = cfgmod.resolve_config("heat-torus-2d")
    cfg["problem"]["n"] = 128
    problem = cfgmod.build_problem(cfg)
    g = cfgmod.build_nonlinearity(cfg, problem)
    u0 = np.asarray(cfgmod.build_initial(cfg, problem))
    radius = 0.25 * max(problem.v_norm(u0), 1.0)
    times = (0.0, float(cfg["run"]["t_final"]))

    def estimate():
        return estimate_lipschitz(g, problem, u0, radius, times, n_samples=120,
                                  rng=np.random.default_rng(0))

    expected = estimate()
    assert expected > 0.0
    got = benchmark.pedantic(estimate, rounds=3, iterations=1, warmup_rounds=1)
    assert got == expected


@pytest.mark.parametrize("op_name", ["stage_rows", "update_row"])
def test_ou_stage_convolve(benchmark, op_name):
    # the stage convolution alone, on the 4-stage OU step of the
    # ou-n256-s4 case: the ends c = 1/3, 2/3, 1 of the unknown stages x 6
    # nodes for the stage op, 6 for the update
    u0, t0, g, plan = _step_args(*STEP_CASES["ou-n256-s4"])
    propagator = plan.propagator
    stages = np.concatenate([u0[None], propagator.apply_nodes(plan.node_flow, u0)])
    G = g.eval(t0 + plan.offsets, stages)
    op = getattr(plan, op_name)

    def convolve():
        return propagator.convolve_modes(op, propagator.stage_modes(G))

    expected = convolve()
    got = benchmark.pedantic(convolve, rounds=200, iterations=1, warmup_rounds=5)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def _leaves(plan):
    """The arrays and numbers of a step plan, its ops' tuples flattened."""
    stack = [v for k, v in sorted(vars(plan).items()) if k != "propagator"]
    leaves = []
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(item)
        else:
            leaves.append(np.asarray(item))
    return leaves


@pytest.mark.parametrize("s", [1, 4])
def test_ou_plan_step(benchmark, s):
    # the plans of the study-ou workload: every s = 1 sweep cell builds one,
    # and a 4-stage reference run builds one at h_ref
    *_, plan = _step_args("ou-1d", {"n": 256}, s, 1 / 5120)
    args = (1 / 5120, SchemeSpec.with_stages(s), plan.propagator, 3.0)
    expected = _leaves(plan)
    got = _leaves(benchmark.pedantic(plan_step, args=args, rounds=100, iterations=1,
                                     warmup_rounds=5))
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


# (preset, problem overrides) of a study context's strip estimate on the
# benchmark's grids: heat and wave take a center's 120 pairs in one chunk,
# OU in four
STUDY_LIPSCHITZ_CASES = {
    "heat1d-n64": ("heat-cubic-s1", {"n": 64}),
    "wave-32modes": ("wave-cubic-s2", {"n_modes": 32}),
    "ou-n256": ("ou-cubic-s1", {"n": 256}),
}


@pytest.mark.parametrize("case", sorted(STUDY_LIPSCHITZ_CASES))
def test_study_lipschitz_estimate(benchmark, case):
    # 120 pairs on each of 5 centers in one call, as the strip estimate
    # samples balls around 5 reference snapshots; here u_0 scaled down
    preset, over = STUDY_LIPSCHITZ_CASES[case]
    cfg = cfgmod.resolve_config(preset)
    cfg["problem"].update(over)
    problem = cfgmod.build_problem(cfg)
    g = cfgmod.build_nonlinearity(cfg, problem)
    u0 = np.asarray(cfgmod.build_initial(cfg, problem))
    centers = u0 * np.linspace(1.0, 0.6, 5).reshape((5,) + (1,) * u0.ndim)
    radius = harness.STRIP_RADIUS_FRAC * float(np.max(problem.v_norm(centers)))

    def estimate():
        return estimate_lipschitz(g, problem, centers, radius, (0.0, 0.1),
                                  n_samples=120, rng=np.random.default_rng(0))

    expected = estimate()
    assert expected > 0.0
    got = benchmark.pedantic(estimate, rounds=10, iterations=1, warmup_rounds=1)
    assert got == expected


# (preset, problem overrides, T, finest h) of the benchmark's shortened
# studies; a reference steps no finer than h_ref = finest h / REF_FACTOR: OU
# steps at h_ref, heat and wave climb a halving ladder from the finest h
REFERENCE_CASES = {
    "heat1d-n64-windowed": ("heat-torus-1d", {"n": 64}, 0.05, 1 / 320),
    "wave-32modes-windowed": ("wave-dirichlet-1d", {"n_modes": 32}, 0.1, 1 / 160),
    "ou-n256-stepped": ("ou-1d", {"n": 256}, 0.05, 1 / 80),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_reference_solution(benchmark, case):
    # with the study's bootstrap Lipschitz estimate around u_0
    preset, over, T, h_min = REFERENCE_CASES[case]
    cfg = cfgmod.resolve_config(preset)
    cfg["problem"].update(over)
    problem = cfgmod.build_problem(cfg)
    g = cfgmod.build_nonlinearity(cfg, problem)
    u0 = np.asarray(cfgmod.build_initial(cfg, problem))
    lip0 = estimate_lipschitz(g, problem, u0, 0.5 * max(problem.v_norm(u0), 1.0),
                              (0.0, T), n_samples=120, rng=np.random.default_rng(0))
    h_ref = h_min / harness.REF_FACTOR  # the finest step a reference may take
    args = (problem, g, u0, T, h_ref, h_min, lip0)
    expected = harness.reference_solution(*args)
    got = benchmark.pedantic(harness.reference_solution, args=args, rounds=5,
                             iterations=1, warmup_rounds=1)
    assert np.array_equal(got.times, expected.times)
    assert got.states.dtype == expected.states.dtype
    assert np.array_equal(got.states, expected.states)
    assert got.self_check_diff == expected.self_check_diff
    assert got.h_ref == expected.h_ref


def test_study_lipschitz_phase(benchmark):
    # both estimates of the study-wave workload's study, from one seed: the
    # bootstrap around u_0 (120 pairs), then the strip estimate around 5
    # snapshots of the reference (5 x 120 pairs)
    _, over, T, h_min = REFERENCE_CASES["wave-32modes-windowed"]
    cfg = cfgmod.resolve_config("wave-cubic-s2")
    cfg["problem"].update(over)
    problem = cfgmod.build_problem(cfg)
    g = cfgmod.build_nonlinearity(cfg, problem)
    u0 = np.asarray(cfgmod.build_initial(cfg, problem))
    ref, radius, lipschitz = harness._reference_context(
        "", problem, g, u0, T, h_min, h_min / harness.REF_FACTOR, 0)
    snapshots = ref.states[np.linspace(0, len(ref.states) - 1, 5).astype(int)]

    def estimates():
        lip0 = estimate_lipschitz(g, problem, u0, 0.5 * max(problem.v_norm(u0), 1.0),
                                  (0.0, T), n_samples=120, rng=np.random.default_rng(0))
        return lip0, estimate_lipschitz(g, problem, snapshots, radius, (0.0, T),
                                        n_samples=120, rng=np.random.default_rng(0))

    expected = estimates()
    assert expected[1] == lipschitz > 0.0
    got = benchmark.pedantic(estimates, rounds=10, iterations=1, warmup_rounds=1)
    assert got == expected


def test_study_sweep(benchmark, monkeypatch):
    # the sweep of the study-wave workload's study, from its reference
    # context built once: per h one run and one strip check of its rows,
    # whose last distance is the study's error
    monkeypatch.setattr(harness, "_REFERENCE_MEMO", {})
    _, over, T, _ = REFERENCE_CASES["wave-32modes-windowed"]
    cfg = cfgmod.resolve_config("wave-cubic-s2")
    cfg["problem"].update(over)
    cfg["run"]["t_final"] = T
    problem = cfgmod.build_problem(cfg)
    g = cfgmod.build_nonlinearity(cfg, problem)
    u0 = np.asarray(cfgmod.build_initial(cfg, problem))
    plan = cfgmod.build_plan(cfg)
    report = harness.convergence_study(plan, problem, g, u0)
    ((ref, radius, lipschitz),) = harness._REFERENCE_MEMO.values()

    def sweep():
        monitor = StripMonitor(radius=radius, times=ref.times, states=ref.states,
                               v_norm=problem.v_norm)
        errors = []
        for n in report.n_list:
            rec = harness.run(u0, T, n, plan.scheme, problem, g, lipschitz)
            rec.raise_if_failed()
            errors.append(float(monitor.check(rec.times, rec.states)[-1]))
        return errors

    expected = sweep()
    assert expected == report.errors
    got = benchmark.pedantic(sweep, rounds=10, iterations=1, warmup_rounds=1)
    assert got == expected
