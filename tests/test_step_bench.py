"""Micro-benchmarks of one integrator step per model problem, and of the
sampled Lipschitz estimate that `expsplit run` makes before its steps.

Each benchmark also checks that its timed call returns the same value,
bit for bit, as an untimed call from the same inputs.  The Gauss-Legendre
case has neither 0 nor 1 among its nodes, so its anchor flow carries an
extra row at h for e^{hA} u_n.  Two cases time a
warm-started step: the second step of a run, whose iteration starts from
the first correction, and the third, which starts from the extrapolation
of the first two.
Run only these with ``pytest tests/test_step_bench.py``;
``--benchmark-skip`` leaves them out.
"""

import math

import numpy as np
import pytest

from expsplit import config as cfgmod
from expsplit.integrator import SchemeSpec, plan_step, step
from expsplit.nonlinearities import estimate_lipschitz

GAUSS2 = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)

# (preset, problem overrides, stage count or node tuple, h)
STEP_CASES = {
    "heat1d-n64-s1": ("heat-torus-1d", {"n": 64}, 1, 1 / 640),
    "heat1d-n64-gauss2": ("heat-torus-1d", {"n": 64}, GAUSS2, 1 / 640),
    "heat1d-n64-s3": ("heat-torus-1d", {"n": 64}, 3, 1 / 640),
    "heat1d-n64-s4": ("heat-torus-1d", {"n": 64}, 4, 1 / 640),
    "heat1d-n128-s2": ("heat-frac-s2", {"n": 128}, 2, 1 / 640),
    "heat2d-n32-s2": ("heat-torus-2d", {"n": 32}, 2, 1 / 100),
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
