import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import decode
from expsplit import config as cfgmod
from expsplit.errors import StripViolationError, ValidationError
from expsplit.nonlinearities import (LIPSCHITZ_CHUNK_BYTES, LIPSCHITZ_SAFETY,
                                     AdvectionNonlinearity, Nonlinearity,
                                     PowerNonlinearity, StripMonitor, WaveCubic,
                                     ZeroNonlinearity, estimate_lipschitz,
                                     stored_state)
from expsplit.propagators import HeatTorusProblem, OUProblem, WaveProblem, lp_norm

_HEAT_1D = HeatTorusProblem(dim=1, n=64)
_HEAT_2D = HeatTorusProblem(dim=2, n=16)
_WAVE = WaveProblem(n_modes=32, alpha_w=1.3)

# name -> (nonlinearity, grid shape, complex states)
STACKED_EVAL_CASES = {
    "power-1.5": (PowerNonlinearity(1.5, coeff=-1.0), _HEAT_1D.shape, False),
    "power-3": (PowerNonlinearity(3.0, coeff=-1.0), _HEAT_1D.shape, False),
    "power-3-2d": (PowerNonlinearity(3.0, coeff=-1.0), _HEAT_2D.shape, False),
    "advection": (AdvectionNonlinearity(_HEAT_1D), _HEAT_1D.shape, False),
    "wave-cubic": (WaveCubic(_WAVE), _WAVE.zeros().shape, True),
    "zero": (ZeroNonlinearity(), _HEAT_1D.shape, False),
}


class TestPower:
    def test_zero_maps_to_zero(self):
        g = PowerNonlinearity(alpha=3.0, coeff=-1.0)
        v = np.zeros(8)
        assert np.array_equal(g.eval(0.0, v), v)

    def test_cube_of_constant(self):
        g = PowerNonlinearity(alpha=3.0, coeff=-1.0)
        out = g.eval(0.0, np.full(5, 2.0))
        assert np.allclose(out, -8.0)

    def test_fractional_power_at_zero(self):
        g = PowerNonlinearity(alpha=1.5, coeff=1.0)
        out = g.eval(0.0, np.array([0.0, 4.0, -4.0]))
        assert out[0] == 0.0
        assert out[1] == pytest.approx(8.0)
        assert out[2] == pytest.approx(-8.0)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_eval_equals_guarded_formula(self, alpha, rng):
        # the formula under errstate for every alpha, with 0 -> 0 patched in
        # below 2; signed zeros included
        g = PowerNonlinearity(alpha=alpha, coeff=-0.7)
        X = rng.standard_normal((4, 64))
        X[rng.uniform(size=X.shape) < 0.25] = 0.0
        X[0, :3] = [0.0, -0.0, 0.0]
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = -0.7 * np.abs(X) ** (alpha - 1.0) * X
        if alpha < 2.0:
            ref = np.where(X == 0.0, 0.0, ref)
        out = g.eval(np.zeros(4), X)
        assert np.array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))

    @pytest.mark.parametrize("alpha", [1.01, 1.5, 1.99])
    def test_eval_below_two_warns_on_no_value(self, alpha):
        # 0^(alpha-1) is 0 for alpha > 1: zeros, subnormals, infinities and
        # NaN pass through the power with no warning to silence
        g = PowerNonlinearity(alpha=alpha, coeff=-0.7)
        tiny = np.nextafter(0.0, 1.0)
        X = np.array([[0.0, -0.0, tiny, -tiny, 1e-310],
                      [np.inf, -np.inf, np.nan, 1.0, -2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = g.eval(np.zeros(2), X)
        assert np.array_equal(out[0, :2], [0.0, 0.0])
        assert not np.signbit(out[0, :2]).any()
        assert np.array_equal(out[1, :2], [-np.inf, np.inf])
        assert np.isnan(out[1, 2])
        assert np.array_equal(out[1, 3:], [-0.7, 0.7 * 2.0 ** alpha])

    def test_odd_symmetry(self, rng):
        g = PowerNonlinearity(alpha=3.0, coeff=2.0)
        v = rng.standard_normal(16)
        assert np.allclose(g.eval(0.0, -v), -g.eval(0.0, v))

    def test_derivative_bound(self):
        g = PowerNonlinearity(alpha=3.0, coeff=-1.0)
        assert g.derivative_bound(1.0) == pytest.approx(3.0)
        assert g.derivative_bound(2.0) == pytest.approx(12.0)

    def test_derivative_bound_matches_dense_scalar_samples(self):
        g = PowerNonlinearity(alpha=3.0, coeff=-1.0)
        R = 1.3
        u = np.linspace(-R, R, 20001)
        fu = g.eval(0.0, u)
        ratios = np.abs(np.diff(fu) / np.diff(u))
        assert np.max(ratios) <= g.derivative_bound(R) + 1e-6

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(ValidationError):
            PowerNonlinearity(alpha=1.0)


class TestLipschitzEstimate:
    def test_linear_map_recovers_slope_times_safety(self, scalar_problem, rng):
        class Doubler(ZeroNonlinearity):
            def eval(self, t, v):
                return 2.0 * np.asarray(v)

        L = estimate_lipschitz(Doubler(), scalar_problem, np.zeros(1), 1.0,
                               (0.0, 1.0), n_samples=150, rng=rng)
        assert L == pytest.approx(3.0, rel=1e-9)  # 2 * 1.5 safety

    def test_cubic_on_unit_ball_within_analytic_window(self, scalar_problem, rng):
        g = PowerNonlinearity(alpha=3.0, coeff=1.0)
        L = estimate_lipschitz(g, scalar_problem, np.zeros(1), 1.0,
                               (0.0, 1.0), n_samples=400, rng=rng)
        # analytic sup of |F'| on [-1, 1] is 3; safety pushes to <= 4.5
        assert 3.0 - 0.3 <= L <= 4.5 + 1e-9

    def test_sample_count_validated(self, scalar_problem, rng):
        g = PowerNonlinearity(alpha=3.0)
        with pytest.raises(ValidationError):
            estimate_lipschitz(g, scalar_problem, np.zeros(1), 1.0,
                               (0.0, 1.0), n_samples=10, rng=rng)

    @pytest.mark.parametrize("t_range", [(1.0, 0.5), (0.0, np.inf), (np.nan, 1.0),
                                         (-np.inf, 0.0)])
    def test_time_range_validated(self, scalar_problem, rng, t_range):
        g = PowerNonlinearity(alpha=3.0)
        with pytest.raises(ValidationError):
            estimate_lipschitz(g, scalar_problem, np.zeros(1), 1.0, t_range,
                               n_samples=120, rng=rng)


def _loop_ball_point(problem, center, radius, rng):
    """The ball point of the per-sample sampler, zero-field rule included."""
    v = problem.random_field(rng)
    nv = problem.v_norm(v)
    if nv == 0.0:
        return np.asarray(center).copy()
    return center + radius * rng.uniform(0.1, 1.0) / nv * v


def loop_lipschitz(g, problem, center, radius, t_range, n_samples, rng):
    """Reference estimator: one pair at a time, two g.eval and four norm
    calls per pair, in the draw order estimate_lipschitz keeps."""
    t0, t1 = t_range
    best = 0.0
    for _ in range(n_samples):
        t = rng.uniform(t0, t1)
        v = _loop_ball_point(problem, center, radius, rng)
        if rng.uniform() < 0.5:
            w = _loop_ball_point(problem, center, radius, rng)
        else:
            w = v + _loop_ball_point(problem, problem.zeros(),
                                     1e-4 * max(radius, 1.0), rng)
        dv = problem.v_norm(v - w)
        if dv == 0.0:
            continue
        dg = problem.x_norm(g.eval(t, v) - g.eval(t, w))
        best = max(best, dg / dv)
    return LIPSCHITZ_SAFETY * best


def _preset_case(preset, problem_over):
    """(problem, g, u0, radius) of a preset, radius as a study's bootstrap."""
    cfg = cfgmod.resolve_config(preset)
    cfg["problem"].update(problem_over)
    problem = cfgmod.build_problem(cfg)
    u0 = np.asarray(cfgmod.build_initial(cfg, problem))
    return (problem, cfgmod.build_nonlinearity(cfg, problem), u0,
            0.5 * max(problem.v_norm(u0), 1.0))


# name -> (preset, problem overrides) of the stacked-estimator oracle cases;
# heat1d-n128 is modal (not folded), heat2d-n16 and ou-n256 take 30 pairs a
# chunk, heat2d-n32 seven and heat2d-n128 one
LIPSCHITZ_CASES = {
    "heat1d-n64-folded": ("heat-cubic-s1", {"n": 64}),
    "heat1d-n128-modal": ("heat-frac-s2", {"n": 128}),
    "heat2d-n16": ("heat-torus-2d", {"n": 16}),
    "heat2d-n32": ("heat-torus-2d", {"n": 32}),
    "heat2d-n128": ("heat-torus-2d", {"n": 128}),
    "ou-n256": ("ou-cubic-s1", {"n": 256}),
    "wave-32modes": ("wave-cubic-s2", {"n_modes": 32}),
}


class ZeroEveryThird(HeatTorusProblem):
    """1D heat grid whose random_field is zero on every third call (from
    the first) and draws nothing then."""

    def __init__(self):
        super().__init__(dim=1, n=16)
        self.calls = 0

    def random_field(self, rng):
        self.calls += 1
        if self.calls % 3 == 1:
            return self.zeros()
        return super().random_field(rng)


class Recorder(PowerNonlinearity):
    """The cubic, keeping a copy of every state stack it evaluates."""

    def __init__(self):
        super().__init__(3.0, -1.0)
        self.seen = []

    def eval(self, t, v):
        self.seen.append(np.array(v))
        return super().eval(t, v)


class TestStackedLipschitz:
    @pytest.mark.parametrize("seed", [0, 1, 2, 12345])
    @pytest.mark.parametrize("case", sorted(LIPSCHITZ_CASES))
    def test_equals_per_sample_loop(self, case, seed):
        problem, g, u0, radius = _preset_case(*LIPSCHITZ_CASES[case])
        got_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = estimate_lipschitz(g, problem, u0, radius, (0.0, 0.3),
                                 n_samples=120, rng=got_rng)
        expected = loop_lipschitz(g, problem, u0, radius, (0.0, 0.3), 120, loop_rng)
        assert type(got) is float
        assert got == expected > 0.0
        assert got_rng.uniform() == loop_rng.uniform()

    def test_sample_count_not_a_multiple_of_the_chunk(self):
        problem, g, u0, radius = _preset_case("heat-torus-2d", {"n": 16})
        pairs = LIPSCHITZ_CHUNK_BYTES // (2 * problem.zeros().nbytes)
        assert 1 < pairs < 130 and 130 % pairs != 0
        got_rng, loop_rng = np.random.default_rng(7), np.random.default_rng(7)
        got = estimate_lipschitz(g, problem, u0, radius, (0.0, 0.3),
                                 n_samples=130, rng=got_rng)
        assert got == loop_lipschitz(g, problem, u0, radius, (0.0, 0.3), 130,
                                     loop_rng)
        assert got_rng.uniform() == loop_rng.uniform()

    @pytest.mark.parametrize("case", ["heat1d-n64-folded", "ou-n256", "wave-32modes"])
    def test_centers_equal_consecutive_calls(self, case):
        problem, g, u0, radius = _preset_case(*LIPSCHITZ_CASES[case])
        scale = np.array([1.0, 0.8, 0.5, 0.3, 0.0])
        centers = u0 * scale.reshape((5,) + (1,) * u0.ndim)
        one_rng, rows_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = estimate_lipschitz(g, problem, centers, radius, (0.0, 0.3),
                                 n_samples=120, rng=one_rng)
        rows = [estimate_lipschitz(g, problem, c, radius, (0.0, 0.3),
                                   n_samples=120, rng=rows_rng) for c in centers]
        assert got == max(rows)
        assert one_rng.uniform() == rows_rng.uniform()

    def test_zero_fields_sit_at_the_center_and_draw_no_scale(self):
        problem, rng = ZeroEveryThird(), np.random.default_rng(5)
        center = 0.3 * np.cos(problem.grid())
        before = rng.bit_generator.state
        assert np.array_equal(problem.sample_in_ball(center, 0.5, rng), center)
        assert rng.bit_generator.state == before  # the zero field drew no scale
        away = problem.sample_in_ball(center, 0.5, rng)
        assert 0.05 <= problem.v_norm(away - center) <= 0.5

    def test_zero_fields_keep_the_loop_stream(self):
        g = PowerNonlinearity(3.0, -1.0)
        center = 0.3 * np.cos(ZeroEveryThird().grid())
        got_rng, loop_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = estimate_lipschitz(g, ZeroEveryThird(), center, 0.5, (0.0, 1.0),
                                 n_samples=120, rng=got_rng)
        expected = loop_lipschitz(g, ZeroEveryThird(), center, 0.5, (0.0, 1.0),
                                  120, loop_rng)
        assert got == expected > 0.0
        assert got_rng.uniform() == loop_rng.uniform()

    def test_zero_v_fields_give_the_center(self):
        # calls 1, 4, 7, ... are zero: the v of pairs 0, 3, 6, ... and the w
        # of pairs 1, 4, 7, ...; the chunk's one g.eval sees those 40 v's at
        # the center exactly
        problem, g = ZeroEveryThird(), Recorder()
        center = 0.3 * np.cos(problem.grid())
        estimate_lipschitz(g, problem, center, 0.5, (0.0, 1.0), n_samples=120,
                           rng=np.random.default_rng(5))
        (stack,) = g.seen
        at_center = np.all(stack[:120] == center, axis=1)
        assert np.count_nonzero(at_center) == 40


def uniform_random_field(problem, rng):
    """random_field written with Generator.uniform phases, two normal calls
    per wave field and the 2D trig taken per draw: the draws, and bits,
    that the estimator's cheaper calls must reproduce."""
    if isinstance(problem, WaveProblem):
        amp = rng.standard_normal(problem.n) + 1j * rng.standard_normal(problem.n)
        return amp / (1.0 + problem.omega) ** 2
    if isinstance(problem, HeatTorusProblem) and problem.dim == 2:
        kmax = min(problem.n // 4, 16)
        terms = []
        for _ in range(8):
            kx = rng.integers(0, kmax + 1)
            ky = rng.integers(0, kmax + 1)
            a = rng.standard_normal() / (1.0 + kx ** 2 + ky ** 2)
            terms.append((kx, ky, a, rng.uniform(0, 2 * np.pi)))
        kx, ky, a, ph = (np.array(c)[:, None] for c in zip(*terms))
        x = np.arange(problem.n) * problem.dx
        wx, wy = kx * x, ky * x + ph
        return (a * np.cos(wx)).T @ np.cos(wy) - (a * np.sin(wx)).T @ np.sin(wy)
    return rng.standard_normal(len(problem._ball_basis)) @ problem._ball_basis


# (LIPSCHITZ_CASES name, seed, radius factor, t_range) of the stream pins
STREAM_CASES = [
    ("heat1d-n64-folded", 0, 1.0, (0.0, 0.5)),
    ("heat1d-n64-folded", 9, 0.3, (0.2, 0.25)),
    ("heat1d-n128-modal", 4, 2.0, (0.1, 1.0)),
    ("heat2d-n16", 2, 0.5, (0.05, 0.3)),
    ("heat2d-n32", 1, 1.0, (0.0, 0.3)),
    ("heat2d-n32", 77, 0.2, (0.3, 0.9)),
    ("heat2d-n128", 3, 1.0, (0.01, 0.02)),
    ("ou-n256", 5, 1.0, (0.0, 0.1)),
    ("ou-n256", 6, 3.0, (0.05, 0.25)),
    ("wave-32modes", 0, 1.0, (0.0, 1.0)),
    ("wave-32modes", 8, 0.1, (0.4, 0.6)),
]


class TimeRecorder(Nonlinearity):
    """g, keeping every time it is evaluated at: the shipped nonlinearities
    are autonomous, so the constant alone does not pin the sampled times."""

    def __init__(self, g):
        self.g, self.times = g, []

    def eval(self, t, v):
        self.times.extend(np.ravel(t))
        return self.g.eval(t, v)


class TestDrawStream:
    @pytest.mark.parametrize("case, seed, scale, t_range", STREAM_CASES)
    def test_constant_and_stream_equal_uniform_draws(self, monkeypatch, case,
                                                     seed, scale, t_range):
        problem, g, u0, radius = _preset_case(*LIPSCHITZ_CASES[case])
        got_g, oracle_g = TimeRecorder(g), TimeRecorder(g)
        got_rng = np.random.default_rng(seed)
        got = estimate_lipschitz(got_g, problem, u0, scale * radius, t_range,
                                 n_samples=120, rng=got_rng)
        monkeypatch.setattr(problem, "random_field",
                            lambda rng: uniform_random_field(problem, rng))
        oracle_rng = np.random.default_rng(seed)
        expected = loop_lipschitz(oracle_g, problem, u0, scale * radius, t_range,
                                  120, oracle_rng)
        assert got.hex() == expected.hex()
        assert got_rng.bit_generator.state == oracle_rng.bit_generator.state
        # each pair's time, evaluated for v and w, in chunk order or pair order
        assert np.array_equal(np.sort(got_g.times), np.sort(oracle_g.times))

    @pytest.mark.parametrize("problem", [HeatTorusProblem(dim=2, n=32),
                                         HeatTorusProblem(dim=2, n=128),
                                         WaveProblem(n_modes=32)],
                             ids=["heat2d-n32", "heat2d-n128", "wave-32modes"])
    @pytest.mark.parametrize("seed", [0, 1, 31337])
    def test_fields_equal_uniform_draws(self, problem, seed):
        got_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            got = problem.random_field(got_rng)
            expected = uniform_random_field(problem, oracle_rng)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
        assert got_rng.bit_generator.state == oracle_rng.bit_generator.state

    @given(st.one_of(st.sampled_from([(0.0, 0.05), (0.0, 1.0), (0.1, 1.0),
                                      (0.0, 2 * np.pi), (0.2, 0.25)]),
                     st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300))
                     .filter(lambda b: b[0] < b[1])),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_scaled_random_is_uniform(self, bounds, seed):
        # the estimator draws lo + (hi - lo) * random() in place of
        # uniform(lo, hi); a numpy whose uniform rounds otherwise fails here
        lo, hi = bounds
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(16):
            assert lo + (hi - lo) * a.random() == b.uniform(lo, hi)
        assert a.random() == b.uniform()


class TestAdvection:
    def test_constant_has_zero_derivative(self):
        hp = HeatTorusProblem(dim=1, n=256)
        g = AdvectionNonlinearity(hp)
        out = g.eval(0.0, np.full(256, 3.0))
        assert np.max(np.abs(out)) < 1e-12

    def test_sine_product_identity(self):
        hp = HeatTorusProblem(dim=1, n=256)
        g = AdvectionNonlinearity(hp)
        x = hp.grid()
        out = g.eval(0.0, np.sin(x))
        assert np.max(np.abs(out - 0.5 * np.sin(2 * x))) < 1e-12

    def test_sampled_ratios_respect_gradient_bound(self, rng):
        hp = HeatTorusProblem(dim=1, n=256)
        g = AdvectionNonlinearity(hp)
        radius = 0.5
        # product rule: |d(v v') | <= ||v||_inf ||v'-w'|| + ||v'|| ||v-w|| terms;
        # the sampled ratio stays under the estimate with its safety factor
        L = estimate_lipschitz(g, hp, hp.zeros(), radius, (0.0, 1.0),
                               n_samples=200, rng=rng)
        worst = 0.0
        for _ in range(100):
            v = hp.sample_in_ball(hp.zeros(), radius, rng)
            w = hp.sample_in_ball(hp.zeros(), radius, rng)
            dv = hp.v_norm(v - w)
            if dv == 0.0:
                continue
            worst = max(worst, hp.x_norm(g.eval(0.0, v) - g.eval(0.0, w)) / dv)
        assert worst <= L  # safety factor keeps fresh samples below the estimate

    def test_needs_1d_problem(self):
        # OU and wave are 1D too, but have no periodic rfft grid
        for problem in (HeatTorusProblem(dim=2, n=16), OUProblem(n=64),
                        WaveProblem(n_modes=16)):
            with pytest.raises(ValidationError):
                AdvectionNonlinearity(problem)


class TestWaveCubic:
    def test_zero_state(self):
        wp = WaveProblem(n_modes=16)
        g = WaveCubic(wp)
        out = g.eval(0.0, wp.zeros())
        assert np.max(np.abs(out)) == 0.0

    def test_forcing_is_minus_cube(self):
        wp = WaveProblem(n_modes=64, alpha_w=1.0)
        g = WaveCubic(wp)
        w = np.sin(wp.x)
        z = wp.encode(w, np.zeros_like(w))
        out = g.eval(0.0, z)
        # output encodes the pair (0, -w^3)
        zero_w, force = decode(wp, out * 1.0 + 0.0)  # decode wants complex
        assert np.max(np.abs(zero_w)) < 1e-12
        assert np.allclose(force, -w ** 3, atol=1e-10)

    def test_eval_pair_matches_modal_eval(self, rng):
        wp = WaveProblem(n_modes=32, alpha_w=1.3)
        g = WaveCubic(wp)

        def eval_pair(t, pair):
            """(w, wdot) -> (0, -alpha_w * w^3) on a physical pair."""
            w, _ = pair
            return np.zeros_like(w), -wp.alpha_w * w ** 3

        w = rng.standard_normal(wp.n) * 0.3
        _, force = eval_pair(0.0, (w, np.zeros_like(w)))
        z = wp.encode(w, np.zeros_like(w))
        _, force2 = decode(wp, g.eval(0.0, z))
        assert np.allclose(force, force2, atol=1e-10)

    def test_sampled_ratios_bounded_on_energy_ball(self, rng):
        wp = WaveProblem(n_modes=32, alpha_w=1.0)
        g = WaveCubic(wp)
        R = 1.0
        L = estimate_lipschitz(g, wp, wp.zeros(), R, (0.0, 1.0),
                               n_samples=200, rng=rng)
        worst = 0.0
        for _ in range(100):
            v = wp.sample_in_ball(wp.zeros(), R, rng)
            w = wp.sample_in_ball(wp.zeros(), R, rng)
            dv = wp.v_norm(v - w)
            if dv == 0.0:
                continue
            worst = max(worst, wp.x_norm(g.eval(0.0, v) - g.eval(0.0, w)) / dv)
        assert worst <= L


class TestStackedEval:
    @given(st.sampled_from(sorted(STACKED_EVAL_CASES)), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_stack_equals_rows(self, case, k, seed):
        g, shape, cplx = STACKED_EVAL_CASES[case]
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((k,) + shape)
        if cplx:
            X = X + 1j * rng.standard_normal((k,) + shape)
        # exact zeros take the 0 -> 0 branch of powers below 2
        X[rng.uniform(size=X.shape) < 0.2] = 0.0
        times = rng.uniform(0.0, 1.0, k)
        out = g.eval(times, X)
        rows = np.stack([g.eval(t, x) for t, x in zip(times, X)])
        assert out.shape == X.shape
        assert out.dtype == rows.dtype
        assert np.array_equal(out, rows)


class TestStoredState:
    times = np.round(np.arange(6) * 0.1, 12)
    states = np.arange(6 * 4, dtype=float).reshape(6, 4)

    def test_array_of_times_returns_those_rows(self):
        # sums of the steps land next to, not on, the stored times
        t = np.array([0.5, 0.1 + 0.2, 0.0, 0.1 + 0.2])
        rows = stored_state(self.times, self.states, t)
        assert np.array_equal(rows, self.states[[5, 3, 0, 3]])
        assert np.array_equal(stored_state(self.times, self.states, 0.4),
                              self.states[4])

    @pytest.mark.parametrize("t", [0.25, [0.1, 0.25], [0.0, 0.5, 0.5 + 1e-6]])
    def test_any_unstored_time_rejected(self, t):
        with pytest.raises(ValidationError, match="no reference state stored"):
            stored_state(self.times, self.states, t)


class TestStripMonitor:
    def test_inside_returns_distance(self):
        times = np.array([0.0, 0.5, 1.0])
        states = [np.zeros(4), np.ones(4), 2 * np.ones(4)]
        mon = StripMonitor(radius=1.0, times=times, states=states,
                           v_norm=lambda v: float(np.max(np.abs(v))))
        d = mon.check(0.5, np.ones(4) * 1.2)
        assert d == pytest.approx(0.2)

    def test_violation_raises_and_records(self):
        times = np.array([0.0, 1.0])
        states = [np.zeros(2), np.zeros(2)]
        mon = StripMonitor(radius=0.5, times=times, states=states,
                           v_norm=lambda v: float(np.max(np.abs(v))))
        with pytest.raises(StripViolationError):
            mon.check(1.0, np.array([0.9, 0.0]))
        assert len(mon.violations) == 1

    def test_unsampled_time_rejected(self):
        mon = StripMonitor(radius=1.0, times=np.array([0.0, 1.0]),
                           states=[np.zeros(2)] * 2,
                           v_norm=lambda v: float(np.max(np.abs(v))))
        with pytest.raises(ValidationError):
            mon.check(0.37, np.zeros(2))

    # a study checks each sweep run once, on the (k, *grid) stack of its rows
    @given(p=st.sampled_from([1.0, 2.0, np.inf]),
           shape=st.sampled_from([(16,), (4, 6)]), k=st.integers(1, 12),
           is_complex=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_stack_distances_equal_the_per_row_checks(self, p, shape, k,
                                                      is_complex, seed):
        rng = np.random.default_rng(seed)

        def draw(*lead):
            x = rng.standard_normal(lead + shape)
            return x + 1j * rng.standard_normal(lead + shape) if is_complex else x

        h = 0.1
        mon = StripMonitor(radius=np.inf, times=np.round(np.arange(20) * h, 12),
                           states=draw(20),
                           v_norm=lambda v: lp_norm(v, p, 0.25, len(shape)))
        # row times as a run makes them, steps * h, next to the stored ones
        t = np.sort(rng.integers(0, 20, k)) * h
        X = draw(k)
        dist = mon.check(t, X)
        assert dist.shape == (k,)
        rows = [mon.check(t_i, x_i) for t_i, x_i in zip(t, X)]
        assert all(isinstance(d, float) for d in rows)
        assert np.array_equal(dist, rows)  # bit for bit
        assert mon.violations == []

    def test_stack_raises_at_its_first_row_beyond_the_radius(self):
        times = np.round(np.arange(6) * 0.1, 12)
        mon = StripMonitor(radius=0.5, times=times, states=np.zeros((6, 3)),
                           v_norm=lambda v: lp_norm(v, np.inf, 1.0, 1))
        X = np.zeros((5, 3))
        X[2, 0], X[4, 2] = -0.7, 0.9  # rows 2 and 4 leave the strip
        t = np.arange(5) * 0.1
        with pytest.raises(StripViolationError) as stacked:
            mon.check(t, X)
        assert str(stacked.value) == ("trajectory left the strip at t=0.2: "
                                      "distance 7.000e-01 > radius 5.000e-01")
        assert mon.violations == [(t[2], 0.7)]
        # the message and record of a per-row check of that row
        row = StripMonitor(radius=0.5, times=times, states=np.zeros((6, 3)),
                           v_norm=mon.v_norm)
        with pytest.raises(StripViolationError) as single:
            row.check(t[2], X[2])
        assert str(single.value) == str(stacked.value)
        assert row.violations == mon.violations
        # rows inside the strip pass
        assert np.array_equal(mon.check(t[:2], X[:2]), [0.0, 0.0])
