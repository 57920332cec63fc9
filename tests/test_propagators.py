import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import decode, random_state
from expsplit.errors import ValidationError
from expsplit.integrator import SchemeSpec
from expsplit.lagrange import NodeSet, build_lagrange, eval_basis
from expsplit.propagators import (HeatTorusProblem, OUProblem, Propagator,
                                  SmoothingProfile, WaveProblem,
                                  gaussian_smoothing_constant, lp_norm,
                                  measure_smoothing)

# (problem, largest h*|lambda| drawn).  Heat reaches h*|lambda| ~ 102 in the
# heat-frac-s2 preset (n=128, h=1/40).  The wave spectrum is imaginary, and
# 32 Gauss-Legendre nodes resolve e^{i z theta} only up to z ~ 60; the wave
# presets stay below h*|lambda| = 1.6.
CONVOLVE_PROBLEMS = {
    "heat-1d": (lambda: HeatTorusProblem(dim=1, n=64), 110.0),
    "heat-2d": (lambda: HeatTorusProblem(dim=2, n=16), 110.0),
    "wave": (lambda: WaveProblem(n_modes=32), 50.0),
}


# name -> problem; every norm exponent branch of lp_norm, the Sobolev
# gradient in 1D and 2D, OU and the wave energy norm
NORM_PROBLEMS = {
    "heat-1d": HeatTorusProblem(dim=1, n=64),
    "heat-2d": HeatTorusProblem(dim=2, n=16),
    "heat-1d-sobolev": HeatTorusProblem(dim=1, n=64, sobolev_v=True),
    "heat-2d-sobolev": HeatTorusProblem(dim=2, n=16, sobolev_v=True),
    "heat-1d-r1": HeatTorusProblem(dim=1, n=64, p=1, r=1),
    "heat-1d-r4": HeatTorusProblem(dim=1, n=64, p=2, r=4),
    "heat-2d-rinf": HeatTorusProblem(dim=2, n=16, p=2, r=np.inf, w_choice="X"),
    "ou": OUProblem(n=128),
    "ou-r4": OUProblem(n=128, p=2, r=4),
    "wave": WaveProblem(n_modes=32),
}


class TestNorms:
    def test_lp_norm_stack_gives_row_norms(self):
        X = np.array([[3.0, -4.0], [1.0, 0.0]])
        assert np.array_equal(lp_norm(X, 2, 1.0, 1), [5.0, 1.0])
        assert np.array_equal(lp_norm(X, 1, 1.0, 1), [7.0, 1.0])
        assert np.array_equal(lp_norm(X, np.inf, 1.0, 1), [4.0, 1.0])
        # the same array as one 2D grid function
        assert lp_norm(X, 1, 1.0, 2) == 8.0
        assert lp_norm(X, 1, 1.0) == 8.0

    def test_lp_norm_of_empty_grid_is_zero(self):
        for p in (1.0, 2.0, 3.0, np.inf):
            assert lp_norm(np.zeros(0), p, 1.0) == 0.0
            assert np.array_equal(lp_norm(np.zeros((3, 0)), p, 1.0, 1), np.zeros(3))

    @given(st.sampled_from(sorted(NORM_PROBLEMS)), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_stack_norms_equal_row_norms(self, case, k, seed):
        pr = NORM_PROBLEMS[case]
        rng = np.random.default_rng(seed)
        X = np.stack([random_state(pr, rng) * rng.uniform(0.1, 10.0)
                      for _ in range(k)])
        for norm in (pr.v_norm, pr.x_norm, pr.w_norm):
            got = norm(X)
            rows = np.array([norm(x) for x in X])
            assert type(norm(X[0])) is float
            assert isinstance(got, np.ndarray) and got.shape == (k,)
            assert np.all(np.abs(got - rows) <= 1e-14 * rows)

    @given(st.sampled_from([1, 2]), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stack_gradient_equals_row_gradients(self, dim, k, seed):
        # the multiplier does not depend on the stack axis, so a transform
        # over it as well would agree to rounding; only exact equality
        # shows that the stack axis is left alone
        hp = NORM_PROBLEMS[f"heat-{dim}d-sobolev"]
        rng = np.random.default_rng(seed)
        X = np.stack([random_state(hp, rng) for _ in range(k)])
        rows = np.stack([hp.gradient(x) for x in X])
        assert np.array_equal(hp.gradient(X), rows)

    def test_lp_norm_basics(self):
        v = np.array([3.0, -4.0])
        assert lp_norm(v, 1, 1.0) == pytest.approx(7.0)
        assert lp_norm(v, 2, 1.0) == pytest.approx(5.0)
        assert lp_norm(v, np.inf, 1.0) == pytest.approx(4.0)

    def test_lp_norm_cell_volume_scaling(self):
        v = np.ones(10)
        assert lp_norm(v, 1, 0.5) == pytest.approx(5.0)
        assert lp_norm(v, 2, 0.5) == pytest.approx(math.sqrt(5.0))

    def test_lp_norm_generic_exponent(self):
        v = np.array([1.0, 2.0])
        assert lp_norm(v, 3, 1.0) == pytest.approx((1 + 8) ** (1 / 3))


# name -> problem factory taking the couple (p, r, w_choice)
COUPLE_PROBLEMS = {
    "heat-1d": lambda **kw: HeatTorusProblem(dim=1, n=64, **kw),
    "heat-2d": lambda **kw: HeatTorusProblem(dim=2, n=16, **kw),
    "ou": lambda **kw: OUProblem(n=128, **kw),
}

# name -> problem whose sample_in_ball is checked; heat with the Sobolev V
BALL_PROBLEMS = {
    "heat-1d-sobolev": lambda: HeatTorusProblem(dim=1, n=64, sobolev_v=True),
    "heat-2d-sobolev": lambda: HeatTorusProblem(dim=2, n=32, sobolev_v=True),
    "ou": lambda: OUProblem(n=128),
    "wave": lambda: WaveProblem(n_modes=32),
}


class TestNormCouple:
    @pytest.mark.parametrize("case", sorted(COUPLE_PROBLEMS))
    def test_bad_couple_rejected(self, case):
        with pytest.raises(ValidationError):
            COUPLE_PROBLEMS[case](w_choice="L2")
        with pytest.raises(ValidationError):
            COUPLE_PROBLEMS[case](p=4, r=2)

    @pytest.mark.parametrize("case", sorted(COUPLE_PROBLEMS))
    def test_w_profile_follows_w_choice(self, case):
        pr = COUPLE_PROBLEMS[case](p=1, r=2, w_choice="X")
        assert pr.profile_x.alpha > 0.0
        assert pr.profile_w is pr.profile_x
        pr = COUPLE_PROBLEMS[case](p=1, r=2, w_choice="V")
        assert pr.profile_w.alpha == 0.0
        assert pr.profile_w.c == pr.bound_m
        assert pr.profile_w.t_max == pr.profile_x.t_max

    @pytest.mark.parametrize("case", sorted(BALL_PROBLEMS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sample_in_ball_lands_in_shell(self, case, seed):
        pr = BALL_PROBLEMS[case]()
        rng = np.random.default_rng(seed)
        center = random_state(pr, rng)
        for radius in (1e-3, 0.3, 50.0):
            for _ in range(20):
                d = pr.v_norm(pr.sample_in_ball(center, radius, rng) - center)
                assert 0.1 * radius * (1.0 - 1e-12) <= d <= radius * (1.0 + 1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 12345])
    def test_wave_sample_in_ball_keeps_stream(self, seed):
        wp = WaveProblem(n_modes=32)
        center = wp.encode(np.sin(wp.x), np.cos(2 * wp.x))
        rng = np.random.default_rng(seed)
        got = wp.sample_in_ball(center, 0.3, rng)
        # the per-problem sampler this replaced: energy-norm scaling, no zero test
        ref_rng = np.random.default_rng(seed)
        amp = ref_rng.standard_normal(wp.n) + 1j * ref_rng.standard_normal(wp.n)
        amp /= (1.0 + wp.omega) ** 2
        nv = lp_norm(amp, 2.0, wp.dx, 1)
        ref = center + 0.3 * ref_rng.uniform(0.1, 1.0) / nv * amp
        assert np.array_equal(got, ref)
        assert rng.standard_normal() == ref_rng.standard_normal()  # same stream


class TestSmoothingProfile:
    def test_omega_integral(self):
        pr = SmoothingProfile(c=2.0, alpha=0.25, t_max=1.0)
        h = 0.3
        assert pr.omega(h) == pytest.approx(2.0 * h ** 0.75 / 0.75, rel=1e-13)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValidationError):
            SmoothingProfile(c=1.0, alpha=1.0, t_max=1.0)

    def test_gaussian_constant_l1_l2(self):
        c, alpha = gaussian_smoothing_constant(1, 1, 2)
        assert alpha == pytest.approx(0.25)
        # oracle: ||g_t||_2 for the d=1 heat kernel, computed directly
        t = 0.37
        x = np.linspace(-40, 40, 400001)
        g = np.exp(-x ** 2 / (4 * t)) / math.sqrt(4 * math.pi * t)
        l2 = math.sqrt(np.trapezoid(g ** 2, x))
        assert c * t ** -alpha == pytest.approx(l2, rel=1e-6)

    def test_gaussian_constant_p_equals_r(self):
        c, alpha = gaussian_smoothing_constant(2, 2, 2)
        assert alpha == 0.0
        assert c == pytest.approx(1.0)

    def test_rejects_r_below_p(self):
        with pytest.raises(ValidationError):
            gaussian_smoothing_constant(1, 2, 1)


class TestHeat:
    def test_identity_at_zero(self, rng):
        hp = HeatTorusProblem(dim=1, n=64)
        v = random_state(hp, rng)
        assert np.array_equal(hp.apply(0.0, v), v)

    def test_fourier_mode_eigenfunction(self):
        hp = HeatTorusProblem(dim=1, n=64)
        x = hp.grid()
        k, t = 3, 0.17
        v = np.cos(k * x)
        out = hp.apply(t, v)
        assert np.allclose(out, math.exp(-t * k * k) * v, atol=1e-13)

    def test_delta_ratio_matches_gaussian_kernel(self):
        hp = HeatTorusProblem(dim=1, n=1024, p=1, r=np.inf)
        d = hp.zeros()
        d[512] = 1.0
        t = 1e-3
        ratio = hp.lp(hp.apply(t, d), np.inf) / hp.lp(d, 1)
        assert ratio == pytest.approx((4 * math.pi * t) ** -0.5, rel=0.02)

    def test_semigroup_law(self, rng):
        hp = HeatTorusProblem(dim=1, n=64)
        for _ in range(20):
            v = random_state(hp, rng)
            t1, t2 = rng.uniform(0.01, 0.4, 2)
            d = hp.apply(t1 + t2, v) - hp.apply(t1, hp.apply(t2, v))
            assert hp.v_norm(d) < 1e-12

    def test_2d_apply(self, rng):
        hp = HeatTorusProblem(dim=2, n=16)
        xx, yy = hp.grid()
        v = np.cos(2 * xx + yy)
        out = hp.apply(0.1, v)
        assert np.allclose(out, math.exp(-0.1 * 5.0) * v, atol=1e-13)

    def test_shape_mismatch_rejected(self):
        hp = HeatTorusProblem(dim=1, n=64)
        with pytest.raises(ValidationError):
            hp.apply(0.1, np.zeros(32))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_shape_mismatch_rejected_at_zero(self, dim):
        hp = HeatTorusProblem(dim=dim, n=16)
        with pytest.raises(ValidationError):
            hp.apply(0.0, np.zeros(8))
        with pytest.raises(ValidationError):
            hp.apply(0.0, np.zeros((3, 8)))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValidationError):
            HeatTorusProblem(dim=1, n=48)

    def test_sobolev_v_norm_adds_gradient(self):
        hp = HeatTorusProblem(dim=1, n=64, sobolev_v=True)
        x = hp.grid()
        v = np.sin(x)
        plain = HeatTorusProblem(dim=1, n=64).v_norm(v)
        assert hp.v_norm(v) == pytest.approx(2.0 * plain, rel=1e-12)

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (2, 32)])
    def test_real_transforms_match_complex_fft(self, dim, n):
        # the complex-FFT formulas on the full spectrum, Nyquist modes included
        hp = HeatTorusProblem(dim=dim, n=n)
        X = np.random.default_rng(7).standard_normal((3,) + hp.shape)
        axes = tuple(range(-dim, 0))
        k = np.fft.fftfreq(n, d=1.0 / n)
        ks = np.meshgrid(*[k] * dim, indexing="ij")
        Xh = np.fft.fftn(X, axes=axes)
        for t in (0.0, 1e-3, 0.05, 0.7):
            ref = np.fft.ifftn(np.exp(-t * sum(kk ** 2 for kk in ks)) * Xh, axes=axes).real
            for x, row in zip(X, ref):
                assert np.max(np.abs(hp.apply(t, x) - row)) <= 1e-14 * np.max(np.abs(row))
        parts = [np.fft.ifftn(1j * kk * Xh, axes=axes).real for kk in ks]
        ref = parts[0] if dim == 1 else np.sqrt(parts[0] ** 2 + parts[1] ** 2)
        assert np.max(np.abs(hp.gradient(X) - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n,sobolev", [(8, False), (64, False), (256, True)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 12345])
    def test_sample_in_ball_1d_matches_loop(self, n, sobolev, seed):
        hp = HeatTorusProblem(dim=1, n=n, sobolev_v=sobolev)
        center = np.cos(hp.grid())
        rng = np.random.default_rng(seed)
        got = hp.sample_in_ball(center, 0.3, rng)
        # the per-mode loop: two draws per wave number, then the mean
        ref_rng = np.random.default_rng(seed)
        x, v = hp.grid(), np.zeros(n)
        for k in range(1, min(n // 4, 16) + 1):
            a, b = ref_rng.standard_normal(2) / k ** 2
            v += a * np.cos(k * x) + b * np.sin(k * x)
        v += ref_rng.standard_normal() * 0.5
        ref = center + 0.3 * ref_rng.uniform(0.1, 1.0) / hp.v_norm(v) * v
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert rng.standard_normal() == ref_rng.standard_normal()  # same stream

    @pytest.mark.parametrize("n", [16, 32, 128])
    @pytest.mark.parametrize("seed", [0, 1, 2, 12345])
    def test_sample_in_ball_2d_matches_loop(self, n, seed):
        hp = HeatTorusProblem(dim=2, n=n)
        xx, yy = hp.grid()
        center = np.cos(xx) * np.sin(2 * yy)
        rng = np.random.default_rng(seed)
        got = hp.sample_in_ball(center, 0.3, rng)
        # the per-wave loop: one full-grid cosine per drawn wave
        ref_rng = np.random.default_rng(seed)
        kmax, v = min(n // 4, 16), np.zeros((n, n))
        for _ in range(8):
            kx = ref_rng.integers(0, kmax + 1)
            ky = ref_rng.integers(0, kmax + 1)
            a = ref_rng.standard_normal() / (1.0 + kx ** 2 + ky ** 2)
            ph = ref_rng.uniform(0, 2 * np.pi)
            v += a * np.cos(kx * xx + ky * yy + ph)
        ref = center + 0.3 * ref_rng.uniform(0.1, 1.0) / hp.v_norm(v) * v
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert rng.standard_normal() == ref_rng.standard_normal()  # same stream


class TestOU:
    def setup_method(self):
        self.ou = OUProblem(b=-1.0, q=2.0, box=12.0, n=512, t_max=1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 12345])
    def test_sample_in_ball_matches_loop(self, seed):
        ou = self.ou
        center = np.exp(-ou.x ** 2)
        rng = np.random.default_rng(seed)
        got = ou.sample_in_ball(center, 0.3, rng)
        # the per-mode loop: two draws per wave number, then the envelope
        ref_rng = np.random.default_rng(seed)
        v = np.zeros(ou.n)
        for k in range(1, 7):
            a, b = ref_rng.standard_normal(2) / k ** 2
            v += a * np.cos(k * np.pi * ou.x / ou.box) + b * np.sin(k * np.pi * ou.x / ou.box)
        v *= np.exp(-ou.x ** 2 / (2.0 * (ou.box / 3.0) ** 2))
        ref = center + 0.3 * ref_rng.uniform(0.1, 1.0) / ou.v_norm(v) * v
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert rng.standard_normal() == ref_rng.standard_normal()  # same stream

    def test_identity_at_zero(self):
        v = np.exp(-self.ou.x ** 2)
        assert np.array_equal(self.ou.apply(0.0, v), v)

    def test_constant_preserved(self):
        out = self.ou.apply(0.3, np.ones(self.ou.n))
        # away from the dilated boundary the Markov property gives 1
        core = np.abs(self.ou.x) < 6.0
        assert np.max(np.abs(out[core] - 1.0)) < 1e-8

    def test_gaussian_variance_map(self):
        ou = self.ou
        sigma, t = 1.0, 0.5
        v = np.exp(-ou.x ** 2 / (2 * sigma ** 2))
        out = ou.apply(t, v)
        b, q = ou.b, ou.q
        var = math.exp(2 * b * t) * sigma ** 2 + 2 * q * (math.exp(2 * b * t) - 1) / (2 * b)
        amp = sigma / math.sqrt(sigma ** 2 + 2 * ou.q_t(t))
        exact = amp * np.exp(-ou.x ** 2 / (2 * var))
        rel = ou.lp(out - exact, 2) / ou.lp(exact, 2)
        assert rel < 1e-6

    def test_semigroup_law(self, rng):
        worst = 0.0
        for _ in range(20):
            v = self._decayed_state(rng)
            t1, t2 = rng.uniform(0.05, 0.25, 2)
            d = self.ou.apply(t1 + t2, v) - self.ou.apply(t1, self.ou.apply(t2, v))
            worst = max(worst, self.ou.lp(d, 2) / self.ou.lp(v, 2))
        assert worst < 1e-6

    def _decayed_state(self, rng):
        env = np.exp(-self.ou.x ** 2 / 2.0)
        v = np.zeros(self.ou.n)
        for k in range(1, 7):
            a, b = rng.standard_normal(2) / k ** 2
            v += a * np.cos(k * np.pi * self.ou.x / self.ou.box) \
                + b * np.sin(k * np.pi * self.ou.x / self.ou.box)
        return v * env

    def test_lp_operator_bound_with_slack(self, rng):
        # ||S(t)||_{L(Lp)} <= e^{-gamma t / p}; 2% slack for box truncation
        for _ in range(10):
            v = self._decayed_state(rng)
            for t in (0.1, 0.3, 0.6):
                for p in (1.0, 2.0):
                    lhs = self.ou.lp(self.ou.apply(t, v), p)
                    rhs = math.exp(-self.ou.gamma * t / p) * self.ou.lp(v, p)
                    assert lhs <= 1.02 * rhs

    def test_tiny_time_pure_dilation_flagged(self):
        ou = OUProblem(b=-1.0, q=2.0, box=12.0, n=128, t_max=1.0)
        v = np.exp(-ou.x ** 2)
        out = ou.apply(1e-16, v)
        assert np.max(np.abs(out - v)) < 1e-10

    def test_l1_to_linf_constant_is_the_kernel_sup(self):
        # 1/q = 1 - 1/p + 1/r = 0: ||k_t||_inf = (4 pi Q_t)^(-1/2), Q_t >= q t
        ou = OUProblem(b=-1.0, q=2.0, box=12.0, n=128, p=1, r=np.inf)
        prof = ou.profile_x
        assert prof.alpha == 0.5
        for t in (1e-6, 0.01, 0.1, 1.0):
            sup = 1.0 / math.sqrt(4.0 * math.pi * ou.q_t(t))
            assert prof.c * t ** -prof.alpha >= sup
        t = 1e-6  # Q_t = q t (1 + O(gamma t))
        assert prof.c * t ** -prof.alpha == pytest.approx(
            1.0 / math.sqrt(4.0 * math.pi * ou.q_t(t)), rel=1e-5)

    def test_positive_drift_rejected(self):
        with pytest.raises(ValidationError):
            OUProblem(b=0.5, q=1.0)

    @pytest.mark.parametrize("kw", [{"n": 2}, {"n": 3}, {"box": 0.0},
                                    {"box": -1.0}, {"box": math.nan},
                                    {"b": math.nan}, {"b": -math.inf},
                                    {"q": math.nan}])
    def test_bad_parameters_rejected(self, kw):
        with pytest.raises(ValidationError):
            OUProblem(**kw)

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            self.ou.apply(-0.1, np.zeros(self.ou.n))


# OU flow times for the batched kernel: exact zeros, times below the
# kernel-variance cutoff (pure dilation), step-sized times, and times whose
# dilation e^{gamma t} x carries most grid points out of the box
OU_TIMES = st.one_of(st.just(0.0), st.floats(1e-18, 4e-15),
                     st.floats(1e-5, 0.05), st.floats(0.5, 3.0))


class TestOUBatched:
    ou = OUProblem(b=-1.0, q=2.0, box=12.0, n=512, t_max=1.0)

    @given(st.lists(OU_TIMES, min_size=1, max_size=24), st.integers(0, 2 ** 32 - 1))
    @example(times=[0.0, 1e-16, 1e-3, 2.0], seed=0)
    @settings(max_examples=60, deadline=None)
    def test_apply_rows_equals_scalar_apply(self, times, seed):
        ou = self.ou
        V = np.random.default_rng(seed).standard_normal((len(times), ou.n))
        rows = ou.apply_nodes(ou.flow_op(times), V)
        assert rows.shape == V.shape
        for t, v, row in zip(times, V, rows):
            assert np.array_equal(row, ou.apply(t, v))
            if t == 0.0:
                assert np.array_equal(row, v)

    @given(st.integers(1, 4), st.booleans(),
           st.floats(math.log(1 / 10240), math.log(1 / 20)),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stage_convolve_equals_per_node_applies(self, s, at_nodes, log_h, seed):
        # the quadrature written out one apply per Gauss-Legendre node
        ou = self.ou
        lag = SchemeSpec.with_stages(s).lag
        ends = lag.node_set.nodes if at_nodes else (1.0,)
        h = math.exp(log_h)
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((s, ou.n)) * np.exp(-ou.x ** 2 / 8.0)
        out = ou.stage_convolve(ou.convolve_op(h, lag, ends), G)
        assert out.shape == (len(ends), ou.n)
        q = s + ou.quad_extra_nodes
        x, w = np.polynomial.legendre.leggauss(q)
        for e, row in zip(ends, out):
            t_end = e * h
            if t_end == 0.0:
                assert not np.any(row)
                continue
            tau = 0.5 * t_end * (x + 1.0)
            wt = 0.5 * t_end * w
            basis = np.array([[eval_basis(lag, j, tq, h) for j in range(1, s + 1)]
                              for tq in tau])
            interp = np.tensordot(basis, G, axes=(1, 0))
            ref = sum(wt[k] * ou.apply(t_end - tau[k], interp[k]) for k in range(q))
            assert np.max(np.abs(row - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_tiny_time_rows_skip_the_fft(self):
        # an FFT round trip would leave rounding noise at every grid point;
        # pure dilation of a spike touches only its 4-point stencil
        ou = self.ou
        spike = ou.zeros()
        spike[ou.n // 3] = 1.0
        rows = ou.apply_nodes(ou.flow_op((1e-16, 0.0, 0.01)), np.stack([spike] * 3))
        assert 0 < np.count_nonzero(rows[0]) <= 4
        assert np.array_equal(rows[1], spike)
        assert np.count_nonzero(rows[2]) > 4

    def test_negative_node_time_rejected(self):
        u = np.exp(-self.ou.x ** 2)
        with pytest.raises(ValidationError, match="t must be >= 0"):
            self.ou.apply_nodes(self.ou.flow_op((-0.1 * 0.5,)), u)
        with pytest.raises(ValidationError, match="t must be >= 0"):
            self.ou.apply_nodes(self.ou.flow_op((0.1, -1e-300)), np.stack([u, u]))

    def test_wrongly_shaped_stack_rejected(self):
        ou = self.ou
        with pytest.raises(ValidationError):
            ou.apply_nodes(ou.flow_op((0.1, 0.2)), np.zeros((3, ou.n)))
        with pytest.raises(ValidationError):
            ou.apply_nodes(ou.flow_op((0.1,)), np.zeros((1, ou.n + 1)))
        with pytest.raises(ValidationError):
            ou.apply_nodes(ou.flow_op([c * 0.1 for c in (0.0, 0.5)]), np.zeros(ou.n - 1))
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        with pytest.raises(ValidationError):
            ou.stage_convolve(ou.convolve_op(0.1, lag, (1.0,)), np.zeros((2, ou.n // 2)))


class TestWave:
    def setup_method(self):
        self.wp = WaveProblem(n_modes=32)

    def test_identity_at_zero(self, rng):
        z = random_state(self.wp, rng)
        assert np.array_equal(self.wp.apply(0.0, z), z)

    def test_real_state_cast_to_complex_at_zero(self):
        z = self.wp.apply(0.0, np.ones(self.wp.n))
        assert z.dtype == complex and np.array_equal(z, np.ones(self.wp.n))

    def test_quarter_period_single_mode(self):
        wp = self.wp
        k = 4
        w = np.sin(k * wp.x)
        z = wp.encode(w, np.zeros_like(w))
        t = math.pi / (2.0 * k)
        w2, wdot2 = decode(wp, wp.apply(t, z))
        assert np.max(np.abs(w2)) < 1e-12
        assert np.allclose(wdot2, -k * w, atol=1e-11)

    def test_energy_conserved_long_run(self, rng):
        wp = self.wp
        z = random_state(wp, rng)
        e0 = wp.modal_energy(z)
        for t in (1.0, 5.0, 10.0):
            drift = np.max(np.abs(wp.modal_energy(wp.apply(t, z)) - e0))
            assert drift < 1e-12 * max(np.max(e0), 1.0)

    def test_group_property_negative_time(self, rng):
        wp = self.wp
        z = random_state(wp, rng)
        back = wp.apply(-0.7, wp.apply(0.7, z))
        assert np.max(np.abs(back - z)) < 1e-12

    def test_encode_decode_roundtrip(self, rng):
        wp = self.wp
        w = rng.standard_normal(wp.n)
        wdot = rng.standard_normal(wp.n)
        w2, wdot2 = decode(wp, wp.encode(w, wdot))
        assert np.allclose(w2, w, atol=1e-12)
        assert np.allclose(wdot2, wdot, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 16, 31, 32, 64, 257])
    def test_dst_matches_defining_sum(self, n):
        u = np.random.default_rng(n).standard_normal(n)
        got = WaveProblem(n_modes=n)._dst(u)
        # sqrt(2/(n+1)) sum_j u_j sin(pi j k/(n+1)) in scalar arithmetic,
        # each argument reduced in integers to [0, 2 pi), each sum by fsum
        ref = np.array([math.sqrt(2.0 / (n + 1)) * math.fsum(
            u[j - 1] * math.sin(math.pi * ((j * k) % (2 * (n + 1))) / (n + 1))
            for j in range(1, n + 1)) for k in range(1, n + 1)])
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [2, 3, 32, 257])
    def test_sine_matrix_is_a_symmetric_involution(self, n):
        S = WaveProblem(n_modes=n)._sine
        assert np.array_equal(S, S.T)
        assert np.max(np.abs(S @ S - np.eye(n))) <= 1e-14

    @pytest.mark.parametrize("shape", [(1,), (4,), (2, 3)])
    def test_stacked_sine_transform_equals_rows(self, shape):
        wp = self.wp
        U = np.random.default_rng(3).standard_normal(shape + (wp.n,))
        for transform in (wp._dst, wp._idst):
            out = transform(U)
            assert out.shape == U.shape
            for idx in np.ndindex(shape):
                assert np.array_equal(out[idx], transform(U[idx]))

    def test_apply_matches_block_rotation(self, rng):
        wp = self.wp

        def apply_pair(t, pair):
            """Block rotation cos/sin form on a physical pair (any real t)."""
            w, wdot = pair
            wh, vh = wp._dst(w), wp._dst(wdot)
            c = np.cos(wp.omega * t)
            s = np.sin(wp.omega * t)
            wh2 = c * wh + s / wp.omega * vh
            vh2 = -wp.omega * s * wh + c * vh
            return wp._idst(wh2), wp._idst(vh2)

        w = rng.standard_normal(wp.n)
        wdot = rng.standard_normal(wp.n)
        t = 0.83
        wa, va = apply_pair(t, (w, wdot))
        wb, vb = decode(wp, wp.apply(t, wp.encode(w, wdot)))
        assert np.allclose(wa, wb, atol=1e-12)
        assert np.allclose(va, vb, atol=1e-12)


class TestStageConvolve:
    def test_zero_values_give_zero(self):
        hp = HeatTorusProblem(dim=1, n=64)
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        (out,) = hp.stage_convolve(hp.convolve_op(0.1, lag, (1.0,)),
                                   [hp.zeros(), hp.zeros()])
        assert hp.v_norm(out) == 0.0

    def test_constant_integrand_single_node(self, make_scalar):
        pr = make_scalar(lam=0.0)
        lag = build_lagrange(NodeSet((0.5,)))
        g1 = np.array([2.0])
        h = 0.2
        (out,) = pr.stage_convolve(pr.convolve_op(h, lag, lag.node_set.nodes), [g1])
        assert out[0] == pytest.approx(0.5 * h * 2.0, rel=1e-13)
        (fin,) = pr.stage_convolve(pr.convolve_op(h, lag, (1.0,)), [g1])
        assert fin[0] == pytest.approx(h * 2.0, rel=1e-13)

    def test_heat_matches_direct_quadrature(self):
        hp = HeatTorusProblem(dim=1, n=64)
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        x = hp.grid()
        k, h = 3, 0.01
        g = [np.cos(k * x), np.sin(k * x)]
        (out,) = hp.stage_convolve(hp.convolve_op(h, lag, (1.0,)), g)
        xq, wq = np.polynomial.legendre.leggauss(64)
        tau = 0.5 * h * (xq + 1.0)
        wt = 0.5 * h * wq
        ref = hp.zeros()
        for tq, wv in zip(tau, wt):
            interp = (1 - tq / h) * g[0] + (tq / h) * g[1]
            ref = ref + wv * hp.apply(h - tq, interp)
        assert hp.v_norm(out - ref) < 1e-11

    @given(st.sampled_from(sorted(CONVOLVE_PROBLEMS)),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4, unique=True),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
           st.floats(0.5, 1.0), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_generic_quadrature_agrees_with_exact_weights(self, name, nodes, ends,
                                                          z_frac, seed):
        # generic Gauss-Legendre path (the OU path) vs exact phi-weights
        make, z_max = CONVOLVE_PROBLEMS[name]
        pr = make()
        nodes = sorted(nodes)
        assume(all(b - a >= 0.1 for a, b in zip(nodes, nodes[1:])))
        lag = build_lagrange(NodeSet(tuple(nodes)))
        h = z_frac * z_max / np.max(np.abs(pr.eigenvalues))
        rng = np.random.default_rng(seed)
        grid = pr.zeros().shape
        g = rng.standard_normal((lag.s,) + grid)
        if np.iscomplexobj(pr.zeros()):
            g = g + 1j * rng.standard_normal(g.shape)
        g = np.stack([gj / pr.v_norm(gj) for gj in g])  # every mode excited
        exact = pr.stage_convolve(pr.convolve_op(h, lag, ends), g)
        generic = Propagator.stage_convolve(
            pr, Propagator.convolve_op(pr, h, lag, ends, q_nodes=32), g)
        assert exact.shape == generic.shape == (len(ends),) + grid
        for row_exact, row_generic in zip(exact, generic):
            assert pr.v_norm(row_exact - row_generic) < 1e-11
        u = random_state(pr, rng)
        flows = pr.apply_nodes(pr.flow_op([c * h for c in nodes]), u)
        assert flows.shape == (lag.s,) + grid
        for c, row in zip(nodes, flows):
            assert pr.v_norm(row - pr.apply(c * h, u)) < 1e-13

    def test_too_few_quadrature_nodes_rejected(self):
        hp = OUProblem()
        lag = build_lagrange(NodeSet((0.0, 0.5, 1.0)))
        g = [hp.zeros()] * 3
        with pytest.raises(ValidationError):
            hp.stage_convolve(hp.convolve_op(0.1, lag, (1.0,), q_nodes=2), g)

    def test_wrong_stage_count_rejected(self):
        hp = HeatTorusProblem(dim=1, n=64)
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        with pytest.raises(ValidationError):
            hp.stage_convolve(hp.convolve_op(0.1, lag, (1.0,)), [hp.zeros()])


class TestMeasureSmoothing:
    def test_heat_l1_l2_slope(self, rng):
        hp = HeatTorusProblem(dim=1, n=1024, p=1, r=2)
        rep = measure_smoothing(hp, 1, 2, np.geomspace(1e-4, 1e-2, 7), rng=rng)
        assert rep.slope == pytest.approx(-0.25, abs=0.05)

    def test_heat_same_space_slope(self, rng):
        hp = HeatTorusProblem(dim=1, n=1024, p=2, r=2)
        rep = measure_smoothing(hp, 2, 2, np.geomspace(1e-4, 1e-2, 7), rng=rng)
        assert abs(rep.slope) < 0.05

    def test_heat_2d_l2_linf_slope(self, rng):
        hp = HeatTorusProblem(dim=2, n=128, p=2, r=np.inf)
        rep = measure_smoothing(hp, 2, np.inf,
                                np.geomspace(3e-4, 1e-2, 6), rng=rng)
        assert rep.slope == pytest.approx(-0.5, abs=0.1)

    def test_under_resolved_rows_flagged(self, rng):
        hp = HeatTorusProblem(dim=1, n=256, p=1, r=2)
        t_list = np.geomspace(1e-6, 1e-2, 6)
        rep = measure_smoothing(hp, 1, 2, t_list, rng=rng)
        flags = [ok for _, _, ok in rep.rows]
        assert not flags[0]  # width sqrt(2e-6) well below 2*dx
        assert flags[-1]

    def test_nonpositive_times_rejected(self, rng):
        hp = HeatTorusProblem(dim=1, n=64)
        with pytest.raises(ValidationError):
            measure_smoothing(hp, 2, 2, [0.0, 0.1], rng=rng)
