import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import decode, random_state
from expsplit.errors import FixedPointDivergenceError, ValidationError
from expsplit.harness import reference_solution
from expsplit.integrator import SchemeSpec, internal_stages, plan_step
from expsplit.lagrange import NodeSet, build_lagrange, eval_basis
from expsplit.nonlinearities import (AdvectionNonlinearity, PowerNonlinearity,
                                     WaveCubic, ZeroNonlinearity)
from expsplit.phi import stage_weights_diagonal
from expsplit.propagators import (HeatTorusProblem, OUProblem, SmoothingProfile,
                                  WaveProblem, _gauss_legendre,
                                  gaussian_smoothing_constant, lp_norm,
                                  measure_smoothing, quadrature_convolve)

def convolve(problem, op, G):
    """A convolve op applied to the stage values G, through their stage
    modes."""
    return problem.convolve_modes(op, problem.stage_modes(G))


# (problem, largest h*|lambda| drawn).  Heat reaches h*|lambda| ~ 102 in the
# heat-frac-s2 preset (n=128, h=1/40).  The wave spectrum is imaginary, and
# 32 Gauss-Legendre nodes resolve e^{i z theta} only up to z ~ 60; the wave
# presets stay below h*|lambda| = 1.6.
CONVOLVE_PROBLEMS = {
    "heat-1d": (lambda: HeatTorusProblem(dim=1, n=64), 110.0),
    "heat-2d": (lambda: HeatTorusProblem(dim=2, n=16), 110.0),
    "wave": (lambda: WaveProblem(n_modes=32), 50.0),
}


# name -> problem; every norm exponent branch of lp_norm in 1D and 2D, OU
# and the wave energy norm
NORM_PROBLEMS = {
    "heat-1d": HeatTorusProblem(dim=1, n=64),
    "heat-2d": HeatTorusProblem(dim=2, n=16),
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

    @pytest.mark.parametrize("case", sorted(NORM_PROBLEMS))
    def test_norms_are_the_declared_lp_norms(self, case):
        # the profiles bound the X -> V norm of the couple (p, r): every
        # problem's norms are exactly lp_norm of those exponents
        pr = NORM_PROBLEMS[case]
        rng = np.random.default_rng(11)
        X = np.stack([random_state(pr, rng) for _ in range(3)])
        w = pr.p if pr.w_choice == "X" else pr.r
        for norm, q in ((pr.x_norm, pr.p), (pr.v_norm, pr.r), (pr.w_norm, w)):
            assert norm(X[0]) == lp_norm(X[0], q, pr.cell)
            assert np.array_equal(norm(X), lp_norm(X, q, pr.cell, pr.dim))

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

# name -> problem whose sample_in_ball is checked
BALL_PROBLEMS = {
    "heat-1d": lambda: HeatTorusProblem(dim=1, n=64),
    "heat-2d": lambda: HeatTorusProblem(dim=2, n=32),
    "ou": lambda: OUProblem(n=128),
    "wave": lambda: WaveProblem(n_modes=32),
}


# name -> problem; every apply path: a folded and a modal 1D heat grid,
# 2D heat, OU and the complex wave states
APPLY_PROBLEMS = {
    "heat-1d-folded": lambda: HeatTorusProblem(dim=1, n=64),
    "heat-1d": lambda: HeatTorusProblem(dim=1, n=128),
    "heat-2d": lambda: HeatTorusProblem(dim=2, n=16),
    "ou": lambda: OUProblem(n=128),
    "wave": lambda: WaveProblem(n_modes=32),
}


class TestApply:
    @pytest.mark.parametrize("case", sorted(APPLY_PROBLEMS))
    def test_stack_rejected(self, case):
        pr = APPLY_PROBLEMS[case]()
        stack = np.zeros((2,) + pr.zeros().shape)
        for t in (0.0, 0.1):
            with pytest.raises(ValidationError):
                pr.apply(t, stack)

    @pytest.mark.parametrize("case", sorted(APPLY_PROBLEMS))
    def test_rows_of_a_stacked_flow(self, case):
        # each row of a multi-row flow is the one-time flow of its time
        pr = APPLY_PROBLEMS[case]()
        rng = np.random.default_rng(11)
        times = (1e-3, 0.05, 0.3)
        v = pr.random_field(rng)
        blown = v.copy()
        blown.reshape(-1)[1] = np.inf  # a non-finite state
        op = pr.flow_op(times)
        with np.errstate(invalid="ignore", over="ignore"):
            for w in (v, blown):
                rows = pr.apply_nodes(op, w)
                assert rows.shape == (len(times),) + pr.shape
                for t, row in zip(times, rows):
                    out = pr.apply(t, w)
                    assert out.dtype == pr.zeros().dtype
                    assert np.array_equal(out, row, equal_nan=True)
                # an exact copy on every grid, finite or not
                assert np.array_equal(pr.apply(0.0, w), w, equal_nan=True)


    @pytest.mark.parametrize("case", sorted(APPLY_PROBLEMS))
    def test_flow_of_no_times_has_no_rows(self, case):
        # an op computes the rows it is given, none for no times; an exact
        # reference over T = 0 is u_0 alone
        pr = APPLY_PROBLEMS[case]()
        v = pr.random_field(np.random.default_rng(2))
        assert pr.apply_nodes(pr.flow_op(()), v).shape == (0,) + pr.shape
        ref = reference_solution(pr, ZeroNonlinearity(), v, 0.0, 0.01, 0.01, 0.0)
        assert np.array_equal(ref.states, v[None])


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
        pr = SmoothingProfile(c=2.0, alpha=0.25)
        h = 0.3
        assert pr.omega(h) == pytest.approx(2.0 * h ** 0.75 / 0.75, rel=1e-13)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValidationError):
            SmoothingProfile(c=1.0, alpha=1.0)

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

    @pytest.mark.parametrize("dim,n", [(1, 8), (1, 64), (1, 128), (2, 16), (2, 32)])
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
        if dim == 1:  # the advection derivative on the rfft modes
            ref = X * np.fft.ifft(1j * k * Xh).real
            got = AdvectionNonlinearity(hp).eval(np.zeros(len(X)), X)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [8, 64, 128])  # folded grids, then an unfolded one
    def test_stacked_transforms_equal_rows_and_invert(self, n):
        hp = HeatTorusProblem(dim=1, n=n)
        X = np.random.default_rng(3).standard_normal((5, n))
        modes = hp.to_modes(X)
        back = hp.from_modes(modes)
        for x, row, b in zip(X, modes, back):
            assert np.array_equal(hp.to_modes(x), row)
            assert np.array_equal(hp.from_modes(row), b)
            assert np.max(np.abs(b - x)) <= 1e-14 * np.max(np.abs(x))
        with pytest.raises((ValidationError, TypeError)):  # np.fft: TypeError
            hp.to_modes(X + 1j)

    @pytest.mark.parametrize("n,modal", [(8, False), (64, False), (256, True)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 12345])
    def test_sample_in_ball_1d_matches_loop(self, n, modal, seed):
        # folded grids and a modal one build the same field basis
        hp = HeatTorusProblem(dim=1, n=n)
        assert hp.folded is not modal
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
        self.ou = OUProblem(b=-1.0, q=2.0, box=12.0, n=512)

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
        ou = OUProblem(b=-1.0, q=2.0, box=12.0, n=128)
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


# OU flow times for the batched kernel: exact zeros, times whose kernel
# variance q_t is below 1e-14 (a symbol of 1 to rounding, so the row is
# dilation after an FFT round trip), step-sized times, and times whose
# dilation e^{gamma t} x carries most grid points out of the box
OU_TIMES = st.one_of(st.just(0.0), st.floats(1e-18, 4e-15),
                     st.floats(1e-5, 0.05), st.floats(0.5, 3.0))


class TestOUBatched:
    ou = OUProblem(b=-1.0, q=2.0, box=12.0, n=512)

    @given(st.lists(OU_TIMES, min_size=1, max_size=24), st.integers(0, 2 ** 32 - 1))
    @example(times=[0.0, 1e-16, 1e-3, 2.0], seed=0)
    @example(times=[0.0, 0.0], seed=2)
    @settings(max_examples=60, deadline=None)
    def test_apply_rows_equals_scalar_apply(self, times, seed):
        # one rfft of the state serves every time, bit for bit; a t = 0 row
        # is computed, the dilation by e^0 = 1 to rounding
        ou = self.ou
        v = np.random.default_rng(seed).standard_normal(ou.n)
        rows = ou.apply_nodes(ou.flow_op(times), v)
        assert rows.shape == (len(times), ou.n)
        for t, row in zip(times, rows):
            if t == 0.0:
                assert np.max(np.abs(row - v)) <= 1e-14 * np.max(np.abs(v))
            else:
                assert np.array_equal(row, ou.apply(t, v))

    @pytest.mark.parametrize("times", [(1e-16, 1e-3, 0.02), (1e-3, 3e-16, 2.0),
                                       (2e-16, 1e-17), (1e-4, 0.5)],
                             ids=["cutoff-first", "cutoff-between", "all-below",
                                  "all-above"])
    def test_cutoff_patterns_equal_one_time_flows(self, times):
        # every row takes the same kernel, whether its kernel variance is
        # above or below 1e-14: every mix of such rows in one flow gives the
        # one-time flows
        ou = self.ou
        v = np.random.default_rng(3).standard_normal(ou.n) * np.exp(-ou.x ** 2 / 8.0)
        got = ou.apply_nodes(ou.flow_op(times), v)
        assert np.array_equal(got, np.stack([ou.apply(t, v) for t in times]))

    def per_node_convolve(self, h, lag, ends, G):
        """The stage convolution written out one apply per Gauss-Legendre
        node (default count s + 2), end by end."""
        ou, s = self.ou, lag.s
        x, w = np.polynomial.legendre.leggauss(s + 2)
        rows = []
        for e in ends:
            t_end = e * h
            tau = 0.5 * t_end * (x + 1.0)
            wt = 0.5 * t_end * w
            basis = np.array([[eval_basis(lag, j, tq, h) for j in range(1, s + 1)]
                              for tq in tau])
            interp = np.tensordot(basis, G, axes=(1, 0))
            rows.append(sum(wt[k] * ou.apply(t_end - tau[k], interp[k])
                            for k in range(len(tau))))
        return np.array(rows)

    @given(st.integers(1, 4), st.booleans(),
           st.floats(math.log(1 / 10240), math.log(1 / 20)),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stage_convolve_equals_per_node_applies(self, s, at_nodes, log_h, seed):
        # the stage op's ends are the nodes after c_1 = 0
        ou = self.ou
        lag = SchemeSpec.with_stages(s).lag
        ends = lag.node_set.nodes[1:] if at_nodes and s > 1 else (1.0,)
        h = math.exp(log_h)
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((s, ou.n)) * np.exp(-ou.x ** 2 / 8.0)
        out = convolve(ou, ou.convolve_op(h, lag, ends), G)
        assert out.shape == (len(ends), ou.n)
        for row, ref in zip(out, self.per_node_convolve(h, lag, ends, G)):
            assert np.max(np.abs(row - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("s", [2, 4])
    def test_tiny_step_stage_rows_match_per_node_applies(self, s):
        # every quadrature time of h = 1e-15 has a kernel variance below
        # 1e-14, a symbol of 1 to rounding: the rows still match the
        # per-node applies, for a spike in the stage values and a smooth one
        ou, h = self.ou, 1e-15
        assert ou.q_t(h) < 1e-14
        lag = SchemeSpec.with_stages(s).lag
        at = ou.n // 3
        spikes = np.zeros((s, ou.n))
        spikes[:, at] = np.arange(1.0, s + 1.0)
        smooth = np.random.default_rng(s).standard_normal((s, ou.n)) \
            * np.exp(-ou.x ** 2 / 8.0)
        for ends in (lag.node_set.nodes[1:], (1.0,)):
            op = ou.convolve_op(h, lag, ends)
            for G in (spikes, smooth):
                out = convolve(ou, op, G)
                ref = self.per_node_convolve(h, lag, ends, G)
                assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("s,bad", [(2, 0), (4, 2), (4, 3)])
    def test_nan_stage_value_diverges(self, s, bad):
        ou = self.ou

        class NanInOneStage(ZeroNonlinearity):
            def eval(self, t, v):
                out = super().eval(t, v)
                out[bad, ou.n // 2] = np.nan
                return out

        plan = plan_step(1 / 5120, SchemeSpec.with_stages(s), ou, 1.0)
        u = np.exp(-ou.x ** 2)
        with np.errstate(invalid="ignore"), \
                pytest.raises(FixedPointDivergenceError, match="non-finite"):
            internal_stages(u, 0.0, NanInOneStage(), plan)

    def test_negative_node_time_rejected(self):
        u = np.exp(-self.ou.x ** 2)
        with pytest.raises(ValidationError, match="t must be >= 0"):
            self.ou.apply_nodes(self.ou.flow_op((-0.1 * 0.5,)), u)
        with pytest.raises(ValidationError, match="t must be >= 0"):
            self.ou.apply_nodes(self.ou.flow_op((0.1, -1e-300)), u)

    @pytest.mark.parametrize("times", [(math.nan,), (math.nan, -1.0), (0.1, math.nan)],
                             ids=["nan", "nan-then-negative", "nan-last"])
    def test_nan_node_time_rejected(self, times):
        # a NaN is not >= 0 wherever it stands among the times
        with pytest.raises(ValidationError, match="t must be >= 0"):
            self.ou.flow_op(times)

    def test_nonpositive_step_rejected(self):
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        for h in (0.0, -0.1):
            with pytest.raises(ValidationError, match="h must be positive"):
                self.ou.convolve_op(h, lag, (1.0,))

    def test_wrongly_shaped_stack_rejected(self):
        # a flow takes one state; a stack of them, one per time, is refused
        ou = self.ou
        for m in (2, 3):
            with pytest.raises(ValidationError):
                ou.apply_nodes(ou.flow_op((0.1, 0.2)), np.zeros((m, ou.n)))
        with pytest.raises(ValidationError):
            ou.apply_nodes(ou.flow_op((0.1,)), np.zeros((1, ou.n + 1)))
        with pytest.raises(ValidationError):
            ou.apply_nodes(ou.flow_op([c * 0.1 for c in (0.5, 1.0)]), np.zeros(ou.n - 1))
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        op = ou.convolve_op(0.1, lag, (1.0,))
        with pytest.raises(ValidationError):
            convolve(ou, op, np.zeros((2, ou.n // 2)))
        with pytest.raises(ValidationError):
            convolve(ou, op, np.zeros((3, ou.n)))


def assert_same_bits(got, want):
    """got and want have the same dtype, shape and bytes."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def loop_flows(ou, times):
    """An OU flow plan built time by time, one list entry per row: the
    oracle of the plan that OUProblem._flows builds as arrays."""
    n, dx = ou.n, ou.dx
    xi = 2.0 * math.pi * np.fft.rfftfreq(n, d=dx)
    symbols, first, weights, inside = [], [], [], []
    for r, t in enumerate(times):
        q_t = ou.q_t(t)
        symbols.append(np.exp(-q_t * xi ** 2))
        y = np.exp(ou.gamma * t) * ou.x
        pos = (y - ou.x[0]) / dx
        j = np.clip(np.floor(pos).astype(int), 1, n - 3)
        f = pos - j
        w0 = -f * (f - 1.0) * (f - 2.0) / 6.0
        w1 = (f + 1.0) * (f - 1.0) * (f - 2.0) / 2.0
        w2 = -(f + 1.0) * f * (f - 2.0) / 2.0
        w3 = (f + 1.0) * f * (f - 1.0) / 6.0
        weights.append((w0, w1, w2, w3))
        first.append(j - 1 + r * n)
        inside.append((pos >= 0.0) & (pos <= n - 1))
    return (np.array(symbols).reshape(-1, len(xi)),
            np.array(first, dtype=np.intp).reshape(-1, n),
            np.array(weights).reshape(-1, 4, n).transpose(1, 0, 2).copy(),
            ~np.array(inside, dtype=bool).reshape(-1, n))


def loop_gauss_legendre(h, lag, ends, q):
    """The Gauss-Legendre times, basis values and weights built end by end
    and node by node through eval_basis: the oracle of _gauss_legendre."""
    s = lag.s
    x, w = np.polynomial.legendre.leggauss(q)
    times, wts, basis = [], [], []
    for e in ends:
        t_end = e * h
        tau = 0.5 * t_end * (x + 1.0)
        times.extend(t_end - tq for tq in tau)
        wts.append(0.5 * t_end * w)
        basis.extend([eval_basis(lag, j, tq, h) for j in range(1, s + 1)]
                     for tq in tau)
    return (np.array(times, dtype=float), np.array(basis).reshape(-1, s),
            np.array(wts).reshape(-1, q))


class TestOUPlanOracle:
    """The array-built OU plans equal the time-by-time ones bit for bit:
    np.exp and the stencil arithmetic round a stack of rows as they round
    each row alone."""

    @pytest.mark.parametrize("n", [128, 256, 512])
    @given(st.lists(OU_TIMES, max_size=24))
    @example(times=[])
    @example(times=[0.0, 1e-16, 1e-3, 2.0])
    @settings(max_examples=40, deadline=None)
    def test_flow_plan_equals_time_loop(self, n, times):
        ou = OUProblem(b=-1.0, q=2.0, box=12.0, n=n)
        times = np.asarray(times, dtype=float)
        got = ou.flow_op(times)
        want = loop_flows(ou, times)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_bits(a, b)
        assert got[0].shape == (len(times), n // 2 + 1)

    @pytest.mark.parametrize("n", [128, 256, 512])
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("gauss", [False, True], ids=["default", "gauss"])
    @given(st.floats(math.log(1 / 10240), math.log(1 / 20)))
    @example(log_h=math.log(1 / 5120))
    @settings(max_examples=10, deadline=None)
    def test_convolution_plan_equals_loops(self, n, s, gauss, log_h):
        ou, h = OUProblem(b=-1.0, q=2.0, box=12.0, n=n), math.exp(log_h)
        lag = (gauss_scheme(s) if gauss else SchemeSpec.with_stages(s)).lag
        for ends in (lag.node_set.nodes, (1.0,)):
            q = lag.s + 2
            times, basis, wts = loop_gauss_legendre(h, lag, ends, q)
            for a, b in zip(_gauss_legendre(h, lag, ends, q), (times, basis, wts)):
                assert_same_bits(a, b)
            symbols, first, weights, outside = loop_flows(ou, times)
            count, plan = ou.convolve_op(h, lag, ends)
            assert (count, plan[0]) == (s, len(ends))
            want = (basis, symbols, first, weights * wts.reshape(1, -1, 1), outside)
            assert len(plan) == 1 + len(want)
            for a, b in zip(plan[1:], want):
                assert_same_bits(a, b)


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
        (out,) = convolve(hp, hp.convolve_op(0.1, lag, (1.0,)), [hp.zeros(), hp.zeros()])
        assert hp.v_norm(out) == 0.0

    def test_constant_integrand_single_node(self, make_scalar):
        pr = make_scalar(lam=0.0)
        lag = build_lagrange(NodeSet((0.5,)))
        g1 = np.array([2.0])
        h = 0.2
        (out,) = convolve(pr, pr.convolve_op(h, lag, lag.node_set.nodes), [g1])
        assert out[0] == pytest.approx(0.5 * h * 2.0, rel=1e-13)
        (fin,) = convolve(pr, pr.convolve_op(h, lag, (1.0,)), [g1])
        assert fin[0] == pytest.approx(h * 2.0, rel=1e-13)

    def test_heat_matches_direct_quadrature(self):
        hp = HeatTorusProblem(dim=1, n=64)
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        x = hp.grid()
        k, h = 3, 0.01
        g = [np.cos(k * x), np.sin(k * x)]
        (out,) = convolve(hp, hp.convolve_op(h, lag, (1.0,)), g)
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
        exact = convolve(pr, pr.convolve_op(h, lag, ends), g)
        generic = quadrature_convolve(pr, h, lag, ends, g, 32)
        assert exact.shape == generic.shape == (len(ends),) + grid
        for row_exact, row_generic in zip(exact, generic):
            assert pr.v_norm(row_exact - row_generic) < 1e-11
        u = random_state(pr, rng)
        flows = pr.apply_nodes(pr.flow_op([c * h for c in nodes]), u)
        assert flows.shape == (lag.s,) + grid
        for c, row in zip(nodes, flows):
            assert pr.v_norm(row - pr.apply(c * h, u)) < 1e-13

    @pytest.mark.parametrize("name", sorted(CONVOLVE_PROBLEMS) + ["ou"])
    def test_diagonal_convolve_op_takes_no_node_count(self, name):
        # the exact phi-weights have no quadrature to size, and OU's is fixed
        pr = OUProblem(n=128) if name == "ou" else CONVOLVE_PROBLEMS[name][0]()
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        with pytest.raises(TypeError):
            pr.convolve_op(0.1, lag, (1.0,), q_nodes=4)

    def test_wrong_stage_count_rejected(self):
        hp = HeatTorusProblem(dim=1, n=64)
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        with pytest.raises(ValidationError):
            convolve(hp, hp.convolve_op(0.1, lag, (1.0,)), [hp.zeros()])


# name -> problem of the row-independence test: folded and modal 1D heat,
# 2D heat, OU and wave
ROW_PROBLEMS = {
    "heat-1d-n64": HeatTorusProblem(dim=1, n=64),
    "heat-1d-n128": HeatTorusProblem(dim=1, n=128),
    "heat-2d-n16": HeatTorusProblem(dim=2, n=16),
    "heat-2d-n128": HeatTorusProblem(dim=2, n=128),
    "ou-n256": OUProblem(n=256),
    "wave": WaveProblem(n_modes=32),
}


class TestRowIndependence:
    """A step transforms stage 1 once and the other rows apart from it, so
    row i of stage_modes and of g.eval must depend on row i alone."""

    @given(st.sampled_from(sorted(ROW_PROBLEMS)), st.integers(1, 8),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stacked_rows_equal_rows_alone(self, name, k, seed):
        problem = ROW_PROBLEMS[name]
        g = WaveCubic(problem) if name == "wave" else PowerNonlinearity(3.0, -1.0)
        rng = np.random.default_rng(seed)
        X = np.stack([problem.random_field(rng) for _ in range(k)])
        t = rng.random(k)
        G = g.eval(t, X)
        modes = problem.stage_modes(G)
        for i in range(k):
            assert np.array_equal(G[i], g.eval(t[i], X[i]))
            assert np.array_equal(modes[i], problem.stage_modes(G[i:i + 1])[0])
            assert np.array_equal(modes[i], problem.stage_modes(G[i:])[0])

    @pytest.mark.parametrize("name", sorted(ROW_PROBLEMS))
    def test_stage_modes_checks_the_grid(self, name):
        problem = ROW_PROBLEMS[name]
        grid = problem.zeros().shape
        for G in (np.zeros(grid), np.zeros((2,) + grid[:-1] + (grid[-1] + 1,))):
            with pytest.raises(ValidationError):
                problem.stage_modes(G)
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        op = problem.convolve_op(0.01, lag, (0.5, 1.0))
        modes = problem.stage_modes(np.ones((2,) + grid))
        with pytest.raises(ValidationError):
            problem.convolve_modes(op, modes[:1])
        with pytest.raises(ValidationError):
            problem.convolve_modes(op, modes[..., :-1])
        assert problem.convolve_modes(op, modes).shape == (2,) + grid


def gauss_scheme(s):
    """s Gauss-Legendre nodes on (0, 1): c_s != 1, so a step's flow op has
    an extra row at h."""
    return SchemeSpec.with_nodes(0.5 * (np.polynomial.legendre.leggauss(s)[0] + 1.0))


class TestFold:
    @pytest.mark.parametrize("nodes", ["default", "gauss"])
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [8, 32, 64])
    def test_folded_ops_match_modal_fft(self, n, s, nodes):
        hp = HeatTorusProblem(dim=1, n=n)
        assert hp.folded
        scheme = SchemeSpec.with_stages(s) if nodes == "default" else gauss_scheme(s)
        rng = np.random.default_rng(100 * n + s)
        for h in (1e-3, 1 / 40, 0.3):
            plan = plan_step(h, scheme, hp, 1e-12)
            # the ops of the unknown stages, after c_1 = 0, and of h
            nodes = scheme.nodes.nodes[plan.fixed:]
            times = h * np.array(nodes if nodes[-1:] == (1.0,) else nodes + (1.0,))
            mats = plan.node_flow
            assert mats.shape == (len(times), n, n)
            v = rng.standard_normal(n)
            flows = hp.apply_nodes(plan.node_flow, v)
            ref = np.fft.irfft(np.exp(np.multiply.outer(times, hp.eigenvalues))
                               * np.fft.rfft(v), n)
            for row, r in zip(flows, ref):
                assert np.max(np.abs(row - r)) <= 1e-14 * np.max(np.abs(r))
            G = rng.standard_normal((s, n))
            assert (plan.stage_rows is None) == (not nodes)
            for ends, op in ((nodes, plan.stage_rows), ((1.0,), plan.update_row)):
                if not ends:
                    continue
                stages, mat = op
                assert (stages, mat.shape) == (s, (len(ends) * n, s * n))
                out = convolve(hp, op, G)
                W = stage_weights_diagonal(hp.eigenvalues, h, scheme.lag, ends)
                ref = np.fft.irfft(np.einsum("ij...,j...->i...", W, np.fft.rfft(G)), n)
                for row, r in zip(out, ref):
                    assert np.max(np.abs(row - r)) <= 1e-14 * np.max(np.abs(r))

    @pytest.mark.parametrize("n", [8, 64])
    def test_stacked_flow_rows_equal_rows_alone(self, n):
        hp = HeatTorusProblem(dim=1, n=n)
        times = (1e-3, 0.05, 0.3, 1.0)
        v = np.random.default_rng(5).standard_normal(n)
        rows = hp.apply_nodes(hp.flow_op(times), v)
        for t, row in zip(times, rows):
            assert np.array_equal(hp.apply_nodes(hp.flow_op((t,)), v)[0], row)
            assert np.array_equal(hp.apply(t, v), row)

    def test_stage_matrix_build_peaks_near_its_size(self):
        # the blocks are written into the matrix, with no (E, s, n, n)
        # temporary beside it
        hp = HeatTorusProblem(dim=1, n=64)
        lag = SchemeSpec.with_stages(4).lag
        tracemalloc.start()
        try:
            # the ends of the unknown stages, c = 1/3, 2/3, 1
            op = hp.convolve_op(0.01, lag, lag.node_set.nodes[1:])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mat = op[1]
        assert mat.shape == (192, 256)
        assert peak < 1.5 * mat.nbytes

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 32)])
    def test_larger_and_2d_grids_stay_modal(self, dim, n):
        hp = HeatTorusProblem(dim=dim, n=n)
        assert not hp.folded
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        # the ops hold multipliers and weights over the modes of their
        # rows, not grid matrices
        modes = hp.eigenvalues.shape
        assert hp.flow_op((0.05, 0.1)).shape == (2,) + modes
        s, W = hp.convolve_op(0.1, lag, (0.5, 1.0))
        # real weights, one per float of a complex mode
        assert (s, W.shape) == (2, (2, 2) + modes[:-1] + (2 * modes[-1],))


# name -> modal heat grid of the real-weight stage product
MODAL_HEAT = {
    "heat-1d-n128": lambda: HeatTorusProblem(dim=1, n=128),
    "heat-2d-n16": lambda: HeatTorusProblem(dim=2, n=16),
    "heat-2d-n128": lambda: HeatTorusProblem(dim=2, n=128),
}


class TestModalOps:
    @pytest.mark.parametrize("nodes", ["default", "gauss"])
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", sorted(MODAL_HEAT))
    def test_real_weights_equal_complex_einsum(self, case, s, nodes):
        hp = MODAL_HEAT[case]()
        assert not hp.folded
        scheme = SchemeSpec.with_stages(s) if nodes == "default" else gauss_scheme(s)
        G = np.random.default_rng(s).standard_normal((s,) + hp.shape)
        h = 1 / 40
        # an end at 0 is computed like any other: its weights are zero
        for ends in (scheme.nodes.nodes, (1.0,), (0.0, 1.0, 0.0)):
            out = convolve(hp, hp.convolve_op(h, scheme.lag, ends), G)
            W = stage_weights_diagonal(hp.eigenvalues, h, scheme.lag, ends)
            ref = hp.from_modes(np.einsum("ij...,j...->i...", W, hp.to_modes(G)))
            assert out.shape == ref.shape and out.dtype == ref.dtype
            assert np.array_equal(out, ref)

    def test_wave_keeps_complex_weights(self):
        wp = WaveProblem(n_modes=32)
        lag = SchemeSpec.with_stages(3).lag
        ends = lag.node_set.nodes
        op = wp.convolve_op(0.1, lag, ends)
        assert np.iscomplexobj(op[1])
        rng = np.random.default_rng(4)
        G = rng.standard_normal((3, wp.n)) + 1j * rng.standard_normal((3, wp.n))
        out = convolve(wp, op, G)
        W = stage_weights_diagonal(wp.eigenvalues, 0.1, lag, ends)
        ref = np.einsum("ij...,j...->i...", W, G)
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("n", [16, 128])
    def test_2d_transforms_equal_rfft2(self, n):
        hp = HeatTorusProblem(dim=2, n=n)
        X = np.random.default_rng(n).standard_normal((3, n, n))
        for v in (X[0], X):
            modes = hp.to_modes(v)
            assert np.array_equal(modes, np.fft.rfft2(v))
            assert np.array_equal(hp.from_modes(modes), np.fft.irfft2(modes, (n, n)))

    @pytest.mark.parametrize("case", sorted(APPLY_PROBLEMS))
    def test_all_zero_ops_check_shapes(self, case):
        # ops of t = 0 and e = 0 alone check their inputs as any op does,
        # and the zero-length integral is computed as exact zeros
        pr = APPLY_PROBLEMS[case]()
        grid = pr.zeros().shape
        flow = pr.flow_op((0.0, 0.0))
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        conv = pr.convolve_op(0.1, lag, (0.0,))
        bad_grid = grid[:-1] + (grid[-1] + 1,)
        for V in (np.zeros(bad_grid), np.zeros((2,) + grid), np.zeros((3,) + grid),
                  np.zeros((2,) + bad_grid)):
            with pytest.raises(ValidationError):
                pr.apply_nodes(flow, V)
        for G in (np.zeros((2,) + bad_grid), np.zeros((1,) + grid), np.zeros(grid)):
            with pytest.raises(ValidationError):
                convolve(pr, conv, G)
        assert np.array_equal(convolve(pr, conv, np.ones((2,) + grid)),
                              np.zeros((1,) + grid))


class TestMeasureSmoothing:
    def test_heat_l1_l2_slope(self, rng):
        hp = HeatTorusProblem(dim=1, n=1024, p=1, r=2)
        rep = measure_smoothing(hp, np.geomspace(1e-4, 1e-2, 7), rng=rng)
        assert rep.slope == pytest.approx(-0.25, abs=0.05)

    def test_heat_same_space_slope(self, rng):
        hp = HeatTorusProblem(dim=1, n=1024, p=2, r=2)
        rep = measure_smoothing(hp, np.geomspace(1e-4, 1e-2, 7), rng=rng)
        assert abs(rep.slope) < 0.05

    def test_heat_2d_l2_linf_slope(self, rng):
        hp = HeatTorusProblem(dim=2, n=128, p=2, r=np.inf)
        rep = measure_smoothing(hp, np.geomspace(3e-4, 1e-2, 6), rng=rng)
        assert rep.slope == pytest.approx(-0.5, abs=0.1)

    def test_under_resolved_rows_flagged(self, rng):
        hp = HeatTorusProblem(dim=1, n=256, p=1, r=2)
        t_list = np.geomspace(1e-6, 1e-2, 6)
        rep = measure_smoothing(hp, t_list, rng=rng)
        flags = [ok for _, _, ok in rep.rows]
        assert not flags[0]  # width sqrt(2e-6) well below 2*dx
        assert flags[-1]

    def test_nonpositive_times_rejected(self, rng):
        hp = HeatTorusProblem(dim=1, n=64)
        with pytest.raises(ValidationError):
            measure_smoothing(hp, [0.0, 0.1], rng=rng)

    @pytest.mark.parametrize("t_list", [np.geomspace(1e-6, 1e-4, 5), [1e-6, 1e-2]])
    def test_fewer_than_two_resolved_rows_rejected(self, rng, t_list):
        hp = HeatTorusProblem(dim=1, n=256, p=1, r=2)  # resolved from t = 2 dx^2
        with pytest.raises(ValidationError, match="two resolved rows"):
            measure_smoothing(hp, t_list, rng=rng)

    SMOOTHING_PROBLEMS = {
        "heat-folded": lambda: HeatTorusProblem(dim=1, n=64, p=1, r=2),
        "heat-modal": lambda: HeatTorusProblem(dim=1, n=128, p=1, r=2),
        "heat-2d": lambda: HeatTorusProblem(dim=2, n=32, p=1, r=2),
        "ou": lambda: OUProblem(n=256, p=1, r=2),
    }

    @pytest.mark.parametrize("name", SMOOTHING_PROBLEMS)
    def test_derived_range_starts_at_the_first_resolved_time(self, name):
        pr = self.SMOOTHING_PROBLEMS[name]()
        rep = measure_smoothing(pr, rng=np.random.default_rng(0))
        ts = [t for t, _, _ in rep.rows]
        assert len(ts) == 7 and all(ok for _, _, ok in rep.rows)
        assert ts[-1] == pytest.approx(10.0 * ts[0])
        assert pr.kernel_width(ts[0]) >= 2.0 * pr.dx
        assert pr.kernel_width(ts[0] / 1.05) < 2.0 * pr.dx
        assert rep.slope == pytest.approx(-pr.profile_x.alpha, abs=0.03)

    @pytest.mark.parametrize("name", SMOOTHING_PROBLEMS)
    def test_rows_equal_the_per_time_apply_loop(self, name):
        pr = self.SMOOTHING_PROBLEMS[name]()
        rep = measure_smoothing(pr, rng=np.random.default_rng(0))
        probes = pr.smoothing_probes(np.random.default_rng(0))
        for t, proxy, _ in rep.rows:
            ratios = [pr.v_norm(pr.apply(t, u)) / pr.x_norm(u) for u in probes
                      if pr.x_norm(u) != 0.0]
            assert proxy == max(ratios)
