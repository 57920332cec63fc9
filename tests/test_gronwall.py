import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gronwall_hypothesis_holds
from expsplit.errors import ValidationError
from expsplit.gronwall import (AprioriConstants, apriori_error_bound,
                               derivative_l1_norm, gronwall_bound,
                               taylor_kernel_bound)
from expsplit.lagrange import NodeSet, default_nodes
from expsplit.propagators import HeatTorusProblem, SmoothingProfile, WaveProblem


def greedy_extremal_z(a, b):
    """The largest z satisfying the hypothesis: equality at every step."""
    z = np.empty_like(a)
    z[0] = a[0]
    acc = 0.0
    for n in range(1, len(a)):
        acc += b[n - 1] * z[n - 1]
        z[n] = a[n] + acc
    return z


def looped_derivative_l1_norm(states, dt, order, norm):
    """derivative_l1_norm as a loop over stencil positions: one state sum
    and one single-state norm call per position."""
    coeffs = np.array([(-1.0) ** (order - k) * math.comb(order, k)
                       for k in range(order + 1)])
    vals = []
    for i in range(len(states) - order):
        acc = coeffs[0] * states[i]
        for k in range(1, order + 1):
            acc = acc + coeffs[k] * states[i + k]
        vals.append(norm(acc) / dt ** order)
    vals = np.asarray(vals)
    if len(vals) == 1:
        return float(vals[0] * dt)
    w = np.full(len(vals), dt)
    w[0] = w[-1] = 0.5 * dt
    return float(np.sum(w * vals))


class TestBound:
    def test_no_accumulation_without_b(self):
        a = np.array([0.5, 2.0, 1.0, 3.0])
        B = gronwall_bound(a, np.zeros(4))
        assert np.allclose(B, [0.5, 2.0, 2.0, 3.0])

    def test_doubling_sequence(self):
        B = gronwall_bound(np.ones(4), np.ones(4))
        assert B[3] == pytest.approx(8.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            gronwall_bound([1.0, 1.0], [1.0])

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValidationError):
            gronwall_bound([-1.0], [0.0])

    def test_random_triples_dominated(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 30))
            a = rng.uniform(0.0, 2.0, n)
            b = rng.uniform(0.0, 0.5, n)
            # build z admissible by construction: z_n <= a_n + sum b_j z_j
            z = np.empty(n)
            z[0] = rng.uniform(0.0, a[0]) if a[0] > 0 else 0.0
            acc = 0.0
            for k in range(1, n):
                acc += b[k - 1] * z[k - 1]
                z[k] = rng.uniform(0.0, a[k] + acc)
            assert gronwall_hypothesis_holds(a, b, z, slack=1e-12)
            B = gronwall_bound(a, b)
            assert np.all(z <= B + 1e-9 * np.maximum(B, 1.0))

    def test_greedy_equality_with_flat_a_is_tight(self, rng):
        # for nondecreasing a the extremal z meets the bound exactly
        for _ in range(100):
            n = int(rng.integers(2, 15))
            a = np.full(n, rng.uniform(0.5, 2.0))
            b = rng.uniform(0.0, 1.0, n)
            z = greedy_extremal_z(a, b)
            B = gronwall_bound(a, b)
            assert np.allclose(z, B, rtol=1e-12)

    @given(st.integers(2, 20), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_dominance_property(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.0, 3.0, n)
        b = rng.uniform(0.0, 1.0, n)
        z = greedy_extremal_z(a, b)
        B = gronwall_bound(a, b)
        assert np.all(z <= B * (1.0 + 1e-12) + 1e-12)


class TestTaylorKernelBound:
    def test_single_left_node(self):
        assert taylor_kernel_bound(NodeSet((0.0,))) == pytest.approx(1.0)

    def test_two_equispaced(self):
        # s=2: max(c, 1-c)^1 / 1! = 1 at either endpoint node
        assert taylor_kernel_bound(NodeSet((0.0, 1.0))) == pytest.approx(1.0)

    def test_three_equispaced(self):
        assert taylor_kernel_bound(default_nodes(3)) == pytest.approx(0.5)

    def test_interior_nodes_shrink_bound(self):
        assert taylor_kernel_bound(NodeSet((0.4, 0.6))) == pytest.approx(0.6)


class TestAprioriChain:
    def make_consts(self, s=2, alpha=0.0, lipschitz=3.0, horizon=0.5):
        prof = SmoothingProfile(c=1.0, alpha=alpha)
        return AprioriConstants(m_bound=1.0, c_ell=1.0, lipschitz=lipschitz,
                                s=s, c_f=taylor_kernel_bound(default_nodes(s)),
                                omega_x=prof, omega_w=prof, horizon=horizon)

    def test_h0_solves_half_contraction(self):
        consts = self.make_consts()
        h0 = consts.h0
        if h0 < consts.horizon:
            kappa = consts.omega_x.omega(h0) * consts.c_ell * consts.s \
                * consts.lipschitz
            assert kappa == pytest.approx(0.5, rel=1e-12)

    def test_zero_f_norm_gives_zero_bound(self):
        consts = self.make_consts()
        assert apriori_error_bound(consts, 0.01, 0.0) == 0.0

    def test_w_equals_v_scaling_is_h_to_s(self):
        consts = self.make_consts(s=2, alpha=0.0)
        b1 = apriori_error_bound(consts, 0.01, 1.0)
        b2 = apriori_error_bound(consts, 0.005, 1.0)
        # Omega_V(h) = M h, so the bound scales like h^s = h^2 as h halves
        # (C_G2 has a slowly varying Omega(h) term; allow 10%)
        assert b1 / b2 == pytest.approx(4.0, rel=0.1)

    def test_fractional_scaling_is_h_to_s_minus_alpha(self):
        consts = self.make_consts(s=2, alpha=0.25)
        b1 = apriori_error_bound(consts, 1e-3, 1.0)
        b2 = apriori_error_bound(consts, 5e-4, 1.0)
        assert math.log2(b1 / b2) == pytest.approx(1.75, abs=0.05)

    def test_invalid_arguments_rejected(self):
        consts = self.make_consts()
        with pytest.raises(ValidationError):
            apriori_error_bound(consts, 0.0, 1.0)

    def test_c_omega_covers_the_whole_horizon(self):
        # a problem built in code, horizon 8: the sup of ||e^{khA}||_{X->V}
        # over [0, 8] is bounded by Omega(8), not by Omega of a shorter time
        pr = HeatTorusProblem(p=1, r=2, w_choice="X")
        consts = AprioriConstants(m_bound=pr.bound_m, c_ell=1.0, lipschitz=3.0,
                                  s=2, c_f=1.0, omega_x=pr.profile_x,
                                  omega_w=pr.profile_w, horizon=8.0)
        assert consts.c_omega == pr.profile_x.omega(8.0)
        assert consts.c_omega > pr.profile_x.omega(1.0)


class TestDerivativeNorm:
    def norm(self, v):
        return np.max(np.abs(v), axis=-1)  # row-wise on a stack

    def test_linear_trajectory_first_derivative(self):
        dt = 0.01
        states = [np.array([3.0 * k * dt]) for k in range(101)]
        val = derivative_l1_norm(states, dt, 1, self.norm)
        # |f'| = 3 on [0, 1] minus half-cells at the ends of the stencil range
        assert val == pytest.approx(3.0 * dt * 99, rel=1e-10)

    def test_quadratic_trajectory_second_derivative(self):
        dt = 0.01
        states = [np.array([(k * dt) ** 2]) for k in range(101)]
        val = derivative_l1_norm(states, dt, 2, self.norm)
        assert val == pytest.approx(2.0 * dt * 98, rel=1e-8)

    def test_constant_trajectory_vanishes(self):
        states = [np.ones(3)] * 20
        assert derivative_l1_norm(states, 0.1, 1, self.norm) < 1e-12

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            derivative_l1_norm([np.zeros(2)], 0.1, 1, self.norm)

    def test_order_zero_rejected(self):
        with pytest.raises(ValidationError):
            derivative_l1_norm([np.zeros(2)] * 5, 0.1, 0, self.norm)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["heat", "wave"])
    def test_stacked_equals_per_state_loop(self, kind, order):
        # rows of a smooth trajectory, real heat and complex wave states,
        # through every norm a study can pass (p = 1, 2 and inf)
        rng = np.random.default_rng(order)
        if kind == "heat":
            pr = HeatTorusProblem(dim=1, n=64, p=1, r=2, w_choice="X")
            norms = (pr.x_norm, pr.v_norm, lambda v: pr.lp(v, np.inf))
        else:
            pr = WaveProblem(n_modes=32)
            norms = (pr.v_norm, lambda v: pr.lp(v, np.inf))
        v = pr.random_field(rng)
        dt = 1 / 160
        F = np.stack([pr.apply(k * dt, v) ** 3 for k in range(41)])
        for norm in norms:
            for rows in (F, F[:order + 1]):  # many stencil positions, and one
                stacked = derivative_l1_norm(rows, dt, order, norm)
                assert stacked == looped_derivative_l1_norm(list(rows), dt, order, norm)
