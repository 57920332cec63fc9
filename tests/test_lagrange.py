from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsplit.errors import ValidationError
from expsplit.lagrange import (NodeSet, build_lagrange, default_nodes,
                               eval_basis, moment_residual)


def brute_force_c_ell(lag, n_pts=100001):
    sigma = np.linspace(0.0, 1.0, n_pts)
    best = 0.0
    for j in range(lag.s):
        vals = np.polynomial.polynomial.polyval(sigma, lag.monomial_coeffs[j])
        best = max(best, np.max(np.abs(vals)))
    return best


def exact_c_ell(lag, halvings=64):
    """max |ell_j| on [0, 1] in exact rationals, from the float monomial
    coefficients.  By Rolle each gap between consecutive other nodes, the
    zeros of ell_j, holds one of its s - 2 critical points; each is found
    by bisecting ell_j' and the max taken with the end points."""
    nodes = [Fraction(c) for c in lag.node_set.nodes]
    best = Fraction(0)
    for j, row in enumerate(lag.monomial_coeffs):
        coeffs = [Fraction(float(a)) for a in row]
        dcoeffs = [k * a for k, a in enumerate(coeffs)][1:]

        def value(c, x):
            acc = Fraction(0)
            for a in reversed(c):
                acc = acc * x + a
            return acc

        others = nodes[:j] + nodes[j + 1:]
        points = [Fraction(0), Fraction(1)]
        for lo, hi in zip(others, others[1:]):
            sign_lo = value(dcoeffs, lo) > 0
            assert (value(dcoeffs, hi) > 0) != sign_lo
            for _ in range(halvings):
                mid = (lo + hi) / 2
                if (value(dcoeffs, mid) > 0) == sign_lo:
                    lo = mid
                else:
                    hi = mid
            points.append((lo + hi) / 2)
        best = max(best, *(abs(value(coeffs, x)) for x in points))
    return best


def gauss_nodes(q):
    return NodeSet(tuple(0.5 * (np.polynomial.legendre.leggauss(q)[0] + 1.0)))


class TestNodeSet:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            NodeSet(())

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            NodeSet((0.0, 1.5))

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            NodeSet((0.3, 0.3))

    def test_rejects_decreasing(self):
        with pytest.raises(ValidationError):
            NodeSet((0.8, 0.2))

    def test_default_nodes_s1_is_left_endpoint(self):
        assert default_nodes(1).nodes == (0.0,)

    def test_default_nodes_equispaced(self):
        assert default_nodes(3).nodes == (0.0, 0.5, 1.0)
        ns = default_nodes(5)
        assert ns.nodes[0] == 0.0 and ns.nodes[-1] == 1.0


class TestBasis:
    def test_single_node_basis_is_one(self):
        lag = build_lagrange(NodeSet((0.5,)))
        for tau in np.linspace(0.0, 1.0, 7):
            assert eval_basis(lag, 1, tau, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert lag.c_ell == pytest.approx(1.0, abs=1e-12)

    def test_linear_basis(self):
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        h = 0.7
        for tau in np.linspace(0.0, h, 9):
            sigma = tau / h
            assert eval_basis(lag, 1, tau, h) == pytest.approx(1.0 - sigma, abs=1e-13)
            assert eval_basis(lag, 2, tau, h) == pytest.approx(sigma, abs=1e-13)
        assert lag.c_ell == pytest.approx(1.0, abs=1e-12)

    def test_cardinality_at_other_node(self):
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        assert eval_basis(lag, 1, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_linear_basis_midpoint(self):
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        assert eval_basis(lag, 2, 0.5, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_three_node_value_against_product_formula(self):
        nodes = (0.0, 0.5, 1.0)
        lag = build_lagrange(NodeSet(nodes))
        h, tau, j = 1.0, 0.25, 2
        sigma = tau / h
        cj = nodes[j - 1]
        expect = np.prod([(sigma - cm) / (cj - cm)
                          for cm in nodes if cm != cj])
        assert expect == pytest.approx(0.75)
        assert eval_basis(lag, j, tau, h) == pytest.approx(expect, abs=1e-13)

    def test_c_ell_three_equispaced(self):
        lag = build_lagrange(NodeSet((0.0, 0.5, 1.0)))
        assert lag.c_ell == pytest.approx(1.0, abs=1e-10)
        assert lag.c_ell == pytest.approx(brute_force_c_ell(lag), rel=1e-9)

    # exact values of the dense-sampling-plus-Newton search; constant and
    # linear bases (s <= 2) take the end-point shortcut and must agree
    @pytest.mark.parametrize("nodes,c_ell", [
        (default_nodes(1), 1.0),
        (default_nodes(2), 1.0),
        (default_nodes(3), 1.0),
        (default_nodes(4), 1.0563058954611915),
        (default_nodes(5), 1.1523494647943753),
        (default_nodes(6), 1.2566759225640012),
        (NodeSet((0.5,)), 1.0),
        (NodeSet((0.2, 0.7)), 1.6000000000000003),  # ell_2(1) = 1.6
    ], ids=["s1", "s2", "s3", "s4", "s5", "s6", "mid", "off-grid-pair"])
    def test_c_ell_pinned(self, nodes, c_ell):
        lag = build_lagrange(nodes)
        assert lag.c_ell == c_ell
        assert lag.c_ell == pytest.approx(brute_force_c_ell(lag), rel=1e-9)

    # the 4096-point sampled max alone reads 2e-8 to 3e-7 below the exact
    # one at s = 4..6; the Newton refinement of _refine_max closes the gap
    @pytest.mark.parametrize("nodes", [
        *(default_nodes(s) for s in range(1, 7)), NodeSet((0.5,)),
        NodeSet((0.2, 0.7)), gauss_nodes(2), gauss_nodes(3),
    ], ids=["s1", "s2", "s3", "s4", "s5", "s6", "mid", "off-grid-pair",
            "gauss2", "gauss3"])
    def test_c_ell_matches_exact_oracle(self, nodes):
        lag = build_lagrange(nodes)
        exact = exact_c_ell(lag)
        assert abs(Fraction(lag.c_ell) - exact) <= Fraction(1e-14) * exact

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
    def test_c_ell_matches_brute_force(self, s):
        lag = build_lagrange(default_nodes(s))
        assert lag.c_ell == pytest.approx(brute_force_c_ell(lag), rel=1e-7)

    def test_cardinality_property(self):
        for s in range(1, 7):
            lag = build_lagrange(default_nodes(s))
            for j in range(1, s + 1):
                for i, ci in enumerate(lag.node_set.nodes):
                    want = 1.0 if i == j - 1 else 0.0
                    assert eval_basis(lag, j, ci, 1.0) == pytest.approx(want, abs=1e-12)


class TestMoments:
    def test_partition_of_unity(self, rng):
        for s in range(1, 7):
            lag = build_lagrange(default_nodes(s))
            for tau in rng.uniform(0.0, 1.0, 20):
                assert abs(moment_residual(lag, tau, 1.0, 0)) < 1e-12

    def test_vanishing_first_moment_two_nodes(self):
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        assert abs(moment_residual(lag, 0.3, 1.0, 1)) < 1e-13

    def test_vanishing_moments_random_nodes(self, rng):
        lag = build_lagrange(NodeSet((0.2, 0.6, 0.9)))
        h = 1.0
        worst = max(abs(moment_residual(lag, tau, h, 2))
                    for tau in rng.uniform(0.0, h, 100))
        assert worst < 1e-10

    def test_moment_order_out_of_range(self):
        lag = build_lagrange(default_nodes(2))
        with pytest.raises(ValidationError):
            moment_residual(lag, 0.5, 1.0, 2)

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5, unique=True),
           st.floats(0.01, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_partition_of_unity_property(self, nodes, h, frac):
        nodes = sorted(nodes)
        if min(b - a for a, b in zip(nodes, nodes[1:])) < 0.05:
            return  # nearly-coincident nodes are ill-conditioned by design
        lag = build_lagrange(NodeSet(tuple(nodes)))
        assert abs(moment_residual(lag, frac * h, h, 0)) < 1e-9

    @given(st.integers(2, 6), st.floats(0.05, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_moments_vanish_property(self, s, h, frac):
        lag = build_lagrange(default_nodes(s))
        tau = frac * h
        for k in range(1, s):
            assert abs(moment_residual(lag, tau, h, k)) < 1e-9 * max(h ** k, 1e-6)
