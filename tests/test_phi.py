import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from expsplit.errors import ValidationError
from expsplit.lagrange import NodeSet, build_lagrange
from expsplit.phi import phi, phi_many, stage_weights_diagonal


def phi_quadrature(k, z, n_nodes=64):
    """phi_k(z) = int_0^1 e^{(1-theta) z} theta^(k-1)/(k-1)! dtheta, k >= 1."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    theta = 0.5 * (x + 1.0)
    wt = 0.5 * w
    vals = np.exp((1.0 - theta) * z) * theta ** (k - 1) / math.factorial(k - 1)
    return np.sum(wt * vals)


# phi_many's relative accuracy on phi_0..phi_4, the orders an s <= 4 scheme
# reads; the largest error measured is 7.0e-14 (phi_4 at z = 0.5 + 4e-9,
# just above the series switch, where the upward recurrence starts)
PHI_REL_TOL = 1e-13
# phi_5, which an s = 5 scheme also reads, loses most of a digit more there:
# the largest error found by a scan of z just above |z| = 0.5 on both axes
# is 7.1e-13, at z = 0.5 + 4.3e-9
PHI5_REL_TOL = 1e-12
PHI_ORACLE = settings(max_examples=150, derandomize=True, deadline=None)


def phi_series_exact(k, x, imaginary):
    """phi_k(z) = sum_m z^m/(m+k)! for z = x or z = i x, summed exactly in
    fractions up to a term below 1e-40 and rounded once."""
    x = Fraction(x)
    re, im = Fraction(0), Fraction(0)
    m = 0
    while m == 0 or float(abs(x)) ** m / math.factorial(m + k) >= 1e-40:
        term = x ** m / math.factorial(m + k)
        if not imaginary:
            re += term
        elif m % 2 == 0:  # i^m = (-1)^(m/2)
            re += term if m % 4 == 0 else -term
        else:  # i^m = i (-1)^((m-1)/2)
            im += term if m % 4 == 1 else -term
        m += 1
    return complex(float(re), float(im))


def phi_closed_form_decimal(k, x):
    """phi_k(x) = (e^x - sum_{m<k} x^m/m!)/x^k at 50 digits, for x away from
    0: near 0 the difference cancels to noise even at this precision."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        d = decimal.Decimal(x)
        head = sum(d ** m / math.factorial(m) for m in range(k))
        return float((d.exp() - head) / d ** k)


def assert_phi_close(z, exact):
    got = phi_many(4, z)
    for k in range(5):
        assert abs(got[k] - exact[k]) <= PHI_REL_TOL * abs(exact[k]), (k, z)


def assert_phi5_close(z, exact):
    got = phi_many(5, z)[5]
    assert abs(got - exact) <= PHI5_REL_TOL * abs(exact), z


class TestPhiOracle:
    @PHI_ORACLE
    @given(x=st.floats(-2.0, 2.0), imaginary=st.booleans())
    def test_series_range_against_exact_sums(self, x, imaginary):
        z = complex(0.0, x) if imaginary else x
        assert_phi_close(z, [phi_series_exact(k, x, imaginary) for k in range(5)])

    @PHI_ORACLE
    @given(x=st.floats(-120.0, -2.0))
    def test_negative_axis_against_decimal(self, x):
        assert_phi_close(x, [phi_closed_form_decimal(k, x) for k in range(5)])

    @PHI_ORACLE
    @given(x=st.floats(-2.0, 2.0), imaginary=st.booleans())
    # just above the series switch, where the scan found its largest error
    @example(x=0.5000000043472312, imaginary=False)
    def test_phi5_series_range_against_exact_sums(self, x, imaginary):
        assert_phi5_close(complex(0.0, x) if imaginary else x,
                          phi_series_exact(5, x, imaginary))

    @PHI_ORACLE
    @given(x=st.floats(-120.0, -2.0))
    def test_phi5_negative_axis_against_decimal(self, x):
        assert_phi5_close(x, phi_closed_form_decimal(5, x))

    def test_zero(self):
        assert_phi_close(0.0, [1.0 / math.factorial(k) for k in range(5)])
        assert_phi_close(0j, [1.0 / math.factorial(k) for k in range(5)])


class TestPhiValues:
    def test_values_at_zero(self):
        assert phi(0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert phi(1, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert phi(2, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_phi1_at_one(self):
        assert phi(1, 1.0) == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_phi3_moderate_negative(self):
        z = -2.7
        ref = phi_quadrature(3, z, n_nodes=200)
        assert phi(3, z) == pytest.approx(ref, rel=1e-12)

    def test_against_quadrature_sweep(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 6))
            z = rng.uniform(-50.0, 50.0)
            ref = phi_quadrature(k, z)
            assert abs(phi(k, z) - ref) <= 1e-10 * max(abs(ref), 1e-300)

    def test_complex_arguments(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 6))
            z = rng.uniform(-20, 20) + 1j * rng.uniform(-20, 20)
            ref = phi_quadrature(k, z)
            assert abs(phi(k, z) - ref) <= 1e-10 * abs(ref)

    def test_near_zero_limits(self):
        for k in range(6):
            for z in (1e-7, -1e-7, 1e-9j):
                # phi_k(z) = 1/k! + z/(k+1)! + O(z^2)
                drift = abs(z) / math.factorial(k + 1)
                assert abs(phi(k, z) - 1.0 / math.factorial(k)) < 2.0 * drift + 1e-12

    def test_array_input_matches_scalar(self, rng):
        z = rng.uniform(-10, 10, size=7)
        vals = phi_many(4, z)
        for k in range(5):
            for i, zi in enumerate(z):
                assert vals[k, i] == pytest.approx(phi(k, zi), rel=1e-13)

    def test_negative_order_rejected(self):
        with pytest.raises(ValidationError):
            phi(-1, 1.0)

    def test_order_beyond_table_rejected(self):
        with pytest.raises(ValidationError):
            phi(13, 1.0)


class TestStageWeights:
    def test_lambda_zero_single_midpoint_node(self):
        lag = build_lagrange(NodeSet((0.5,)))
        h = 0.3
        WF = stage_weights_diagonal(0.0, h, lag, (*lag.node_set.nodes, 1.0))
        W, F = WF[:-1], WF[-1]
        assert W[0, 0] == pytest.approx(0.5 * h, rel=1e-13)
        assert F[0] == pytest.approx(h, rel=1e-13)

    def test_lambda_zero_trapezoid(self):
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        h = 0.25
        WF = stage_weights_diagonal(0.0, h, lag, (*lag.node_set.nodes, 1.0))
        W, F = WF[:-1], WF[-1]
        assert F[0] == pytest.approx(h / 2.0, rel=1e-13)
        assert F[1] == pytest.approx(h / 2.0, rel=1e-13)
        # c_1 = 0 row degenerates to zero
        assert np.all(W[0] == 0.0)

    def test_final_weights_against_quadrature(self):
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        lam, h = -10.0, 0.1
        (F,) = stage_weights_diagonal(lam, h, lag, (1.0,))
        x, w = np.polynomial.legendre.leggauss(64)
        tau = 0.5 * h * (x + 1.0)
        wt = 0.5 * h * w
        for j, ell in enumerate((lambda s: 1.0 - s, lambda s: s)):
            ref = np.sum(wt * np.exp((h - tau) * lam) * ell(tau / h))
            assert F[j] == pytest.approx(ref, rel=1e-12)

    def test_stage_weights_against_quadrature(self, rng):
        lag = build_lagrange(NodeSet((0.0, 0.5, 1.0)))
        h = 0.2
        for lam in (-3.0, -25.0, 1.5, -4.0 + 7.0j):
            W = stage_weights_diagonal(lam, h, lag, lag.node_set.nodes)
            x, w = np.polynomial.legendre.leggauss(64)
            for i, ci in enumerate(lag.node_set.nodes):
                if ci == 0.0:
                    continue
                tau = 0.5 * ci * h * (x + 1.0)
                wt = 0.5 * ci * h * w
                for j in range(lag.s):
                    ell = np.polynomial.polynomial.polyval(
                        tau / h, lag.monomial_coeffs[j])
                    ref = np.sum(wt * np.exp((ci * h - tau) * lam) * ell)
                    assert abs(W[i, j] - ref) < 1e-12 * max(1.0, abs(ref))

    def test_eigenvalue_array_broadcast(self):
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        lams = np.array([-1.0, -4.0, -9.0])
        WF = stage_weights_diagonal(lams, 0.1, lag, (*lag.node_set.nodes, 1.0))
        W, F = WF[:-1], WF[-1]
        assert W.shape == (2, 2, 3)
        assert F.shape == (2, 3)
        for m, lam in enumerate(lams):
            WFm = stage_weights_diagonal(lam, 0.1, lag, (*lag.node_set.nodes, 1.0))
            Wm, Fm = WFm[:-1], WFm[-1]
            assert np.allclose(W[:, :, m], Wm)
            assert np.allclose(F[:, m], Fm)

    def test_nonpositive_h_rejected(self):
        lag = build_lagrange(NodeSet((0.0, 1.0)))
        with pytest.raises(ValidationError):
            stage_weights_diagonal(-1.0, 0.0, lag, (1.0,))
