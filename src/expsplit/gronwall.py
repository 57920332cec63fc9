"""Discrete Gronwall inequality and the explicit a-priori error constants.

The bound sequence B_n = (max_{j<=n} a_j) * prod_{j<n} (1 + b_j) dominates
any z with z_n <= a_n + sum_{j<n} b_j z_j.  The constant chain
C_{G,1}, C_{G,2}, C assembled here turns the run's measured quantities
(M, C_ell, L, C_F, smoothing profiles) into the a-priori error bound
C * h^(s-1) * Omega_W(h) * ||f^(s)||_{L1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lagrange import NodeSet
from .propagators import SmoothingProfile

__all__ = ["gronwall_bound", "taylor_kernel_bound", "AprioriConstants",
           "apriori_error_bound", "derivative_l1_norm"]


def gronwall_bound(a, b) -> np.ndarray:
    """B_n = (max_{j<=n} a_j) * prod_{j=0}^{n-1} (1 + b_j), n = 0..N."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValidationError("a and b must have the same length")
    if np.any(a < 0.0) or np.any(b < 0.0):
        raise ValidationError("a and b must be nonnegative")
    running_max = np.maximum.accumulate(a)
    prods = np.concatenate(([1.0], np.cumprod(1.0 + b[:-1])))
    return running_max * prods


def taylor_kernel_bound(nodes: NodeSet) -> float:
    """C_F with |(t_n + c_i h - xi)^(s-1)/(s-1)!| <= C_F h^(s-1) for
    xi in [t_n, t_{n+1}]: max_i max(c_i, 1-c_i)^(s-1)/(s-1)!."""
    s = nodes.s
    m = max(max(c, 1.0 - c) for c in nodes.nodes)
    return m ** (s - 1) / math.factorial(s - 1)


@dataclass(frozen=True)
class AprioriConstants:
    """Inputs to the theorem's constant chain.

    c_omega is the Riemann-sum supremum of ||e^{khA}||_{L(X,V)} over
    [0, horizon]; under the smoothing profile rho(t) = c t^(-alpha) the
    integral bound Omega(horizon) is a valid (and computable) upper bound
    for it, which only enlarges the final constant.
    """

    m_bound: float
    c_ell: float
    lipschitz: float
    s: int
    c_f: float
    omega_x: SmoothingProfile
    omega_w: SmoothingProfile
    horizon: float

    @property
    def c_omega(self) -> float:
        return self.omega_x.omega(self.horizon)

    @property
    def h0(self) -> float:
        """Largest h with Omega(h) * C_ell * s * L <= 1/2."""
        target = 0.5 / (self.c_ell * self.s * self.lipschitz)
        alpha = self.omega_x.alpha
        h0 = (target * (1.0 - alpha) / self.omega_x.c) ** (1.0 / (1.0 - alpha))
        return min(h0, self.horizon)

    @property
    def c_g1(self) -> float:
        m = self.m_bound
        return 2.0 * self.s * m * m * self.c_ell * self.lipschitz \
            * max(m, self.omega_x.omega(self.h0))

    def c_g2(self, h: float) -> float:
        m, ce, L, s, cf = self.m_bound, self.c_ell, self.lipschitz, self.s, self.c_f
        return 2.0 * max(
            2.0 * ce * ce * L * s * s * cf * (self.omega_x.omega(h) + m * self.c_omega),
            m * ce * s * cf)

    def c_big(self, h: float) -> float:
        return self.c_g2(h) * math.exp(self.c_g1 * self.c_omega + self.c_g1)


def apriori_error_bound(consts: AprioriConstants, h: float, f_norm: float) -> float:
    """C * h^(s-1) * Omega_W(h) * ||f^(s)||_{L1([0, T], W)}, T = consts.horizon."""
    if h <= 0.0:
        raise ValidationError("need h > 0")
    return consts.c_big(h) * h ** (consts.s - 1) * consts.omega_w.omega(h) * f_norm


def derivative_l1_norm(states, dt: float, order: int, norm) -> float:
    """||f^(order)||_{L1} of a sampled trajectory by central differences.

    states are f(t_k), stacked (k, *grid), on a uniform grid of spacing
    dt; the order-th difference quotients are normed by one call of the
    row-wise norm and summed with trapezoid weights where the stencil fits.
    """
    if order < 1:
        raise ValidationError("derivative order must be >= 1")
    F = np.asarray(states)
    n = len(F)
    if n < order + 1:
        raise ValidationError("trajectory too short for the requested order")
    coeffs = np.array([(-1.0) ** (order - k) * math.comb(order, k)
                       for k in range(order + 1)])
    m = n - order
    # c_0 F_i + c_1 F_{i+1} + ... summed in this order for every i at once
    acc = coeffs[0] * F[:m]
    for k in range(1, order + 1):
        acc = acc + coeffs[k] * F[k:k + m]
    vals = norm(acc) / dt ** order
    if m == 1:
        return float(vals[0] * dt)
    w = np.full(m, dt)
    w[0] = w[-1] = 0.5 * dt
    return float(np.sum(w * vals))
