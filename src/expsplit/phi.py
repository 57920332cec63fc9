"""phi-functions and exact stage-convolution weights for diagonal propagators.

phi_0(z) = e^z and phi_{k+1}(z) = (phi_k(z) - 1/k!)/z give closed forms for
the convolution integrals int_0^h e^{(h-tau) lambda} tau^{k-1}/(k-1)! dtau
= h^k phi_k(h lambda), which is all a diagonalizable propagator needs to
integrate the Lagrange interpolant of the nonlinearity exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .lagrange import LagrangeData

__all__ = ["phi", "phi_many", "stage_weights_diagonal"]

# Below _SWITCH_RADIUS the Taylor series sum_m z^m/(m+k)! is used; above it
# the upward recurrence from e^z is stable enough (cancellation in
# phi_k - 1/k! only bites for small |z|).
_MAX_ORDER = 12
_TAYLOR_TERMS = 30
_SWITCH_RADIUS = 0.5


def phi_many(max_k: int, z) -> np.ndarray:
    """phi_0..phi_max_k at z (scalar or array), stacked along a new axis 0.

    Orders up to 5 keep a relative error below 1e-12 (below 1e-13 up to
    4).  From order 6 on, the upward recurrence loses digits just above
    _SWITCH_RADIUS: a scan of z just above |z| = 0.5 found 8.6e-12 for
    phi_6 and 2.0e-9 for phi_8, so the weights of a scheme of s >= 6
    stages exceed a 1e-12 budget."""
    if max_k > _MAX_ORDER:
        raise ValidationError(f"order {max_k} exceeds max_order {_MAX_ORDER}")
    z = np.asarray(z, dtype=complex)
    out = np.empty((max_k + 1,) + z.shape, dtype=complex)
    small = np.abs(z) < _SWITCH_RADIUS
    for k in range(max_k + 1):
        acc = np.zeros_like(z)
        for m in reversed(range(_TAYLOR_TERMS)):
            acc = acc * z + 1.0 / math.factorial(m + k)
        out[k] = acc
    z_safe = np.where(small, 1.0, z)
    up = np.exp(z)
    for k in range(max_k + 1):
        out[k] = np.where(small, out[k], up)
        up = (up - 1.0 / math.factorial(k)) / z_safe
    return out


def phi(k: int, z):
    """phi_k(z).  The relative error is below 1e-13 for k <= 4 on |z| <= 2
    (real or imaginary) and on real z in [-120, -2], the ranges
    tests/test_phi.py checks.  Just above the series switch |z| = 0.5 the
    upward recurrence loses about a digit per order: at z = -0.502 it is
    2.9e-12 for phi_6 and 6.3e-10 for phi_8."""
    if k < 0:
        raise ValidationError("phi order must be >= 0")
    res = phi_many(k, z)[k]
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return complex(res)
    return res


def stage_weights_diagonal(lam, h: float, lag: LagrangeData, ends):
    """Exact convolution weights for one eigenvalue (or an array of them).

    Returns W with
      W[i, j] = int_0^{e_i h} e^{(e_i h - tau) lam} ell_j(tau) dtau
    for each end point e_i in ends: the nodes give the stage rows, e = 1
    the update row.  Expanding ell_j in monomials of tau/h and substituting
    tau = e_i h theta reduces each integral to k! phi_{k+1}(e_i h lam)
    terms.  Rows with e_i = 0 are identically zero.  lam may be a scalar
    or an ndarray; the trailing axes of W match it.
    """
    if h <= 0.0:
        raise ValidationError("h must be positive")
    lam = np.asarray(lam, dtype=complex)
    s = lag.s
    coeffs = lag.monomial_coeffs
    fact = np.array([math.factorial(k) for k in range(s)])
    W = np.zeros((len(ends), s) + lam.shape, dtype=complex)
    for i, e in enumerate(ends):
        if e == 0.0:
            continue
        ph = phi_many(s, e * h * lam)
        for j in range(s):
            acc = np.zeros(lam.shape, dtype=complex)
            for k in range(s):
                acc = acc + coeffs[j, k] * e ** (k + 1) * fact[k] * ph[k + 1]
            W[i, j] = h * acc
    return W
