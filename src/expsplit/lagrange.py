"""Lagrange basis polynomials on scaled nodes c_i*h.

The basis is represented by monomial coefficients in the scaled variable
sigma = tau/h, so every quantity derived from it (moment identities, the
uniform bound c_ell) is independent of the step size h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["NodeSet", "LagrangeData", "build_lagrange", "eval_basis",
           "moment_residual", "default_nodes"]


@dataclass(frozen=True)
class NodeSet:
    """Strictly increasing collocation nodes c_1 < ... < c_s in [0, 1]."""

    nodes: tuple[float, ...]

    def __post_init__(self):
        nodes = tuple(float(c) for c in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if len(nodes) < 1:
            raise ValidationError("need at least one node")
        if any(c < 0.0 or c > 1.0 for c in nodes):
            raise ValidationError(f"nodes must lie in [0, 1], got {nodes}")
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise ValidationError(f"nodes must be strictly increasing, got {nodes}")

    @property
    def s(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True, eq=False)
class LagrangeData:
    """Monomial representation of the Lagrange basis for a node set.

    monomial_coeffs[j, k] is the coefficient of sigma^k in ell_j(sigma),
    sigma = tau/h.  c_ell bounds |ell_j| uniformly on [0, 1] (hence on
    [0, h] for every h).  Two instances are equal only if they are the
    same object.
    """

    node_set: NodeSet
    monomial_coeffs: np.ndarray
    c_ell: float

    @property
    def s(self) -> int:
        return self.node_set.s


def default_nodes(s: int) -> NodeSet:
    """Shipped node sets: left endpoint for s=1 (the exponential Euler
    scheme), equispaced including 0 and 1 otherwise."""
    if s < 1:
        raise ValidationError("stage count must be >= 1")
    if s == 1:
        return NodeSet((0.0,))
    return NodeSet(tuple(i / (s - 1) for i in range(s)))


def _basis_coeffs(nodes: np.ndarray) -> np.ndarray:
    """Monomial coefficients of the cardinal basis at the reference nodes."""
    # Vandermonde solve; condition is mild for s <= 8.
    V = np.vander(nodes, len(nodes), increasing=True)
    return np.linalg.solve(V, np.eye(len(nodes))).T


def _refine_max(coeffs: np.ndarray) -> float:
    """Max of |p| over [0, 1] for p given by monomial coefficients.

    Dense sampling at 4096 points plus Newton refinement of the interior
    critical points of p; constant and linear p need only the end points.
    """
    p = np.polynomial.Polynomial(coeffs)
    if p.degree() < 2:  # |p| is convex: its max is at an end point
        return float(max(abs(p(0.0)), abs(p(1.0))))
    dp = p.deriv()
    ddp = dp.deriv()
    sigma = np.linspace(0.0, 1.0, 4096)
    vals = np.abs(p(sigma))
    best = float(vals.max())
    # Newton on p' from the sampled argmax neighbourhood and all local maxima
    cand = set(np.flatnonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])) + 1)
    cand.add(int(vals.argmax()))
    for idx in cand:
        x = sigma[idx]
        for _ in range(50):
            d = dp(x)
            dd = ddp(x)
            if dd == 0.0:
                break
            step = d / dd
            x -= step
            if not (0.0 <= x <= 1.0):
                break
            if abs(step) < 1e-15:
                break
        if 0.0 <= x <= 1.0:
            best = max(best, float(abs(p(x))))
    return best


def build_lagrange(node_set: NodeSet) -> LagrangeData:
    """Build the scaled Lagrange basis and its h-independent bound c_ell."""
    nodes = np.asarray(node_set.nodes)
    coeffs = _basis_coeffs(nodes)
    c_ell = max(_refine_max(coeffs[j]) for j in range(node_set.s))
    return LagrangeData(node_set=node_set, monomial_coeffs=coeffs, c_ell=c_ell)


def eval_basis(data: LagrangeData, j: int, tau: float, h: float) -> float:
    """Evaluate ell_j(tau) for nodes c_i*h via Horner in sigma = tau/h."""
    if not 1 <= j <= data.s:
        raise ValidationError(f"stage index {j} out of range 1..{data.s}")
    if h <= 0.0:
        raise ValidationError("h must be positive")
    return np.polynomial.polynomial.polyval(tau / h, data.monomial_coeffs[j - 1])


def moment_residual(data: LagrangeData, tau: float, h: float, k: int) -> float:
    """Residual of sum_j ell_j(tau) (c_j*h - tau)^k against its exact value.

    The identity target is 1 for k = 0 (partition of unity) and 0 for
    1 <= k <= s-1 (vanishing moments); both hold for all tau.
    """
    if k < 0 or k >= data.s:
        raise ValidationError(f"moment order {k} not guaranteed for s={data.s}")
    if h <= 0.0:
        raise ValidationError("h must be positive")
    basis = np.polynomial.polynomial.polyval(tau / h, data.monomial_coeffs.T)
    nodes = np.asarray(data.node_set.nodes)
    return basis @ (nodes * h - tau) ** k - (1.0 if k == 0 else 0.0)
