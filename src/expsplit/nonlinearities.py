"""Nonlinearities g(t, v), their sampled Lipschitz constants and the strip
bookkeeping around a reference trajectory.

The integrator only needs a Lipschitz estimate L for its contraction
certificate Omega(h)*C_ell*s*L < 1 and step-size guards, so L is taken
as a sampled maximum ratio inflated by a safety factor; an over-estimate
is harmless while the fixed-point solver independently verifies
contraction at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StripViolationError, ValidationError
from .propagators import HeatTorusProblem

__all__ = ["Nonlinearity", "PowerNonlinearity", "AdvectionNonlinearity",
           "WaveCubic", "ZeroNonlinearity", "estimate_lipschitz",
           "StripMonitor", "stored_state", "LIPSCHITZ_SAFETY"]

LIPSCHITZ_SAFETY = 1.5


class Nonlinearity:
    """g: [0,T] x V -> X, deterministic in both arguments.

    eval acts on the trailing grid axes.  v may be one state with a float
    t, or a stack (k, *grid) of states with t an array of k row times;
    a stack gives (k, *grid), row m equal to eval(t[m], v[m]).  The
    stepper evaluates all s stages of an iteration in one call.
    """

    def eval(self, t, v):
        raise NotImplementedError


class ZeroNonlinearity(Nonlinearity):
    """g = 0: the purely linear problem."""

    def eval(self, t, v):
        return np.zeros_like(v)


class PowerNonlinearity(Nonlinearity):
    """Pointwise coeff * |v|^(alpha-1) * v, alpha > 1.

    Maps grid L^p into L^(p/alpha); 0 is mapped to 0 exactly.
    """

    def __init__(self, alpha: float, coeff: float = 1.0):
        if alpha <= 1.0:
            raise ValidationError("power exponent must exceed 1")
        self.alpha = float(alpha)
        self.coeff = float(coeff)

    def eval(self, t, v):
        v = np.asarray(v)
        a = np.abs(v)
        if self.alpha >= 2.0:
            # a power of at least 1: 0 maps to 0 with no warning to silence
            return self.coeff * a ** (self.alpha - 1.0) * v
        # 0^(alpha-1)*0 := 0, also for alpha < 2 where the power blows up
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.coeff * a ** (self.alpha - 1.0) * v
        return np.where(a == 0.0, 0.0, out)

    def derivative_bound(self, radius: float) -> float:
        """max |F'| on |u| <= radius: alpha * radius^(alpha-1)."""
        return abs(self.coeff) * self.alpha * radius ** (self.alpha - 1.0)


class AdvectionNonlinearity(Nonlinearity):
    """1D analog of u . grad u on a periodic grid: v * (spectral d/dx v),
    the derivative taken on the problem's rfft modes."""

    def __init__(self, problem):
        if not (isinstance(problem, HeatTorusProblem) and problem.dim == 1):
            raise ValidationError("advection nonlinearity needs the 1D heat torus")
        self.problem = problem
        self.k = np.fft.rfftfreq(problem.n, d=1.0 / problem.n)

    def eval(self, t, v):
        pr = self.problem
        return np.asarray(v) * pr.from_modes(1j * self.k * pr.to_modes(v))


class WaveCubic(Nonlinearity):
    """(w, wdot) -> (0, -alpha_w * w^3) in the wave problem's modal coding."""

    def __init__(self, problem):
        self.problem = problem

    def eval(self, t, z):
        pr = self.problem
        w = pr._idst(np.real(z) / pr.omega)
        force = -pr.alpha_w * w ** 3
        return 1j * pr._dst(force)


def estimate_lipschitz(g, problem, center, radius, t_range=(0.0, 1.0),
                       n_samples: int = 200, rng=None) -> float:
    """Sampled Lipschitz ratio max ||g(t,v)-g(t,w)||_X / ||v-w||_V on the
    V-ball of given radius around center, inflated by LIPSCHITZ_SAFETY."""
    if n_samples < 100:
        raise ValidationError("need at least 100 sample pairs")
    if rng is None:
        rng = np.random.default_rng(0)
    t0, t1 = t_range
    best = 0.0
    for _ in range(n_samples):
        t = rng.uniform(t0, t1)
        v = problem.sample_in_ball(center, radius, rng)
        if rng.uniform() < 0.5:
            w = problem.sample_in_ball(center, radius, rng)
        else:
            # nearby pair: probes the local derivative
            w = v + problem.sample_in_ball(problem.zeros(), 1e-4 * max(radius, 1.0), rng)
        dv = problem.v_norm(v - w)
        if dv == 0.0:
            continue
        dg = problem.x_norm(g.eval(t, v) - g.eval(t, w))
        best = max(best, dg / dv)
    return LIPSCHITZ_SAFETY * best


def stored_state(times, states, t):
    """The rows of the (k, *grid) `states` stored at the entries of `times`
    nearest t, one time or an array of them, in one lookup; a
    ValidationError unless every entry is its t to 1e-9 relative."""
    t = np.asarray(t, dtype=float)
    i = np.abs(np.subtract.outer(t, times)).argmin(axis=-1)
    missed = np.abs(times[i] - t) > 1e-9 * np.maximum(1.0, np.abs(t))
    if np.any(missed):
        raise ValidationError(f"no reference state stored at t={t[missed][0]}")
    return states[i]


@dataclass
class StripMonitor:
    """Checks that a trajectory stays in the V-tube of radius `radius`
    around a reference solution; a violation aborts the run."""

    radius: float
    times: np.ndarray
    states: np.ndarray  # (len(times), *grid)
    v_norm: object
    violations: list = field(default_factory=list)

    def check(self, t: float, state) -> float:
        dist = self.v_norm(state - stored_state(self.times, self.states, t))
        if dist > self.radius:
            self.violations.append((t, dist))
            raise StripViolationError(
                f"trajectory left the strip at t={t:.6g}: "
                f"distance {dist:.3e} > radius {self.radius:.3e}")
        return dist
