"""Nonlinearities g(t, v), their sampled Lipschitz constants and the strip
check around a reference trajectory.

The integrator only needs a Lipschitz estimate L for its contraction
certificate Omega(h)*C_ell*s*L < 1 and step-size guards, so L is taken
as a sampled maximum ratio inflated by a safety factor; an over-estimate
is harmless while the fixed-point solver independently verifies
contraction at runtime.

The sampler draws its pairs one at a time, in a fixed order on one
random stream, and stacks everything computed from the draws per chunk
of pairs; its constants equal a pair-by-pair loop's bit for bit.  Each
uniform draw is lo + (hi - lo) * rng.random(), the value and the bits
that rng.uniform(lo, hi) returns, at about a quarter of its call cost:
the draws are most of an estimate on the small grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StripViolationError, ValidationError
from .propagators import HeatTorusProblem, place_in_ball

__all__ = ["Nonlinearity", "PowerNonlinearity", "AdvectionNonlinearity",
           "WaveCubic", "ZeroNonlinearity", "estimate_lipschitz",
           "StripMonitor", "stored_state", "LIPSCHITZ_SAFETY"]

LIPSCHITZ_SAFETY = 1.5
# estimate_lipschitz stacks as many sample pairs per chunk as fit in this
# many bytes at two states a pair: all 120 of a study's pairs per center on
# the 64-point heat grid and the 32 wave modes, 30 on the 256-point OU
# grid, one on a 128 x 128 grid.  The stacks stay under glibc's default
# 128 KiB mmap threshold; 256 KiB stacks raised it and the OU study's peak
# RSS by 1.6 MB.
LIPSCHITZ_CHUNK_BYTES = 120 * 1024


class Nonlinearity:
    """g: [0,T] x V -> X, deterministic in both arguments.

    eval acts on the trailing grid axes.  v may be one state with a float
    t, or a stack (k, *grid) of states with t an array of k row times;
    a stack gives (k, *grid), row m equal to eval(t[m], v[m]).  The
    stepper evaluates the stages of an iteration in one call, and the
    result is a new array: the stepper may write stage modes into it.

    `spec` is the declared inputs: the config section that
    build_nonlinearity rebuilds it from, with the bound problem's spec
    under "problem"; None declares nothing (see Propagator.spec).
    """

    spec = None

    def eval(self, t, v):
        raise NotImplementedError


class ZeroNonlinearity(Nonlinearity):
    """g = 0: the purely linear problem."""

    @property
    def spec(self):
        return {"kind": "none"}

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

    @property
    def spec(self):
        return {"kind": "power", "alpha": self.alpha, "coeff": self.coeff}

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

    @property
    def spec(self):
        return {"kind": "advection", "problem": self.problem.spec}

    def eval(self, t, v):
        pr = self.problem
        return np.asarray(v) * pr.from_modes(1j * self.k * pr.to_modes(v))


class WaveCubic(Nonlinearity):
    """(w, wdot) -> (0, -alpha_w * w^3) in the wave problem's modal coding."""

    def __init__(self, problem):
        self.problem = problem

    @property
    def spec(self):
        return {"kind": "wave_cubic", "problem": self.problem.spec}

    def eval(self, t, z):
        pr = self.problem
        w = pr._idst(np.real(z) / pr.omega)
        force = -pr.alpha_w * w ** 3
        return 1j * pr._dst(force)


def estimate_lipschitz(g, problem, center, radius, t_range=(0.0, 1.0),
                       n_samples: int = 200, rng=None) -> float:
    """Sampled Lipschitz ratio max ||g(t,v)-g(t,w)||_X / ||v-w||_V on the
    V-ball of given radius around center, inflated by LIPSCHITZ_SAFETY.

    center may be one state or a stack (c, *grid) of centers: n_samples
    pairs are drawn around each in turn, the draws of c calls in a row on
    one rng.  Each pair draws, in order, t, the field and scale of v, a
    coin, then the field and scale of w (see _draw_pairs); a pair with
    v = w is skipped.  The pairs are taken in chunks of at most
    LIPSCHITZ_CHUNK_BYTES, and each chunk makes one v_norm call on its
    fields, one on v - w, one g.eval on the stack of its v's and w's and
    one x_norm of the differences.
    """
    if n_samples < 100:
        raise ValidationError("need at least 100 sample pairs")
    t_range = tuple(map(float, t_range))
    if not 0.0 <= t_range[1] - t_range[0] < math.inf:
        raise ValidationError(f"t_range {t_range} is not a finite interval")
    if rng is None:
        rng = np.random.default_rng(0)
    zero = problem.zeros()
    centers = np.asarray(center)
    if centers.shape == zero.shape:
        centers = centers[None]
    pairs = min(n_samples, max(1, LIPSCHITZ_CHUNK_BYTES // (2 * zero.nbytes)))
    # buffers of the largest chunk; row i holds the field, then the point,
    # of the v in slot i, row k + i those of its w
    times, scales = np.empty(pairs), np.empty(2 * pairs)
    rows = np.empty((2 * pairs,) + zero.shape, np.result_type(centers, zero))
    near_radius = 1e-4 * max(radius, 1.0)
    best = 0.0
    for c in centers:
        for start in range(0, n_samples, pairs):
            k = min(pairs, n_samples - start)
            t, S, V = times[:k], scales[:2 * k], rows[:2 * k]
            n_far = _draw_pairs(problem, rng, t_range, t, V, S)
            norms = problem.v_norm(V)
            far = k + n_far  # the v's and far w's lie around the center
            place_in_ball(c, radius, S[:far], V[:far], norms[:far], out=V[:far])
            place_in_ball(V[n_far:k], near_radius, S[far:], V[far:], norms[far:],
                          out=V[far:])
            dv = problem.v_norm(V[:k] - V[k:])
            # G and dG stay bound until the next chunk makes its own: on the
            # 128 x 128 grid, where a chunk is one pair, freeing them at the
            # end of every chunk let glibc trim the heap top and fault it
            # back in, up to 190 page faults a pair (expsplit run 10 % slower)
            G = g.eval(np.concatenate((t, t)), V)
            dG = G[:k] - G[k:]
            live = dv != 0.0  # fmax below skips a nan ratio
            best = max(best, np.fmax.reduce(problem.x_norm(dG)[live] / dv[live],
                                             initial=0.0))
    return float(LIPSCHITZ_SAFETY * best)


def _draw_pairs(problem, rng, t_range, t, fields, scales):
    """Draw len(t) pairs into slots of the buffers, pair by pair in stream
    order; the number of far pairs, which fill the slots from the front.

    A pair draws its time, the ball draw of v (problem.ball_draw), a coin,
    then the ball draw of w.  On heads (coin >= 1/2) w is v plus a step of
    radius 1e-4 * max(radius, 1) that probes the local derivative, else a
    second point of the ball; near pairs fill the slots from the back, so
    the far and the near pairs are each one contiguous slice.
    """
    t0, span = t_range[0], t_range[1] - t_range[0]
    k = len(t)
    n_far, n_near = 0, 0
    for _ in range(k):
        t_i = t0 + span * rng.random()  # rng.uniform(t0, t1), bit for bit
        v_field, v_scale = problem.ball_draw(rng)
        near = rng.random() >= 0.5
        w_field, w_scale = problem.ball_draw(rng)
        if near:
            n_near += 1
            i = k - n_near
        else:
            i = n_far
            n_far += 1
        t[i], fields[i], scales[i] = t_i, v_field, v_scale
        fields[k + i], scales[k + i] = w_field, w_scale
    return n_far


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
    """The V-tube of radius `radius` around a reference trajectory, where a
    study samples its Lipschitz constant and checks each sweep run's rows."""

    radius: float
    times: np.ndarray
    states: np.ndarray  # (len(times), *grid)
    v_norm: object
    violations: list = field(default_factory=list)

    def check(self, t, states):
        """V-distances from the reference, in one v_norm call, of one state
        at time t or of a (k, *grid) stack at k times; the first row beyond
        the radius goes to violations and raises StripViolationError."""
        dist = self.v_norm(states - stored_state(self.times, self.states, t))
        beyond = np.flatnonzero(np.atleast_1d(dist) > self.radius)
        if len(beyond):
            t_i, d_i = (float(np.atleast_1d(a)[beyond[0]]) for a in (t, dist))
            self.violations.append((t_i, d_i))
            raise StripViolationError(
                f"trajectory left the strip at t={t_i:.6g}: "
                f"distance {d_i:.3e} > radius {self.radius:.3e}")
        return dist
