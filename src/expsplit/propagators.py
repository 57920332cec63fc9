"""Linear propagators acting on an interpolation couple of grid norms.

Three concrete problems are shipped:

* heat on the torus (Fourier-diagonal, 1D or 2D),
* a 1D Ornstein-Uhlenbeck propagator (kernel convolution plus dilation),
* a 1D Dirichlet wave system reduced to complex diagonal form per sine mode;
  its sine transform is one precomputed orthonormal DST-I matrix.

Every problem sits on a couple of grid norms X (L^p) and V (L^r), p <= r,
with W one of the two, and declares a power-law smoothing profile
rho(t) = c*t^(-alpha) bounding the X->V operator norm.  The
spatial discretization is chosen so that e^{tA} is exact (spectral) or
near-exact (quadrature), so time-stepping error dominates in studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# numpy loads these on first use; load them with the package, not in a run
import numpy.fft, numpy.ma, numpy.polynomial, numpy.random  # noqa: E401, F401

from .errors import ValidationError
from .lagrange import LagrangeData, eval_basis
from .phi import stage_weights_diagonal

__all__ = [
    "lp_norm", "SmoothingProfile", "gaussian_smoothing_constant",
    "Propagator", "DiagonalPropagator", "HeatTorusProblem", "OUProblem",
    "WaveProblem", "SmoothingReport", "measure_smoothing",
]


def lp_norm(u, p: float, cell_volume: float, ndim: int | None = None):
    """Discrete L^p norm over the trailing `ndim` grid axes (all axes by
    default); p = inf is the max norm.  One grid function gives a float;
    a stack (k, *grid) gives its k row norms as an array."""
    a = np.asarray(u)
    lead = a.shape[:a.ndim - ndim] if ndim is not None else ()
    a = a.reshape(lead + (math.prod(a.shape[len(lead):]),))
    if p == 2.0:
        # one BLAS dot per row: the same sums np.vdot makes
        sq = (a.conj()[..., None, :] @ a[..., None])[..., 0, 0].real
        out = np.sqrt(cell_volume * sq)
    else:
        a = np.abs(a)
        if np.isinf(p):
            out = a.max(axis=-1, initial=0.0)
        elif p == 1.0:
            out = cell_volume * np.sum(a, axis=-1)
        else:
            out = (cell_volume * np.sum(a ** p, axis=-1)) ** (1.0 / p)
    return out if lead else float(out)


@dataclass(frozen=True)
class SmoothingProfile:
    """Power-law bound rho(t) = c*t^(-alpha) with alpha in [0, 1)."""

    c: float
    alpha: float
    t_max: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ValidationError(f"alpha must be in [0,1), got {self.alpha}")
        if self.c <= 0.0 or self.t_max <= 0.0:
            raise ValidationError("c and t_max must be positive")

    def rho(self, t: float) -> float:
        if self.alpha == 0.0:
            return self.c
        return self.c * t ** (-self.alpha)

    def omega(self, h: float) -> float:
        """Omega(h) = int_0^h rho = c*h^(1-alpha)/(1-alpha)."""
        if h < 0.0:
            raise ValidationError("h must be nonnegative")
        return self.c * h ** (1.0 - self.alpha) / (1.0 - self.alpha)


def _inverse(p: float) -> float:
    return 0.0 if np.isinf(p) else 1.0 / p


def gaussian_smoothing_constant(dim: int, p: float, r: float) -> tuple[float, float]:
    """(c, alpha) of the whole-space Gaussian L^p -> L^r bound.

    Young's inequality with the conjugate exponent q (1 + 1/r = 1/p + 1/q)
    gives ||g_t||_q = (4 pi t)^(-alpha) * q^(-dim/(2q)),
    alpha = (dim/2)(1/p - 1/r).
    """
    ip, ir = _inverse(p), _inverse(r)
    if ir > ip:
        raise ValidationError("need p <= r for smoothing")
    alpha = 0.5 * dim * (ip - ir)
    if alpha >= 1.0:
        raise ValidationError(f"smoothing exponent {alpha} not integrable")
    iq = 1.0 - ip + ir  # 1/q
    if iq <= 0.0:
        c_q = 1.0
    else:
        q = 1.0 / iq
        c_q = q ** (-dim / (2.0 * q))
    return (4.0 * math.pi) ** (-alpha) * c_q, alpha


class Propagator:
    """Abstract linear propagator e^{tA} on a grid problem.

    Every operator splits into a build and an apply, so a stepper builds
    its operators once per step size and applies them at every step:
    flow_op(times) is applied by apply_nodes(op, V), and
    convolve_op(h, lag, ends) by stage_convolve(op, G).  apply(t, v) is
    the one-time case of the flow.  Stage values travel as one
    (s, *grid) array.  The generic convolve_op integrates the Lagrange
    interpolant of the stage values by Gauss-Legendre quadrature in tau;
    diagonal problems override it with exact phi-weights.

    The base class owns the norm couple: X is the grid L^p norm and V the
    grid L^r norm (p <= r) over the `dim` trailing axes with cell volume
    `cell`, and W is X or V by w_choice.  The norms reduce over the
    trailing grid axes: one state gives a float, a stack (k, *grid) gives
    its k row norms in one call.  The stepper takes each increment and
    stage-scale norm of a step that way.
    """

    bound_m: float = 1.0
    profile_x: SmoothingProfile
    profile_w: SmoothingProfile

    def __init__(self, p: float = 2.0, r: float = 2.0, w_choice: str = "V",
                 cell: float = 1.0, dim: int = 1):
        if w_choice not in ("X", "V"):
            raise ValidationError("w_choice must be 'X' or 'V'")
        if _inverse(r) > _inverse(p):
            raise ValidationError("need p <= r")
        self.p, self.r, self.w_choice = float(p), float(r), w_choice
        self.cell, self.dim = cell, dim

    def _set_profiles(self, c: float, alpha: float, t_max: float):
        """profile_x is rho(t) = c*t^(-alpha); profile_w is profile_x for
        W = X and the uniform bound bound_m for W = V."""
        self.profile_x = SmoothingProfile(c=c, alpha=alpha, t_max=t_max)
        self.profile_w = (self.profile_x if self.w_choice == "X"
                          else SmoothingProfile(c=self.bound_m, alpha=0.0, t_max=t_max))

    def flow_op(self, times):
        """The flows e^{t_m A} for the given times, ready for apply_nodes."""
        raise NotImplementedError

    def apply_nodes(self, op, V):
        """e^{t_m A} V_m for every time t_m of a flow_op, as (m, *grid); a
        single state V is propagated to every time."""
        raise NotImplementedError

    def apply(self, t: float, v):
        return self.apply_nodes(self.flow_op((t,)), np.asarray(v)[None])[0]

    def lp(self, v, p):
        return lp_norm(v, p, self.cell, self.dim)

    def x_norm(self, v):
        return self.lp(v, self.p)

    def v_norm(self, v):
        return self.lp(v, self.r)

    def w_norm(self, v):
        return self.x_norm(v) if self.w_choice == "X" else self.v_norm(v)

    def zeros(self):
        raise NotImplementedError

    def random_field(self, rng):
        """A random state, smooth enough to keep pointwise nonlinearities
        under control; sample_in_ball scales it into a V-ball."""
        raise NotImplementedError

    def sample_in_ball(self, center, radius: float, rng) -> object:
        """A state v with v_norm(v - center) <= radius, at least a tenth of
        the radius away from the center unless the field is zero."""
        v = self.random_field(rng)
        nv = self.v_norm(v)
        if nv == 0.0:
            return np.asarray(center).copy()
        return center + radius * rng.uniform(0.1, 1.0) / nv * v

    def smoothing_probes(self, rng):
        """Probe states for measure_smoothing's operator-norm proxy."""
        raise ValidationError(f"{type(self).__name__} has no smoothing probes")

    quad_extra_nodes: int = 2  # q_tau = s + quad_extra_nodes

    def convolve_op(self, h: float, lag: LagrangeData, ends,
                    q_nodes: int | None = None):
        """Operator of stage_convolve whose row i is
        int_0^{e_i h} e^{(e_i h - tau) A} sum_j ell_j(tau) G_j dtau.

        ends are the end points e_i as fractions of h (the nodes for the
        stage equations, (1.0,) for the update).  For the ends with
        e_i h != 0 (their indices are `live`) and q nodes tau_k on
        [0, e_i h], it stacks the flows of the m = E*q times e_i h - tau_k,
        the Lagrange basis values ell_j(tau_k) as (m, s) and the
        quadrature weights as (E, q), end by end.
        """
        s = lag.s
        if q_nodes is None:
            q_nodes = s + self.quad_extra_nodes
        if q_nodes < s:
            raise ValidationError(
                f"{q_nodes} quadrature nodes cannot integrate degree {s - 1} exactly")
        x, w = np.polynomial.legendre.leggauss(q_nodes)
        live = [i for i, e in enumerate(ends) if e * h != 0.0]
        times, wts, basis = [], [], []
        for i in live:
            t_end = ends[i] * h
            tau = 0.5 * t_end * (x + 1.0)
            times.extend(t_end - tq for tq in tau)
            wts.append(0.5 * t_end * w)
            basis.extend([eval_basis(lag, j, tq, h) for j in range(1, s + 1)]
                         for tq in tau)
        return (len(ends), live, self.flow_op(times), np.array(basis).reshape(-1, s),
                np.array(wts).reshape(-1, q_nodes))

    def stage_convolve(self, op, G):
        """Apply a convolve_op to the s stage values G, stacked as
        (s, *grid); returns (len(ends), *grid)."""
        n_ends, live, flow, basis, wt = op
        G = _check_stages(G, basis.shape[1])
        if not live:
            zero = self.zeros()
            return np.zeros((n_ends,) + zero.shape, zero.dtype)
        # all E*q interpolants in one product, all flows in one call
        rows = self.apply_nodes(flow, np.tensordot(basis, G, axes=(1, 0)))
        rows = rows.reshape(wt.shape + rows.shape[1:])
        acc = np.sum(wt.reshape(wt.shape + (1,) * (rows.ndim - 2)) * rows, axis=1)
        if len(live) == n_ends:
            return acc
        out = np.zeros((n_ends,) + acc.shape[1:], np.result_type(self.zeros(), acc))
        out[live] = acc
        return out


def _check_stages(G, s: int):
    G = np.asarray(G)
    if len(G) != s:
        raise ValidationError(f"expected {s} stage values, got {len(G)}")
    return G


class DiagonalPropagator(Propagator):
    """Propagator diagonalized by a fixed transform pair.

    Subclasses set self.eigenvalues (ndarray over modes) and implement
    to_modes / from_modes on the trailing grid axes, so a stack of states
    transforms in one call.  A flow op is the multiplier stack
    exp(outer(times, eigenvalues)); a convolve op holds the exact
    phi-function weights.
    """

    eigenvalues: np.ndarray

    def to_modes(self, v) -> np.ndarray:
        raise NotImplementedError

    def from_modes(self, vh: np.ndarray):
        raise NotImplementedError

    def flow_op(self, times):
        return np.exp(np.multiply.outer(np.asarray(times, dtype=float), self.eigenvalues))

    def apply_nodes(self, op, V):
        return self.from_modes(op * self.to_modes(V))

    def apply(self, t: float, v):
        zero = self.zeros()
        v = np.asarray(v, dtype=zero.dtype)
        if v.shape[v.ndim - zero.ndim:] != zero.shape:
            raise ValidationError(f"state shape {v.shape} != grid {zero.shape}")
        if t == 0.0:
            return v.copy()
        return self.from_modes(np.exp(t * self.eigenvalues) * self.to_modes(v))

    def convolve_op(self, h, lag, ends, q_nodes=None):
        return stage_weights_diagonal(self.eigenvalues, h, lag, tuple(ends))

    def stage_convolve(self, op, G):
        G = _check_stages(G, op.shape[1])
        return self.from_modes(np.einsum("ij...,j...->i...", op, self.to_modes(G)))


class HeatTorusProblem(DiagonalPropagator):
    """Heat semigroup on the d-torus (d in {1,2}), Fourier-diagonal.

    X is the grid L^p norm and V the grid L^r norm (optionally W^{1,r}
    with a spectral gradient).  The L^p-L^r smoothing exponent is
    alpha = (d/2)(1/p - 1/r).
    """

    def __init__(self, dim: int = 1, n: int = 64, p: float = 2.0, r: float = 2.0,
                 w_choice: str = "V", sobolev_v: bool = False, t_max: float = 1.0):
        if dim not in (1, 2):
            raise ValidationError("dim must be 1 or 2")
        if n < 4 or n & (n - 1):
            raise ValidationError("grid size must be a power of two >= 4")
        self.n, self.sobolev_v = n, sobolev_v
        self.dx = 2.0 * math.pi / n
        super().__init__(p, r, w_choice, cell=self.dx ** dim, dim=dim)
        # real fields: the modes are the rfft half spectrum of the last axis
        k = np.fft.fftfreq(n, d=1.0 / n)
        k_half = np.fft.rfftfreq(n, d=1.0 / n)
        if dim == 1:
            self.shape = (n,)
            self.ksq = k_half ** 2
            self.kvec = k_half
            # sample_in_ball's field: cos(kx)/k^2, sin(kx)/k^2 per k, then 1/2
            kmax = min(n // 4, 16)
            kb = np.arange(1, kmax + 1)[:, None]
            kx = kb * self.grid()
            waves = np.stack([np.cos(kx), np.sin(kx)], axis=1) / kb[:, None] ** 2
            self._ball_basis = np.vstack([waves.reshape(2 * kmax, n), np.full((1, n), 0.5)])
        else:
            self.shape = (n, n)
            kx, ky = np.meshgrid(k, k_half, indexing="ij")
            self.ksq = kx ** 2 + ky ** 2
            # i*k*vh on the x Nyquist row is imaginary in the full spectrum,
            # so that row adds nothing to a real derivative
            self.kvec = (np.where(kx == -(n // 2), 0.0, kx), ky)
        self.eigenvalues = -self.ksq
        c, alpha = gaussian_smoothing_constant(dim, p, r)
        if p == r:
            c, alpha = self.bound_m, 0.0
        self._set_profiles(c, alpha, t_max)

    bound_m = 1.0  # kernel has unit mass, Young on every L^p

    def _check(self, v):
        if np.shape(v)[-self.dim:] != self.shape:
            raise ValidationError(f"state shape {np.shape(v)} != grid {self.shape}")

    def to_modes(self, v):
        self._check(v)
        if self.dim == 1:
            return np.fft.rfft(v)
        return np.fft.rfft2(v)

    def from_modes(self, vh):
        if self.dim == 1:
            return np.fft.irfft(vh, self.n)
        return np.fft.irfft2(vh, self.shape)

    def zeros(self):
        return np.zeros(self.shape)

    def grid(self):
        x = np.arange(self.n) * self.dx
        if self.dim == 1:
            return x
        return np.meshgrid(x, x, indexing="ij")

    def gradient(self, v):
        """Spectral gradient magnitude; transforms the trailing grid axes only."""
        vh = self.to_modes(v)
        if self.dim == 1:
            return self.from_modes(1j * self.kvec * vh)
        kx, ky = self.kvec
        gx = self.from_modes(1j * kx * vh)
        gy = self.from_modes(1j * ky * vh)
        return np.sqrt(gx ** 2 + gy ** 2)

    def v_norm(self, v):
        base = self.lp(v, self.r)
        if self.sobolev_v:
            base += self.lp(self.gradient(v), self.r)
        return base

    def random_field(self, rng):
        # random band-limited field: |k|^-2 spectral decay keeps pointwise
        # values and Lipschitz ratios bounded on V-balls
        if self.dim == 1:
            return rng.standard_normal(len(self._ball_basis)) @ self._ball_basis
        kmax = min(self.n // 4, 16)
        terms = []
        for _ in range(8):
            kx = rng.integers(0, kmax + 1)
            ky = rng.integers(0, kmax + 1)
            a = rng.standard_normal() / (1.0 + kx ** 2 + ky ** 2)
            terms.append((kx, ky, a, rng.uniform(0, 2 * np.pi)))
        kx, ky, a, ph = (np.array(c)[:, None] for c in zip(*terms))
        # cos(kx x + ky y + ph) = cos(kx x) cos(ky y + ph) - sin(kx x) sin(ky y + ph)
        x = np.arange(self.n) * self.dx
        wx, wy = kx * x, ky * x + ph
        return (a * np.cos(wx)).T @ np.cos(wy) - (a * np.sin(wx)).T @ np.sin(wy)

    def kernel_width(self, t):
        return math.sqrt(2.0 * t)

    def smoothing_probes(self, rng):
        probes = []
        delta = self.zeros()
        idx = (self.n // 2,) * self.dim
        delta[idx] = 1.0 / self.cell
        probes.append(delta)
        x = self.grid()
        if self.dim == 1:
            r2 = (x - math.pi) ** 2
        else:
            xx, yy = x
            r2 = (xx - math.pi) ** 2 + (yy - math.pi) ** 2
        for sig in np.geomspace(2 * self.dx, 1.0, 6):
            probes.append(np.exp(-r2 / (2.0 * sig ** 2)))
        for _ in range(3):
            probes.append(np.sign(rng.standard_normal(self.shape)))
        probes.append(np.ones(self.shape))
        if self.dim == 1:
            probes.append(np.sin(x))
        else:
            probes.append(np.sin(x[0]))
        return probes


class OUProblem(Propagator):
    """1D Ornstein-Uhlenbeck propagator on a truncated box [-L, L].

    apply(t, f)(x) = (k_t * f)(e^{gamma t} x) with gamma = -b > 0 and
    k_t a centered Gaussian of variance 2*Q_t, Q_t = q (e^{2 gamma t}-1)
    / (2 gamma).  With this orientation a Gaussian of variance sigma^2
    maps to one of variance e^{2bt} sigma^2 + 2 q (e^{2bt}-1)/(2b).
    Convolution is trapezoid quadrature on the grid (via FFT), dilation
    is 4-point cubic interpolation with zero extension outside the box.
    apply_nodes applies this to a stack of states in one kernel, and
    apply(t, v) is its one-row case; stage_convolve hands it every
    quadrature node of a call.
    """

    def __init__(self, b: float = -1.0, q: float = 2.0, box: float = 12.0,
                 n: int = 512, p: float = 2.0, r: float = 2.0,
                 w_choice: str = "V", t_max: float = 1.0):
        if not -math.inf < b < 0.0:
            raise ValidationError("drift b must be negative and finite")
        if not 0.0 < q < math.inf:
            raise ValidationError("diffusion q must be positive and finite")
        if not 0.0 < box < math.inf or n < 4:
            raise ValidationError("box must be positive and finite, and n >= 4 "
                                  "(4-point dilation stencil)")
        self.b, self.q = float(b), float(q)
        self.gamma = -float(b)
        self.box, self.n = float(box), int(n)
        self.x = np.linspace(-box, box, n, endpoint=False) + box / n
        self.dx = self.x[1] - self.x[0]
        super().__init__(p, r, w_choice, cell=self.dx)
        # sample_in_ball's field: cos(k pi x/L)/k^2, sin(k pi x/L)/k^2 per k,
        # under a Gaussian envelope that decays inside the box
        kb = np.arange(1, 7)[:, None]
        kx = kb * np.pi * self.x / self.box
        waves = np.stack([np.cos(kx), np.sin(kx)], axis=1) / kb[:, None] ** 2
        env = np.exp(-self.x ** 2 / (2.0 * (self.box / 3.0) ** 2))
        self._ball_basis = waves.reshape(2 * len(kb), self.n) * env
        c, alpha = gaussian_smoothing_constant(1, self.p, self.r)
        if alpha == 0.0:
            c = self.bound_m
        else:
            # k_t is the heat kernel at time Q_t >= q t
            c *= self.q ** (-alpha)
        self._set_profiles(c, alpha, t_max)

    bound_m = 1.05  # contraction up to quadrature/interpolation error

    def q_t(self, t: float) -> float:
        g = self.gamma
        return self.q * (math.exp(2.0 * g * t) - 1.0) / (2.0 * g)

    def kernel_width(self, t: float) -> float:
        return math.sqrt(max(2.0 * self.q_t(t), 0.0))

    def flow_op(self, times):
        """Stacked plan of apply_nodes: which rows move (t != 0), the
        Gaussian symbols of the rows above the kernel-variance cutoff, and
        the 4-point dilation stencils with their in-box masks."""
        times = tuple(times)
        if times and min(times) < 0.0:
            raise ValidationError("t must be >= 0")
        n, dx = self.n, self.dx
        xi = 2.0 * math.pi * np.fft.rfftfreq(n, d=dx)
        live = [m for m, t in enumerate(times) if t != 0.0]
        smooth, symbols, first, weights, inside = [], [], [], [], []
        for r, m in enumerate(live):
            t = times[m]
            q_t = self.q_t(t)
            # below the cutoff the kernel is a near-delta whose symbol is 1
            # to rounding: the row is pure dilation
            if q_t >= 1e-14:
                # Gaussian kernel applied through its exact Fourier symbol on
                # the periodic box; for widths above ~3 dx this matches the
                # grid-sampled kernel to rounding, and it stays exact (-> 1)
                # as t -> 0 where pointwise sampling loses the kernel mass
                smooth.append(r)
                symbols.append(np.exp(-q_t * xi ** 2))
            # 4-point cubic Lagrange interpolation at the dilated points
            y = np.exp(self.gamma * t) * self.x
            pos = (y - self.x[0]) / dx
            j = np.clip(np.floor(pos).astype(int), 1, n - 3)
            f = pos - j
            w0 = -f * (f - 1.0) * (f - 2.0) / 6.0
            w1 = (f + 1.0) * (f - 1.0) * (f - 2.0) / 2.0
            w2 = -(f + 1.0) * f * (f - 2.0) / 2.0
            w3 = (f + 1.0) * f * (f - 1.0) / 6.0
            weights.append((w0, w1, w2, w3))
            # first stencil point, as an index into the flattened stack
            first.append(j - 1 + r * n)
            inside.append((pos >= 0.0) & (pos <= n - 1))
        return (len(times), live, smooth if len(smooth) < len(live) else None,
                np.array(symbols) if symbols else None,
                np.array(first, dtype=np.intp),
                np.array(weights).reshape(-1, 4, n).transpose(1, 0, 2).copy(),
                ~np.array(inside, dtype=bool))

    def apply_nodes(self, op, V):
        """One kernel for a stack: one rfft/irfft pass over the rows with a
        Gaussian symbol, then one gathered 4-point dilation.  Rows with
        t = 0 are exact copies; rows below the kernel-variance cutoff are
        pure dilation."""
        m, live, smooth, symbol, first, weights, outside = op
        V = np.asarray(V, dtype=float)
        if V.ndim == 1:
            V = np.broadcast_to(V, (m,) + V.shape)
        if V.shape != (m, self.n):
            raise ValidationError(f"state stack shape {V.shape} != ({m}, {self.n})")
        if not live:
            return V.copy()
        conv = V if len(live) == len(V) else V[live]
        if smooth is None:
            conv = np.fft.irfft(np.fft.rfft(conv) * symbol, self.n)
        elif symbol is not None:
            conv = conv.copy()
            conv[smooth] = np.fft.irfft(np.fft.rfft(conv[smooth]) * symbol, self.n)
        # point k of every stencil is one gather from the stack shifted by k
        flat = conv.ravel()
        out = flat.take(first) * weights[0] + flat[1:].take(first) * weights[1]
        out += flat[2:].take(first) * weights[2]
        out += flat[3:].take(first) * weights[3]
        out[outside] = 0.0
        if len(live) == len(V):
            return out
        rows = V.copy()
        rows[live] = out
        return rows

    def zeros(self):
        return np.zeros(self.n)

    def random_field(self, rng):
        return rng.standard_normal(len(self._ball_basis)) @ self._ball_basis

    def smoothing_probes(self, rng):
        probes = []
        delta = self.zeros()
        delta[self.n // 2] = 1.0 / self.dx
        probes.append(delta)
        for sig in np.geomspace(2 * self.dx, self.box / 6.0, 5):
            probes.append(np.exp(-self.x ** 2 / (2.0 * sig ** 2)))
        env = np.exp(-self.x ** 2 / (2.0 * (self.box / 4.0) ** 2))
        for _ in range(3):
            probes.append(np.sign(rng.standard_normal(self.n)) * env)
        probes.append(env)
        return probes


class WaveProblem(DiagonalPropagator):
    """1D Dirichlet wave system in complex modal coordinates.

    Physical state is a pair (w, wdot) on the interior grid of (0, pi);
    per sine mode k the block propagator rotates (w_k, wdot_k) with
    frequency omega_k = k.  Internally the pair is packed into the
    complex vector z_k = omega_k * w_k + i * wdot_k, which evolves
    diagonally with eigenvalue -i*omega_k, so the exact phi-weight
    machinery applies.  The V=X norm is the energy norm
    (||grad w||_2^2 + ||wdot||_2^2)^(1/2).

    The sine transform is the orthonormal DST-I matrix S (symmetric, its
    own inverse), built once: an O(n^2) product per state, a few times
    faster than an FFT-based DST at the 16-64 modes of every preset and
    still ahead at 128 modes, but slower from a few hundred modes on.
    """

    def __init__(self, n_modes: int = 32, alpha_w: float = 1.0, t_max: float = 2.0):
        if n_modes < 2:
            raise ValidationError("need at least 2 modes")
        self.n = int(n_modes)
        self.alpha_w = float(alpha_w)
        self.dx = math.pi / (self.n + 1)
        super().__init__(cell=self.dx)
        k = np.arange(1, self.n + 1)
        self.x = k * self.dx
        self.omega = k.astype(float)
        # S[j, k] = sqrt(2/(n+1)) sin(pi j k/(n+1)), with j*k reduced modulo
        # 2(n+1) so that every sine argument stays below 2 pi
        jk = np.outer(k, k) % (2 * (self.n + 1))
        self._sine = math.sqrt(2.0 / (self.n + 1)) * np.sin(math.pi * jk / (self.n + 1))
        self.eigenvalues = -1j * self.omega
        self._set_profiles(self.bound_m, 0.0, t_max)

    bound_m = 1.0  # exact rotation in the energy pairing

    def to_modes(self, z):
        return np.asarray(z, dtype=complex)

    def from_modes(self, zh):
        return zh

    def zeros(self):
        return np.zeros(self.n, dtype=complex)

    # physical <-> modal packing -------------------------------------
    def _dst(self, u):
        # one matrix-vector product per row: a stacked row keeps its bits
        return (self._sine @ np.asarray(u)[..., None])[..., 0]

    _idst = _dst  # S is its own inverse

    def encode(self, w, wdot):
        """Pack a physical (w, wdot) pair into the complex modal state."""
        return self.omega * self._dst(w) + 1j * self._dst(wdot)

    def modal_energy(self, z):
        """Per-mode invariant omega^2 w_k^2 + wdot_k^2 of the linear flow."""
        return np.abs(z) ** 2

    def energy_norm(self, z):
        """Energy norm of one modal state (a float) or of each row of a stack."""
        return self.lp(z, 2.0)

    # X = V = W is the energy norm, so w_norm need not dispatch to v_norm
    x_norm = v_norm = w_norm = energy_norm

    def random_field(self, rng):
        amp = rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n)
        return amp / (1.0 + self.omega) ** 2


@dataclass
class SmoothingReport:
    """(t, proxy) rows, fitted log-log slope over the resolved rows."""

    rows: list = field(default_factory=list)  # (t, proxy, resolved)
    slope: float = float("nan")
    alpha_declared: float = float("nan")


def measure_smoothing(propagator, p, r, t_list, rng=None) -> SmoothingReport:
    """Operator-norm proxy ||e^{tA}.||_{Lp -> Lr} over a probe set.

    The proxy is the max ratio over deltas, scaled Gaussians, rough sign
    vectors and smooth fields; a log-log fit over the resolved t values
    estimates -alpha.  Rows where the kernel width is below 2*dx are
    flagged and excluded from the fit.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    t_list = sorted(float(t) for t in t_list)
    if any(t <= 0.0 for t in t_list):
        raise ValidationError("t values must be positive")
    probes = propagator.smoothing_probes(rng)
    report = SmoothingReport(alpha_declared=propagator.profile_x.alpha)
    for t in t_list:
        ratio = 0.0
        for u in probes:
            nx = propagator.lp(u, p)
            if nx == 0.0:
                continue
            ratio = max(ratio, propagator.lp(propagator.apply(t, u), r) / nx)
        resolved = propagator.kernel_width(t) >= 2.0 * propagator.dx
        report.rows.append((t, ratio, resolved))
    pts = [(t, v) for t, v, ok in report.rows if ok and v > 0.0]
    if len(pts) >= 2:
        lt = np.log([t for t, _ in pts])
        lv = np.log([v for _, v in pts])
        report.slope = float(np.polyfit(lt, lv, 1)[0])
    return report
