"""Linear propagators acting on an interpolation couple of grid norms.

Three concrete problems are shipped:

* heat on the torus (Fourier-diagonal, 1D or 2D); on a 1D grid of at most
  FOLD_MAX_N points every step operator is folded into a dense grid matrix
  built once, larger and 2D grids apply theirs through np.fft,
* a 1D Ornstein-Uhlenbeck propagator (kernel convolution plus dilation),
* a 1D Dirichlet wave system reduced to complex diagonal form per sine mode;
  its sine transform is one precomputed orthonormal DST-I matrix.

Every problem sits on a couple of grid norms X (L^p) and V (L^r), p <= r,
with W one of the two, and declares a power-law smoothing profile
rho(t) = c*t^(-alpha) bounding the X->V operator norm.  The
spatial discretization is chosen so that e^{tA} is exact (spectral) or
near-exact (quadrature), so time-stepping error dominates in studies.
Each problem supplies only the plans and kernels of its two step
operators, the flows and the stage convolutions; Propagator checks their
inputs.  The stepper asks for no t = 0 flow and no e_i h = 0 end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy loads these on first use; load them with the package, not in a run
import numpy.fft, numpy.polynomial, numpy.random  # noqa: E401, F401

from .errors import ValidationError
from .lagrange import LagrangeData
from .phi import stage_weights_diagonal

__all__ = [
    "lp_norm", "place_in_ball", "SmoothingProfile", "gaussian_smoothing_constant",
    "Propagator", "DiagonalPropagator", "HeatTorusProblem", "OUProblem",
    "WaveProblem", "SmoothingReport", "measure_smoothing",
]


# 1D heat grids of up to this many points fold every step operator into a
# dense grid matrix.  One heat-cubic step (h = 1/8192), folded against
# np.fft, best of 21 interleaved runs of 300 steps with single-threaded
# OpenBLAS on a 2-vCPU Xeon: n = 32, 80.0 / 166.9 us at s = 2 and 81.0 /
# 162.3 us at s = 4; n = 64, 78.1 / 156.0 and 125.3 / 179.3 us; n = 128,
# 125.7 / 170.0 and 452.6 / 208.2 us.  So a fold at n = 128 would win for
# s <= 2 and lose at s = 4, and the cutoff keys on n alone.  The folded
# step ops serve run's own steps (a study's sweep, `expsplit run`): a
# study's 4-stage reference on a heat grid is solved by windows of steps
# in modal form (run_windowed) and builds no folded stage matrix.
FOLD_MAX_N = 64


def _matvec_rows(M, v):
    """M applied to every vector along v's last axis, one matrix-vector
    product per row: unlike one gemm over the stack, a row of a stack gets
    the same bits as the row alone."""
    return (M @ np.asarray(v)[..., None])[..., 0]


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


def place_in_ball(center, radius, scale, field, norm, out=None):
    """center + radius * scale / norm * field, the point of a ball draw.

    field may be a stack (k, *grid) with scale and norm arrays of k
    entries and center one state or k of them; the rows are placed in one
    pass, bit for bit as one at a time.  A zero field (norm 0) gives the
    center.  With `out` the point is written there.
    """
    coef = radius * scale / np.where(norm == 0.0, 1.0, norm)
    coef = coef.reshape(coef.shape + (1,) * (field.ndim - coef.ndim))
    return np.add(center, np.multiply(coef, field, out=out), out=out)


@dataclass(frozen=True)
class SmoothingProfile:
    """Power-law bound rho(t) = c*t^(-alpha) with alpha in [0, 1)."""

    c: float
    alpha: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ValidationError(f"alpha must be in [0,1), got {self.alpha}")
        if self.c <= 0.0:
            raise ValidationError("c must be positive")

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

    A stepper needs two operators from it, each split into a build and an
    apply, so it builds them once per step size and applies them at every
    step.  flow_op(times) is the plan of the flows e^{t_m A}, and
    apply_nodes(op, v) propagates one state to every time; apply(t, v), the
    one-time flow, is its one-row case, and an exact copy at t = 0.
    convolve_op(h, lag, ends) is the stage convolution, applied to stage
    values in two halves: stage_modes(G) gives a (k, *modes) stack in the
    form the kernel reads, row i from row i of G alone, and
    convolve_modes(op, M) applies the op to the modes of the s stages, so
    a stepper can keep the modes of a stage that does not change and
    transform only the others.  Stages travel as one (s, *grid) array.

    Each op computes every row it is asked for.  A flow op is the
    subclass's plan _flows(times), applied to one state by _flow(plan, v);
    a convolve op is (s, plan), the stage count and _convolution(h, lag,
    ends), applied by _convolve(plan, M) to the stage modes, which
    _stage_modes(G) makes, with _modes_shape() the shape of one row: the
    stack itself by default, a transform of it where the kernels read one
    (to_modes on modal diagonal grids, the rfft of each row on OU).  A
    problem sets `shape`, that of one state, and `dtype`, the grid dtype
    (float unless it says otherwise); apply_nodes, stage_modes and
    convolve_modes check their input's shape.

    The base class also owns the norm couple: X is the grid L^p norm and V
    the grid L^r norm (p <= r) over the `dim` trailing axes with cell
    volume `cell`, and W is X or V by w_choice.  The norms reduce over the
    trailing grid axes: one state gives a float, a stack (k, *grid) gives
    its k row norms in one call.  The stepper takes each increment and
    stage-scale norm of a step that way.

    `spec` is the problem's declared inputs, plain values: the config
    section that config.build_problem rebuilds it from.  A study's
    reference key reads it and no other attribute, so a problem may keep
    what it derives; None declares nothing, and such a problem's studies
    build their own reference.
    """

    bound_m: float = 1.0
    profile_x: SmoothingProfile
    profile_w: SmoothingProfile
    shape: tuple
    dtype = np.dtype(float)
    spec = None

    def __init__(self, p: float = 2.0, r: float = 2.0, w_choice: str = "V",
                 cell: float = 1.0, dim: int = 1):
        if w_choice not in ("X", "V"):
            raise ValidationError("w_choice must be 'X' or 'V'")
        if _inverse(r) > _inverse(p):
            raise ValidationError("need p <= r")
        self.p, self.r, self.w_choice = float(p), float(r), w_choice
        self.cell, self.dim = cell, int(dim)

    def _set_profiles(self, c: float, alpha: float):
        """profile_x is rho(t) = c*t^(-alpha); profile_w is profile_x for
        W = X and the uniform bound bound_m for W = V."""
        self.profile_x = SmoothingProfile(c=c, alpha=alpha)
        self.profile_w = (self.profile_x if self.w_choice == "X"
                          else SmoothingProfile(c=self.bound_m, alpha=0.0))

    def flow_op(self, times):
        """The flows e^{t_m A} for the given times, ready for apply_nodes."""
        return self._flows(np.asarray(times, dtype=float))

    def apply_nodes(self, op, v):
        """e^{t_m A} v for every time t_m of a flow_op, as (m, *grid)."""
        v = np.asarray(v)
        if v.shape != self.shape:
            raise ValidationError(f"state shape {v.shape} != grid {self.shape}")
        return self._flow(op, v)

    def apply(self, t: float, v):
        """e^{tA} v for one state v of the grid's shape, cast to the grid
        dtype: an exact copy at t = 0."""
        v = np.asarray(v, dtype=self.dtype)
        if t == 0.0 and v.shape == self.shape:
            return v.copy()
        return self.apply_nodes(self.flow_op((t,)), v)[0]

    def convolve_op(self, h: float, lag: LagrangeData, ends):
        """Operator of convolve_modes whose row i is
        int_0^{e_i h} e^{(e_i h - tau) A} sum_j ell_j(tau) G_j dtau.

        ends are the end points e_i as fractions of h (the unknown stages'
        nodes for the stage equations, (1.0,) for the update)."""
        return lag.s, self._convolution(h, lag, ends)

    def stage_modes(self, G):
        """The stage values G, a (k, *grid) stack, in the form the
        convolution kernels read; row i of the result depends on row i of
        G alone, so rows transformed apart equal rows transformed together
        bit for bit."""
        G = np.asarray(G)
        if G.shape[1:] != self.shape:
            raise ValidationError(f"stage stack shape {G.shape} is not (k, *{self.shape})")
        return self._stage_modes(G)

    def convolve_modes(self, op, M):
        """Apply a convolve_op to stage_modes of the s stage values;
        returns (len(ends), *grid)."""
        s, plan = op
        M = np.asarray(M)
        modes = (s,) + self._modes_shape()
        if M.shape != modes:
            raise ValidationError(f"stage modes shape {M.shape} != {modes}")
        return self._convolve(plan, M)

    def _flows(self, times):
        """The plan of the flows at the times."""
        raise NotImplementedError

    def _flow(self, plan, v):
        """The rows of a _flows plan applied to the state v."""
        raise NotImplementedError

    def _convolution(self, h: float, lag: LagrangeData, ends):
        """The plan of the stage convolution for the ends."""
        raise NotImplementedError

    def _stage_modes(self, G):
        """The stage modes of a (k, *grid) stack: the stack itself unless
        the kernels read a transform of it."""
        return G

    def _modes_shape(self):
        """The shape of one row of the stage modes."""
        return self.shape

    def _convolve(self, plan, M):
        """The stage convolution of a _convolution plan applied to the
        stage modes M."""
        raise NotImplementedError

    def lp(self, v, p):
        return lp_norm(v, p, self.cell, self.dim)

    def x_norm(self, v):
        return self.lp(v, self.p)

    def v_norm(self, v):
        return self.lp(v, self.r)

    def w_norm(self, v):
        return self.x_norm(v) if self.w_choice == "X" else self.v_norm(v)

    def zeros(self):
        return np.zeros(self.shape, self.dtype)

    def random_field(self, rng):
        """A random state, smooth enough to keep pointwise nonlinearities
        under control; sample_in_ball scales it into a V-ball."""
        raise NotImplementedError

    def ball_draw(self, rng):
        """The draws of one ball point: random_field, then a radius scale
        in [0.1, 1) unless the field is zero, which draws no scale and
        gets 0.  place_in_ball turns the pair into the point.  The scale
        is rng.uniform(0.1, 1.0) bit for bit, taken as 0.1 + 0.9 *
        rng.random(): uniform's argument handling costs three times the
        draw, and a Lipschitz estimate makes two scales a pair."""
        field = self.random_field(rng)
        # a nonzero first entry settles almost every draw without a pass
        nonzero = field.flat[0] != 0.0 or field.any()
        return field, (0.1 + (1.0 - 0.1) * rng.random() if nonzero else 0.0)

    def sample_in_ball(self, center, radius: float, rng) -> object:
        """A state v with v_norm(v - center) <= radius, at least a tenth of
        the radius away from the center unless the field is zero."""
        field, scale = self.ball_draw(rng)
        return place_in_ball(center, radius, scale, field, self.v_norm(field))

    def smoothing_probes(self, rng):
        """Probe states for measure_smoothing's operator-norm proxy."""
        raise ValidationError(f"{type(self).__name__} has no smoothing probes")


def _gauss_legendre(h: float, lag: LagrangeData, ends, q: int):
    """q-node Gauss-Legendre quadrature of the stage integrals, nodes tau_k
    on each [0, e_i h]: the m = E*q times e_i h - tau_k, the Lagrange basis
    values ell_j(tau_k) as (m, s) and the weights as (E, q), end by end."""
    if h <= 0.0:
        raise ValidationError("h must be positive")
    x, w = np.polynomial.legendre.leggauss(q)
    t_end = (np.asarray(ends, dtype=float) * h)[:, None]
    tau = 0.5 * t_end * (x + 1.0)
    # eval_basis in sigma = tau/h, every basis function at every node at once
    basis = np.polynomial.polynomial.polyval((tau / h).reshape(-1, 1),
                                             lag.monomial_coeffs.T, tensor=False)
    return (t_end - tau).ravel(), basis, 0.5 * t_end * w


def quadrature_convolve(problem: Propagator, h: float, lag: LagrangeData, ends,
                        G, q: int):
    """The rows of a stage convolution by q-node Gauss-Legendre
    quadrature, all E*q interpolants formed in one product and each
    propagated by apply: the oracle that the exact kernels are tested
    against."""
    times, basis, wts = _gauss_legendre(h, lag, ends, q)
    G = np.asarray(G)
    interp = (basis @ G.reshape(len(G), -1)).reshape((-1,) + G.shape[1:])
    rows = np.array([problem.apply(t, v) for t, v in zip(times, interp)])
    rows = rows.reshape(wts.shape + rows.shape[1:])
    return np.sum(wts.reshape(wts.shape + (1,) * (rows.ndim - 2)) * rows, axis=1)


class DiagonalPropagator(Propagator):
    """Propagator diagonalized by a fixed transform pair.

    Subclasses set self.eigenvalues (ndarray over modes) and implement
    to_modes / from_modes on the trailing grid axes, so a stack of states
    transforms in one call.  A flow plan holds the multipliers
    exp(outer(times, eigenvalues)), and a flow transforms the state once
    and its rows back.  The stage modes are to_modes of the stage stack,
    and a convolution plan holds the exact phi-function weights
    (E, s, modes) of its ends.  With real
    eigenvalues the weights are stored as real numbers, each repeated for
    the real and imaginary part of its mode, and applied to a float view of
    the stage modes.

    A subclass on a 1D grid of n points sets `folded` when a dense n x n
    product beats a transform pair.  Each plan is then built once as dense
    grid matrices, the unit vectors pushed through the modal operator: the
    flow plan is an (m, n, n) stack, the convolution plan one (E*n, s*n)
    matrix on the flattened stage stack, which is then its own stage
    modes.  A flow is one matrix-vector product per row and a stage
    convolution one product in all, and the transforms run only while the
    plans are built.
    """

    eigenvalues: np.ndarray
    folded: bool = False

    def to_modes(self, v) -> np.ndarray:
        raise NotImplementedError

    def from_modes(self, vh: np.ndarray):
        raise NotImplementedError

    def _unit_modes(self):
        """The identity of the grid and its rows' modes: the grid matrix of
        a multiplier w is from_modes(w * modes), whose row c is the image
        of unit vector c, transposed."""
        eye = np.eye(math.prod(self.shape))
        return eye, self.to_modes(eye)

    def _flows(self, times):
        mult = np.exp(np.multiply.outer(times, self.eigenvalues))
        if not self.folded:
            return mult
        eye, unit = self._unit_modes()
        # written into C order: a matrix-vector product rounds by its
        # operand's memory order, and the transposed images are F-ordered
        op = np.empty((len(times),) + eye.shape, self.dtype)
        for row, w in zip(op, mult):
            row[...] = self.from_modes(w * unit).T
        return op

    def _flow(self, plan, v):
        if self.folded:
            return _matvec_rows(plan, v)
        return self.from_modes(plan * self.to_modes(v))

    def _convolution(self, h, lag, ends):
        W = stage_weights_diagonal(self.eigenvalues, h, lag, tuple(ends))
        if not self.folded:
            # real weights, one for each float of a complex mode
            return np.repeat(W.real, 2, axis=-1) if np.isrealobj(self.eigenvalues) else W
        eye, unit = self._unit_modes()
        n, (n_ends, s) = len(eye), W.shape[:2]
        # block (i, j) maps stage value j to end i; each is written into
        # its place, so no (E, s, n, n) temporary is built
        op = np.empty((n_ends, n, s, n), self.dtype)
        for i, j in np.ndindex(n_ends, s):
            op[i, :, j] = self.from_modes(W[i, j] * unit).T
        return op.reshape(n_ends * n, s * n)

    def _stage_modes(self, G):
        return G if self.folded else self.to_modes(G)

    def _modes_shape(self):
        return self.shape if self.folded else self.eigenvalues.shape

    def _convolve(self, plan, modes):
        if self.folded:
            return (plan @ modes.reshape(-1)).reshape((-1,) + modes.shape[1:])
        if plan.dtype.kind == "f":
            # the complex einsum's bits from a real one that allocates
            # only its output
            acc = np.einsum("ij...,j...->i...", plan, modes.view(float)).view(complex)
        else:
            acc = np.einsum("ij...,j...->i...", plan, modes)
        return self.from_modes(acc)


class HeatTorusProblem(DiagonalPropagator):
    """Heat semigroup on the d-torus (d in {1,2}), Fourier-diagonal.

    X is the grid L^p norm and V the grid L^r norm.  The L^p-L^r
    smoothing exponent is alpha = (d/2)(1/p - 1/r).

    The modes are the real-FFT half spectrum of the last axis, through
    np.fft (on 2D grids an rfft of the last axis, then an fft of the
    first).  A 1D grid of n <= FOLD_MAX_N points is folded: its flow and
    stage-convolution plans are dense real grid matrices built once per
    step size (see DiagonalPropagator), so a step transforms nothing;
    larger and 2D grids apply their plans in modal form, with real weights.
    """

    def __init__(self, dim: int = 1, n: int = 64, p: float = 2.0, r: float = 2.0,
                 w_choice: str = "V"):
        if dim not in (1, 2):
            raise ValidationError("dim must be 1 or 2")
        if n < 4 or n & (n - 1):
            raise ValidationError("grid size must be a power of two >= 4")
        self.n = int(n)
        self.dx = 2.0 * math.pi / n
        super().__init__(p, r, w_choice, cell=self.dx ** dim, dim=dim)
        # real fields: the modes are the rfft half spectrum of the last axis
        k_half = np.fft.rfftfreq(n, d=1.0 / n)
        if dim == 1:
            self.shape = (n,)
            self.ksq = k_half ** 2
            # sample_in_ball's field: cos(kx)/k^2, sin(kx)/k^2 per k, then 1/2
            kmax = min(n // 4, 16)
            kb = np.arange(1, kmax + 1)[:, None]
            kx = kb * self.grid()
            waves = np.stack([np.cos(kx), np.sin(kx)], axis=1) / kb[:, None] ** 2
            self._ball_basis = np.vstack([waves.reshape(2 * kmax, n), np.full((1, n), 0.5)])
            self.folded = n <= FOLD_MAX_N
        else:
            self.shape = (n, n)
            kx, ky = np.meshgrid(np.fft.fftfreq(n, d=1.0 / n), k_half, indexing="ij")
            self.ksq = kx ** 2 + ky ** 2
            # random_field's x factors: cos(k x) and sin(k x) for k = 0..kmax
            wave_x = np.arange(min(n // 4, 16) + 1)[:, None] * (np.arange(n) * self.dx)
            self._cos_x, self._sin_x = np.cos(wave_x), np.sin(wave_x)
        self.eigenvalues = -self.ksq
        c, alpha = gaussian_smoothing_constant(dim, p, r)
        if p == r:
            c, alpha = self.bound_m, 0.0
        self._set_profiles(c, alpha)

    bound_m = 1.0  # kernel has unit mass, Young on every L^p

    @property
    def spec(self):
        return {"kind": "heat", "dim": self.dim, "n": self.n, "p": self.p,
                "r": self.r, "w_choice": self.w_choice}

    def _check(self, v):
        if np.shape(v)[-self.dim:] != self.shape:
            raise ValidationError(f"state shape {np.shape(v)} != grid {self.shape}")

    def to_modes(self, v):
        self._check(v)
        if self.dim == 1:
            return np.fft.rfft(v)
        # what rfft2 computes, without rfftn's argument handling; the fft
        # overwrites the rfft's output, one grid-sized temporary fewer
        modes = np.fft.rfft(v)
        return np.fft.fft(modes, axis=-2, out=modes)

    def from_modes(self, vh):
        if self.dim == 1:
            return np.fft.irfft(vh, self.n)
        return np.fft.irfft(np.fft.ifft(vh, axis=-2), self.n)

    def grid(self):
        x = np.arange(self.n) * self.dx
        if self.dim == 1:
            return x
        return np.meshgrid(x, x, indexing="ij")

    def random_field(self, rng):
        # random band-limited field: |k|^-2 spectral decay keeps pointwise
        # values and Lipschitz ratios bounded on V-balls
        if self.dim == 1:
            return rng.standard_normal(len(self._ball_basis)) @ self._ball_basis
        cos_x, sin_x = self._cos_x, self._sin_x
        terms = []
        for _ in range(8):
            kx = rng.integers(0, len(cos_x))
            ky = rng.integers(0, len(cos_x))
            a = rng.standard_normal() / (1.0 + kx ** 2 + ky ** 2)
            # rng.uniform(0, 2 pi), bit for bit
            terms.append((kx, ky, a, 2 * np.pi * rng.random()))
        kx, ky, a, ph = (np.array(c) for c in zip(*terms))
        # cos(kx x + ky y + ph) = cos(kx x) cos(ky y + ph) - sin(kx x) sin(ky y + ph)
        a, wy = a[:, None], ky[:, None] * (np.arange(self.n) * self.dx) + ph[:, None]
        return (a * cos_x[kx]).T @ np.cos(wy) - (a * sin_x[kx]).T @ np.sin(wy)

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
    A flow applies this to one state for all its times in one kernel (one
    rfft of the state, one irfft over the rows, one gathered dilation);
    every row, however short its time, takes its Gaussian symbol and then
    the dilation.  The irfft writes its m rows before a zero row, and the
    dilation is one gather of all four stencil points from them, weighted
    and summed; a point dilated out of the box gathers the zero row with
    weight 0, so it is 0.0 whatever the rows hold.
    The stage modes are the rfft of each stage value, so a stepper
    transforms a fixed stage once.  The stage convolution is
    Gauss-Legendre quadrature of s + 2 nodes in tau on each [0, e_i h]
    but, the rfft being linear, forms the E*q interpolants from the stage
    modes and makes one irfft over them, then one gathered dilation whose
    stencils carry the quadrature weights.
    """

    def __init__(self, b: float = -1.0, q: float = 2.0, box: float = 12.0,
                 n: int = 512, p: float = 2.0, r: float = 2.0,
                 w_choice: str = "V"):
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
        self.shape = (self.n,)
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
        self._set_profiles(c, alpha)

    bound_m = 1.05  # contraction up to quadrature/interpolation error

    @property
    def spec(self):
        return {"kind": "ou", "b": self.b, "q": self.q, "box": self.box, "n": self.n,
                "p": self.p, "r": self.r, "w_choice": self.w_choice}

    def q_t(self, t: float) -> float:
        g = self.gamma
        try:
            grow = math.exp(2.0 * g * t)
        except OverflowError:
            # a time this long dilates every grid point out of the box
            return math.inf
        return self.q * (grow - 1.0) / (2.0 * g)

    def kernel_width(self, t: float) -> float:
        return math.sqrt(max(2.0 * self.q_t(t), 0.0))

    def _flows(self, times):
        """The flows at the m `times`: their Gaussian symbols as (m, n//2+1),
        and their 4-point dilation stencils as gather indices (4, m, n) into
        the flattened rows followed by one zero row, and weights (4, m, n).
        A point dilated out of the box gathers the zero row with weight 0."""
        if not (times >= 0.0).all():
            raise ValidationError("t must be >= 0")
        m, n, dx = len(times), self.n, self.dx
        xi = 2.0 * math.pi * np.fft.rfftfreq(n, d=dx)
        q_t = np.array([self.q_t(t) for t in times])
        # a long time overflows q_t, the dilation and the stencil weights to
        # inf; its points all leave the box, and its symbol keeps the limit
        # 1 at xi = 0, where -inf * 0 is nan
        with np.errstate(over="ignore", invalid="ignore"):
            # Gaussian kernel applied through its exact Fourier symbol on the
            # periodic box; for widths above ~3 dx this matches the
            # grid-sampled kernel to rounding, and it stays exact (-> 1) as
            # t -> 0 where pointwise sampling loses the kernel mass
            symbols = np.exp(-q_t[:, None] * xi ** 2)
            # 4-point cubic Lagrange interpolation at the dilated points; pos
            # is clipped before the cast, which then floors it
            pos = (np.exp(self.gamma * times)[:, None] * self.x - self.x[0]) / dx
            j = np.clip(pos, 1, n - 3).astype(int)
            f = pos - j
            weights = np.stack((-f * (f - 1.0) * (f - 2.0) / 6.0,
                                (f + 1.0) * (f - 1.0) * (f - 2.0) / 2.0,
                                -(f + 1.0) * f * (f - 2.0) / 2.0,
                                (f + 1.0) * f * (f - 1.0) / 6.0))
        symbols[:, 0] = 1.0
        outside = ~((pos >= 0.0) & (pos <= n - 1))
        # stencil point k of every point, as an index into the flattened
        # (m + 1, n) stack of the rows and the zero row; a point outside
        # the box starts its stencil at the zero row's first entry
        first = np.where(outside, m * n, j - 1 + n * np.arange(m)[:, None])
        np.copyto(weights, 0.0, where=outside)
        return symbols, first + np.arange(4)[:, None, None], weights

    def _dilate(self, modes, index, weights):
        """One irfft of the m rows of modes, written before a zero row, then
        their gathered 4-point dilations, zero outside the box: one take,
        weighted in place and summed over the stencil."""
        m = len(modes)
        rows = np.empty((m + 1, self.n))
        rows[m] = 0.0
        np.fft.irfft(modes, self.n, out=rows[:m])
        taken = rows.ravel().take(index)
        taken *= weights
        return taken.sum(axis=0)

    def _flow(self, plan, v):
        """One rfft of the state, one irfft of its products with the row
        symbols, then one gathered 4-point dilation."""
        symbols, *stencil = plan
        return self._dilate(np.fft.rfft(v) * symbols, *stencil)

    def _convolution(self, h, lag, ends):
        """The end count E, the Lagrange basis values as (m, s) for the
        m = E*q quadrature rows, and the _flows plan of their times with
        each row's quadrature weight folded into its dilation stencil."""
        times, basis, wts = _gauss_legendre(h, lag, ends, lag.s + 2)
        symbols, index, weights = self._flows(times)
        return len(ends), basis, symbols, index, weights * wts.reshape(1, -1, 1)

    def _stage_modes(self, G):
        return np.fft.rfft(G)

    def _modes_shape(self):
        return (self.n // 2 + 1,)

    def _convolve(self, plan, M):
        """The interpolants of the stage modes M formed in modal form by one
        (m, s) product and weighted by the row symbols, one irfft over the m
        rows and one gathered dilation, whose quadrature-weighted rows are
        summed end by end."""
        n_ends, basis, symbols, *stencil = plan
        # rfft(basis @ G) = basis @ rfft(G): the product runs on the real and
        # imaginary parts as one real matrix
        rows = self._dilate((basis @ M.view(float)).view(complex) * symbols, *stencil)
        return rows.reshape(n_ends, -1, self.n).sum(axis=1)

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
    machinery applies.  With p = r = 2 and W = V, the grid L^2 norm of z
    that serves as X, V and W is the energy norm
    (||grad w||_2^2 + ||wdot||_2^2)^(1/2).

    The sine transform is the orthonormal DST-I matrix S (symmetric, its
    own inverse), built once: an O(n^2) product per state, a few times
    faster than an FFT-based DST at the 16-64 modes of every preset and
    still ahead at 128 modes, but slower from a few hundred modes on.
    """

    def __init__(self, n_modes: int = 32, alpha_w: float = 1.0):
        if n_modes < 2:
            raise ValidationError("need at least 2 modes")
        self.n = int(n_modes)
        self.shape = (self.n,)
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
        self._decay = (1.0 + self.omega) ** 2  # random_field's mode decay
        self._set_profiles(self.bound_m, 0.0)

    bound_m = 1.0  # exact rotation in the energy pairing
    dtype = np.dtype(complex)

    @property
    def spec(self):
        return {"kind": "wave", "n_modes": self.n, "alpha_w": self.alpha_w}

    def to_modes(self, z):
        return np.asarray(z, dtype=complex)

    def from_modes(self, zh):
        return zh

    # physical <-> modal packing -------------------------------------
    def _dst(self, u):
        return _matvec_rows(self._sine, u)

    _idst = _dst  # S is its own inverse

    def encode(self, w, wdot):
        """Pack a physical (w, wdot) pair into the complex modal state."""
        return self.omega * self._dst(w) + 1j * self._dst(wdot)

    def modal_energy(self, z):
        """Per-mode invariant omega^2 w_k^2 + wdot_k^2 of the linear flow."""
        return np.abs(z) ** 2

    def random_field(self, rng):
        # the real parts, then the imaginary parts, of one draw
        parts = rng.standard_normal((2, self.n))
        return (parts[0] + 1j * parts[1]) / self._decay


@dataclass
class SmoothingReport:
    """(t, proxy) rows, fitted log-log slope over the resolved rows."""

    rows: list  # (t, proxy, resolved)
    slope: float
    alpha_declared: float


def _first_resolved_time(propagator) -> float:
    """The smallest t, to 1e-12 relative, whose kernel width is at least
    2 dx; the width grows with t, so a bisection finds it."""
    lo, hi, need = 0.0, 1.0, 2.0 * propagator.dx
    while propagator.kernel_width(hi) < need:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if propagator.kernel_width(mid) >= need else (mid, hi)
    return hi


def measure_smoothing(propagator, t_list=None, rng=None) -> SmoothingReport:
    """Operator-norm proxy ||e^{tA}||_{X -> V} over a probe set.

    The proxy is the max ratio v_norm(e^{tA} u) / x_norm(u) over deltas,
    scaled Gaussians, rough sign vectors and smooth fields, so a log-log
    fit over the resolved rows (kernel width >= 2 dx) estimates -alpha of
    profile_x.  Without t_list the times are 7 geometric ones over the
    decade from the first resolved t.  Fewer than two resolved rows raise.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    probes = propagator.smoothing_probes(rng)
    if t_list is None:
        t_0 = _first_resolved_time(propagator)
        t_list = np.geomspace(t_0, 10.0 * t_0, 7)
    t_list = sorted(float(t) for t in t_list)
    if any(t <= 0.0 for t in t_list):
        raise ValidationError("t values must be positive")
    op = propagator.flow_op(t_list)
    ratio = np.zeros(len(t_list))
    for u in probes:
        nx = propagator.x_norm(u)
        if nx != 0.0:
            ratio = np.maximum(ratio, propagator.v_norm(propagator.apply_nodes(op, u)) / nx)
    rows = [(t, float(v), propagator.kernel_width(t) >= 2.0 * propagator.dx)
            for t, v in zip(t_list, ratio)]
    pts = [(t, v) for t, v, ok in rows if ok and v > 0.0]
    if len(pts) < 2:
        raise ValidationError(
            f"smoothing fit needs two resolved rows (kernel width >= 2 dx), "
            f"got {len(pts)} of {len(rows)}")
    lt, lv = np.log(pts).T
    return SmoothingReport(rows=rows, slope=float(np.polyfit(lt, lv, 1)[0]),
                           alpha_declared=propagator.profile_x.alpha)
