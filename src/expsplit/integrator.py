"""Exponential Runge-Kutta stepper with fixed-point internal stages.

One step computes the stage values U_i as the fixed point of
  Phi(x)_i = e^{c_i h A} u_n + int_0^{c_i h} e^{(c_i h - tau)A}
             sum_j ell_j(tau) g(t_n + c_j h, x_j) dtau
by plain iteration from the anchor x_i = e^{c_i h A} u_n plus a start.
With c_1 = 0 stage 1 is u_n itself (Hochbruck & Ostermann, Acta Numerica
19 (2010), section 2), so a step's flow op, stage op, start and correction
cover the unknown stages alone, from StepPlan.fixed on.  run extrapolates
the start from the converged corrections c_n = U - e^{c_i h A} u_{n-1} of
the last two steps: 2 c_n - c_{n-1}, with the anchor alone on a run's
first step and c_1 alone on its second (Phi contracts on the whole ball,
so the start changes the iteration count, not the stopping rule). The
step then advances
  u_{n+1} = e^{hA} u_n + int_0^h e^{(h-tau)A} sum_j ell_j(tau) g(., U_j) dtau,
with e^{hA} u_n the last row of the anchor's flow: stage s's when c_s = 1,
an extra row at h otherwise.  The s stages travel as one (s, *grid) array.
The first iteration evaluates g on the whole stack and transforms it once;
every later iteration and the update do so on the unknown rows only.  Each
iteration makes one convolution of the stage modes and norms its
increments in one v_norm call; the anchor is normed only when the
stage-scale floor of the tolerance decides a test.  Exponential Euler
(s = 1, c_1 = 0) has no unknown stage and iterates nothing, but a
non-finite u_n or g(t_n, u_n) stops it as a non-finite increment would.
A failed run keeps the rows it reached, with status contraction or divergence.
Every operator a step of size h applies is built once, into a StepPlan,
and only while the contraction certificate
kappa(h) = Omega(h) * C_ell * s * L is below one; plan_step derives it
from the propagator's X smoothing profile (Omega), the scheme (C_ell, s)
and the Lipschitz constant L of g, the one factor the caller passes;
contraction_certificate computes it for both solvers.

run_windowed solves the same stage equations on a DiagonalPropagator over
windows of K = WINDOW_MAX steps at once, the last window what is left
(waveform relaxation: Lelarasmee, Ruehli & Sangiovanni-Vincentelli, IEEE
Trans. CAD 1 (1982)).  In modal coordinates a step is
u_{k+1} = E u_k + b_k with E = e^{h lambda} and b_k the update row's exact
phi-weights applied to the step's stage values, so a sweep over the window
evaluates g on all K*s stage rows in one call, forms every stage
correction and b_k in one modal product, and advances the states by a
doubling scan (Blelloch, CMU-CS-90-190, 1990): from a_0 = E u_0 + b_0 and
a_l = b_l, each pass d = 1, 2, 4, ... < K adds E^d a_{l-d} to every a_l
with l >= d, which leaves a_l = u_{l+1} after ceil(log2 K) passes.  The
powers E^d are built once per run, and |E^d| <= 1 wherever
Re lambda <= 0, so a stiff grid needs no shorter window.  Sweeps repeat
until the largest stage-row V-norm increment is at most the stepper's
tolerance floor; a window starts from the previous window's last stage
correction and update increment held constant, the first from the linear
flow.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (ContractionError, FixedPointDivergenceError,
                     StripViolationError, ValidationError)
from .lagrange import LagrangeData, NodeSet, build_lagrange, default_nodes
from .phi import stage_weights_diagonal
from .propagators import DiagonalPropagator, Propagator

__all__ = ["SchemeSpec", "StepPlan", "StageInfo", "TrajectoryRecord",
           "contraction_certificate", "plan_step", "internal_stages", "step",
           "run", "run_windowed"]

FP_MAX_ITER = 60  # fixed-point iterations (window sweeps) before divergence
WINDOW_MAX = 32  # steps in one run_windowed window

# the error, and with it the exit code, of each failed run status and of the
# study's strip verdict: the CLI maps a "strip: ..." abort reason through it
STATUS_ERRORS = {"contraction": ContractionError, "strip": StripViolationError,
                 "divergence": FixedPointDivergenceError}


@dataclass(frozen=True)
class SchemeSpec:
    """Stage count, nodes and the derived Lagrange data."""

    lag: LagrangeData

    @property
    def s(self) -> int:
        return self.lag.s

    @property
    def nodes(self) -> NodeSet:
        return self.lag.node_set

    @classmethod
    def with_stages(cls, s: int) -> "SchemeSpec":
        return cls(lag=build_lagrange(default_nodes(s)))

    @classmethod
    def with_nodes(cls, nodes) -> "SchemeSpec":
        return cls(lag=build_lagrange(NodeSet(tuple(nodes))))


@dataclass(frozen=True)
class StepPlan:
    """The operators of a step of size h with one scheme, built once.

    offsets are the node times c_i h.  fixed is 1 when c_1 = 0, so that
    stage 1 is u_n, and 0 otherwise; the rows from fixed on are unknown.
    node_flow is the flow op of their offsets, followed by h when the last
    node is not 1, so its last row is always e^{hA}; stage_rows is the
    convolve op with their nodes as end points (None when there are none,
    s = 1 with c_1 = 0), and update_row the one with (1.0,).
    """

    propagator: Propagator
    s: int
    offsets: np.ndarray
    node_flow: object
    stage_rows: object
    update_row: object
    kappa: float
    tol: float
    fixed: int


@dataclass
class StageInfo:
    """Diagnostics of one fixed-point solve."""

    iterations: int = 0
    increment: float = float("nan")  # V-norm of the last stage update
    contraction_ratios: list = field(default_factory=list)
    residual_bound: float = float("nan")
    correction: object = None  # final unknown stages minus their anchor
    flow_end: object = None  # e^{hA} u_n, the last row of the anchor flow
    # stage_modes of g at the last iterate but one, which gave the final
    # stages; row 1 is g(t_n, u_n)'s when c_1 = 0.  step takes it out and
    # refreshes the rest, so a run does not keep it into the next step
    g_modes: object = None


@dataclass
class TrajectoryRecord:
    """Stored trajectory plus per-step diagnostics.

    steps, times and states hold the step index, time and state of every
    store_stride-th step, always including step 0 and, on success, the
    last; states is one (len(steps), *grid) array.
    """

    steps: np.ndarray
    times: np.ndarray
    states: np.ndarray
    stage_iterations: list = field(default_factory=list)
    contraction_ratios: list = field(default_factory=list)
    kappa: float = float("nan")
    wall_per_step: float = float("nan")
    status: str = "ok"
    error: str = ""
    failure_step: int = -1

    def raise_if_failed(self):
        if self.status == "ok":
            return
        raise STATUS_ERRORS.get(self.status, ValidationError)(self.error)

    def text_lines(self):
        """Line-oriented record: one line per stored step."""
        yield "# n t iterations"
        for n, t in zip(self.steps, self.times):
            it = self.stage_iterations[n - 1] if n > 0 else 0
            yield f"{n} {t:.12g} {it}"

    def summary(self) -> dict:
        return {
            "status": self.status,
            "error": self.error,
            "steps": len(self.stage_iterations),
            "kappa": self.kappa,
            "max_stage_iterations": max(self.stage_iterations, default=0),
            "mean_stage_iterations":
                sum(self.stage_iterations) / max(len(self.stage_iterations), 1),
            "max_contraction_ratio": max(self.contraction_ratios, default=0.0),
            "wall_per_step": self.wall_per_step,
            "failure_step": self.failure_step,
        }


def contraction_certificate(h: float, scheme: SchemeSpec,
                            propagator: Propagator, lipschitz: float) -> float:
    """kappa(h) = Omega(h) * C_ell * s * L, with Omega the propagator's X
    smoothing profile and L floored at 1e-12; raises ContractionError when
    it is not below one."""
    omega, s, lip = propagator.profile_x.omega(h), scheme.s, max(lipschitz, 1e-12)
    kappa = omega * scheme.lag.c_ell * s * lip
    if kappa >= 1.0:
        raise ContractionError(
            f"contraction certificate kappa(h)={kappa:.3f} >= 1 for h={h:.3g} "
            f"(Omega(h)={omega:.3g}, C_ell={scheme.lag.c_ell:.3g}, s={s}, "
            f"L={lip:.3g}); reduce h")
    return kappa


def plan_step(h: float, scheme: SchemeSpec, propagator: Propagator,
              lipschitz: float) -> StepPlan:
    """Build the operators of a step of size h; raises ContractionError
    when the contraction certificate is not below one."""
    kappa = contraction_certificate(h, scheme, propagator, lipschitz)
    s = scheme.s
    nodes = scheme.nodes.nodes
    fixed = int(nodes[0] == 0.0)
    offsets = h * np.asarray(nodes)
    flow_times = offsets[fixed:] if nodes[-1] == 1.0 else np.append(offsets[fixed:], h)
    return StepPlan(
        propagator=propagator, s=s, offsets=offsets,
        node_flow=propagator.flow_op(flow_times),
        stage_rows=propagator.convolve_op(h, scheme.lag, nodes[fixed:]) if fixed < s else None,
        update_row=propagator.convolve_op(h, scheme.lag, (1.0,)),
        kappa=kappa, tol=min(1e-12, h ** (s + 1)), fixed=fixed)


def _floors(tol: float, scale: float):
    """The stopping tolerance and the contraction-ratio floor for stages of
    V-norm scale >= 1: increments cannot drop below rounding in the stage
    scale, and ratios measured below the floor are rounding noise."""
    tol = max(tol, 1e-14 * scale)
    return tol, max(1e3 * tol, 1e-11 * scale)


def _stops(inc: float, tol: float, kappa: float) -> bool:
    """The a-posteriori distance bound kappa/(1-kappa)*inc is below tol;
    plain inc <= tol covers kappa near 1."""
    return inc <= tol or inc * kappa <= tol * (1.0 - kappa)


def internal_stages(u_n, t_n: float, g, plan: StepPlan, start=None):
    """Solve the stage equations from the anchor plus start (a correction
    of the unknown rows, plan.fixed..s-1, or None); returns ((s, *grid)
    stages, StageInfo)."""
    propagator, kappa, s, fixed = plan.propagator, plan.kappa, plan.s, plan.fixed
    times = t_n + plan.offsets
    anchor = propagator.apply_nodes(plan.node_flow, u_n)
    base = anchor[:s - fixed]
    rows = base if start is None else base + start
    # u_n itself as stage 1 when c_1 = 0, in a new array that the solve
    # overwrites with the final stages
    stages = np.concatenate((np.asarray(u_n)[None][:fixed], rows))
    # the first iteration transforms the whole stack; later ones write the
    # unknown rows' modes into the same array
    modes = propagator.stage_modes(g.eval(times, stages))
    info = StageInfo(flow_end=anchor[-1], g_modes=modes)
    if fixed == s:
        # no unknown stage: one iteration, of increment u_n - u_n (0 or nan);
        # a non-finite g(t_n, u_n) would make the update non-finite
        if not (np.isfinite(u_n).all() and np.isfinite(modes).all()):
            raise FixedPointDivergenceError(
                f"stage iteration diverged at t={t_n:.6g} (non-finite increment)")
        info.iterations, info.increment, info.residual_bound = 1, 0.0, 0.0
        info.correction = base  # no rows
        return stages, info
    later = times[fixed:]
    # the floors at scale 1 are lower bounds of the true ones (scale >= 1):
    # a stop or an unrecorded ratio there is one at the true floors too, so
    # the anchor is normed only when a test stays open
    scale = None
    tol, ratio_floor = _floors(plan.tol, 1.0)
    prev_inc = 0.0  # no ratio on the first iteration
    for it in range(1, FP_MAX_ITER + 1):
        if it > 1:
            modes[fixed:] = propagator.stage_modes(g.eval(later, rows))
        info.correction = propagator.convolve_modes(plan.stage_rows, modes)
        new_rows = base + info.correction
        inc = float(np.max(propagator.v_norm(new_rows - rows)))
        if not np.isfinite(inc):
            raise FixedPointDivergenceError(
                f"stage iteration diverged at t={t_n:.6g} (non-finite increment)")
        rows = new_rows
        info.iterations = it
        info.increment = inc
        if scale is None and (prev_inc > ratio_floor or not _stops(inc, tol, kappa)):
            # the stage anchors: u_n itself, then the unknown rows' flows
            anchors = np.concatenate((stages[:fixed], base))
            scale = max(float(np.max(propagator.v_norm(anchors))), 1.0)
            tol, ratio_floor = _floors(plan.tol, scale)
        if prev_inc > ratio_floor:
            info.contraction_ratios.append(inc / prev_inc)
        prev_inc = inc
        if _stops(inc, tol, kappa):
            break
    else:
        # the last iteration did not stop at the floor of scale 1, so tol
        # is the scaled one
        raise FixedPointDivergenceError(
            f"stage iteration did not reach tol={tol:.1e} in "
            f"{FP_MAX_ITER} iterations at t={t_n:.6g} "
            f"(last increment {inc:.3e}, kappa={kappa:.3f})")
    info.residual_bound = inc * kappa / (1.0 - kappa)
    stages[fixed:] = rows
    return stages, info


def step(u_n, t_n: float, g, plan: StepPlan, start=None):
    """One full step, started at the anchor plus start; returns (u_next,
    StageInfo).  The update reuses the stage modes of stage 1 when c_1 = 0,
    so an s = 1 step evaluates g once."""
    stages, info = internal_stages(u_n, t_n, g, plan, start)
    propagator, fixed = plan.propagator, plan.fixed
    modes, info.g_modes = info.g_modes, None
    if fixed < plan.s:
        times = t_n + plan.offsets[fixed:]
        modes[fixed:] = propagator.stage_modes(g.eval(times, stages[fixed:]))
    (conv,) = propagator.convolve_modes(plan.update_row, modes)
    return info.flow_end + conv, info


def _start_record(u_0, T: float, N: int, propagator: Propagator,
                  store_stride: int):
    """(h, u_0 as an array, the record of a run of N steps) with every
    store_stride-th step and the last in record.steps and row 0 of the
    states filled; later rows are filled as the run reaches them."""
    if N < 0:
        raise ValidationError("step count must be >= 0")
    steps = np.arange(0, N + 1, store_stride)
    if steps[-1] != N:
        steps = np.append(steps, N)  # and the last
    h = T / max(N, 1)
    u = np.asarray(u_0)
    # filled row by row: a stack made at the end would hold every state twice
    states = np.empty((len(steps),) + u.shape, np.result_type(u, propagator.dtype))
    states[0] = u
    return h, u, TrajectoryRecord(steps=steps, times=steps * h, states=states)


def _keep_rows(record: TrajectoryRecord, stored: int):
    """Cut the record to its first `stored` rows: an aborted run keeps the
    rows it reached."""
    record.steps, record.times, record.states = \
        record.steps[:stored], record.times[:stored], record.states[:stored]


def _fail(record: TrajectoryRecord, status: str, error: str, n: int):
    record.status, record.error, record.failure_step = status, error, n


def run(u_0, T: float, N: int, scheme: SchemeSpec, propagator: Propagator,
        g, lipschitz: float, store_stride: int = 1) -> TrajectoryRecord:
    """N uniform steps of size h = T/N; returns the record even on abort:
    "contraction" before the first step, "divergence" at a failing step."""
    h, u, record = _start_record(u_0, T, N, propagator, store_stride)
    if N == 0:
        return record
    try:
        plan = plan_step(h, scheme, propagator, lipschitz)
    except ContractionError as exc:
        _fail(record, "contraction", str(exc), 0)
        _keep_rows(record, 1)
        return record
    record.kappa = plan.kappa
    steps, states = record.steps, record.states
    t_start = time.perf_counter()
    # step n+1 starts from 2 c_n - c_{n-1}, the linear extrapolation of the
    # last two corrections (O(h^3) from the fixed point where c_n alone is
    # O(h^2)); step 1 starts from the anchor and step 2 from c_1
    previous = correction = None
    stored = 1
    for n in range(N):
        t_n = n * h
        start = correction if previous is None else 2.0 * correction - previous
        try:
            u, info = step(u, t_n, g, plan, start)
        except FixedPointDivergenceError as exc:
            _fail(record, "divergence", str(exc), n)
            break
        previous, correction = correction, info.correction
        record.stage_iterations.append(info.iterations)
        record.contraction_ratios.extend(info.contraction_ratios)
        if n + 1 == steps[stored]:
            states[stored] = u
            stored += 1
    _keep_rows(record, stored)
    record.wall_per_step = (time.perf_counter() - t_start) / max(len(record.stage_iterations), 1)
    return record


def run_windowed(u_0, T: float, N: int, scheme: SchemeSpec,
                 propagator: DiagonalPropagator, g, lipschitz: float,
                 store_stride: int = 1) -> TrajectoryRecord:
    """run's N steps of size h = T/N on a DiagonalPropagator, solved over
    windows of WINDOW_MAX steps (see the module notes);
    returns the same record, with every step of a window recording the
    window's sweep count as its iterations and no contraction ratios."""
    if not isinstance(propagator, DiagonalPropagator):
        raise ValidationError("run_windowed needs a DiagonalPropagator")
    h, u, record = _start_record(u_0, T, N, propagator, store_stride)
    if N == 0:
        return record
    try:
        record.kappa = contraction_certificate(h, scheme, propagator, lipschitz)
    except ContractionError as exc:
        _fail(record, "contraction", str(exc), 0)
        _keep_rows(record, 1)
        return record
    t_start = time.perf_counter()
    s, nodes = scheme.s, scheme.nodes.nodes
    modes = np.shape(propagator.eigenvalues)
    lam = np.ravel(propagator.eigenvalues)  # modal arrays carry modes flat
    # per mode, rows 0..s-1 of W give the stage corrections and row s the
    # update b_k: one (s+1, s) by (s, k) product per mode
    W = np.moveaxis(stage_weights_diagonal(lam, h, scheme.lag, nodes + (1.0,)), -1, 0)
    offsets = h * np.asarray(nodes)
    node_flow = np.exp(np.multiply.outer(offsets, lam))
    # E^d = e^{d h lambda} for the scan's spans d = 1, 2, 4, ... < WINDOW_MAX
    spans = 2.0 ** np.arange((WINDOW_MAX - 1).bit_length())
    powers = np.exp(np.multiply.outer(h * spans, lam))
    tol_base = min(1e-12, h ** (s + 1))
    steps, states = record.steps, record.states
    modal = np.empty((len(steps), len(lam)), complex)  # the stored rows
    stored = 1

    def sweep(u_hat, corrections, b):
        """(the window's states u_1..u_k, its (k*s, *grid) stage rows)."""
        k = len(b)
        ahead = np.array(b)
        ahead[0] += powers[0] * u_hat
        for i in range((k - 1).bit_length()):
            d = 1 << i
            ahead[d:] += powers[i] * ahead[:-d]
        starts = np.concatenate([u_hat[None], ahead[:-1]])
        stages = node_flow * starts[:, None] + corrections
        return ahead, propagator.from_modes(stages.reshape((k * s,) + modes))

    u_hat = propagator.to_modes(u).ravel()
    last = np.zeros((s + 1, len(lam)), complex)  # the linear flow's
    n = 0
    while n < N:
        k = min(WINDOW_MAX, N - n)
        times = ((h * np.arange(n, n + k))[:, None] + offsets).ravel()
        held = np.broadcast_to(last, (k,) + last.shape)
        ahead, rows = sweep(u_hat, held[:, :s], held[:, s])
        scale = max(float(np.max(propagator.v_norm(rows))), 1.0)
        tol = _floors(tol_base, scale)[0]
        for sweeps in range(1, FP_MAX_ITER + 1):
            G = propagator.to_modes(g.eval(times, rows)).reshape(k, s, -1)
            CB = (W @ G.transpose(2, 1, 0)).transpose(2, 1, 0)  # (k, s+1, modes)
            ahead, new_rows = sweep(u_hat, CB[:, :s], CB[:, s])
            inc = float(np.max(propagator.v_norm(new_rows - rows)))
            rows = new_rows
            if not np.isfinite(inc):
                _fail(record, "divergence", f"window iteration diverged at "
                      f"t={n * h:.6g} (non-finite increment)", n)
                break
            if inc <= tol:
                break
        else:
            _fail(record, "divergence", f"window iteration did not reach "
                  f"tol={tol:.1e} in {FP_MAX_ITER} sweeps at t={n * h:.6g} "
                  f"(last increment {inc:.3e}, window of {k} steps)", n)
        if record.status != "ok":
            break
        while stored < len(steps) and steps[stored] <= n + k:
            modal[stored] = ahead[steps[stored] - n - 1]
            stored += 1
        record.stage_iterations.extend([sweeps] * k)
        u_hat, last, n = ahead[-1], CB[-1], n + k
    if stored > 1:
        states[1:stored] = propagator.from_modes(modal[1:stored].reshape((-1,) + modes))
    _keep_rows(record, stored)
    record.wall_per_step = (time.perf_counter() - t_start) / max(len(record.stage_iterations), 1)
    return record
