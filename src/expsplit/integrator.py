"""Exponential Runge-Kutta stepper with fixed-point internal stages.

One step computes the stage values U_i as the fixed point of
  Phi(x)_i = e^{c_i h A} u_n + int_0^{c_i h} e^{(c_i h - tau)A}
             sum_j ell_j(tau) g(t_n + c_j h, x_j) dtau
by plain iteration from the anchor x_i = e^{c_i h A} u_n plus a start.
run extrapolates the start from the converged corrections
c_n = U - e^{c_i h A} u_{n-1} of the last two steps: 2 c_n - c_{n-1}, with
the anchor alone on a run's first step and c_1 alone on its second (Phi
contracts on the whole ball, so the start changes the iteration count,
not the stopping rule). The step then advances
  u_{n+1} = e^{hA} u_n + int_0^h e^{(h-tau)A} sum_j ell_j(tau) g(., U_j) dtau,
with e^{hA} u_n the last row of the anchor's flow: stage s's when c_s = 1,
an extra row at h otherwise.  The s stages travel as one (s, *grid) array:
each iteration makes one g.eval, one stage convolution and one v_norm call
on the whole stack; the anchor is normed only when the stage-scale floor
of the tolerance decides a test.
Every operator a step of size h applies is built once, into a StepPlan,
and only while the contraction certificate
kappa(h) = Omega(h) * C_ell * s * L is below one; plan_step derives it
from the propagator's X smoothing profile (Omega), the scheme (C_ell, s)
and the Lipschitz constant L of g, the one factor the caller passes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (ContractionError, FixedPointDivergenceError,
                     StripViolationError, ValidationError)
from .lagrange import LagrangeData, NodeSet, build_lagrange, default_nodes
from .propagators import Propagator

__all__ = ["SchemeSpec", "StepPlan", "StageInfo", "TrajectoryRecord",
           "plan_step", "internal_stages", "step", "run"]

FP_MAX_ITER = 60  # fixed-point iterations before a step counts as divergent


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

    offsets are the node times c_i h; node_flow is the flow op of the
    offsets, followed by h when the last node is not 1, so its last row is
    always e^{hA}; stage_rows and update_row are convolve ops with the nodes
    and with (1.0,) as end points.
    """

    propagator: Propagator
    s: int
    offsets: np.ndarray
    node_flow: object
    stage_rows: object
    update_row: object
    kappa: float
    tol: float


@dataclass
class StageInfo:
    """Diagnostics of one fixed-point solve."""

    iterations: int = 0
    increment: float = float("nan")  # V-norm of the last stage update
    contraction_ratios: list = field(default_factory=list)
    residual_bound: float = float("nan")
    correction: object = None  # final stages minus their anchor
    flow_end: object = None  # e^{hA} u_n, the last row of the anchor flow


@dataclass
class TrajectoryRecord:
    """Stored trajectory plus per-step diagnostics.

    states/times/steps hold the state, time and step index of every
    store_stride-th step, always including step 0 and, on success, the last.
    """

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    steps: list = field(default_factory=list)
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
        exc = {"contraction": ContractionError,
               "strip": StripViolationError,
               "divergence": FixedPointDivergenceError}.get(self.status, ValidationError)
        raise exc(self.error)

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


def plan_step(h: float, scheme: SchemeSpec, propagator: Propagator,
              lipschitz: float) -> StepPlan:
    """Build the operators of a step of size h; raises ContractionError
    when the certificate kappa(h) = Omega(h) * C_ell * s * L, with Omega
    the propagator's X smoothing profile and L floored at 1e-12, is not
    below one."""
    omega, s, lip = propagator.profile_x.omega(h), scheme.s, max(lipschitz, 1e-12)
    kappa = omega * scheme.lag.c_ell * s * lip
    if kappa >= 1.0:
        raise ContractionError(
            f"contraction certificate kappa(h)={kappa:.3f} >= 1 for h={h:.3g} "
            f"(Omega(h)={omega:.3g}, C_ell={scheme.lag.c_ell:.3g}, s={s}, "
            f"L={lip:.3g}); reduce h")
    nodes = scheme.nodes.nodes
    offsets = h * np.asarray(nodes)
    return StepPlan(
        propagator=propagator, s=s, offsets=offsets,
        node_flow=propagator.flow_op(offsets if nodes[-1] == 1.0
                                     else np.append(offsets, h)),
        stage_rows=propagator.convolve_op(h, scheme.lag, nodes),
        update_row=propagator.convolve_op(h, scheme.lag, (1.0,)),
        kappa=kappa, tol=min(1e-12, h ** (s + 1)))


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
    """Solve the stage equations from the anchor plus start (an (s, *grid)
    correction, or None); returns ((s, *grid) stages, StageInfo)."""
    propagator, kappa = plan.propagator, plan.kappa
    times = t_n + plan.offsets
    anchor = propagator.apply_nodes(plan.node_flow, u_n)
    base = anchor[:plan.s]
    stages = base if start is None else base + start
    info = StageInfo(flow_end=anchor[-1])
    # the floors at scale 1 are lower bounds of the true ones (scale >= 1):
    # a stop or an unrecorded ratio there is one at the true floors too, so
    # the stage stack is normed only when a test stays open
    scale = None
    tol, ratio_floor = _floors(plan.tol, 1.0)
    prev_inc = 0.0  # no ratio on the first iteration
    for it in range(1, FP_MAX_ITER + 1):
        G = g.eval(times, stages)
        info.correction = propagator.stage_convolve(plan.stage_rows, G)
        new_stages = base + info.correction
        inc = float(np.max(propagator.v_norm(new_stages - stages)))
        if not np.isfinite(inc):
            raise FixedPointDivergenceError(
                f"stage iteration diverged at t={t_n:.6g} (non-finite increment)")
        stages = new_stages
        info.iterations = it
        info.increment = inc
        if scale is None and (prev_inc > ratio_floor or not _stops(inc, tol, kappa)):
            scale = max(float(np.max(propagator.v_norm(base))), 1.0)
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
    return stages, info


def step(u_n, t_n: float, g, plan: StepPlan, start=None):
    """One full step, started at the anchor plus start; returns (u_next, StageInfo)."""
    stages, info = internal_stages(u_n, t_n, g, plan, start)
    G = g.eval(t_n + plan.offsets, stages)
    (conv,) = plan.propagator.stage_convolve(plan.update_row, G)
    return info.flow_end + conv, info


def run(u_0, T: float, N: int, scheme: SchemeSpec, propagator: Propagator,
        g, lipschitz: float, monitor=None, store_stride: int = 1) -> TrajectoryRecord:
    """N uniform steps of size h = T/N; returns the record even on abort."""
    if N < 0:
        raise ValidationError("step count must be >= 0")
    record = TrajectoryRecord()
    u = np.asarray(u_0).copy()
    record.times.append(0.0)
    record.states.append(u.copy())
    record.steps.append(0)
    if N == 0:
        return record
    h = T / N
    try:
        plan = plan_step(h, scheme, propagator, lipschitz)
    except ContractionError as exc:
        record.status, record.error, record.failure_step = "contraction", str(exc), 0
        return record
    record.kappa = plan.kappa
    t_start = time.perf_counter()
    # step n+1 starts from 2 c_n - c_{n-1}, the linear extrapolation of the
    # last two corrections (O(h^3) from the fixed point where c_n alone is
    # O(h^2)); step 1 starts from the anchor and step 2 from c_1
    previous = correction = None
    for n in range(N):
        t_n = n * h
        start = correction if previous is None else 2.0 * correction - previous
        try:
            u, info = step(u, t_n, g, plan, start)
        except FixedPointDivergenceError as exc:
            record.status, record.error, record.failure_step = "divergence", str(exc), n
            break
        previous, correction = correction, info.correction
        record.stage_iterations.append(info.iterations)
        record.contraction_ratios.extend(info.contraction_ratios)
        t_next = (n + 1) * h
        if monitor is not None:
            try:
                monitor.check(t_next, u)
            except StripViolationError as exc:
                record.status, record.error, record.failure_step = "strip", str(exc), n
                break
        if (n + 1) % store_stride == 0 or n == N - 1:
            record.times.append(t_next)
            record.states.append(u.copy())
            record.steps.append(n + 1)
    record.wall_per_step = (time.perf_counter() - t_start) / max(len(record.stage_iterations), 1)
    return record
