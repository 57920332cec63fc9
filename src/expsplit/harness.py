"""Convergence studies against the theorem's predicted orders.

A study runs the stepper over a geometric step-size sweep, measures
terminal V-norm errors against a refined reference trajectory, fits
empirical orders, and compares with the a-priori bound chain.
"""

from __future__ import annotations

import hashlib
import math
import types
from dataclasses import dataclass, field

import numpy as np

from .errors import StudyFailedError, ValidationError
from .gronwall import AprioriConstants, apriori_error_bound, derivative_l1_norm, \
    taylor_kernel_bound
from .integrator import SchemeSpec, run
from .nonlinearities import StripMonitor, ZeroNonlinearity, estimate_lipschitz
from .propagators import measure_smoothing

__all__ = ["StudyPlan", "ConvergenceReport", "ReferenceSolution",
           "reference_solution", "convergence_study", "order_prediction"]

REFERENCE_STAGES = 4  # highest shipped scheme, used for references

# reference key -> _reference_context of the most recent study; one entry
_REFERENCE_MEMO: dict = {}


def order_prediction(s: int, alpha: float, w_choice: str) -> float:
    """Predicted V-norm convergence order: s for W=V, s - alpha for W=X."""
    if not 0.0 <= alpha < 1.0:
        raise ValidationError(f"alpha must be in [0,1), got {alpha}")
    if w_choice == "V":
        return float(s)
    if w_choice == "X":
        return float(s) - alpha
    raise ValidationError("w_choice must be 'X' or 'V'")


@dataclass
class StudyPlan:
    """One convergence-study cell: problem id, scheme, step sweep."""

    problem_id: str
    scheme: SchemeSpec
    h_list: list
    horizon: float
    ref_factor: int = 64
    eoc_tol: float = 0.3
    strip_radius_frac: float = 0.25
    seed: int = 0
    check_smoothing: bool = False

    def validate(self):
        hs = sorted(float(h) for h in self.h_list)
        if len(hs) < 2:
            raise ValidationError("need at least two step sizes")
        if not all(0.0 < x < math.inf for x in (*hs, self.horizon)):
            raise ValidationError("step sizes and horizon must be positive and finite")
        for h in hs:
            n = self.horizon / h
            if abs(n - round(n)) > 1e-9:
                raise ValidationError(f"h={h} does not divide T={self.horizon}")
        for a, b in zip(hs, hs[1:]):
            if abs(b / a - 2.0) > 1e-9:
                raise ValidationError("h sweep must be geometric with ratio 2")
        if self.ref_factor < 64:
            raise ValidationError("reference refinement factor must be >= 64")


@dataclass
class ReferenceSolution:
    """Reference trajectory sampled at spacing dt (the finest sweep h)."""

    times: np.ndarray
    states: list
    h_ref: float
    # terminal V-norm diff between the h_ref run and a 2 h_ref rerun; for
    # order q it over-estimates the stored reference's error by about 2^q
    self_check_diff: float

    def at_time(self, t: float):
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValidationError(f"reference not sampled at t={t}")
        return self.states[i]

    @property
    def terminal(self):
        return self.states[-1]


@dataclass
class ConvergenceReport:
    """Per-h terminal errors, empirical orders, bounds and verdict."""

    problem_id: str = ""
    s: int = 0
    w_choice: str = "V"
    h_list: list = field(default_factory=list)
    n_list: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    max_errors: list = field(default_factory=list)
    eoc: list = field(default_factory=list)
    median_eoc: float = float("nan")
    predicted_order: float = float("nan")
    bounds: list = field(default_factory=list)
    f_norm: float = float("nan")
    lipschitz: float = float("nan")
    kappa: list = field(default_factory=list)
    max_ratio_per_h: list = field(default_factory=list)
    max_contraction_ratio: float = 0.0
    strip_radius: float = float("nan")
    reference_check: float = float("nan")
    reference_key: str = ""
    exact_linear: bool = False
    passed: bool = False
    abort_reason: str = ""

    def csv_lines(self):
        yield "h,N,error,eoc,bound"
        for i, h in enumerate(self.h_list):
            e = f"{self.errors[i]:.6e}" if i < len(self.errors) else ""
            q = f"{self.eoc[i - 1]:.4f}" if 1 <= i <= len(self.eoc) else ""
            b = f"{self.bounds[i]:.6e}" if i < len(self.bounds) else ""
            yield f"{h:.8g},{self.n_list[i]},{e},{q},{b}"

    def summary(self) -> dict:
        return {
            "problem": self.problem_id,
            "stages": self.s,
            "w_choice": self.w_choice,
            "h": list(self.h_list),
            "errors": list(self.errors),
            "max_errors": list(self.max_errors),
            "eoc": list(self.eoc),
            "median_eoc": self.median_eoc,
            "predicted_order": self.predicted_order,
            "bounds": list(self.bounds),
            "f_norm": self.f_norm,
            "lipschitz": self.lipschitz,
            "kappa": list(self.kappa),
            "max_ratio_per_h": list(self.max_ratio_per_h),
            "max_contraction_ratio": self.max_contraction_ratio,
            "strip_radius": self.strip_radius,
            "reference_check": self.reference_check,
            "reference_key": self.reference_key,
            "exact_linear": self.exact_linear,
            "passed": self.passed,
            "abort_reason": self.abort_reason,
        }


def reference_solution(problem, g, u_0, T: float, h_ref: float,
                       sample_dt: float, lipschitz: float) -> ReferenceSolution:
    """High-order reference trajectory sampled every sample_dt.

    Uses the highest shipped scheme over N = round(T / h_ref) steps and
    reruns it over N // 2 steps, a step of 2 h_ref, for a self-check diff
    of the terminal states.  For a method of order q, |u_2h - u_h| is
    about (2^q - 1) |e_h|, so the diff over-estimates the stored
    reference's error by about 2^q (Hairer, Norsett & Wanner, Solving
    ODEs I, II.4).  When N is odd the rerun's step T / (N // 2) is
    slightly longer than 2 h_ref, which makes the check coarser still.
    Linear problems short-circuit to the exact flow.
    """
    stride = sample_dt / h_ref
    if abs(stride - round(stride)) > 1e-9:
        raise ValidationError("sample_dt must be a multiple of h_ref")
    times = np.round(np.arange(round(T / sample_dt) + 1) * sample_dt, 12)
    if isinstance(g, ZeroNonlinearity):
        states = [problem.apply(float(t), u_0) for t in times]
        return ReferenceSolution(times=times, states=states, h_ref=h_ref,
                                 self_check_diff=0.0)
    scheme = SchemeSpec.with_stages(REFERENCE_STAGES)
    n = round(T / h_ref)
    rec = run(u_0, T, n, scheme, problem, g, lipschitz, store_stride=round(stride))
    rec.raise_if_failed()
    n2 = n // 2  # only its terminal state is read
    rec2 = run(u_0, T, n2, scheme, problem, g, lipschitz, store_stride=n2)
    rec2.raise_if_failed()
    diff = problem.v_norm(rec.states[-1] - rec2.states[-1])
    return ReferenceSolution(times=times, states=rec.states, h_ref=h_ref,
                             self_check_diff=diff)


def _estimate_lipschitz_on_strip(g, problem, ref: ReferenceSolution,
                                 radius: float, horizon: float, seed: int) -> float:
    """Max sampled Lipschitz ratio over balls around reference snapshots."""
    rng = np.random.default_rng(seed)
    idx = np.linspace(0, len(ref.states) - 1, 5).astype(int)
    best = 0.0
    for i in idx:
        best = max(best, estimate_lipschitz(
            g, problem, ref.states[i], radius, (0.0, horizon),
            n_samples=120, rng=rng))
    return best


def _feed(digest, obj):
    """Hash obj by content: values, array dtype/shape/bytes, and for other
    objects the class plus every attribute, recursively."""
    if isinstance(obj, np.ndarray) and not obj.dtype.hasobject:
        digest.update(f"{obj.dtype.str}{obj.shape}".encode())
        digest.update(np.ascontiguousarray(obj).tobytes())
    elif obj is None or isinstance(obj, (bool, int, float, complex, str, np.generic)):
        digest.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, (list, tuple, np.ndarray)):
        digest.update(f"{type(obj).__name__}[{len(obj)}".encode())
        for item in obj:
            _feed(digest, item)
        digest.update(b"]")
    elif hasattr(obj, "__dict__") and not isinstance(
            obj, (type, types.FunctionType, types.MethodType, types.ModuleType)):
        cls = type(obj)
        digest.update(f"{cls.__module__}.{cls.__qualname__}{{".encode())
        for name, value in sorted(vars(obj).items()):
            digest.update(f"{name}=".encode())
            _feed(digest, value)
        digest.update(b"}")
    else:
        raise TypeError(f"cannot key a reference on a {type(obj).__name__}")


def _reference_key(problem, g, u_0, T, h_min, h_ref, strip_radius_frac, seed):
    """Short hex digest of everything a study's reference context depends
    on; "" when some input cannot be hashed by content or refers to itself."""
    digest = hashlib.sha256()
    try:
        _feed(digest, (REFERENCE_STAGES, problem, g, np.asarray(u_0), T, h_min,
                       h_ref, strip_radius_frac, seed))
    except (TypeError, RecursionError):
        return ""
    return digest.hexdigest()[:16]


def _reference_context(key, problem, g, u_0, T, h_min, h_ref,
                       strip_radius_frac, seed):
    """(reference, strip radius, strip Lipschitz) after a bootstrap
    Lipschitz estimate; none of it depends on the scheme under study, so
    the last study's context is reused when its key is the same."""
    ctx = _REFERENCE_MEMO.get(key) if key else None
    if ctx is not None:
        return ctx
    # bootstrap Lipschitz guess around the initial state for the reference run
    rng = np.random.default_rng(seed)
    r0 = max(problem.v_norm(u_0), 1.0)
    lip0 = estimate_lipschitz(g, problem, np.asarray(u_0), 0.5 * r0, (0.0, T),
                              n_samples=120, rng=rng)
    ref = reference_solution(problem, g, u_0, T, h_ref, h_min, lip0)
    radius = strip_radius_frac * max(problem.v_norm(st) for st in ref.states)
    if isinstance(g, ZeroNonlinearity):
        lipschitz = 0.0
    else:
        lipschitz = _estimate_lipschitz_on_strip(g, problem, ref, radius, T, seed)
    for arr in (ref.times, *ref.states):
        if isinstance(arr, np.ndarray):  # shared by every study that hits the key
            arr.flags.writeable = False
    ctx = (ref, radius, lipschitz)
    if key:
        _REFERENCE_MEMO.clear()
        _REFERENCE_MEMO[key] = ctx
    return ctx


def convergence_study(plan: StudyPlan, problem, g, u_0) -> ConvergenceReport:
    """Run the full sweep of a study plan and assemble the report."""
    plan.validate()
    T = plan.horizon
    hs = sorted([float(h) for h in plan.h_list], reverse=True)
    h_min = hs[-1]
    h_ref = h_min / plan.ref_factor
    report = ConvergenceReport(problem_id=plan.problem_id, s=plan.scheme.s,
                               w_choice=problem.w_choice, h_list=hs,
                               n_list=[round(T / h) for h in hs])
    alpha = problem.profile_x.alpha
    report.predicted_order = order_prediction(plan.scheme.s, alpha, problem.w_choice)

    if plan.check_smoothing and alpha > 0.0:
        sm = measure_smoothing(problem, problem.p, problem.r,
                               np.geomspace(1e-4, 1e-2, 7),
                               rng=np.random.default_rng(plan.seed))
        if abs(-sm.slope - alpha) > 0.1:
            raise ValidationError(
                f"declared smoothing alpha={alpha:.3f} but measured slope "
                f"{sm.slope:.3f}; study setup rejected")

    inputs = (problem, g, u_0, T, h_min, h_ref, plan.strip_radius_frac, plan.seed)
    report.reference_key = _reference_key(*inputs)
    ref, radius, lipschitz = _reference_context(report.reference_key, *inputs)
    report.reference_check = ref.self_check_diff
    report.strip_radius = radius
    report.lipschitz = lipschitz

    linear = isinstance(g, ZeroNonlinearity)

    if not linear:
        f_states = [g.eval(float(t), st) for t, st in zip(ref.times, ref.states)]
        report.f_norm = derivative_l1_norm(f_states, h_min, plan.scheme.s,
                                           problem.w_norm)
    else:
        report.f_norm = 0.0

    consts = AprioriConstants(
        m_bound=problem.bound_m, c_ell=plan.scheme.lag.c_ell,
        lipschitz=max(lipschitz, 1e-12), s=plan.scheme.s,
        c_f=taylor_kernel_bound(plan.scheme.nodes),
        omega_x=problem.profile_x, omega_w=problem.profile_w, horizon=T)

    for h in hs:
        monitor = None if linear else StripMonitor(
            radius=radius, times=ref.times, states=ref.states,
            v_norm=problem.v_norm)
        rec = run(u_0, T, round(T / h), plan.scheme, problem, g, lipschitz,
                  monitor=monitor)
        if rec.status != "ok":
            report.abort_reason = f"{rec.status}: {rec.error}"
            report.passed = False
            return report
        report.kappa.append(rec.kappa)
        report.max_ratio_per_h.append(max(rec.contraction_ratios, default=0.0))
        report.max_contraction_ratio = max(report.max_contraction_ratio,
                                           report.max_ratio_per_h[-1])
        err = problem.v_norm(rec.states[-1] - ref.terminal)
        report.errors.append(err)
        max_err = max(problem.v_norm(st - ref.at_time(t))
                      for t, st in zip(rec.times, rec.states))
        report.max_errors.append(max_err)
        report.bounds.append(apriori_error_bound(consts, h, round(T / h),
                                                 report.f_norm))

    if linear or max(report.errors) < 1e-11:
        report.exact_linear = linear
        report.median_eoc = float("nan")
        report.passed = max(report.errors) < 1e-11
        if not report.passed:
            report.abort_reason = "linear run exceeded exactness tolerance"
        return report

    if ref.self_check_diff > 1e-2 * min(report.errors):
        raise ValidationError(
            f"reference rejected: self-consistency diff {ref.self_check_diff:.3e} "
            f"not below 1e-2 * min error {min(report.errors):.3e}")

    report.eoc = [math.log2(a / b) for a, b in zip(report.errors, report.errors[1:])]
    finest = report.eoc[-3:] if len(report.eoc) >= 3 else report.eoc
    report.median_eoc = float(np.median(finest))
    decreasing = all(a > b for a, b in zip(report.errors, report.errors[1:]))
    dominated = all(b >= e for e, b in zip(report.errors, report.bounds))
    report.passed = (abs(report.median_eoc - report.predicted_order) <= plan.eoc_tol
                     and decreasing and dominated)
    if not report.passed:
        bits = []
        if abs(report.median_eoc - report.predicted_order) > plan.eoc_tol:
            bits.append(f"median EOC {report.median_eoc:.3f} outside "
                        f"{report.predicted_order:.3f}+-{plan.eoc_tol}")
        if not decreasing:
            bits.append("errors not strictly decreasing")
        if not dominated:
            bits.append("a-priori bound violated")
        report.abort_reason = "; ".join(bits)
    return report


def require_passed(report: ConvergenceReport):
    if not report.passed:
        raise StudyFailedError(
            f"study {report.problem_id} failed: {report.abort_reason}")
