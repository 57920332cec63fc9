"""Convergence studies against the theorem's predicted orders.

A study runs the stepper over a geometric step-size sweep, measures
terminal V-norm errors against a refined reference trajectory, fits
empirical orders, and compares with the a-priori bound chain.
The study work that does not depend on the scheme is memoized for the
most recent study, keyed on the declared inputs (_reference_key).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import StripViolationError, StudyFailedError, ValidationError
from .gronwall import AprioriConstants, apriori_error_bound, derivative_l1_norm, \
    taylor_kernel_bound
from .integrator import SchemeSpec, run, run_windowed
from .nonlinearities import StripMonitor, ZeroNonlinearity, estimate_lipschitz
from .propagators import DiagonalPropagator, measure_smoothing

__all__ = ["StudyPlan", "ConvergenceReport", "ReferenceSolution",
           "reference_solution", "convergence_study", "order_prediction"]

REFERENCE_STAGES = 4  # highest shipped scheme, used for references
REF_FACTOR = 64  # no reference steps finer than the finest sweep h over this
LADDER_TOL = 1e-12  # a reference ladder stops at a 2h diff this small (V-norm)
STRIP_RADIUS_FRAC = 0.25  # strip radius over the reference's largest V-norm

# reference key -> _reference_context of the most recent study; one entry
_REFERENCE_MEMO: dict = {}


def _median(values):
    """statistics.median of a nonempty list: the middle value, or the mean
    of the two middle ones (the statistics module costs a few ms of
    import, most of it in fractions and decimal)."""
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


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
    eoc_tol: float = 0.3
    seed: int = 0

    def validate(self):
        if not 0.0 < self.eoc_tol < math.inf:
            raise ValidationError(
                f"eoc_tol must be positive and finite, got {self.eoc_tol}")
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


@dataclass
class ReferenceSolution:
    """Reference trajectory sampled at spacing dt (the finest sweep h), its
    states one (len(times), *grid) array; nonlinearities.stored_state looks
    up the rows at one t or an array of them."""

    times: np.ndarray
    states: np.ndarray
    # terminal V-norm diff between the stored run and a run at twice its
    # step; for order q it over-estimates the stored run's error by about 2^q
    self_check_diff: float
    h_ref: float  # the stored run's step; 0 for an exact flow


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
    reference_h: float = float("nan")
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
        """Every field but n_list, with problem_id, s and h_list named
        problem, stages and h: the study.json of a study."""
        names = {"problem_id": "problem", "s": "stages", "h_list": "h"}
        return {names.get(k, k): v for k, v in asdict(self).items()
                if k != "n_list"}


def reference_solution(problem, g, u_0, T: float, h_ref: float,
                       sample_dt: float, lipschitz: float) -> ReferenceSolution:
    """High-order reference trajectory sampled every sample_dt, stepped no
    finer than h_ref.

    Uses the highest shipped scheme, and checks the stored run against a
    run over half as many steps: for a method of order q, |u_2h - u_h| is
    about (2^q - 1) |e_h|, so the terminal V-norm diff over-estimates the
    stored run's error by about 2^q (Hairer, Norsett & Wanner, Solving
    ODEs I, II.4).
    A DiagonalPropagator's reference climbs a halving ladder of windowed
    runs (run_windowed) from a step of sample_dt, each rung's terminal
    state the next rung's check.  It stops at the first rung whose diff is
    at most LADDER_TOL, or at the last rung not finer than h_ref; a failed
    run below that rung passes the climb on to the next rung, which then
    has no check.  Other problems step at h_ref (run).  A last rung without
    a check takes a run over N // 2 steps, whose step T / (N // 2) is
    slightly longer than 2 h_ref when N is odd.  A failed last rung or
    check raises, and so does a reference of one step, which has no such
    run.  Linear problems short-circuit to the exact flow: u_0, one
    flow op over the later times, h_ref and the diff 0.
    """
    stride = sample_dt / h_ref
    if abs(stride - round(stride)) > 1e-9:
        raise ValidationError("sample_dt must be a multiple of h_ref")
    samples = T / sample_dt
    if abs(samples - round(samples)) > 1e-9:
        raise ValidationError("T must be a multiple of sample_dt")
    stride, samples = round(stride), round(samples)
    times = np.round(np.arange(samples + 1) * sample_dt, 12)
    if isinstance(g, ZeroNonlinearity):
        u_0 = np.asarray(u_0, dtype=problem.dtype)
        flows = problem.apply_nodes(problem.flow_op(times[1:]), u_0)
        return ReferenceSolution(times=times, self_check_diff=0.0, h_ref=0.0,
                                 states=np.concatenate((u_0[None], flows)))
    if samples * stride < 2:
        raise ValidationError(f"a reference of {samples * stride} steps has no "
                              "run over half as many to check it against")
    solve = run_windowed if isinstance(problem, DiagonalPropagator) else run
    scheme = SchemeSpec.with_stages(REFERENCE_STAGES)
    factor = 1 if solve is run_windowed else stride  # steps per sample
    checked = None  # the previous rung if it reached T: this rung's 2h check
    while True:
        n = samples * factor
        rec = solve(u_0, T, n, scheme, problem, g, lipschitz, store_stride=factor)
        last = 2 * factor > stride
        if last:
            rec.raise_if_failed()
            if checked is None:
                n2 = n // 2  # only its terminal state is read
                checked = solve(u_0, T, n2, scheme, problem, g, lipschitz,
                                store_stride=n2)
                checked.raise_if_failed()
        if rec.status == "ok" and checked is not None:
            diff = problem.v_norm(rec.states[-1] - checked.states[-1])
            if last or diff <= LADDER_TOL:
                return ReferenceSolution(times=times, states=rec.states,
                                         self_check_diff=diff, h_ref=T / n)
        checked = rec if rec.status == "ok" else None
        factor *= 2


def _reference_key(problem, g, u_0, T, h_min, h_ref, seed):
    """Short hex digest of the declared inputs of a study's reference
    context: the module constants of the reference, the ladder and the
    strip radius, the class and spec of the problem and of g, the
    problem's profile_x (it sets kappa, and a caller may reassign it), u_0
    by dtype, shape and bytes, and T, h_min, h_ref and seed.  It reads no
    other attribute, so a problem may keep caches; "" when the problem or
    g declares no spec."""
    declared = [[f"{type(obj).__module__}.{type(obj).__qualname__}",
                 getattr(obj, "spec", None)] for obj in (problem, g)]
    if any(spec is None for _, spec in declared):
        return ""
    u_0 = np.ascontiguousarray(u_0)
    profile = problem.profile_x
    text = json.dumps([REFERENCE_STAGES, LADDER_TOL, STRIP_RADIUS_FRAC, *declared,
                       [profile.c, profile.alpha], u_0.dtype.str, u_0.shape,
                       float(T), float(h_min), float(h_ref), int(seed)],
                      sort_keys=True)
    digest = hashlib.sha256(text.encode())
    digest.update(u_0.tobytes())
    return digest.hexdigest()[:16]


def _reference_context(key, problem, g, u_0, T, h_min, h_ref, seed):
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
    radius = STRIP_RADIUS_FRAC * float(np.max(problem.v_norm(ref.states)))
    if isinstance(g, ZeroNonlinearity):
        lipschitz = 0.0
    else:
        # balls around five reference snapshots, from a fresh stream
        snapshots = ref.states[np.linspace(0, len(ref.states) - 1, 5).astype(int)]
        lipschitz = estimate_lipschitz(g, problem, snapshots, radius, (0.0, T),
                                       n_samples=120, rng=np.random.default_rng(seed))
    for arr in (ref.times, ref.states):  # shared by every study that hits the key
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
    h_ref = h_min / REF_FACTOR
    report = ConvergenceReport(problem_id=plan.problem_id, s=plan.scheme.s,
                               w_choice=problem.w_choice, h_list=hs,
                               n_list=[round(T / h) for h in hs])
    alpha = problem.profile_x.alpha
    report.predicted_order = order_prediction(plan.scheme.s, alpha, problem.w_choice)

    if alpha > 0.0:  # alpha sets the predicted order and kappa's Omega
        sm = measure_smoothing(problem, rng=np.random.default_rng(plan.seed))
        if abs(-sm.slope - alpha) > 0.1:
            raise ValidationError(
                f"declared smoothing alpha={alpha:.3f} but measured slope "
                f"{sm.slope:.3f}; study setup rejected")

    inputs = (problem, g, u_0, T, h_min, h_ref, plan.seed)
    report.reference_key = _reference_key(*inputs)
    ref, radius, lipschitz = _reference_context(report.reference_key, *inputs)
    report.reference_check = ref.self_check_diff
    report.reference_h = ref.h_ref
    report.strip_radius = radius
    report.lipschitz = lipschitz

    linear = isinstance(g, ZeroNonlinearity)
    report.f_norm = 0.0 if linear else derivative_l1_norm(
        g.eval(ref.times, ref.states), h_min, plan.scheme.s, problem.w_norm)

    consts = AprioriConstants(
        m_bound=problem.bound_m, c_ell=plan.scheme.lag.c_ell,
        lipschitz=max(lipschitz, 1e-12), s=plan.scheme.s,
        c_f=taylor_kernel_bound(plan.scheme.nodes),
        omega_x=problem.profile_x, omega_w=problem.profile_w, horizon=T)

    # the V-distances of the rows a run reached give its strip verdict, error
    # (the last) and maximum error; a linear study samples no L, has no strip
    monitor = StripMonitor(radius=math.inf if linear else radius, times=ref.times,
                           states=ref.states, v_norm=problem.v_norm)
    for h, n in zip(hs, report.n_list):
        rec = run(u_0, T, n, plan.scheme, problem, g, lipschitz)
        try:
            dist = monitor.check(rec.times, rec.states)
        except StripViolationError as exc:  # also when the run went on to fail
            report.abort_reason = f"strip: {exc}"
            return report
        if rec.status != "ok":
            report.abort_reason = f"{rec.status}: {rec.error}"
            return report
        report.kappa.append(rec.kappa)
        report.max_ratio_per_h.append(max(rec.contraction_ratios, default=0.0))
        report.max_contraction_ratio = max(report.max_contraction_ratio,
                                           report.max_ratio_per_h[-1])
        report.errors.append(float(dist[-1]))
        report.max_errors.append(float(np.max(dist)))
        report.bounds.append(apriori_error_bound(consts, h, report.f_norm))

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
    report.median_eoc = float(_median(report.eoc[-3:]))
    reasons = []
    if not abs(report.median_eoc - report.predicted_order) <= plan.eoc_tol:
        reasons.append(f"median EOC {report.median_eoc:.3f} outside "
                       f"{report.predicted_order:.3f}+-{plan.eoc_tol}")
    if not all(a > b for a, b in zip(report.errors, report.errors[1:])):
        reasons.append("errors not strictly decreasing")
    if not all(b >= e for e, b in zip(report.errors, report.bounds)):
        reasons.append("a-priori bound violated")
    report.passed = not reasons
    report.abort_reason = "; ".join(reasons)
    return report


def require_passed(report: ConvergenceReport):
    if not report.passed:
        raise StudyFailedError(
            f"study {report.problem_id} failed: {report.abort_reason}")
