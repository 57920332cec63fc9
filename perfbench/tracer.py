"""Per-layer trace of one benchmark sample, taken from outside the package.

The tracer replaces public expsplit functions and methods, at the place
their caller looks them up, with timing wrappers:

* phase spans (convergence_study, reference_solution, the run calls, the
  Lipschitz, f-norm and bound phases, CLI writes) are kept in full:
  label, start, end, parent;
* leaf calls (steps, propagator operations, g.eval, monitor checks,
  weight builds, config builds) number in the hundreds of thousands, so
  they are aggregated in memory as calls, inclusive time and child time
  per (operation, enclosing phase).

A call nested inside another call of its own layer is counted but not
timed again, so a layer's time is never counted twice; its children still
count as child time of the outer call.  Counts are numbers of invocations.
"""

from __future__ import annotations

import time
from collections import defaultdict

PROPAGATOR_FAMILY = "propagators"

# layer -> method names, patched on every class that defines them
PROPAGATOR_METHODS = {
    "apply": ("apply",),
    "flow_nodes": ("apply_nodes",),
    "convolve": ("stage_convolve", "stage_convolve_all"),
    "transform": ("to_modes", "from_modes", "to_modes_batch", "from_modes_batch"),
    "norm": ("v_norm", "x_norm", "w_norm"),
}
# the named phases of convergence_study; trace.coverage is their share of it
HARNESS_PHASES = ("reference", "sweep", "lipschitz", "f_norm", "bound")
CONFIG_BUILDERS = ("resolve_config", "build_problem", "build_nonlinearity",
                   "build_initial", "build_scheme", "build_plan")

# metric names that are counts; they must repeat exactly at a fixed seed
COUNT_METRICS = ("harness.reference_runs", "integrator.steps",
                 "integrator.fp_iters_per_step", "integrator.aborted_runs",
                 "propagators.apply_calls", "propagators.convolve_calls",
                 "propagators.quad_applies_per_convolve",
                 "propagators.transform_calls", "propagators.norm_calls",
                 "propagators.computed_bytes_per_step",
                 "nonlinearities.eval_calls", "phi.weight_builds")


def _nbytes(obj) -> int:
    nb = getattr(obj, "nbytes", None)
    if isinstance(nb, int):
        return nb
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(x) for x in obj)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []              # [label, start, end, parent index]
        self._open = []              # indices of open spans
        self.phase = "setup"         # label of the innermost open span
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # (op, layer, phase)
        self.depth = defaultdict(int)  # layer or family -> open timed calls
        self._frames = []            # child-time accumulators of timed calls
        self.fp_iterations = 0
        self.quad_applies = 0
        self.step_bytes = 0
        self.aborted_runs = 0

    # -- wrappers ------------------------------------------------------
    def _span(self, label, fn, on_result=None):
        """Wrap fn as a phase span; label may be a callable of the parent."""
        spans, open_, perf = self.spans, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            name = label(self.phase) if callable(label) else label
            parent = open_[-1] if open_ else -1
            span = [name, perf(), None, parent]
            open_.append(len(spans))
            spans.append(span)
            outer, self.phase = self.phase, name
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                open_.pop()
                self.phase = outer
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _leaf(self, layer, op, fn, family=None, on_result=None):
        """Wrap fn as an aggregated leaf call of the given layer."""
        agg, depth, frames, perf = self.agg, self.depth, self._frames, time.perf_counter
        op_of = op if callable(op) else (lambda args, _op=op: _op)

        def wrapper(*args, **kwargs):
            rec = agg[(op_of(args), layer, self.phase)]
            rec[0] += 1
            if layer == "apply" and depth["convolve"]:
                self.quad_applies += 1
            if depth[layer]:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(out)
                return out
            count_bytes = (family is not None and not depth[family]
                           and depth["integrator"])
            depth[layer] += 1
            if family is not None:
                depth[family] += 1
            frame = [0.0]
            frames.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                frames.pop()
                depth[layer] -= 1
                if family is not None:
                    depth[family] -= 1
                rec[1] += dt
                rec[2] += frame[0]
                if frames:
                    frames[-1][0] += dt
            if count_bytes:
                self.step_bytes += _nbytes(args) + _nbytes(kwargs.values()) \
                    + _nbytes(out)
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    # -- hooks ---------------------------------------------------------
    def _stages_done(self, out):
        self.fp_iterations += out[1].iterations

    def _run_done(self, record):
        if record.status != "ok":
            self.aborted_runs += 1

    def install(self):
        """Patch the expsplit modules of this process; call before setup."""
        from expsplit import cli, config, harness, integrator, nonlinearities, \
            propagators

        def patch_fn(module, name, wrap):
            setattr(module, name, wrap(getattr(module, name)))

        span, leaf = self._span, self._leaf
        patch_fn(harness, "convergence_study", lambda f: span("study", f))
        patch_fn(harness, "reference_solution", lambda f: span("reference", f))
        patch_fn(harness, "run", lambda f: span(
            lambda parent: "ref_run" if parent == "reference" else "sweep", f,
            self._run_done))
        patch_fn(harness, "estimate_lipschitz", lambda f: span("lipschitz", f))
        patch_fn(harness, "derivative_l1_norm", lambda f: span("f_norm", f))
        patch_fn(harness, "apriori_error_bound", lambda f: span("bound", f))
        patch_fn(cli, "run", lambda f: span("run", f, self._run_done))
        patch_fn(cli, "estimate_lipschitz", lambda f: span("cli_lipschitz", f))
        patch_fn(cli, "_write", lambda f: span("write", f))

        patch_fn(integrator, "step", lambda f: leaf(
            "integrator", lambda args: f"step.s{args[3].s}", f))
        patch_fn(integrator, "internal_stages", lambda f: leaf(
            "integrator", "internal_stages", f, on_result=self._stages_done))
        patch_fn(integrator, "build_lagrange",
                 lambda f: leaf("lagrange", "build_lagrange", f))
        for name in CONFIG_BUILDERS:
            patch_fn(config, name, lambda f, n=name: leaf("config", n, f))
        patch_fn(propagators, "stage_weights_diagonal",
                 lambda f: leaf("weights", "stage_weights_diagonal", f))

        classes = (propagators.Propagator, propagators.DiagonalPropagator,
                   propagators.HeatTorusProblem, propagators.OUProblem,
                   propagators.WaveProblem)
        for cls in classes:
            for layer, names in PROPAGATOR_METHODS.items():
                for name in names:
                    if name in vars(cls):
                        setattr(cls, name, leaf(layer, name, vars(cls)[name],
                                                family=PROPAGATOR_FAMILY))
        for cls in (nonlinearities.ZeroNonlinearity, nonlinearities.PowerNonlinearity,
                    nonlinearities.AdvectionNonlinearity, nonlinearities.WaveCubic):
            cls.eval = leaf("eval", "eval", vars(cls)["eval"])
        nonlinearities.StripMonitor.check = leaf(
            "monitor", "check", nonlinearities.StripMonitor.check)

    # -- results -------------------------------------------------------
    def _span_total(self, pred) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[2] is not None and pred(s))

    def _leaf_sum(self, layer, phase=None, op=None):
        calls = incl = child = 0.0
        for (o, lay, ph), (n, t, c) in self.agg.items():
            if lay == layer and (phase is None or ph == phase) \
                    and (op is None or o.startswith(op)):
                calls, incl, child = calls + n, incl + t, child + c
        return int(calls), incl, child

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metric values of this sample (see BENCHMARK.json)."""
        spans = self.spans
        label_of = lambda i: spans[i][0] if i >= 0 else ""  # noqa: E731
        study_s = self._span_total(lambda s: s[0] == "study")
        phases_s = self._span_total(
            lambda s: s[0] in HARNESS_PHASES and label_of(s[3]) == "study")
        steps, step_s, step_child = self._leaf_sum("integrator", op="step")

        def per_step_us(phase):
            n, t, _ = self._leaf_sum("integrator", phase=phase, op="step")
            return 1e6 * t / n if n else 0.0

        apply_n, apply_s, _ = self._leaf_sum("apply")
        conv_n, conv_s, _ = self._leaf_sum("convolve")
        tr_n, tr_s, _ = self._leaf_sum("transform")
        norm_n, norm_s, _ = self._leaf_sum("norm")
        eval_n, eval_s, _ = self._leaf_sum("eval")
        weight_n, weight_s, _ = self._leaf_sum("weights")
        if study_s > 0:
            coverage = phases_s / study_s
        else:  # a run: the CLI's run, Lipschitz and write spans over the work
            coverage = self._span_total(lambda s: s[3] == -1) / wall_s \
                if wall_s > 0 else 0.0
        return {
            "harness.reference_s": self._span_total(lambda s: s[0] == "reference"),
            "harness.reference_runs": sum(1 for s in spans if s[0] == "ref_run"),
            "harness.sweep_s": self._span_total(lambda s: s[0] == "sweep"),
            "harness.lipschitz_s": self._span_total(lambda s: s[0] == "lipschitz"),
            "harness.f_norm_s": self._span_total(lambda s: s[0] == "f_norm"),
            "harness.self_s": study_s - phases_s,
            "integrator.steps": steps,
            "integrator.step_us": 1e6 * step_s / steps if steps else 0.0,
            "integrator.step_us.reference": per_step_us("ref_run"),
            "integrator.step_us.sweep": per_step_us("sweep"),
            "integrator.step_us.run": per_step_us("run"),
            "integrator.fp_iters_per_step": self.fp_iterations / steps if steps else 0.0,
            "integrator.self_s": step_s - step_child,
            "integrator.aborted_runs": self.aborted_runs,
            "propagators.apply_calls": apply_n,
            "propagators.apply_s": apply_s,
            "propagators.flow_nodes_s": self._leaf_sum("flow_nodes")[1],
            "propagators.convolve_calls": conv_n,
            "propagators.convolve_s": conv_s,
            "propagators.quad_applies_per_convolve":
                self.quad_applies / conv_n if conv_n else 0.0,
            "propagators.transform_calls": tr_n,
            "propagators.transform_s": tr_s,
            "propagators.norm_calls": norm_n,
            "propagators.norm_s": norm_s,
            "propagators.computed_bytes_per_step":
                self.step_bytes / steps if steps else 0.0,
            "nonlinearities.eval_calls": eval_n,
            "nonlinearities.eval_us": 1e6 * eval_s / eval_n if eval_n else 0.0,
            "nonlinearities.monitor_s": self._leaf_sum("monitor")[1],
            "phi.weight_builds": weight_n,
            "phi.weight_s": weight_s,
            "lagrange.build_s": self._leaf_sum("lagrange")[1],
            "config.build_s": self._leaf_sum("config")[1],
            "gronwall.bound_s": self._span_total(lambda s: s[0] == "bound"),
            "cli.write_s": self._span_total(lambda s: s[0] == "write"),
            "trace.coverage": coverage,
        }

    def table(self) -> list:
        """Aggregated leaf rows: op, layer, phase, calls, inclusive s, self s."""
        return [[op, layer, phase, n, t, t - c]
                for (op, layer, phase), (n, t, c) in sorted(self.agg.items())]

    def span_rows(self) -> list:
        return [list(s) for s in self.spans]
