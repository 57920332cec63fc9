"""One benchmark sample: a fresh process that sets up one workload, runs
it, checks its outputs against the golden ones and prints one JSON line.

Started by run.py; by hand:

    python3 perfbench/sample.py --workload study-wave --seed 0 [--trace]

setup_s is measured from --spawned, the parent's
time.perf_counter() just before it started this process (on Linux a
system-wide monotonic clock), to the first call into expsplit work.
wall_s, setup_s and the per-layer times are restated at the nominal host
speed (calibrate.py); the raw times are reported beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_DIR = HERE / "goldens"
WORK_DIR = HERE / ".work"

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import expsplit  # noqa: E402
from expsplit import cli, config, harness  # noqa: E402
from expsplit.errors import StudyFailedError  # noqa: E402

from calibrate import SpeedProbe  # noqa: E402
from tracer import COUNT_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, check_run, check_study  # noqa: E402


def _prepare_study(spec, seed):
    """resolve_config + build_* for every preset of the workload."""
    cells = []
    for preset in spec["presets"]:
        cfg = config.resolve_config(preset)
        cfg = config._merge(cfg, spec["overrides"])
        cfg["seed"] = seed
        problem = config.build_problem(cfg)
        g = config.build_nonlinearity(cfg, problem)
        u0 = config.build_initial(cfg, problem)
        plan = config.build_plan(cfg)
        plan.scheme = config.build_scheme(cfg)
        cells.append((preset, plan, problem, g, u0))
    return cells


def _run_studies(cells):
    reports = []
    for preset, plan, problem, g, u0 in cells:
        reports.append((preset, harness.convergence_study(plan, problem, g, u0)))
    return reports


def _observe_studies(reports):
    out = []
    for preset, rep in reports:
        try:
            harness.require_passed(rep)
            status = 0
        except StudyFailedError as exc:
            status = exc.exit_code
        out.append({"preset": preset, "passed": bool(rep.passed),
                    "exit_status": status,
                    "errors": [float(e) for e in rep.errors],
                    "median_eoc": float(rep.median_eoc)})
    return out


def sample(workload: str, seed: int, trace: bool, spawned: float):
    spec = WORKLOADS[workload]
    if not Path(expsplit.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"expsplit imported from {expsplit.__file__}, "
                           f"not from this checkout")
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    out_dir = WORK_DIR / f"{workload}-{os.getpid()}"
    if spec["kind"] == "study":
        prepared = _prepare_study(spec, seed)
    else:
        captured = []
        traced_run = cli.run

        def capture(*args, **kwargs):
            rec = traced_run(*args, **kwargs)
            captured.append(rec)
            return rec

        cli.run = capture
        argv = ["run", "--config", spec["config"], "--grid", str(spec["grid"]),
                "--stages", str(spec["stages"]), "--h", str(spec["h"]),
                "--seed", str(seed), "--out", str(out_dir)]

    t_setup = time.perf_counter()
    probe = SpeedProbe()
    t_first = probe.start()
    cpu_first = time.process_time()
    if spec["kind"] == "study":
        result = _run_studies(prepared)
    else:
        result = cli.main(argv)
    t_done = probe.stop()
    cpu_done = time.process_time()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_s = probe.probe_time(t_first, t_done)
    wall_raw_s = t_done - t_first - probe_s
    wall_s = probe.nominal(t_first, t_done)
    setup_raw_s = t_setup - spawned
    setup_s = probe.nominal_setup(setup_raw_s)
    if tracer is not None:  # before the checks below add calls of their own
        gross = t_done - t_first  # the spans include the probes inside them
        scale = wall_s / gross
        layers = {k: v if k in COUNT_METRICS or k == "trace.coverage" else v * scale
                  for k, v in tracer.metrics(gross).items()}
        leaf_table, spans = tracer.table(), tracer.span_rows()

    # output checks, outside the timed region
    if spec["kind"] == "study":
        observed = _observe_studies(result)
        golden = json.loads((GOLDEN_DIR / f"{workload}.json").read_text())
        mismatches = check_study(observed, golden)
    else:
        try:
            summary = json.loads((out_dir / "summary.json").read_text())
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        state = captured[-1].states[-1]
        cfg = config.resolve_config(spec["config"])
        cfg["problem"]["n"] = spec["grid"]
        problem = config.build_problem(cfg)
        golden = json.loads((GOLDEN_DIR / f"{workload}.json").read_text())
        golden_state = np.load(GOLDEN_DIR / f"{workload}.terminal.npy",
                               allow_pickle=False)
        observed = {"exit_code": result, "status": summary["status"],
                    "steps": summary["steps"],
                    "terminal_diff": float(problem.v_norm(state - golden_state))}
        mismatches = check_run(observed, golden)

    res = {"ok": not mismatches, "mismatches": mismatches, "wall_s": wall_s,
           "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
           "wall_raw_s": wall_raw_s, "setup_raw_s": setup_raw_s,
           "cpu_s": (cpu_done - cpu_first - probe_s) * wall_s / wall_raw_s,
           "cpu_moves": probe.moves,
           "observed": observed,
           "versions": {"python": sys.version.split()[0],
                        "numpy": np.__version__, "scipy": scipy.__version__,
                        "expsplit": expsplit.__version__}}
    if tracer is not None:
        res.update(layers=layers, leaf_table=leaf_table, spans=spans)
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spawned", type=float, default=None)
    args = ap.parse_args(argv)
    spawned = time.perf_counter() if args.spawned is None else args.spawned
    try:
        res = sample(args.workload, args.seed, args.trace, spawned)
    except Exception as exc:  # a sample that raises is a failed sample
        traceback.print_exc()
        print(json.dumps({"ok": False, "mismatches": [f"raised {exc!r}"]}))
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
