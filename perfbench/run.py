"""expsplit benchmark: time-to-verdict of convergence studies and of
`expsplit run`, with an optional per-layer trace.

    python3 perfbench/run.py --workload study-wave --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20      # every workload

Each sample is a fresh single-threaded Python process (sample.py) that
imports expsplit from src/, sets the workload up, runs it and checks its
outputs against goldens/.  Samples repeat until --seconds have passed
(at least MIN_SAMPLES); with several workloads they are interleaved
round-robin, so a slow spell of the host hits all of them.  Metrics are
medians over the samples of a run.

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb)
from untraced samples.  --trace 1 alternates untraced and traced samples
and reports the per-layer metrics of the traced ones, plus the tracing
overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run's provenance manifest.  Every run also appends its manifest, samples,
metrics and, for traced samples, the phase spans and leaf tables to
perfbench/.work/runs.jsonl.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LOG = HERE / ".work" / "runs.jsonl"

sys.path.insert(0, str(HERE))
from tracer import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SAMPLES = 3          # per workload and kind (untraced / traced)
SAMPLE_TIMEOUT_S = 120   # a sample that hangs is killed and counted failed
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _git(*args):
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def manifest(seed: int) -> dict:
    """Machine, versions and revision the numbers were taken on."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    dirty = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "python": sys.version.split()[0],
            "git_revision": _git("rev-parse", "HEAD") if in_repo else "unavailable",
            "git_dirty": bool(dirty) if in_repo else None,
            "seed": seed,
            "loadavg_start": list(os.getloadavg())}


def run_sample(workload: str, seed: int, trace: bool) -> dict:
    """Start one sample process, wait for it, and return its result."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    spawned = time.perf_counter()
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env={**os.environ, **SINGLE_THREAD},
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() kills and reaps the child
        return {"ok": False, "mismatches": ["timed out"], "workload": workload,
                "trace": trace, "started": stamp}
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        res = {"ok": False, "mismatches": ["printed no result"]}
    if proc.returncode != 0:
        res["ok"] = False
        res.setdefault("mismatches", []).append(
            f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
    res.update(workload=workload, trace=trace, started=stamp)
    return res


def collect(workloads: list, seed: int, seconds: float, trace: bool) -> list:
    """Round-robin samples over the workloads until `seconds` per workload
    have passed; with trace, untraced and traced samples alternate."""
    kinds = [False, True] if trace else [False]
    deadline = time.perf_counter() + seconds * len(workloads)
    samples, i = [], 0
    while i < MIN_SAMPLES * len(kinds) or time.perf_counter() < deadline:
        for w in workloads:
            samples.append(run_sample(w, seed, kinds[i % len(kinds)]))
        i += 1
    return samples


def _median(values):
    return statistics.median(values) if values else float("nan")


def summarize(samples: list, trace: bool, units: dict) -> tuple[dict, list]:
    """Metrics of one workload's samples and the lines describing them."""
    good = [s for s in samples if s["ok"]]
    plain = [s for s in good if not s["trace"]]
    traced = [s for s in good if s["trace"]]
    lines = []
    e2e = {}
    for name, unit in END_TO_END.items():
        vals = sorted(s[name] for s in plain)
        e2e[name] = _median(vals)
        if vals:
            lines.append(f"  {name:<14} {e2e[name]:12.4f} {unit:<5} median of "
                         f"{len(vals)} (min {vals[0]:.4f}, max {vals[-1]:.4f})")
    if plain:
        lines.append(f"  {'(raw)':<14} wall {_median([s['wall_raw_s'] for s in plain]):.4f} s, "
                     f"setup {_median([s['setup_raw_s'] for s in plain]):.4f} s at the "
                     f"host speed found; median CPU moves "
                     f"{_median([s['cpu_moves'] for s in plain])}")
    n_failed = len(samples) - len(good)
    lines.append(f"  {'failed_frac':<14} {n_failed / len(samples):12.4f} {'':<5} "
                 f"{n_failed} of {len(samples)} samples failed")
    for s in samples:
        if not s["ok"]:
            lines.append(f"  FAILED sample: {'; '.join(s.get('mismatches', []))}")
    if not trace:
        return {k: (v, END_TO_END[k]) for k, v in e2e.items()}, lines

    layers = {}
    for name in units:
        vals = [s["layers"][name] for s in traced if name in s.get("layers", {})]
        layers[name] = _median(vals)
    layers["trace.overhead"] = _median([s["wall_s"] for s in traced]) / e2e["wall_s"]
    layers["process.cpu_s"] = _median([s["cpu_s"] for s in plain])
    repeat = all(s["layers"][k] == traced[0]["layers"][k]
                 for s in traced for k in COUNT_METRICS) if traced else False
    lines.append(f"  counts repeat exactly over {len(traced)} traced samples: "
                 f"{'yes' if repeat else 'NO'}")
    for name, value in layers.items():
        lines.append(f"  {name:<40} {value:14.6g} {units[name]}")
    if traced:
        lines.append("  leaf calls of one traced sample "
                     "(op, layer, phase, calls, inclusive s, self s):")
        lines += [f"    {op:<22} {lay:<10} {ph:<13} {n:>9} {t:10.4f} {st:10.4f}"
                  for op, lay, ph, n, t, st in traced[0]["leaf_table"]]
    return {k: (v, units[k]) for k, v in layers.items()}, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help=f"one of {', '.join(WORKLOADS)}, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "expsplit" / "__init__.py").is_file():
        print(f"error: no expsplit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units = _per_layer_units() if args.trace else {}
    info = manifest(args.seed)
    samples = collect(names, args.seed, args.seconds, bool(args.trace))
    info["loadavg_end"] = list(os.getloadavg())
    kinds = {False, True} if args.trace else {False}
    for w in names:
        if {s["trace"] for s in samples if s["workload"] == w and s["ok"]} != kinds:
            for s in samples[:3]:
                print("; ".join(s.get("mismatches", [])), file=sys.stderr)
            print(f"error: no successful sample of each kind for {w}", file=sys.stderr)
            return 1

    metrics = {}
    for w in names:
        mine = [s for s in samples if s["workload"] == w]
        values, lines = summarize(mine, bool(args.trace), units)
        print(f"{w} (seed {args.seed}, trace {args.trace}):")
        print("\n".join(lines))
        prefix = "" if len(names) == 1 else f"{w}/"
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in values.items()})
    info["versions"] = next(s["versions"] for s in samples if s["ok"])
    keep = ("workload", "trace", "started", "ok", "mismatches", "wall_s", "setup_s",
            "peak_rss_mb", "wall_raw_s", "setup_raw_s", "cpu_s", "cpu_moves")
    info["samples"] = [{k: s.get(k) for k in keep} for s in samples]
    failed = sum(1 for s in samples if not s["ok"])
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    traces = [{k: s[k] for k in ("workload", "started", "layers", "leaf_table", "spans")}
              for s in samples if s["ok"] and s["trace"]]
    LOG.parent.mkdir(exist_ok=True)
    with LOG.open("a") as fh:
        fh.write(json.dumps({"workload": args.workload, "trace": args.trace,
                             "manifest": info, "traces": traces,
                             "result": result}) + "\n")
    print("manifest " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
