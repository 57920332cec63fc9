"""Self-tests of the benchmark's own checks.

    python3 perfbench/selftest.py               # golden checks reject bad outputs
    python3 perfbench/selftest.py --counters    # plus: counts repeat exactly

The first part needs neither numpy nor expsplit: it feeds the golden
checks the goldens themselves (which must pass) and altered copies
(which must fail): one per-h error shifted by 1e-10, a flipped verdict,
a changed exit status, a run terminal state 2e-12 off and a changed step
count.

--counters runs two traced samples of each workload at seed 0, each in
a fresh process, and requires every count-type layer metric to be equal.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import run_sample  # noqa: E402
from tracer import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS, check_run, check_study  # noqa: E402


def _golden(workload):
    return json.loads((HERE / "goldens" / f"{workload}.json").read_text())


def golden_checks() -> list:
    """(description, passed) for each case of the golden-check self-test."""
    cases = []
    for name, spec in WORKLOADS.items():
        gold = _golden(name)
        if spec["kind"] == "study":
            cases.append((f"{name}: golden accepted", not check_study(gold, gold)))
            shifted = copy.deepcopy(gold)
            shifted[-1]["errors"][-1] += 1e-10
            cases.append((f"{name}: error shifted by 1e-10 rejected",
                          bool(check_study(shifted, gold))))
            flipped = copy.deepcopy(gold)
            flipped[0]["passed"] = not flipped[0]["passed"]
            cases.append((f"{name}: flipped verdict rejected",
                          bool(check_study(flipped, gold))))
            status = copy.deepcopy(gold)
            status[0]["exit_status"] = 6
            cases.append((f"{name}: changed exit status rejected",
                          bool(check_study(status, gold))))
        else:
            obs = dict(gold, terminal_diff=0.0)
            cases.append((f"{name}: golden accepted", not check_run(obs, gold)))
            cases.append((f"{name}: terminal state 2e-12 off rejected",
                          bool(check_run(dict(obs, terminal_diff=2e-12), gold))))
            cases.append((f"{name}: changed step count rejected",
                          bool(check_run(dict(obs, steps=obs["steps"] + 1), gold))))
    return cases


def counter_checks() -> list:
    cases = []
    for name in WORKLOADS:
        a, b = (run_sample(name, 0, trace=True) for _ in range(2))
        if not (a["ok"] and b["ok"]):
            cases.append((f"{name}: traced samples succeeded", False))
            continue
        for key in COUNT_METRICS:
            va, vb = a["layers"][key], b["layers"][key]
            cases.append((f"{name}: {key} = {va} both times", va == vb))
    return cases


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--counters", action="store_true")
    args = ap.parse_args(argv)
    cases = golden_checks()
    if args.counters:
        cases += counter_checks()
    for desc, passed in cases:
        print(f"{'PASS' if passed else 'FAIL'}  {desc}")
    failed = sum(1 for _, p in cases if not p)
    print(f"{len(cases) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
