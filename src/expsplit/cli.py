"""Command-line entry point.

Subcommands: list, run, convergence, smoothing, selftest.  All data
files are deterministic for a fixed config and seed; the resolved config
is echoed next to the outputs so any run can be reproduced from its
output directory alone.

Exit codes: 0 ok, 2 config error, 3 contraction failure, 4 strip
violation, 5 fixed-point divergence, 6 study failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .errors import ExpsplitError, ValidationError
from .harness import convergence_study
from .integrator import run
from .nonlinearities import ZeroNonlinearity, estimate_lipschitz
from .propagators import WaveProblem, measure_smoothing

_STATUS_CODES = {"ok": 0, "contraction": 3, "strip": 4, "divergence": 5}


def _write(out_dir: Path, name: str, text: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=float) + "\n"


def _apply_overrides(cfg: dict, args) -> dict:
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = int(args.seed)
    rc = cfg.setdefault("run", {})
    if getattr(args, "t_final", None) is not None:
        rc["t_final"] = float(args.t_final)
    if getattr(args, "h", None) is not None:
        h = float(args.h)
        if h <= 0:
            raise ValidationError("override h must be positive")
        rc["n_steps"] = round(float(rc.get("t_final", 1.0)) / h)
        rc["h"] = h
    if getattr(args, "stages", None) is not None:
        cfg.setdefault("scheme", {})["stages"] = int(args.stages)
    if getattr(args, "grid", None) is not None:
        pc = cfg.setdefault("problem", {})
        key = "n_modes" if pc.get("kind") == "wave" else "n"
        pc[key] = int(args.grid)
    return cfg


def _build_all(cfg: dict):
    problem = cfgmod.build_problem(cfg)
    g = cfgmod.build_nonlinearity(cfg, problem)
    u0 = cfgmod.build_initial(cfg, problem)
    scheme = cfgmod.build_scheme(cfg)
    return problem, g, u0, scheme


def cmd_list(args) -> int:
    problems = sorted(cfgmod.PROBLEM_PRESETS)
    studies = sorted(cfgmod.STUDY_PRESETS)
    if args.format == "structured":
        print(_json({"problems": problems, "studies": studies}), end="")
        return 0
    for name in problems:
        kind = cfgmod.PROBLEM_PRESETS[name]["problem"]["kind"]
        print(f"problem  {name}  (kind={kind})")
    for name in studies:
        print(f"study    {name}")
    return 0


def cmd_run(args) -> int:
    cfg = _apply_overrides(cfgmod.resolve_config(args.config), args)
    out = Path(args.out)
    problem, g, u0, scheme = _build_all(cfg)
    rc = cfg.get("run", {})
    T = float(rc.get("t_final", 1.0))
    n_steps = int(rc.get("n_steps", 10))
    rng = np.random.default_rng(int(cfg.get("seed", 0)))
    if isinstance(g, ZeroNonlinearity):
        lip = 0.0
    else:
        radius = 0.25 * max(problem.v_norm(np.asarray(u0)), 1.0)
        lip = estimate_lipschitz(g, problem, np.asarray(u0), radius, (0.0, T),
                                 n_samples=120, rng=rng)
    record = run(u0, T, n_steps, scheme, problem, g, lip)
    summary = record.summary()
    summary["config"] = cfg.get("name", "custom")
    summary["seed"] = int(cfg.get("seed", 0))
    summary["lipschitz"] = lip
    summary["terminal_v_norm"] = problem.v_norm(record.states[-1])
    if isinstance(g, ZeroNonlinearity) and record.status == "ok":
        exact = problem.apply(record.times[-1], np.asarray(u0))
        summary["terminal_error_vs_linear"] = problem.v_norm(record.states[-1] - exact)
    if isinstance(problem, WaveProblem) and record.status == "ok":
        e0 = problem.modal_energy(np.asarray(u0))
        e1 = problem.modal_energy(record.states[-1])
        summary["modal_energy_drift"] = float(np.max(np.abs(e1 - e0)))
    _write(out, "resolved_config.yaml", cfgmod.dump_config(cfg))
    _write(out, "trajectory.txt", "\n".join(record.text_lines()) + "\n")
    _write(out, "summary.json", _json(summary))
    if record.status != "ok":
        print(f"run failed ({record.status}): {record.error}", file=sys.stderr)
    return _STATUS_CODES.get(record.status, 1)


def cmd_convergence(args) -> int:
    cfg = _apply_overrides(cfgmod.resolve_config(args.config), args)
    out = Path(args.out)
    problem, g, u0, scheme = _build_all(cfg)
    plan = cfgmod.build_plan(cfg)
    plan.scheme = scheme
    report = convergence_study(plan, problem, g, u0)
    _write(out, "resolved_config.yaml", cfgmod.dump_config(cfg))
    _write(out, "study.csv", "\n".join(report.csv_lines()) + "\n")
    _write(out, "study.json", _json(report.summary()))
    line = (f"{report.problem_id}: median EOC {report.median_eoc:.3f} "
            f"(predicted {report.predicted_order:.3f}) "
            f"{'PASS' if report.passed else 'FAIL'}")
    print(line)
    if report.passed:
        return 0
    print(f"study failed: {report.abort_reason}", file=sys.stderr)
    # a run abort reads "<status>: <error>"; any other failure is a verdict
    return _STATUS_CODES.get(report.abort_reason.partition(":")[0], 6)


def cmd_smoothing(args) -> int:
    cfg = _apply_overrides(cfgmod.resolve_config(args.config), args)
    out = Path(args.out)
    problem = cfgmod.build_problem(cfg)
    sc = cfg.get("smoothing", {})
    p = float(sc.get("p", problem.p))
    r = float(sc.get("r", problem.r))
    t_lo = float(sc.get("t_min", 1e-4))
    t_hi = float(sc.get("t_max", 1e-2))
    npts = int(sc.get("points", 7))
    rng = np.random.default_rng(int(cfg.get("seed", 0)))
    report = measure_smoothing(problem, p, r, np.geomspace(t_lo, t_hi, npts), rng=rng)
    lines = ["t,proxy,resolved"]
    lines += [f"{t:.8g},{v:.8e},{int(ok)}" for t, v, ok in report.rows]
    _write(out, "resolved_config.yaml", cfgmod.dump_config(cfg))
    _write(out, "smoothing.csv", "\n".join(lines) + "\n")
    _write(out, "smoothing.json", _json({
        "slope": report.slope,
        "alpha_declared": report.alpha_declared,
        "rows": [[t, v, bool(ok)] for t, v, ok in report.rows],
    }))
    print(f"fitted slope {report.slope:.4f} (declared alpha "
          f"{report.alpha_declared:.4f})")
    return 0


def cmd_selftest(args) -> int:
    import math
    from .gronwall import gronwall_bound
    from .lagrange import build_lagrange, default_nodes, moment_residual
    from .phi import phi

    checks = []
    lag = build_lagrange(default_nodes(3))
    res = max(abs(moment_residual(lag, tau, 1.0, k))
              for tau in np.linspace(0, 1, 11) for k in range(3))
    checks.append(("lagrange moment identities", res < 1e-10))
    checks.append(("phi_1(1) = e - 1", abs(phi(1, 1.0) - (math.e - 1.0)) < 1e-12))
    b = gronwall_bound([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0])
    checks.append(("gronwall doubling", abs(b[3] - 8.0) < 1e-12))
    cfg = cfgmod.resolve_config("heat-torus-1d")
    problem, g, u0, scheme = _build_all(cfg)
    v1 = problem.apply(0.3, problem.apply(0.2, u0))
    v2 = problem.apply(0.5, u0)
    checks.append(("heat semigroup law", problem.v_norm(v1 - v2) < 1e-11))
    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    return 0 if ok else 1


def _add_common(sp, with_overrides=True):
    sp.add_argument("--config", required=True,
                    help="config file path or shipped preset name")
    sp.add_argument("--out", default="expsplit-out", help="output directory")
    sp.add_argument("--seed", type=int, default=None)
    if with_overrides:
        sp.add_argument("--h", type=float, default=None, help="step size override")
        sp.add_argument("--t-final", dest="t_final", type=float, default=None)
        sp.add_argument("--stages", type=int, default=None)
        sp.add_argument("--grid", type=int, default=None, help="grid size override")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="expsplit",
        description="exponential splitting integrators and their convergence harness")
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("list", help="list shipped problems and studies")
    sp.add_argument("--format", choices=("csv", "structured"), default="csv")
    sp.set_defaults(func=cmd_list)
    sp = sub.add_parser("run", help="single trajectory run")
    _add_common(sp)
    sp.set_defaults(func=cmd_run)
    sp = sub.add_parser("convergence", help="convergence-order study")
    _add_common(sp)
    sp.set_defaults(func=cmd_convergence)
    sp = sub.add_parser("smoothing", help="propagator smoothing slopes")
    _add_common(sp, with_overrides=False)
    sp.set_defaults(func=cmd_smoothing)
    sp = sub.add_parser("selftest", help="quick internal consistency checks")
    sp.set_defaults(func=cmd_selftest)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExpsplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
