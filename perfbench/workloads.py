"""Benchmark workloads: what each one runs, what it observes, and the
checks of those observations against the goldens in goldens/.

This module imports nothing from expsplit or numpy at import time, so the
runner and the self-test can use the checks without paying for them.
"""

from __future__ import annotations

import math

# Per-h terminal errors: the 1e-12 V-norm drift allowed for each of the two
# trajectories compared (sweep cell and reference).
ERROR_TOL = 2e-12
# run-heat2d terminal state, V-norm of the difference to the golden state.
STATE_TOL = 1e-12

# Each study workload is a shipped study preset with a shorter horizon (and
# for heat and OU a shorter step sweep), so that one sample takes a few
# seconds instead of 13-50 s.  Scheme, grid, nonlinearity, propagator path
# and reference refinement (ref_factor 64, 4-stage reference) are the
# preset's own; the per-step work is unchanged, only the step count shrinks.
WORKLOADS = {
    "study-heat-pair": {
        "kind": "study",
        "presets": ["heat-cubic-s1", "heat-cubic-s2"],
        "overrides": {"run": {"t_final": 0.05},
                      "study": {"h_list": [1 / 40, 1 / 80, 1 / 160, 1 / 320]}},
        "why": "two heat studies in one process that build identical 4-stage "
               "references: Fourier-diagonal phi-weights, pointwise cubic, "
               "64-point grid; the only workload where reference reuse shows",
    },
    "study-ou": {
        "kind": "study",
        "presets": ["ou-cubic-s1"],
        "overrides": {"run": {"t_final": 0.05},
                      "study": {"h_list": [1 / 20, 1 / 40, 1 / 80]}},
        "why": "OU study: the generic Gauss-Legendre stage_convolve fallback "
               "(one apply per node) and the dilation/rFFT plan cache; no "
               "diagonal transforms, nothing shared",
    },
    "study-wave": {
        "kind": "study",
        "presets": ["wave-cubic-s2"],
        "overrides": {"run": {"t_final": 0.1}},
        "why": "wave study: the nonlinearity dominates, two scipy DSTs per "
               "g.eval on 32 complex modes; no reference sharing",
    },
    "run-heat2d": {
        "kind": "run",
        "config": "heat-torus-2d",
        "grid": 128,
        "stages": 2,
        "h": 0.002,
        "why": "expsplit run on a 128x128 heat grid with s=2: the user's own "
               "scheme, 2D fftn, every state stored, CLI output writing",
    },
}


def _eoc_tol(errors) -> float:
    """Largest shift of log2(e_a/e_b) that ERROR_TOL on each error allows."""
    pairs = zip(errors, errors[1:])
    return max((ERROR_TOL / a + ERROR_TOL / b) / math.log(2.0) for a, b in pairs)


def check_study(observed: list, golden: list) -> list:
    """Mismatches between observed study outcomes and the golden ones.

    Each entry holds preset, passed, exit_status, errors and median_eoc.
    Verdict and exit status must be equal, each per-h error within
    ERROR_TOL, and the median EOC within the shift those errors allow.
    """
    if len(observed) != len(golden):
        return [f"{len(observed)} studies observed, {len(golden)} expected"]
    out = []
    for obs, gold in zip(observed, golden):
        name = gold["preset"]
        if obs["preset"] != name:
            out.append(f"study {obs['preset']} observed where {name} expected")
            continue
        for key in ("passed", "exit_status"):
            if obs[key] != gold[key]:
                out.append(f"{name}: {key} {obs[key]!r} != golden {gold[key]!r}")
        if len(obs["errors"]) != len(gold["errors"]):
            out.append(f"{name}: {len(obs['errors'])} errors, "
                       f"golden has {len(gold['errors'])}")
            continue
        for i, (e, g) in enumerate(zip(obs["errors"], gold["errors"])):
            if not abs(e - g) <= ERROR_TOL:
                out.append(f"{name}: error[{i}] {e!r} differs from golden "
                           f"{g!r} by more than {ERROR_TOL}")
        tol = _eoc_tol(gold["errors"])
        if not abs(obs["median_eoc"] - gold["median_eoc"]) <= tol:
            out.append(f"{name}: median EOC {obs['median_eoc']!r} != golden "
                       f"{gold['median_eoc']!r} (tolerance {tol:.2e})")
    return out


def check_run(observed: dict, golden: dict) -> list:
    """Mismatches of an `expsplit run` outcome against the golden one.

    observed holds exit_code, status, steps and terminal_diff, the V-norm
    of the terminal state minus the golden terminal state.
    """
    out = []
    for key in ("exit_code", "status", "steps"):
        if observed[key] != golden[key]:
            out.append(f"{key} {observed[key]!r} != golden {golden[key]!r}")
    if not observed["terminal_diff"] <= STATE_TOL:
        out.append(f"terminal state differs from golden by "
                   f"{observed['terminal_diff']!r} in V-norm (> {STATE_TOL})")
    return out
