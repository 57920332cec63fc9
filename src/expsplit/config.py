"""Config parsing and the registry of shipped problems and studies.

Configs are nested key-value documents (YAML).  Every CLI subcommand
consumes the same schema; presets below are plain config dicts, so a
shipped study and a user config go through identical validation.
"""

from __future__ import annotations

import copy

import numpy as np
import yaml

from .errors import ValidationError
from .integrator import SchemeSpec
from .nonlinearities import (AdvectionNonlinearity, PowerNonlinearity,
                             WaveCubic, ZeroNonlinearity)
from .propagators import HeatTorusProblem, OUProblem, WaveProblem
from .harness import StudyPlan

__all__ = ["load_config", "dump_config", "build_problem", "build_nonlinearity",
           "build_initial", "build_scheme", "build_plan", "PROBLEM_PRESETS",
           "STUDY_PRESETS", "resolve_config"]


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ValidationError(f"config parse error: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a mapping")
    return cfg


def dump_config(cfg: dict) -> str:
    return yaml.safe_dump(cfg, sort_keys=True)


def build_problem(cfg: dict):
    pc = cfg.get("problem")
    if not isinstance(pc, dict) or "kind" not in pc:
        raise ValidationError("config needs a problem section with a kind")
    kind = pc["kind"]
    t_max = float(cfg.get("run", {}).get("t_final", 1.0)) + 1e-9
    if kind == "heat":
        return HeatTorusProblem(
            dim=int(pc.get("dim", 1)), n=int(pc.get("n", 64)),
            p=float(pc.get("p", 2)), r=float(pc.get("r", 2)),
            w_choice=pc.get("w_choice", "V"), t_max=t_max)
    if kind == "ou":
        return OUProblem(
            b=float(pc.get("b", -1.0)), q=float(pc.get("q", 2.0)),
            box=float(pc.get("box", 12.0)), n=int(pc.get("n", 512)),
            p=float(pc.get("p", 2)), r=float(pc.get("r", 2)),
            w_choice=pc.get("w_choice", "V"), t_max=t_max)
    if kind == "wave":
        return WaveProblem(n_modes=int(pc.get("n_modes", 32)),
                           alpha_w=float(pc.get("alpha_w", 1.0)),
                           t_max=max(t_max, 2.0))
    raise ValidationError(f"unknown problem kind {kind!r}")


def build_nonlinearity(cfg: dict, problem):
    nc = cfg.get("nonlinearity", {"kind": "none"})
    kind = nc.get("kind", "none")
    if kind in ("none", None):
        return ZeroNonlinearity()
    if kind == "power":
        return PowerNonlinearity(alpha=float(nc.get("alpha", 3.0)),
                                 coeff=float(nc.get("coeff", -1.0)))
    if kind == "advection":
        return AdvectionNonlinearity(problem)
    if kind == "wave_cubic":
        if not isinstance(problem, WaveProblem):
            raise ValidationError("wave_cubic needs the wave problem")
        return WaveCubic(problem)
    raise ValidationError(f"unknown nonlinearity kind {kind!r}")


def build_initial(cfg: dict, problem):
    ic = cfg.get("initial", {})
    kind = ic.get("kind", "default")
    amp = float(ic.get("amplitude", 0.5))
    if isinstance(problem, HeatTorusProblem):
        x = problem.grid()
        if problem.dim == 2:
            xx, yy = x
            return amp * (np.sin(xx) * np.sin(yy) + 0.3 * np.cos(xx))
        if kind in ("default", "smooth"):
            return amp * (np.sin(x) + 0.4 * np.cos(2 * x) + 0.2 * np.sin(3 * x))
        if kind == "rough":
            # fixed-phase Fourier profile with slow |k|^-decay coefficient
            decay = float(ic.get("decay", 1.5))
            u = np.zeros_like(x)
            for k in range(1, problem.n // 2):
                u += np.sin(k * x + 0.7 * k * k) / k ** decay
            return amp * u / np.max(np.abs(u))
        raise ValidationError(f"unknown heat initial kind {kind!r}")
    if isinstance(problem, OUProblem):
        sigma = float(ic.get("sigma", 1.0))
        return amp * np.exp(-problem.x ** 2 / (2.0 * sigma ** 2))
    if isinstance(problem, WaveProblem):
        x = problem.x
        w0 = amp * (np.sin(x) + 0.3 * np.sin(2 * x))
        w1 = np.zeros_like(x)
        return problem.encode(w0, w1)
    raise ValidationError("no initial data rule for this problem")


def build_scheme(cfg: dict) -> SchemeSpec:
    sc = cfg.get("scheme", {})
    nodes = sc.get("nodes")
    if nodes is not None:
        return SchemeSpec.with_nodes([float(c) for c in nodes])
    return SchemeSpec.with_stages(int(sc.get("stages", 1)))


def build_plan(cfg: dict) -> StudyPlan:
    st = cfg.get("study")
    if not isinstance(st, dict):
        raise ValidationError("config needs a study section")
    rc = cfg.get("run", {})
    pc = cfg.get("problem", {})
    plan = StudyPlan(
        problem_id=cfg.get("name", pc.get("kind", "problem")),
        scheme=build_scheme(cfg),
        h_list=[float(h) for h in st.get("h_list", [])],
        horizon=float(rc.get("t_final", 1.0)),
        ref_factor=int(st.get("ref_factor", 64)),
        eoc_tol=float(st.get("eoc_tol", 0.3)),
        strip_radius_frac=float(st.get("strip_radius_frac", 0.25)),
        seed=int(cfg.get("seed", 0)))
    plan.validate()
    return plan


PROBLEM_PRESETS: dict[str, dict] = {
    "heat-torus-1d": {
        "name": "heat-torus-1d",
        "problem": {"kind": "heat", "dim": 1, "n": 64, "p": 2, "r": 2,
                    "w_choice": "V"},
        "nonlinearity": {"kind": "power", "alpha": 3, "coeff": -1.0},
        "run": {"t_final": 0.5, "n_steps": 50},
        "seed": 0,
    },
    "heat-torus-2d": {
        "name": "heat-torus-2d",
        "problem": {"kind": "heat", "dim": 2, "n": 32, "p": 2, "r": 2,
                    "w_choice": "V"},
        "nonlinearity": {"kind": "power", "alpha": 3, "coeff": -1.0},
        "run": {"t_final": 0.25, "n_steps": 25},
        "seed": 0,
    },
    "ou-1d": {
        "name": "ou-1d",
        "problem": {"kind": "ou", "b": -1.0, "q": 2.0, "box": 12.0, "n": 256,
                    "p": 2, "r": 2, "w_choice": "V"},
        "nonlinearity": {"kind": "power", "alpha": 3, "coeff": -1.0},
        "initial": {"amplitude": 0.8},
        "run": {"t_final": 0.25, "n_steps": 25},
        "seed": 0,
    },
    "wave-dirichlet-1d": {
        "name": "wave-dirichlet-1d",
        "problem": {"kind": "wave", "n_modes": 32, "alpha_w": 1.0},
        "nonlinearity": {"kind": "wave_cubic"},
        "run": {"t_final": 1.0, "n_steps": 100},
        "seed": 0,
    },
}

STUDY_PRESETS: dict[str, dict] = {
    "heat-linear": {
        "base": "heat-torus-1d",
        "name": "heat-linear",
        "nonlinearity": {"kind": "none"},
        "scheme": {"stages": 2},
        "study": {"h_list": [1 / 40, 1 / 80, 1 / 160, 1 / 320]},
    },
    "heat-cubic-s1": {
        "base": "heat-torus-1d",
        "name": "heat-cubic-s1",
        "scheme": {"stages": 1},
        "study": {"h_list": [1 / 40, 1 / 80, 1 / 160, 1 / 320, 1 / 640],
                  "eoc_tol": 0.15},
    },
    "heat-cubic-s2": {
        "base": "heat-torus-1d",
        "name": "heat-cubic-s2",
        "scheme": {"stages": 2},
        "study": {"h_list": [1 / 40, 1 / 80, 1 / 160, 1 / 320, 1 / 640],
                  "eoc_tol": 0.3},
    },
    "heat-frac-s2": {
        "base": "heat-torus-1d",
        "name": "heat-frac-s2",
        "problem": {"kind": "heat", "dim": 1, "n": 128, "p": 1, "r": 2,
                    "w_choice": "X"},
        "initial": {"kind": "rough", "amplitude": 0.6, "decay": 1.5},
        "scheme": {"stages": 2},
        "study": {"h_list": [1 / 40, 1 / 80, 1 / 160, 1 / 320, 1 / 640],
                  "eoc_tol": 0.3},
    },
    "wave-cubic-s2": {
        "base": "wave-dirichlet-1d",
        "name": "wave-cubic-s2",
        "scheme": {"stages": 2},
        "study": {"h_list": [1 / 20, 1 / 40, 1 / 80, 1 / 160],
                  "eoc_tol": 0.3},
    },
    "ou-cubic-s1": {
        "base": "ou-1d",
        "name": "ou-cubic-s1",
        "scheme": {"stages": 1},
        "study": {"h_list": [1 / 20, 1 / 40, 1 / 80, 1 / 160],
                  "eoc_tol": 0.15},
    },
}


def _merge(base: dict, over: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in over.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


# the keys the builders and the CLI read, per section ("" is the top
# level, and a problem's keys depend on its kind); run.h is the step that
# --h writes and resolved_config.yaml echoes
_KEYS = {
    "": {"name", "seed", "problem", "nonlinearity", "initial", "scheme", "run",
         "study"},
    "problem": {"heat": {"kind", "dim", "n", "p", "r", "w_choice"},
                "ou": {"kind", "b", "q", "box", "n", "p", "r", "w_choice"},
                "wave": {"kind", "n_modes", "alpha_w"}},
    "nonlinearity": {"kind", "alpha", "coeff"},
    "initial": {"kind", "amplitude", "decay", "sigma"},
    "scheme": {"stages", "nodes"},
    "run": {"t_final", "n_steps", "h"},
    "study": {"h_list", "ref_factor", "eoc_tol", "strip_radius_frac"},
}


def _check_keys(cfg: dict):
    """A ValidationError naming the first key that nothing reads; the keys
    of an unknown problem kind are left to build_problem's error."""
    for name, known in _KEYS.items():
        section = cfg.get(name) if name else cfg
        if not isinstance(section, dict):
            continue  # a missing or malformed section is its builder's error
        if name == "problem":
            known = known.get(section.get("kind"), section.keys())
        for key in section:
            if key not in known:
                where = f"{name}.{key}" if name else key
                raise ValidationError(f"unknown config key {where!r}")


def resolve_config(name_or_path: str) -> dict:
    """Resolve a preset name (problem or study) or load a config file; a
    key that nothing reads is a ValidationError."""
    if name_or_path in STUDY_PRESETS:
        preset = STUDY_PRESETS[name_or_path]
        base = PROBLEM_PRESETS[preset["base"]]
        over = {k: v for k, v in preset.items() if k != "base"}
        cfg = _merge(base, over)
    elif name_or_path in PROBLEM_PRESETS:
        cfg = copy.deepcopy(PROBLEM_PRESETS[name_or_path])
    else:
        cfg = load_config(name_or_path)
    _check_keys(cfg)
    return cfg
