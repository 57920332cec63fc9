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


def _number(name: str, value) -> float:
    """value as a float; a ValidationError naming the key otherwise (a YAML
    true or false is not a number)."""
    if isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: {exc}") from exc


def _integer(name: str, value) -> int:
    """value as an int; a ValidationError naming the key unless it is
    integral (a YAML true or false is not)."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name}: {exc}") from exc
    if isinstance(value, bool) or as_int != value:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return as_int


def _numbers(name: str, values) -> list:
    """values as a list of floats; a ValidationError naming the key otherwise."""
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"{name} must be a list of numbers, got {values!r}")
    return [_number(name, v) for v in values]


def _section(cfg: dict, name: str) -> dict:
    """cfg's section name, {} when missing; a ValidationError unless a mapping."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ValidationError(f"config section {name!r} must be a mapping")
    return section


def build_problem(cfg: dict):
    pc = cfg.get("problem")
    if not isinstance(pc, dict) or "kind" not in pc:
        raise ValidationError("config needs a problem section with a kind")
    kind = pc["kind"]

    def number(key, default, cast=_number):
        return cast(f"problem.{key}", pc.get(key, default))

    if kind == "heat":
        return HeatTorusProblem(
            dim=number("dim", 1, _integer), n=number("n", 64, _integer),
            p=number("p", 2), r=number("r", 2), w_choice=pc.get("w_choice", "V"))
    if kind == "ou":
        return OUProblem(
            b=number("b", -1.0), q=number("q", 2.0), box=number("box", 12.0),
            n=number("n", 512, _integer), p=number("p", 2), r=number("r", 2),
            w_choice=pc.get("w_choice", "V"))
    if kind == "wave":
        return WaveProblem(n_modes=number("n_modes", 32, _integer),
                           alpha_w=number("alpha_w", 1.0))
    raise ValidationError(f"unknown problem kind {kind!r}")


def build_nonlinearity(cfg: dict, problem):
    nc = _section(cfg, "nonlinearity")
    kind = nc.get("kind", "none")
    if kind == "none":
        return ZeroNonlinearity()
    if kind == "power":
        return PowerNonlinearity(
            alpha=_number("nonlinearity.alpha", nc.get("alpha", 3.0)),
            coeff=_number("nonlinearity.coeff", nc.get("coeff", -1.0)))
    if kind == "advection":
        return AdvectionNonlinearity(problem)
    if kind == "wave_cubic":
        if not isinstance(problem, WaveProblem):
            raise ValidationError("wave_cubic needs the wave problem")
        return WaveCubic(problem)
    raise ValidationError(f"unknown nonlinearity kind {kind!r}")


def build_initial(cfg: dict, problem):
    """The problem's initial state: its default profile, or on the 1D heat
    torus a rough one; any other initial kind is a ValidationError."""
    ic = _section(cfg, "initial")
    kind = ic.get("kind", "default")
    amp = _number("initial.amplitude", ic.get("amplitude", 0.5))
    heat_1d = isinstance(problem, HeatTorusProblem) and problem.dim == 1
    if kind not in ("default", "rough") or (kind == "rough" and not heat_1d):
        raise ValidationError(f"initial.kind {kind!r} has no rule for this problem")
    if kind == "rough":
        # fixed-phase Fourier profile with slow |k|^-decay coefficient
        decay = _number("initial.decay", ic.get("decay", 1.5))
        x = problem.grid()
        u = np.zeros_like(x)
        for k in range(1, problem.n // 2):
            u += np.sin(k * x + 0.7 * k * k) / k ** decay
        return amp * u / np.max(np.abs(u))
    if heat_1d:
        x = problem.grid()
        return amp * (np.sin(x) + 0.4 * np.cos(2 * x) + 0.2 * np.sin(3 * x))
    if isinstance(problem, HeatTorusProblem):
        xx, yy = problem.grid()
        return amp * (np.sin(xx) * np.sin(yy) + 0.3 * np.cos(xx))
    if isinstance(problem, OUProblem):
        sigma = _number("initial.sigma", ic.get("sigma", 1.0))
        return amp * np.exp(-problem.x ** 2 / (2.0 * sigma ** 2))
    if isinstance(problem, WaveProblem):
        x = problem.x
        w0 = amp * (np.sin(x) + 0.3 * np.sin(2 * x))
        w1 = np.zeros_like(x)
        return problem.encode(w0, w1)
    raise ValidationError("no initial data rule for this problem")


def build_scheme(cfg: dict) -> SchemeSpec:
    sc = _section(cfg, "scheme")
    nodes = sc.get("nodes")
    if nodes is None:
        return SchemeSpec.with_stages(_integer("scheme.stages", sc.get("stages", 1)))
    if "stages" in sc:
        raise ValidationError("scheme takes nodes or stages, not both")
    return SchemeSpec.with_nodes(_numbers("scheme.nodes", nodes))


def build_plan(cfg: dict) -> StudyPlan:
    st = cfg.get("study")
    if not isinstance(st, dict):
        raise ValidationError("config needs a study section")
    plan = StudyPlan(
        problem_id=cfg.get("name", cfg.get("problem", {}).get("kind", "problem")),
        scheme=build_scheme(cfg),
        h_list=_numbers("study.h_list", st.get("h_list", [])),
        horizon=_number("run.t_final", _section(cfg, "run").get("t_final", 1.0)),
        eoc_tol=_number("study.eoc_tol", st.get("eoc_tol", 0.3)),
        seed=_integer("seed", cfg.get("seed", 0)))
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
    """base with over merged in, section by section; a section of another
    kind replaces base's, whose keys belong to the old kind."""
    out = copy.deepcopy(base)
    for k, v in over.items():
        old = out.get(k)
        if isinstance(v, dict) and isinstance(old, dict) \
                and v.get("kind", old.get("kind")) == old.get("kind"):
            out[k] = _merge(old, v)
        else:
            out[k] = copy.deepcopy(v)
    return out


# the keys the builders and the CLI read, per section ("" is the top
# level); where a section's keys depend on a kind, the section maps each
# kind to its keys: the problem's kind, the nonlinearity's kind, and for
# the initial data the problem's and its own kind
_KEYS = {
    "": {"name", "seed", "problem", "nonlinearity", "initial", "scheme", "run",
         "study"},
    "problem": {"heat": {"kind", "dim", "n", "p", "r", "w_choice"},
                "ou": {"kind", "b", "q", "box", "n", "p", "r", "w_choice"},
                "wave": {"kind", "n_modes", "alpha_w"}},
    "nonlinearity": {"none": {"kind"}, "power": {"kind", "alpha", "coeff"},
                     "advection": {"kind"}, "wave_cubic": {"kind"}},
    "initial": {("heat", "default"): {"kind", "amplitude"},
                ("heat", "rough"): {"kind", "amplitude", "decay"},
                ("ou", "default"): {"kind", "amplitude", "sigma"},
                ("wave", "default"): {"kind", "amplitude"}},
    "scheme": {"stages", "nodes"},
    "run": {"t_final", "n_steps"},
    "study": {"h_list", "eoc_tol"},
}


def _kind(cfg: dict, name: str):
    """The kind that selects the keys of cfg's section name."""
    if name == "problem":
        return cfg["problem"].get("kind")
    if name == "nonlinearity":
        return cfg["nonlinearity"].get("kind", "none")
    problem = cfg.get("problem")
    return (problem.get("kind") if isinstance(problem, dict) else None,
            cfg["initial"].get("kind", "default"))


def _check_keys(cfg: dict):
    """A ValidationError naming the first key that nothing reads; the keys
    of an unknown kind are left to its builder's error."""
    for name, known in _KEYS.items():
        section = cfg.get(name) if name else cfg
        if not isinstance(section, dict):
            continue  # a missing or malformed section is its builder's error
        if isinstance(known, dict):  # compared, not looked up: a kind may be a list
            kind = _kind(cfg, name)
            known = next((keys for k, keys in known.items() if k == kind), None)
            if known is None:
                continue
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
