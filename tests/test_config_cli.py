import copy
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import src_env
from expsplit import cli
from expsplit import config as cfgmod
from expsplit import harness
from expsplit.cli import main
from expsplit.errors import ValidationError
from expsplit.harness import ConvergenceReport, StudyPlan
from expsplit.integrator import SchemeSpec
from expsplit.nonlinearities import PowerNonlinearity, ZeroNonlinearity
from expsplit.propagators import HeatTorusProblem, OUProblem, WaveProblem


# a value other than the default for every key the key check accepts
KEY_VALUES = {
    "name": "other", "seed": 3,
    "dim": 2, "n": 16, "p": 1, "r": 4, "w_choice": "X", "b": -2.0, "q": 1.0,
    "box": 6.0, "n_modes": 8, "alpha_w": 2.0,
    "alpha": 2.0, "coeff": 0.5,
    "amplitude": 0.1, "decay": 0.5, "sigma": 2.0,
    "stages": 3, "nodes": [0.0, 1.0],
    "t_final": 0.5, "n_steps": 7,
    "h_list": [0.5, 0.25], "eoc_tol": 0.1,
}


def accepted_keys():
    """(id, base config, section, key) for every key of every kind in the
    key check's table; the base selects the kind and sets nothing else but
    the problem kind and a study sweep.  A kind key selects the entry and a
    section key names a section, so neither is a setting of its own."""
    cases = []
    for section, known in cfgmod._KEYS.items():
        for kind, keys in (known.items() if isinstance(known, dict) else [("", known)]):
            base = {"problem": {"kind": "heat"}, "study": {"h_list": [0.25, 0.125]}}
            if section == "initial":
                base["problem"]["kind"], base["initial"] = kind[0], {"kind": kind[1]}
            elif kind:
                base[section] = {"kind": kind}
            for key in sorted(keys - {"kind"} - set(cfgmod._KEYS)):
                name = "-".join(kind) if isinstance(kind, tuple) else kind
                cases.append((".".join(filter(None, (section, name, key))),
                              base, section, key))
    return cases


ACCEPTED_KEYS = accepted_keys()


def feed_attributes(digest, obj):
    """Hash obj by content: values, array dtype/shape/bytes, and for other
    objects the class plus every attribute, recursively.  The builders'
    specs are not hashed here: this oracle checks that a config key changes
    what is built, which a spec derived from the same keys would not show."""
    if isinstance(obj, np.ndarray) and not obj.dtype.hasobject:
        digest.update(f"{obj.dtype.str}{obj.shape}".encode())
        digest.update(np.ascontiguousarray(obj).tobytes())
    elif obj is None or isinstance(obj, (bool, int, float, complex, str, np.generic)):
        digest.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, (list, tuple, np.ndarray)):
        digest.update(f"{type(obj).__name__}[{len(obj)}".encode())
        for item in obj:
            feed_attributes(digest, item)
        digest.update(b"]")
    else:
        cls = type(obj)
        digest.update(f"{cls.__module__}.{cls.__qualname__}{{".encode())
        for name, value in sorted(vars(obj).items()):
            digest.update(f"{name}=".encode())
            feed_attributes(digest, value)
        digest.update(b"}")


def build_digest(cfg) -> str:
    """A content hash of everything the builders and the run section make
    of cfg."""
    problem = cfgmod.build_problem(cfg)
    built = (problem, cfgmod.build_nonlinearity(cfg, problem),
             cfgmod.build_initial(cfg, problem), cfgmod.build_scheme(cfg),
             cfgmod.build_plan(cfg), cli._run_steps(cfg))
    digest = hashlib.sha256()
    feed_attributes(digest, built)
    return digest.hexdigest()


class TestResolveConfig:
    def test_problem_preset_is_copied(self):
        cfg = cfgmod.resolve_config("heat-torus-1d")
        cfg["problem"]["n"] = 999
        assert cfgmod.PROBLEM_PRESETS["heat-torus-1d"]["problem"]["n"] == 64

    def test_study_preset_merges_over_base(self):
        cfg = cfgmod.resolve_config("heat-frac-s2")
        assert cfg["problem"]["p"] == 1
        assert cfg["problem"]["n"] == 128
        assert cfg["nonlinearity"]["kind"] == "power"  # inherited from base
        assert cfg["name"] == "heat-frac-s2"
        # a section of another kind replaces the base's, keys and all
        assert cfgmod.resolve_config("heat-linear")["nonlinearity"] == {"kind": "none"}

    def test_yaml_round_trip(self, tmp_path):
        cfg = cfgmod.resolve_config("ou-cubic-s1")
        path = tmp_path / "cfg.yaml"
        path.write_text(cfgmod.dump_config(cfg))
        assert cfgmod.resolve_config(str(path)) == cfg

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            cfgmod.resolve_config(str(tmp_path / "nope.yaml"))

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ValidationError):
            cfgmod.resolve_config(str(path))


# (preset, section, values, what the error line says): values that no
# builder can read, and kinds that no builder has a rule for
MALFORMED = [
    ("heat-torus-1d", "problem", {"p": "abc"}, "problem.p"),
    ("heat-torus-1d", "problem", {"p": True}, "problem.p must be a number"),
    ("heat-torus-1d", "problem", {"n": [1]}, "problem.n"),
    ("heat-torus-1d", "problem", {"n": 64.9}, "problem.n must be an integer"),
    ("ou-1d", "problem", {"n": 64.9}, "problem.n must be an integer"),
    ("wave-dirichlet-1d", "problem", {"alpha_w": None}, "problem.alpha_w"),
    ("heat-torus-1d", "nonlinearity", {"alpha": "x"}, "nonlinearity.alpha"),
    ("heat-torus-1d", "initial", {"amplitude": None}, "initial.amplitude"),
    ("heat-torus-1d", "initial", {"kind": "smooth"}, "initial.kind 'smooth'"),
    ("heat-torus-2d", "initial", {"kind": "rough"}, "initial.kind 'rough'"),
    ("ou-1d", "initial", {"kind": "bogus"}, "initial.kind 'bogus'"),
    ("wave-dirichlet-1d", "initial", {"kind": "rough"}, "initial.kind 'rough'"),
    ("heat-torus-1d", "scheme", {"stages": 2.7}, "scheme.stages must be an integer"),
    ("heat-torus-1d", "scheme", {"stages": True}, "scheme.stages must be an integer"),
    ("heat-torus-1d", "scheme", {"nodes": 0.5}, "scheme.nodes"),
    ("heat-torus-1d", "scheme", {"nodes": [0.0, 1.0], "stages": 2},
     "nodes or stages"),
    ("heat-torus-1d", "run", {"t_final": "x"}, "run.t_final"),
]


class TestConfigKeys:
    @pytest.mark.parametrize("name", sorted({**cfgmod.PROBLEM_PRESETS,
                                             **cfgmod.STUDY_PRESETS}))
    def test_every_preset_resolves(self, name, tmp_path):
        cfg = cfgmod.resolve_config(name)
        # a shortened study, as the benchmark runs it, from a config file
        cfg = cfgmod._merge(cfg, {"run": {"t_final": 0.05},
                                  "study": {"h_list": [1 / 40, 1 / 80]}})
        path = tmp_path / "cfg.yaml"
        path.write_text(cfgmod.dump_config(cfg))
        assert cfgmod.resolve_config(str(path)) == cfg

    def test_flag_overrides_resolve_again(self, tmp_path):
        # --h writes run.n_steps; the echoed resolved_config.yaml must load again
        out = tmp_path / "out"
        assert main(["run", "--config", "wave-dirichlet-1d", "--h", "0.25",
                     "--grid", "8", "--stages", "2", "--out", str(out)]) == 0
        cfg = cfgmod.resolve_config(str(out / "resolved_config.yaml"))
        assert cfg["run"] == {"t_final": 1.0, "n_steps": 4}
        assert cfg["problem"]["n_modes"] == 8

    @pytest.mark.parametrize("edit,key", [
        (lambda cfg: cfg["problem"].update(sobolov_v=True), "problem.sobolov_v"),
        (lambda cfg: cfg.update(smoothing={"p": 1, "t_min": 1e-4}), "smoothing"),
        (lambda cfg: cfg.setdefault("study", {}).update(check_smoothing=True),
         "study.check_smoothing"),
        (lambda cfg: cfg["problem"].update(n_modes=16), "problem.n_modes"),
        (lambda cfg: cfg["problem"].update(sobolev_v=True), "problem.sobolev_v"),
        (lambda cfg: cfg.setdefault("study", {}).update(ref_factor=128),
         "study.ref_factor"),
        (lambda cfg: cfg.setdefault("study", {}).update(strip_radius_frac=0.3),
         "study.strip_radius_frac"),
        (lambda cfg: cfg["run"].update(h=0.01), "run.h"),
        (lambda cfg: cfg.update(nonlinearity={"kind": "none", "alpha": 7, "coeff": 3}),
         "nonlinearity.alpha"),
        (lambda cfg: cfg.update(nonlinearity={"alpha": 7}), "nonlinearity.alpha"),
        (lambda cfg: cfg.update(initial={"decay": 0.1}), "initial.decay"),
        (lambda cfg: (cfg["problem"].update(dim=2), cfg.update(
            initial={"kind": "rough", "decay": 0.1, "sigma": 9})), "initial.sigma"),
    ])
    def test_unread_key_exits_two(self, tmp_path, capsys, edit, key):
        cfg = cfgmod.resolve_config("heat-torus-1d")
        edit(cfg)
        path = tmp_path / "dead.yaml"
        path.write_text(cfgmod.dump_config(cfg))
        out = tmp_path / "out"
        assert main(["smoothing", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"unknown config key '{key}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("preset,section,values,message", MALFORMED, ids=[
        f"{p}-{sec}.{'+'.join(v)}" for p, sec, v, _ in MALFORMED])
    def test_malformed_value_exits_two(self, tmp_path, capsys, preset, section,
                                       values, message):
        cfg = cfgmod.resolve_config(preset)
        cfg.setdefault(section, {}).update(values)
        path = tmp_path / "bad.yaml"
        path.write_text(cfgmod.dump_config(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("section,flags", [
        ("run", ["--t-final", "0.5"]), ("scheme", ["--stages", "2"]),
        ("problem", ["--grid", "8"])])
    def test_flag_into_malformed_section_exits_two(self, tmp_path, capsys,
                                                   section, flags):
        cfg = cfgmod.resolve_config("heat-torus-1d")
        cfg[section] = 5
        path = tmp_path / "bad.yaml"
        path.write_text(cfgmod.dump_config(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"section '{section}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("case", ACCEPTED_KEYS, ids=[c[0] for c in ACCEPTED_KEYS])
    def test_every_accepted_key_changes_the_build(self, case):
        # a key the check accepts but no builder reads would leave it equal
        _, base, section, key = case
        changed = copy.deepcopy(base)
        (changed.setdefault(section, {}) if section else changed)[key] = KEY_VALUES[key]
        cfgmod._check_keys(changed)
        assert build_digest(changed) != build_digest(base)


class TestBuilders:
    def test_build_each_problem_kind(self):
        heat = cfgmod.build_problem(cfgmod.resolve_config("heat-torus-1d"))
        assert isinstance(heat, HeatTorusProblem)
        ou = cfgmod.build_problem(cfgmod.resolve_config("ou-1d"))
        assert isinstance(ou, OUProblem)
        wave = cfgmod.build_problem(cfgmod.resolve_config("wave-dirichlet-1d"))
        assert isinstance(wave, WaveProblem)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            cfgmod.build_problem({"problem": {"kind": "schroedinger"}})

    def test_missing_problem_section_rejected(self):
        with pytest.raises(ValidationError):
            cfgmod.build_problem({"run": {}})

    def test_nonlinearity_default_is_zero(self):
        problem = HeatTorusProblem(dim=1, n=16)
        g = cfgmod.build_nonlinearity({}, problem)
        assert isinstance(g, ZeroNonlinearity)

    def test_wave_cubic_requires_wave_problem(self):
        problem = HeatTorusProblem(dim=1, n=16)
        with pytest.raises(ValidationError):
            cfgmod.build_nonlinearity({"nonlinearity": {"kind": "wave_cubic"}},
                                      problem)

    def test_power_nonlinearity_built_with_params(self):
        problem = HeatTorusProblem(dim=1, n=16)
        g = cfgmod.build_nonlinearity(
            {"nonlinearity": {"kind": "power", "alpha": 2.0, "coeff": 0.5}},
            problem)
        assert isinstance(g, PowerNonlinearity)
        assert g.eval(0.0, np.array([3.0]))[0] == pytest.approx(4.5)

    def test_scheme_from_stages_and_nodes(self):
        assert cfgmod.build_scheme({"scheme": {"stages": 3}}).s == 3
        spec = cfgmod.build_scheme({"scheme": {"nodes": [0.0, 1.0]}})
        assert spec.nodes.nodes == (0.0, 1.0)
        assert cfgmod.build_scheme({}).s == 1

    def test_build_plan_validates(self):
        cfg = cfgmod.resolve_config("heat-cubic-s2")
        plan = cfgmod.build_plan(cfg)
        assert isinstance(plan, StudyPlan)
        assert plan.problem_id == "heat-cubic-s2"
        cfg["study"]["h_list"] = [0.3, 0.15]
        with pytest.raises(ValidationError):
            cfgmod.build_plan(cfg)
        for h_list in ([0.0, 0.1], [float("nan"), 0.1], [float("inf")] * 2):
            cfg["study"]["h_list"] = h_list
            with pytest.raises(ValidationError, match="positive"):
                cfgmod.build_plan(cfg)
        cfg["study"]["h_list"] = [0.1, 0.05]
        cfg["run"]["t_final"] = 0.0
        with pytest.raises(ValidationError, match="positive"):
            cfgmod.build_plan(cfg)

    def test_rough_initial_is_normalized(self):
        cfg = cfgmod.resolve_config("heat-frac-s2")
        problem = cfgmod.build_problem(cfg)
        u0 = cfgmod.build_initial(cfg, problem)
        assert np.max(np.abs(u0)) == pytest.approx(0.6)


class TestCliList:
    def test_lists_shipped_names(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("heat-torus-1d", "ou-1d", "wave-dirichlet-1d",
                     "heat-cubic-s2"):
            assert name in out

    def test_structured_format_is_json(self, capsys):
        assert main(["list", "--format", "structured"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "heat-torus-1d" in data["problems"]
        assert "ou-cubic-s1" in data["studies"]

    def test_empty_registry_still_exits_clean(self, capsys, monkeypatch):
        monkeypatch.setattr(cfgmod, "PROBLEM_PRESETS", {})
        monkeypatch.setattr(cfgmod, "STUDY_PRESETS", {})
        assert main(["list"]) == 0
        assert capsys.readouterr().out == ""


class TestCliRun:
    def test_linear_heat_run_matches_flow(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", "heat-linear", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "ok"
        assert summary["terminal_error_vs_linear"] <= 1e-11
        assert (out / "trajectory.txt").exists()
        resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
        assert resolved["nonlinearity"]["kind"] == "none"

    def test_wave_linear_run_reports_energy_drift(self, tmp_path):
        cfg = {
            "name": "wave-linear",
            "problem": {"kind": "wave", "n_modes": 32, "alpha_w": 1.0},
            "nonlinearity": {"kind": "none"},
            "run": {"t_final": 1.0, "n_steps": 50},
        }
        path = tmp_path / "wave.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["modal_energy_drift"] < 1e-11
        assert summary["terminal_error_vs_linear"] <= 1e-11

    def test_overrides_recorded_in_resolved_config(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", "heat-linear", "--out", str(out),
                     "--t-final", "0.5", "--h", "0.05", "--stages", "2",
                     "--seed", "7"])
        assert code == 0
        resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
        assert resolved["run"]["n_steps"] == 10
        assert resolved["scheme"]["stages"] == 2
        assert resolved["seed"] == 7

    def test_kappa_at_least_one_exits_with_contraction_code(self, tmp_path):
        cfg = {
            "name": "kappa-blowup",
            "problem": {"kind": "heat", "dim": 1, "n": 64},
            "nonlinearity": {"kind": "power", "alpha": 3, "coeff": -1.0},
            "initial": {"amplitude": 4.0},
            "run": {"t_final": 1.0, "n_steps": 1},
            "scheme": {"stages": 1},
        }
        path = tmp_path / "blowup.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "contraction"
        assert "kappa" in summary["error"]

    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--format", "structured"]])
    def test_unused_flags_rejected(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", "heat-linear", "--out", str(tmp_path / "out"),
                  *flag])
        assert exc.value.code == 2

    @pytest.mark.parametrize("preset", ["ou-1d", "wave-dirichlet-1d"])
    def test_advection_off_the_heat_torus_exits_two(self, tmp_path, capsys, preset):
        cfg = cfgmod.resolve_config(preset)
        cfg["nonlinearity"] = {"kind": "advection"}
        path = tmp_path / "adv.yaml"
        path.write_text(cfgmod.dump_config(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "advection" in err
        assert not out.exists()

    def test_too_small_ou_grid_exits_two_without_traceback(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "expsplit.cli", "run", "--config", "ou-1d",
             "--grid", "2", "--out", str(tmp_path / "out")],
            env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "n >= 4" in proc.stderr

    @pytest.mark.parametrize("flags,message", [
        (["--h", "nan"], "--h must be positive and finite"),
        (["--h", "inf"], "--h must be positive and finite"),
        (["--h", "0"], "--h must be positive and finite"),
        (["--h", "10"], "at least 1 step, got n_steps=0"),
        (["--t-final", "nan"], "--t-final must be positive and finite"),
        (["--t-final", "inf"], "--t-final must be positive and finite"),
        (["--t-final", "-0.5"], "--t-final must be positive and finite"),
    ])
    def test_bad_step_flags_exit_two(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        code = main(["run", "--config", "heat-torus-1d", "--out", str(out), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("run_section,message", [
        ({"t_final": float("nan")}, "t_final must be positive and finite"),
        ({"t_final": float("inf")}, "t_final must be positive and finite"),
        ({"t_final": 0.0}, "t_final must be positive and finite"),
        ({"n_steps": 0}, "at least 1 step, got n_steps=0"),
        ({"n_steps": float("inf")}, "n_steps"),
    ])
    def test_bad_run_section_exits_two(self, tmp_path, capsys, run_section, message):
        cfg = cfgmod.resolve_config("heat-torus-1d")
        cfg["run"].update(run_section)
        path = tmp_path / "bad.yaml"
        path.write_text(cfgmod.dump_config(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_fractional_n_steps_exits_two(self, tmp_path, capsys):
        cfg = cfgmod.resolve_config("heat-torus-1d")
        cfg["run"].update(t_final=0.5, n_steps=2.7)
        path = tmp_path / "bad.yaml"
        path.write_text(cfgmod.dump_config(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_steps must be an integer" in err
        assert not out.exists()
        # an integral float is a step count
        cfg["run"]["n_steps"] = 4.0
        path.write_text(cfgmod.dump_config(cfg))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["steps"] == 4

    def test_bad_config_path_exits_two(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "missing.yaml"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCliConvergence:
    def test_jobs_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--config", "heat-linear",
                  "--out", str(tmp_path / "out"), "--jobs", "2"])
        assert exc.value.code == 2

    def test_linear_study_passes_exactly(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["convergence", "--config", "heat-linear",
                     "--out", str(out)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        study = json.loads((out / "study.json").read_text())
        assert study["exact_linear"] is True
        assert max(study["errors"]) < 1e-11
        csv = (out / "study.csv").read_text().splitlines()
        assert csv[0] == "h,N,error,eoc,bound"
        assert len(csv) == 1 + len(study["h"])

    def test_nonlinear_errors_below_the_reference_are_rejected(self, tmp_path,
                                                               capsys):
        # a 5-stage sweep of the cubic heat study sits below the 4-stage
        # reference's accuracy; only a linear study may skip the order check
        code = main(["convergence", "--config", "heat-cubic-s2", "--stages", "5",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        out, err = capsys.readouterr()
        assert "PASS" not in out
        assert "reference rejected" in err

    def test_study_json_records_reference_key(self, tmp_path):
        keys = []
        for run in ("a", "b"):
            code = main(["convergence", "--config", "heat-linear",
                         "--out", str(tmp_path / run)])
            assert code == 0
            keys.append(json.loads((tmp_path / run / "study.json").read_text())
                        ["reference_key"])
        assert keys[0] == keys[1]
        assert re.fullmatch("[0-9a-f]{16}", keys[0])

    def test_invalid_sweep_rejected_before_running(self, tmp_path, capsys):
        cfg = cfgmod.resolve_config("heat-linear")
        cfg["study"]["h_list"] = [0.3, 0.15]
        path = tmp_path / "bad.yaml"
        path.write_text(cfgmod.dump_config(cfg))
        code = main(["convergence", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "divide" in capsys.readouterr().err
        for section, key, value in (("study", "h_list", [0.0, 0.1]),
                                    ("run", "t_final", 0.0)):
            bad = cfgmod.resolve_config("heat-linear")
            bad[section][key] = value
            path.write_text(cfgmod.dump_config(bad))
            code = main(["convergence", "--config", str(path),
                         "--out", str(tmp_path / "out")])
            assert code == 2
            assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", [".nan", "-0.5", "0", ".inf"])
    def test_eoc_tol_not_positive_and_finite_exits_two(self, tmp_path, capsys, tol):
        # before the check, .nan failed the study with an empty reason and
        # -0.5 with "outside 1.000+--0.5", both exit 6
        cfg = cfgmod._merge(cfgmod.resolve_config("heat-cubic-s1"), {
            "run": {"t_final": 0.05}, "study": {"h_list": [1 / 40, 1 / 80]}})
        path = tmp_path / "cfg.yaml"
        path.write_text(cfgmod.dump_config(cfg).replace(
            "eoc_tol: 0.15", f"eoc_tol: {tol}"))
        assert cfgmod.load_config(path)["study"]["eoc_tol"] != 0.15
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: eoc_tol must be positive and finite")
        assert not out.exists()


    def test_a_sweep_outside_the_strip_exits_4(self, tmp_path, capsys,
                                              monkeypatch):
        # the heat-cubic-s2 study of the study-heat-pair benchmark workload,
        # in a strip of 1e-9 times the reference's largest V-norm; the memo
        # keeps a context's radius, so this study builds its own
        monkeypatch.setattr(harness, "STRIP_RADIUS_FRAC", 1e-9)
        monkeypatch.setattr(harness, "_REFERENCE_MEMO", {})
        cfg = cfgmod._merge(cfgmod.resolve_config("heat-cubic-s2"), {
            "run": {"t_final": 0.05},
            "study": {"h_list": [1 / 40, 1 / 80, 1 / 160, 1 / 320]}})
        path = tmp_path / "cfg.yaml"
        path.write_text(cfgmod.dump_config(cfg))
        assert main(["convergence", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 4
        out, err = capsys.readouterr()
        assert "FAIL" in out
        assert ("study failed: strip: trajectory left the strip at t=0.025: "
                "distance 1.421e-05 > radius 9.708e-10") in err

    @pytest.mark.parametrize("reason,code", [
        ("contraction: kappa(h)=1.2 >= 1", 3),
        ("strip: left the tube at t=0.1", 4),
        ("divergence: stage iteration diverged", 5),
        ("median EOC 1.200 outside 2.000+-0.3", 6),
    ])
    def test_failed_study_exit_code(self, tmp_path, capsys, monkeypatch,
                                    reason, code):
        def failed(plan, problem, g, u0):
            return ConvergenceReport(problem_id=plan.problem_id, passed=False,
                                     abort_reason=reason)

        monkeypatch.setattr(cli, "convergence_study", failed)
        assert main(["convergence", "--config", "heat-linear",
                     "--out", str(tmp_path / "out")]) == code
        assert f"study failed: {reason}" in capsys.readouterr().err


class TestCliSmoothing:
    def test_heat_smoothing_flat_for_matching_exponents(self, tmp_path, capsys):
        cfg = cfgmod.resolve_config("heat-torus-1d")
        cfg["problem"]["n"] = 1024  # resolve the probe widths down to t=1e-4
        path = tmp_path / "cfg.yaml"
        path.write_text(cfgmod.dump_config(cfg))
        out = tmp_path / "out"
        code = main(["smoothing", "--config", str(path), "--out", str(out)])
        assert code == 0
        data = json.loads((out / "smoothing.json").read_text())
        assert abs(data["slope"]) < 0.1
        assert "slope" in capsys.readouterr().out

    def test_wave_has_no_probes(self, tmp_path, capsys):
        code = main(["smoothing", "--config", "wave-dirichlet-1d",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "WaveProblem" in err
        assert "Traceback" not in err

    def test_fractional_pair_recovers_quarter_slope(self, tmp_path):
        cfg = cfgmod.resolve_config("heat-torus-1d")
        cfg["problem"].update(n=1024, p=1, r=2)
        path = tmp_path / "cfg.yaml"
        path.write_text(cfgmod.dump_config(cfg))
        out = tmp_path / "out"
        assert main(["smoothing", "--config", str(path), "--out", str(out)]) == 0
        data = json.loads((out / "smoothing.json").read_text())
        assert data["slope"] == pytest.approx(-0.25, abs=0.05)
        assert data["alpha_declared"] == pytest.approx(0.25)

    @pytest.mark.parametrize("preset", ["heat-torus-1d", "ou-1d"])
    def test_preset_fits_its_declared_alpha_on_seven_resolved_rows(self, tmp_path,
                                                                   preset):
        out = tmp_path / "out"
        assert main(["smoothing", "--config", preset, "--out", str(out)]) == 0
        data = json.loads((out / "smoothing.json").read_text())
        assert data["slope"] == pytest.approx(-data["alpha_declared"], abs=0.05)
        rows = (out / "smoothing.csv").read_text().splitlines()[1:]
        assert len(rows) == 7 and all(row.endswith(",1") for row in rows)

    def test_ou_l1_to_linf_runs_without_traceback(self, tmp_path, capsys):
        cfg = cfgmod.resolve_config("ou-1d")
        cfg["problem"].update(p=1, r=float("inf"))
        text = cfgmod.dump_config(cfg)
        assert "r: .inf" in text
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["smoothing", "--config", str(path), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        data = json.loads((out / "smoothing.json").read_text())
        assert data["alpha_declared"] == 0.5
        assert data["slope"] == pytest.approx(-0.5, abs=0.05)


class TestCliSeed:
    @pytest.mark.parametrize("command,preset", [
        ("run", "heat-torus-1d"), ("convergence", "heat-linear"),
        ("smoothing", "heat-torus-1d")])
    @pytest.mark.parametrize("flag,config_seed,message", [
        (["--seed", "-1"], 0, "seed must be a non-negative integer, got -1"),
        ([], -3, "seed must be a non-negative integer, got -3"),
        ([], 1.5, "seed must be an integer, got 1.5"),
    ], ids=["negative-flag", "negative-config", "fractional-config"])
    def test_bad_seed_exits_two(self, tmp_path, capsys, command, preset, flag,
                                config_seed, message):
        cfg = cfgmod.resolve_config(preset)
        cfg["seed"] = config_seed
        path = tmp_path / "cfg.yaml"
        path.write_text(cfgmod.dump_config(cfg))
        out = tmp_path / "out"
        code = main([command, "--config", str(path), "--out", str(out), *flag])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()


# a fresh interpreter: import the package, then run a short wave run, the
# heat-linear study and a shortened wave study (whose EOC takes a median)
FOOTPRINT_SCRIPT = """
import json, sys, tempfile
import expsplit, expsplit.cli
loaded = set(sys.modules)
for argv in (["run", "--config", "wave-dirichlet-1d", "--t-final", "0.1"],
             ["convergence", "--config", "heat-linear"],
             ["convergence", "--config", "wave-cubic-s2", "--t-final", "0.1"]):
    with tempfile.TemporaryDirectory() as out:
        assert expsplit.cli.main(argv + ["--out", out]) == 0, argv
new = sorted(m for m in set(sys.modules) - loaded if m.split(".")[0] == "numpy")
print(json.dumps({"scipy_at_import": "scipy" in loaded, "new_numpy": new,
                  "numpy_ma": "numpy.ma" in sys.modules}))
"""


class TestImportFootprint:
    @pytest.fixture(scope="class")
    def footprint(self):
        proc = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_no_scipy_and_no_numpy_module_loaded_while_running(self, footprint):
        assert footprint["scipy_at_import"] is False
        assert footprint["new_numpy"] == []

    def test_numpy_ma_never_loaded(self, footprint):
        # numpy.ma costs about 20 ms to import and expsplit does not use it
        assert footprint["numpy_ma"] is False


# a fresh interpreter: the benchmark's tracer patches this package's names
TRACER_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
Tracer().install()
"""


class TestBenchmarkTracer:
    def test_tracer_installs(self):
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        proc = subprocess.run([sys.executable, "-c", TRACER_SCRIPT, str(perfbench)],
                              env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
