import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import expsplit
from expsplit import cli
from expsplit import config as cfgmod
from expsplit.cli import main
from expsplit.errors import ValidationError
from expsplit.harness import ConvergenceReport, StudyPlan
from expsplit.integrator import SchemeSpec
from expsplit.nonlinearities import PowerNonlinearity, ZeroNonlinearity
from expsplit.propagators import HeatTorusProblem, OUProblem, WaveProblem


def src_env():
    """The environment of a subprocess that imports this expsplit."""
    src = str(Path(expsplit.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


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
        assert cfg["study"]["check_smoothing"] is True
        assert cfg["name"] == "heat-frac-s2"

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

    def test_too_small_ou_grid_exits_two_without_traceback(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "expsplit.cli", "run", "--config", "ou-1d",
             "--grid", "2", "--out", str(tmp_path / "out")],
            env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "n >= 4" in proc.stderr

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

    def test_ou_l1_to_linf_runs_without_traceback(self, tmp_path, capsys):
        cfg = cfgmod.resolve_config("ou-1d")
        cfg["problem"].update(p=1, r=float("inf"))
        cfg["smoothing"] = {"t_min": 1e-2, "t_max": 1e-1}  # widths above 2 dx
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


class TestCliSelftest:
    def test_all_checks_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out


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
print(json.dumps({"scipy_at_import": "scipy" in loaded, "new_numpy": new}))
"""


class TestImportFootprint:
    def test_no_scipy_and_no_numpy_module_loaded_while_running(self):
        proc = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"scipy_at_import": False, "new_numpy": []}
