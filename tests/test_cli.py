"""End-to-end command-line checks (exit codes and printed artifacts)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import swapfit
from swapfit.cli import main
from swapfit.noise import NoiseModelSpec, default_noise_model


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["noise-inspect", "--bogus"]) == 1

    def test_bad_qubit_range(self, tmp_path, capsys):
        code = main(["run", "--qubits", "0:9", "--trials", "1",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == 1

    def test_noisy_mode_without_model(self, tmp_path, capsys):
        code = main(["reconstruct", "--target", "zero", "--mode", "noisy",
                     "--noise", "none"])
        assert code == 1


class TestModuleEntryPoint:
    """``python -m swapfit`` runs the CLI from a checkout, no install needed."""

    @staticmethod
    def run_module(*args):
        src = str(Path(swapfit.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        return subprocess.run([sys.executable, "-m", "swapfit", *args], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_help_exits_zero(self):
        proc = self.run_module("--help")
        assert proc.returncode == 0
        assert "run" in proc.stdout

    def test_bad_flag_exits_one(self):
        proc = self.run_module("run", "--bogus")
        assert proc.returncode == 1
        assert "error" in proc.stderr


class TestConfigValidation:
    """Bad run settings exit 1 at validation time, before any trial runs."""

    @pytest.mark.parametrize("flags", [
        ["--thresholds", "1.5"],
        ["--thresholds", "0.95,0"],
        ["--max-iters", "0"],
        ["--method", "nn", "--max-iters", "0"],
        ["--repr", "density", "--mode", "sampled", "--shots", "64"],
        ["--method", "es", "--repr", "density", "--mode", "noisy", "--noise", "default",
         "--shots", "64"],
        ["--objective", "uhlmann", "--mode", "sampled", "--shots", "64"],
        ["--method", "nn", "--objective", "uhlmann", "--mode", "noisy", "--noise", "default",
         "--shots", "64"],
        ["--thresholds", "0.95,0.95"],
        ["--method", "nn", "--thresholds", "0.99,0.95,0.99"],
    ])
    def test_bad_run_flags(self, tmp_path, capsys, flags):
        out = tmp_path / "exp"
        code = main(["run", *flags, "--trials", "1", "--out", str(out)])
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("field,value", [
        ("objective", "bogus"),
        ("thresholds", ["0.9"]),
        ("trials", None),
        ("max_iter", 5),
        ("thresholds", [0.95, 0.99, 0.95]),
        ("mode", ["exact"]),
    ])
    def test_bad_config_file_field(self, tmp_path, capsys, field, value):
        from swapfit.harness import ExperimentConfig

        raw = json.loads(ExperimentConfig(method="es", trials=1, max_iters=5).to_json())
        raw[field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "exp"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("field,value", [
        ("trials", 2.7),
        ("trials", True),
        ("max_iters", 5.0),
        ("max_workers", False),
        ("base_seed", "3"),
        ("qubit_range", [1.5, 2]),
        ("qubit_range", [1, True]),
    ])
    def test_non_integer_config_field(self, tmp_path, capsys, field, value):
        """A float or bool integer field is rejected by name, not truncated."""
        from swapfit.harness import ExperimentConfig

        raw = json.loads(ExperimentConfig(method="es", trials=1, max_iters=5).to_json())
        raw[field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "exp"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert f"{field} must be" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_density_reconstruct_rejects_stochastic_mode(self, tmp_path, capsys):
        """Density matrices are scored exactly, so a shot label would be false."""
        code = main(["reconstruct", "--target", "zero", "--repr", "density",
                     "--mode", "noisy", "--noise", "default", "--shots", "64"])
        assert code == 1
        assert "exactly" in capsys.readouterr().err
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"n_qubits": 1, "kind": "density",
                                    "re": [0.5, 0.0, 0.0, 0.5], "im": [0.0] * 4}))
        code = main(["reconstruct", "--target", str(path), "--mode", "sampled",
                     "--shots", "64"])
        assert code == 1
        assert "exactly" in capsys.readouterr().err

    def test_uhlmann_reconstruct_rejects_stochastic_mode(self, capsys):
        """The Uhlmann objective reads exactly, so a shot label would be false."""
        code = main(["reconstruct", "--target", "zero", "--objective", "uhlmann",
                     "--mode", "sampled", "--shots", "64"])
        assert code == 1
        assert "exactly" in capsys.readouterr().err

    def test_negative_gate_time_rejected(self, tmp_path, capsys):
        """A bad noise file exits 1 before any trial, not 2 from every trial."""
        raw = json.loads(NoiseModelSpec().to_json())
        raw["t_gate_ns"] = -5.0
        path = tmp_path / "noise.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "exp"
        code = main(["run", "--mode", "noisy", "--noise", str(path), "--shots", "64",
                     "--trials", "1", "--out", str(out)])
        assert code == 1
        assert "t_gate_ns" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("command", ["run", "noise-inspect"])
    @pytest.mark.parametrize("payload,named", [
        ({"p_bitflip": 0.001}, "p_dep1"),
        ([1, 2], "JSON object"),
        ({**json.loads(NoiseModelSpec().to_json()), "p_flip": 0.1}, "p_flip"),
        ({**json.loads(NoiseModelSpec().to_json()), "p_dep1": None}, "'p_dep1'"),
        ({**json.loads(NoiseModelSpec().to_json()), "p_dep1": True}, "'p_dep1'"),
        ({**json.loads(NoiseModelSpec().to_json()), "p_bitflip": "0.001"}, "'p_bitflip'"),
    ], ids=["missing-field", "array", "unknown-key", "null", "bool", "string"])
    def test_malformed_noise_file_rejected(self, tmp_path, capsys, command, payload, named):
        """A noise file that is not the six-field object exits 1, naming the fault."""
        path = tmp_path / "noise.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "exp"
        if command == "run":
            argv = ["run", "--mode", "noisy", "--noise", str(path), "--shots", "64",
                    "--trials", "1", "--out", str(out)]
        else:
            argv = ["noise-inspect", "--noise", str(path)]
        assert main(argv) == 1
        assert named in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_bogus_objective_rejected_at_construction(self):
        from swapfit.harness import ExperimentConfig

        with pytest.raises(ValueError, match="bogus"):
            ExperimentConfig(method="nn", objective="bogus")


class TestRunCommand:
    def test_tiny_run(self, tmp_path, capsys):
        out = tmp_path / "exp"
        code = main(["run", "--qubits", "1", "--trials", "2", "--seed", "4",
                     "--max-iters", "40", "--out", str(out)])
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "summary.json").exists()
        printed = capsys.readouterr().out
        assert "n=1" in printed
        assert "mean_oracle_fidelity" in printed

    def test_run_from_config_file(self, tmp_path, capsys):
        from swapfit.harness import ExperimentConfig
        from swapfit.swap_test import FidelityMode

        cfg = ExperimentConfig(method="es", qubit_range=(1, 1), trials=1,
                               mode=FidelityMode.exact(), base_seed=6,
                               max_iters=40, max_workers=1)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        code = main(["run", "--config", str(path),
                     "--out", str(tmp_path / "exp")])
        assert code == 0
        summary = json.loads((tmp_path / "exp" / "summary.json").read_text())
        assert summary["config"]["max_workers"] == 1
        assert ExperimentConfig.from_json(json.dumps(summary["config"])) == cfg

    def test_summary_matches_csv(self, tmp_path):
        out = tmp_path / "exp"
        main(["run", "--qubits", "1", "--trials", "3", "--seed", "2",
              "--max-iters", "40", "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        rows = (out / "results.csv").read_text().strip().splitlines()
        assert summary["per_qubit_count"]["1"]["trials"] == len(rows) - 1


class TestReconstructCommand:
    def test_preset_trace_output(self, capsys):
        code = main(["reconstruct", "--target", "hadamard", "--qubits", "1",
                     "--seed", "3", "--max-iters", "40"])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("epoch 1: fidelity")
        assert "done:" in printed

    def test_stores_solution(self, tmp_path, capsys):
        store = tmp_path / "store"
        code = main(["reconstruct", "--target", "zero", "--seed", "1",
                     "--max-iters", "40", "--store", str(store),
                     "--label", "cli-zero"])
        assert code == 0
        assert "cli-zero" in capsys.readouterr().out
        assert (store / "cli-zero.json").exists()

    def test_target_file(self, tmp_path, capsys):
        from swapfit.harness import preset_target

        spec = preset_target("random", 1, seed=5)
        path = tmp_path / "t.json"
        path.write_text(spec.to_json())
        code = main(["reconstruct", "--target", str(path), "--seed", "5",
                     "--max-iters", "60"])
        assert code == 0

    def test_target_file_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text("[1]")
        assert main(["reconstruct", "--target", str(path)]) == 1
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("record,named", [
        ({"n_qubits": 1, "re": [1.0, 0.0], "im": None}, "'im'"),
        ({"n_qubits": 2, "re": [1.0, 0.0, 0.0, 0.0], "im": [0.0]}, "'im'"),
        ({"n_qubits": 1, "re": [float("nan"), 0.0], "im": [0.0, 0.0]}, "'re'"),
        ({"n_qubits": 1, "re": [1.0, "0"], "im": [0.0, 0.0]}, "'re'"),
        ({"n_qubits": None, "re": [1.0, 0.0], "im": [0.0, 0.0]}, "'n_qubits'"),
        ({"n_qubits": 1.7, "re": [1.0, 0.0], "im": [0.0, 0.0]}, "'n_qubits'"),
        ({"n_qubits": True, "re": [1.0, 0.0], "im": [0.0, 0.0]}, "'n_qubits'"),
    ], ids=["null", "short", "nan", "string", "null-n", "float-n", "bool-n"])
    def test_target_file_field_rejected(self, tmp_path, capsys, record, named):
        """n_qubits must be an integer and the amplitudes two lists of 2^n finite
        numbers; the error names the field."""
        path = tmp_path / "t.json"
        path.write_text(json.dumps(record))
        assert main(["reconstruct", "--target", str(path)]) == 1
        assert f"{named} must be " in capsys.readouterr().err

    @pytest.mark.parametrize("preset", ["zero", "one", "hadamard"])
    def test_preset_qubits_out_of_bound(self, capsys, preset):
        """Rejected by the target bound before 2**40 amplitudes are allocated."""
        assert main(["reconstruct", "--target", preset, "--qubits", "40"]) == 1
        assert "n_qubits must be in [1, 10], got 40" in capsys.readouterr().err


class TestEntropyReportCommand:
    def make_traces(self, tmp_path):
        out = tmp_path / "exp"
        main(["run", "--qubits", "2", "--trials", "2", "--seed", "8",
              "--max-iters", "60", "--out", str(out)])
        return out / "traces.json"

    def test_report_to_stdout(self, tmp_path, capsys):
        traces = self.make_traces(tmp_path)
        code = main(["entropy-report", "--traces", str(traces)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "target_entropy,reconstructed_entropy" in printed
        assert "max |delta entropy|" in printed

    def test_report_to_file(self, tmp_path, capsys):
        traces = self.make_traces(tmp_path)
        dest = tmp_path / "entropy.csv"
        code = main(["entropy-report", "--traces", str(traces),
                     "--out", str(dest)])
        assert code == 0
        lines = dest.read_text().strip().splitlines()
        assert len(lines) == 1 + 2  # header + one row per trial

    def test_non_finite_amplitude_rejected(self, tmp_path, capsys):
        traces = self.make_traces(tmp_path)
        entries = json.loads(traces.read_text())
        entries[0]["solution"]["re"][0] = float("nan")
        traces.write_text(json.dumps(entries))
        assert main(["entropy-report", "--traces", str(traces)]) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_missing_traces(self, tmp_path, capsys):
        code = main(["entropy-report", "--traces", str(tmp_path / "no.json")])
        assert code == 1


class TestNoiseInspectCommand:
    def test_default(self, capsys):
        assert main(["noise-inspect"]) == 0
        printed = capsys.readouterr().out
        assert "cx_composite" in printed
        assert "completeness_residual" in printed

    def test_from_file(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(default_noise_model().to_json())
        assert main(["noise-inspect", "--noise", str(path)]) == 0

    def test_none_rejected(self, capsys):
        assert main(["noise-inspect", "--noise", "none"]) == 1


class TestTimingBudgetCommand:
    def test_feasible(self, capsys):
        code = main(["timing-budget", "--t-d-cq", "1e-6", "--t-d-qc", "1e-6",
                     "--t-p-c", "1e-6", "--tau-d", "1.0",
                     "--iterations", "100"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "feasible: True" in printed

    def test_infeasible(self, capsys):
        code = main(["timing-budget", "--t-d-cq", "1e-3", "--t-d-qc", "1e-3",
                     "--t-p-c", "1e-3", "--tau-d", "0.01",
                     "--iterations", "1000"])
        assert code == 0
        assert "feasible: False" in capsys.readouterr().out

    def test_missing_required_flag(self, capsys):
        assert main(["timing-budget", "--tau-d", "1.0"]) == 1

    @pytest.mark.parametrize("flag,value", [
        ("--t-d-cq", "nan"), ("--t-d-qc", "inf"), ("--t-p-c", "nan"),
        ("--tau-d", "inf"), ("--margin", "nan"),
    ])
    def test_non_finite_value_exits_one(self, capsys, flag, value):
        """A NaN or infinite budget is rejected by name, not a runtime failure."""
        argv = {"--t-d-cq": "0", "--t-d-qc": "0", "--t-p-c": "1", "--tau-d": "10"}
        argv[flag] = value
        code = main(["timing-budget", *(x for kv in argv.items() for x in kv),
                     "--iterations", "3"])
        assert code == 1
        field = flag.lstrip("-").replace("-", "_")
        field = "margin_factor" if field == "margin" else field
        assert f"{field} must be finite" in capsys.readouterr().err
