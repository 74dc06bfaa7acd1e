"""End-to-end command-line checks (exit codes and printed artifacts)."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swapfit
from swapfit import cli, harness
from swapfit.cli import _build_mode, _subcommand, build_parser, main
from swapfit.harness import ExperimentConfig
from swapfit.noise import NoiseModelSpec, default_noise_model
from swapfit.prep import state_from_record
from swapfit.swap_test import DEFAULT_SHOTS, FidelityMode


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

    @pytest.mark.parametrize("argv,named", [
        (["run", "--config", "DIR", "--out", "OUT"], "DIR"),
        (["run", "--mode", "noisy", "--noise", "DIR", "--out", "OUT"], "DIR"),
        (["reconstruct", "--target", "DIR"], "DIR"),
        (["entropy-report", "--traces", "DIR"], "DIR"),
        (["noise-inspect", "--noise", "DIR"], "DIR"),
        (["run", "--out", "FILE"], "FILE"),
        (["reconstruct", "--target", "zero", "--store", "FILE"], "FILE"),
    ], ids=["run-config", "run-noise", "reconstruct-target", "entropy-traces",
            "inspect-noise", "run-out", "reconstruct-store"])
    def test_path_of_the_wrong_kind(self, tmp_path, capsys, monkeypatch, argv, named):
        """A directory given as an input file, or a file as a directory,
        exits 1 naming the path, before any trial or epoch runs."""
        paths = {"DIR": tmp_path / "dir", "FILE": tmp_path / "file", "OUT": tmp_path / "out"}
        paths["DIR"].mkdir()
        paths["FILE"].write_text("")

        def no_run(*args, **kwargs):
            raise AssertionError("an optimization ran")

        monkeypatch.setattr(harness, "_optimize", no_run)
        assert main([str(paths.get(arg, arg)) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert str(paths[named]) in captured.err
        assert captured.out == ""
        assert not paths["OUT"].exists()


    @pytest.mark.parametrize("name", ["results.csv", "summary.json", "traces.json"])
    def test_output_name_taken_by_a_directory(self, tmp_path, capsys, monkeypatch, name):
        """An output path that is not a regular file exits 1 naming it
        before any trial runs, and no other output file is written."""
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)

        def no_run(*args, **kwargs):
            raise AssertionError("an optimization ran")

        monkeypatch.setattr(harness, "_optimize", no_run)
        argv = ["run", "--method", "es", "--qubits", "1", "--trials", "3", "--out", str(out)]
        assert main(argv) == 1
        assert str(out / name) in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [name]

    def test_output_files_are_rewritten(self, tmp_path):
        """Regular files under the output names are overwritten, not rejected."""
        out = tmp_path / "o"
        out.mkdir()
        for name in ("results.csv", "summary.json", "traces.json"):
            (out / name).write_text("old\n")
        argv = ["run", "--method", "es", "--qubits", "1", "--trials", "1",
                "--max-iters", "2", "--out", str(out)]
        assert main(argv) == 0
        assert (out / "results.csv").read_text().startswith("trial_id,")
        assert json.loads((out / "summary.json").read_text())["failures"] == []


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


class TestImportSurface:
    """What ``import swapfit.cli`` loads, in a fresh interpreter: scipy is a
    test dependency only, and numpy.random is loaded up front rather than
    lazily inside the first run."""

    def test_cli_import(self):
        src = str(Path(swapfit.__file__).resolve().parents[1])
        code = ("import json, sys, swapfit.cli; "
                "print(json.dumps(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('scipy', 'numpy'))))")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)
        assert not [m for m in loaded if m.split(".")[0] == "scipy"]
        assert "numpy.random" in loaded


NOISE = json.loads(NoiseModelSpec(p_dep2=0.05).to_json())


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

    @pytest.mark.parametrize("command", ["run", "reconstruct"])
    @pytest.mark.parametrize("flags,named", [
        (["--mode", "exact", "--shots", "0"], "--shots"),
        (["--shots", "64"], "--shots"),
        (["--mode", "exact", "--noise", "default"], "--noise"),
        (["--mode", "sampled", "--noise", "default"], "--noise"),
        (["--mode", "sampled", "--shots", "64", "--noise", "none"], "--noise"),
    ])
    def test_flag_the_mode_ignores_rejected(self, tmp_path, capsys, command, flags, named):
        """A shot count or noise model the mode would not read exits 1 and
        names the flag, instead of running without it."""
        out = tmp_path / "exp"
        if command == "run":
            argv = ["run", *flags, "--trials", "1", "--out", str(out)]
        else:
            argv = ["reconstruct", "--target", "zero", "--max-iters", "1", *flags]
        assert main(argv) == 1
        assert f"does not read {named}" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("flags,want", [
        (["--mode", "sampled"], FidelityMode.sampled(DEFAULT_SHOTS)),
        (["--mode", "noisy"], FidelityMode.noisy(default_noise_model(), DEFAULT_SHOTS)),
        (["--mode", "noisy", "--shots", "64"], FidelityMode.noisy(default_noise_model(), 64)),
    ])
    def test_unset_mode_flags_take_defaults(self, flags, want):
        for command in (["run", "--out", "unused"], ["reconstruct", "--target", "zero"]):
            assert _build_mode(vars(build_parser().parse_args([*command, *flags]))) == want

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

    @pytest.mark.parametrize("config,named", [
        ({"method": "es", "mode": "exact", "noise": NOISE}, "mode exact does not read 'noise'"),
        ({"method": "es", "noise": NOISE}, "mode exact does not read 'noise'"),
        ({"method": "es", "mode": "sampled(64)", "noise": NOISE},
         "mode sampled does not read 'noise'"),
        ({"method": "es", "mode": "noisy(64)", "noise": None}, "'noise' is null"),
    ], ids=["exact", "no-mode", "sampled", "noisy-null"])
    def test_config_noise_the_mode_does_not_read(self, tmp_path, capsys, config, named):
        """A config file follows the --noise rule: a model only under the noisy
        mode, and null is no model, so it exits 1 instead of running without
        noise."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "trials": 1, "max_iters": 2}))
        out = tmp_path / "exp"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_bogus_objective_rejected_at_construction(self):
        from swapfit.harness import ExperimentConfig

        with pytest.raises(ValueError, match="bogus"):
            ExperimentConfig(method="nn", objective="bogus")


class TestDefaults:
    """Each run default lives on ExperimentConfig and each reconstruct default
    in reconstruct()'s signature; the CLI passes only the flags given."""

    def test_run_flags_are_config_fields(self):
        run = _subcommand(build_parser(), "run")
        dests = {a.dest for a in run._actions if a.option_strings} - {"help"}
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert dests - fields <= {"config", "out", "mode", "shots", "noise"}
        assert vars(run.parse_args(["--out", "d"])) == {"out": "d"}

    def test_unset_run_flags_take_config_defaults(self, tmp_path, monkeypatch):
        seen = []

        def spy(config, out_dir):
            seen.append(config)
            return {"per_qubit_count": {}, "failures": []}

        monkeypatch.setattr(cli, "run_experiment", spy)
        assert main(["run", "--out", str(tmp_path)]) == 0
        assert seen == [ExperimentConfig(method="es")]

    def test_unset_reconstruct_flags_take_its_defaults(self, monkeypatch):
        seen = []

        def spy(target, method, representation, mode, rng, thresholds, max_iters,
                objective, trial_id=0):
            seen.append((target.n_qubits, target.state.amplitudes.tolist(), method,
                         representation, mode, rng.seed, tuple(thresholds), max_iters,
                         objective, trial_id))
            raise RuntimeError("stop after the call")

        monkeypatch.setattr(harness, "_optimize", spy)
        with pytest.raises(RuntimeError, match="stop after the call"):
            harness.reconstruct(harness.preset_target("zero"))
        assert main(["reconstruct", "--target", "zero"]) == 2
        assert len(seen) == 2 and seen[0] == seen[1]


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

    @pytest.mark.parametrize("flags,named", [
        (["--mode", "noisy", "--shots", "0", "--noise", "bogus.json", "--trials", "7"],
         "--mode, --shots, --noise, --trials"),
        (["--method", "es"], "--method"),
        (["--seed=0", "--repr", "statevector"], "--seed, --repr"),
    ], ids=["mode-flags", "default-value", "equals-form"])
    def test_flags_next_to_config_rejected(self, tmp_path, capsys, flags, named):
        """The config file sets every run option, so any other flag but --out
        exits 1 and is named, even one equal to its default, before any
        output is written."""
        path = tmp_path / "cfg.json"
        path.write_text(ExperimentConfig(method="es", qubit_range=(1, 1), trials=1,
                                         max_iters=5).to_json())
        out = tmp_path / "exp"
        assert main(["run", "--config", str(path), *flags, "--out", str(out)]) == 1
        assert f"drop {named}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_trial_exits_two(self, tmp_path, capsys, monkeypatch):
        """A run whose trials partly fail still writes its outputs, names the
        failures on stderr and in summary.json, and exits 2."""
        real = harness.run_es

        def fail_second(target, params, mode, rng, trial_id=0, **kwargs):
            if trial_id == 1:
                raise RuntimeError("injected failure")
            return real(target, params, mode, rng, trial_id=trial_id, **kwargs)

        monkeypatch.setattr(harness, "run_es", fail_second)
        out = tmp_path / "exp"
        code = main(["run", "--qubits", "1", "--trials", "2", "--max-iters", "5",
                     "--out", str(out)])
        assert code == 2
        assert "1 trial(s) failed; see summary.json" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == [
            {"n_qubits": 1, "trial_id": 1, "error": "injected failure"}]
        assert len((out / "results.csv").read_text().splitlines()) == 2

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

    @pytest.mark.parametrize("flags,named", [
        (["--repr", "density", "--objective", "uhlmann", "--store", "STORE"], "--store"),
        (["--label", "orphan"], "--label"),
    ], ids=["density-store", "label-without-store"])
    def test_store_flags_rejected_before_writing(self, tmp_path, capsys, flags, named):
        """The store keeps pure states and a label names a stored solution:
        each misuse exits 1 naming its flag, before the run and before the
        store directory is created."""
        store = tmp_path / "store"
        flags = [str(store) if flag == "STORE" else flag for flag in flags]
        assert main(["reconstruct", "--target", "zero", "--max-iters", "5", *flags]) == 1
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""
        assert not store.exists()

    @pytest.mark.parametrize("label,named", [
        ("../x", "must be alphanumeric"),
        ("taken", "already exists"),
    ], ids=["malformed", "duplicate"])
    def test_label_rejected_before_the_run(self, tmp_path, capsys, monkeypatch,
                                           label, named):
        """A malformed label or one already stored exits 1 before any epoch
        runs, and the store is left as it was."""
        from swapfit import harness

        store = tmp_path / "store"
        store.mkdir()
        (store / "taken.json").write_text("{}\n")

        def no_run(*args, **kwargs):
            raise AssertionError("the optimization ran")

        monkeypatch.setattr(harness, "_optimize", no_run)
        assert main(["reconstruct", "--target", "zero", "--store", str(store),
                     "--label", label]) == 1
        captured = capsys.readouterr()
        assert named in captured.err
        assert "epoch" not in captured.out
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["store", "taken.json"]
        assert (store / "taken.json").read_text() == "{}\n"

    @pytest.mark.parametrize("seed", ["0", "1", "7"])
    def test_random_preset_is_the_first_run_target(self, tmp_path, capsys, monkeypatch, seed):
        """``--target random --seed S`` reconstructs the target of the first
        trial of ``run --seed S``, drawn apart from the optimizer's stream,
        so epoch 1 does not already read 1."""
        presets = []
        monkeypatch.setattr(cli, "preset_target",
                            lambda *a, **kw: presets.append(harness.preset_target(*a, **kw))
                            or presets[-1])
        assert main(["reconstruct", "--target", "random", "--qubits", "3", "--seed", seed,
                     "--max-iters", "1"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("epoch 1: fidelity ")
        assert float(first.split()[-1]) < 1.0
        assert main(["run", "--qubits", "3", "--trials", "1", "--seed", seed,
                     "--max-iters", "1", "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "traces.json").read_text())[0]
        want = state_from_record(3, record["target"]).amplitudes
        assert np.array_equal(presets[0].state.amplitudes, want)

    def test_target_file(self, tmp_path, capsys):
        from swapfit.harness import preset_target

        spec = preset_target("random", 1, seed=5)
        path = tmp_path / "t.json"
        path.write_text(spec.to_json())
        code = main(["reconstruct", "--target", str(path), "--seed", "5",
                     "--max-iters", "60"])
        assert code == 0

    def test_density_target_not_psd_rejected(self, tmp_path, capsys):
        """A density matrix with a negative eigenvalue is no state: exit 1,
        naming the eigenvalue, before any epoch runs."""
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"n_qubits": 1, "kind": "density",
                                    "re": [1.5, 0, 0, -0.5], "im": [0, 0, 0, 0]}))
        assert main(["reconstruct", "--target", str(path), "--max-iters", "3"]) == 1
        captured = capsys.readouterr()
        assert "eigenvalue -0.5" in captured.err
        assert captured.out == ""

    def test_qubits_next_to_target_file_rejected(self, tmp_path, capsys):
        """A target file sets its own qubit count, so --qubits exits 1 and is
        named, instead of being ignored."""
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"n_qubits": 1, "re": [1.0, 0.0], "im": [0.0, 0.0]}))
        assert main(["reconstruct", "--target", str(path), "--qubits", "3"]) == 1
        captured = capsys.readouterr()
        assert "drop --qubits" in captured.err
        assert captured.out == ""

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

    def test_skipped_entries(self, tmp_path, capsys):
        """A density entry and a single-qubit pair are each counted as
        skipped, with no row."""
        pure = {"kind": "pure", "re": [1.0, 0.0], "im": [0.0, 0.0]}
        density = {"kind": "density", "re": [1.0, 0.0, 0.0, 0.0], "im": [0.0] * 4}
        traces = tmp_path / "traces.json"
        traces.write_text(json.dumps([
            {"trial_id": 0, "n_qubits": 1, "target": pure, "solution": pure},
            {"trial_id": 1, "n_qubits": 1, "target": pure, "solution": density},
        ]))
        assert main(["entropy-report", "--traces", str(traces)]) == 0
        printed = capsys.readouterr().out
        assert "skipped 1 single-qubit circuit(s) (no bipartition)" in printed
        assert "skipped 1 density record(s) (the report takes pure-state records)" in printed

    def test_density_run_says_why(self, tmp_path, capsys):
        """A density run's traces hold complete records, none of them pure:
        exit 1 with a message that says so and counts them."""
        out = tmp_path / "od"
        assert main(["run", "--method", "es", "--repr", "density", "--qubits", "2",
                     "--trials", "1", "--max-iters", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["entropy-report", "--traces", str(out / "traces.json")]) == 1
        err = capsys.readouterr().err
        assert "takes pure-state records; all 1 record(s) have a density side" in err

    def test_density_records_beside_pure_ones(self, tmp_path, capsys):
        """Pure records are reported, and the density records beside them counted."""
        traces = self.make_traces(tmp_path)
        entries = json.loads(traces.read_text())
        mixed = (np.eye(4) / 4).ravel().tolist()
        entries[1]["solution"] = {"kind": "density", "re": mixed, "im": [0.0] * 16}
        traces.write_text(json.dumps(entries))
        dest = tmp_path / "entropy.csv"
        assert main(["entropy-report", "--traces", str(traces), "--out", str(dest)]) == 0
        assert "skipped 1 density record(s)" in capsys.readouterr().out
        assert len(dest.read_text().strip().splitlines()) == 1 + 1

    @pytest.mark.parametrize("field,value,named", [
        ("im", [0.0], "'im'"),
        ("re", None, "'re'"),
        ("n_qubits", 2.0, "'n_qubits'"),
    ])
    def test_bad_state_record_rejected(self, tmp_path, capsys, field, value, named):
        """A trace entry is checked like a target file; the error names the
        entry and the field."""
        state = {"kind": "pure", "re": [1.0, 0.0, 0.0, 0.0], "im": [0.0] * 4}
        entry = {"trial_id": 3, "n_qubits": 2, "target": state, "solution": dict(state)}
        if field == "n_qubits":
            entry[field] = value
        else:
            entry["solution"][field] = value
        traces = tmp_path / "traces.json"
        traces.write_text(json.dumps([entry]))
        assert main(["entropy-report", "--traces", str(traces)]) == 1
        err = capsys.readouterr().err
        assert "trial-3" in err and f"{named} must be " in err

    @pytest.mark.parametrize("content,named", [
        ([{"trial_id": 0, "n_qubits": 2}], "record 0 must be an object whose 'target'"),
        ({"a": 1}, "traces must be a JSON list"),
        ([1], "record 0 must be an object whose 'target'"),
    ], ids=["no-states", "object", "list-of-numbers"])
    def test_malformed_traces_rejected(self, tmp_path, capsys, content, named):
        """A file of the wrong shape is invalid input (exit 1), not a runtime failure."""
        traces = tmp_path / "traces.json"
        traces.write_text(json.dumps(content))
        assert main(["entropy-report", "--traces", str(traces)]) == 1
        assert named in capsys.readouterr().err

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
