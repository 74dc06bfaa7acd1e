"""Batch orchestration: seeds, configs, persistence, stores, reports."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from swapfit import evolution
from swapfit.evolution import TrialRecord
from swapfit.harness import (
    ExperimentConfig,
    SnapshotStore,
    TimingBudget,
    check_timing_budget,
    default_partition,
    derive_seed,
    entropy_report,
    load_target_file,
    noise_inspect,
    preset_target,
    reconstruct,
    results_csv_header,
    results_csv_row,
    run_experiment,
    splitmix64,
    summarize_records,
)
from swapfit.noise import default_noise_model, noiseless_model
from swapfit.prep import Representation, TargetSpec, sample_random_state
from swapfit.sim import GateOp, PureState, RngStream, run_circuit, zero_state
from swapfit.swap_test import FidelityMode, fidelity_oracle


class TestSeeds:
    def test_splitmix_known_vector(self):
        """First output of the reference sequence seeded with zero."""
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_splitmix_against_reference(self):
        for x in [0, 1, 2, 17, 123456789, 2**63]:
            assert splitmix64(x) == oracles.splitmix64_reference(x)

    def test_derive_seed_distinct(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_derive_seed_in_range(self):
        for i in (0, 5, 999):
            assert 0 <= derive_seed(2**63, i) < 2**64


class TestConfig:
    def test_json_roundtrip(self):
        cfg = ExperimentConfig(method="es", qubit_range=(1, 2), trials=7,
                               mode=FidelityMode.sampled(256), base_seed=9,
                               max_workers=1)
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_json_roundtrip_noisy(self):
        cfg = ExperimentConfig(
            method="nn", mode=FidelityMode.noisy(default_noise_model(), 128))
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back.mode.noise == cfg.mode.noise

    def test_bad_method(self):
        with pytest.raises(ValueError):
            ExperimentConfig(method="annealing")

    def test_bad_range(self):
        with pytest.raises(ValueError):
            ExperimentConfig(method="es", qubit_range=(0, 2))
        with pytest.raises(ValueError):
            ExperimentConfig(method="es", qubit_range=(2, 9))

    def test_duplicate_thresholds_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ExperimentConfig(method="es", thresholds=(0.95, 0.95))

    def test_bad_max_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            ExperimentConfig(method="es", max_workers=0)

    def test_parse_error_location(self):
        with pytest.raises(ValueError, match="line"):
            ExperimentConfig.from_json("{\n  broken\n}")

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="method"):
            ExperimentConfig.from_json("{}")

    @pytest.mark.parametrize("key", ["max_iter", "workers", "seed"])
    def test_unknown_field_rejected(self, key):
        """A misspelled field is an error, not a silent default."""
        raw = json.loads(ExperimentConfig(method="es").to_json())
        raw[key] = 1
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_json(json.dumps(raw))

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentConfig.from_json("[1, 2]")


class TestTimingBudget:
    def test_feasible_case(self):
        budget = TimingBudget(t_d_cq=1e-6, t_d_qc=1e-6, t_p_c=1e-6,
                              tau_d=1.0, margin_factor=10.0)
        out = check_timing_budget(budget, 100)
        assert out["feasible"]
        assert out["max_feasible_iterations"] >= 100

    def test_infeasible_case(self):
        budget = TimingBudget(t_d_cq=1e-3, t_d_qc=1e-3, t_p_c=1e-3,
                              tau_d=0.01, margin_factor=10.0)
        out = check_timing_budget(budget, 1000)
        assert not out["feasible"]

    def test_zero_loop_time(self):
        budget = TimingBudget(t_d_cq=0.0, t_d_qc=0.0, t_p_c=0.0, tau_d=1e-3)
        out = check_timing_budget(budget, 10**9)
        assert out["feasible"]
        assert out["max_feasible_iterations"] is None

    def test_loop_time_sum(self):
        budget = TimingBudget(t_d_cq=1.0, t_d_qc=2.0, t_p_c=3.0, tau_d=100.0)
        assert budget.loop_time == pytest.approx(6.0)

    @pytest.mark.parametrize("field", ["t_d_cq", "t_d_qc", "t_p_c", "tau_d", "margin_factor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, value):
        fields = dict(t_d_cq=0.0, t_d_qc=0.0, t_p_c=1.0, tau_d=100.0, margin_factor=10.0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TimingBudget(**fields)

    def test_window_counting_overflow_is_unbounded(self):
        """tau_d / (loop * margin) overflowing a float counts as unbounded."""
        budget = TimingBudget(t_d_cq=0.0, t_d_qc=0.0, t_p_c=1e-300, tau_d=1e300,
                              margin_factor=1.0)
        out = check_timing_budget(budget, 3)
        assert out["feasible"]
        assert out["max_feasible_iterations"] is None


class TestCsvFormat:
    def make_record(self):
        return TrialRecord(
            trial_id=3, seed=12345, representation="statevector",
            fidelity_mode="exact", epochs_to_threshold={0.95: 4, 0.99: None},
            final_fidelity=0.98765, oracle_fidelity=0.99111,
            readings=19, shots=1216,
            fidelity_trace=[0.5, 0.98765], wall_time=0.25,
        )

    def test_header(self):
        head = results_csv_header((0.95, 0.99))
        assert head == ("trial_id,n_qubits,seed,representation,mode,"
                        "epochs_to_0.95,epochs_to_0.99,"
                        "final_fidelity,oracle_fidelity,readings,shots")

    def test_row_values(self):
        row = results_csv_row(2, self.make_record(), (0.95, 0.99))
        cells = row.split(",")
        assert cells[0] == "3"
        assert cells[1] == "2"
        assert cells[5] == "4"
        assert cells[6] == ""  # never crossed
        assert cells[7] == repr(0.98765)
        assert cells[9:] == ["19", "1216"]

    def test_no_wall_time_column(self):
        assert "wall" not in results_csv_header((0.99,))


class TestSummarize:
    def test_hand_built_records(self):
        recs = [
            TrialRecord(trial_id=i, seed=i, representation="statevector",
                        fidelity_mode="exact",
                        epochs_to_threshold={0.99: e},
                        final_fidelity=f, oracle_fidelity=f,
                        readings=r, shots=0,
                        fidelity_trace=[f], wall_time=0.0)
            for i, (e, f, r) in enumerate([(2, 0.999, 3), (4, 0.995, 5), (None, 0.8, 7)])
        ]
        out = summarize_records(recs, (0.99,))
        assert out["trials"] == 3
        stats = out["threshold_0.99"]
        assert stats["success_rate"] == pytest.approx(2 / 3)
        assert stats["mean_epochs"] == pytest.approx(3.0)
        assert stats["median_epochs"] == pytest.approx(3.0)
        assert out["mean_oracle_fidelity"] == pytest.approx(
            np.mean([0.999, 0.995, 0.8]))
        assert (out["readings"], out["shots"]) == (15, 0)

    def test_empty_records(self):
        out = summarize_records([], (0.99,))
        assert out["trials"] == 0


class TestRunExperiment:
    def small_config(self):
        return ExperimentConfig(method="es", qubit_range=(1, 1), trials=3,
                                mode=FidelityMode.exact(), base_seed=77,
                                max_iters=40)

    def test_writes_artifacts(self, tmp_path):
        summary = run_experiment(self.small_config(), tmp_path)
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "traces.json").exists()
        assert summary["failures"] == []
        per_q = summary["per_qubit_count"]["1"]
        assert per_q["trials"] == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        """results.csv and summary.json carry no wall-clock state."""
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_experiment(self.small_config(), a_dir)
        run_experiment(self.small_config(), b_dir)
        assert (a_dir / "results.csv").read_bytes() == (b_dir / "results.csv").read_bytes()
        assert (a_dir / "summary.json").read_bytes() == (b_dir / "summary.json").read_bytes()

    def test_density_rerun_is_byte_identical(self, tmp_path):
        """The closed-form pure/density score under the default thread pool."""
        cfg = ExperimentConfig(method="nn", representation=Representation.DENSITY,
                               qubit_range=(1, 1), trials=4, base_seed=78,
                               max_iters=15, objective="uhlmann")
        assert cfg.max_workers == 4
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for out in (a_dir, b_dir):
            assert run_experiment(cfg, out)["failures"] == []
        assert (a_dir / "results.csv").read_bytes() == (b_dir / "results.csv").read_bytes()
        assert (a_dir / "summary.json").read_bytes() == (b_dir / "summary.json").read_bytes()

    def test_traces_hold_wall_time(self, tmp_path):
        run_experiment(self.small_config(), tmp_path)
        traces = json.loads((tmp_path / "traces.json").read_text())
        assert all("wall_time" in t for t in traces)
        assert all("fidelity_trace" in t for t in traces)

    def test_csv_row_count(self, tmp_path):
        cfg = ExperimentConfig(method="es", qubit_range=(1, 2), trials=2,
                               mode=FidelityMode.exact(), base_seed=5,
                               max_iters=30)
        run_experiment(cfg, tmp_path)
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + trials x qubit sizes

    @pytest.mark.parametrize("method,mode", [
        ("es", FidelityMode.sampled(64)),
        ("nn", FidelityMode.exact()),
    ])
    def test_counts_are_plain_numbers(self, tmp_path, method, mode):
        """Every numeric results.csv cell parses with float(), and summary.json
        totals each n's readings and shots."""
        cfg = ExperimentConfig(method=method, qubit_range=(1, 1), trials=2, mode=mode,
                               base_seed=11, max_iters=8)
        summary = run_experiment(cfg, tmp_path)
        rows = list(csv.DictReader((tmp_path / "results.csv").read_text().splitlines()))
        assert len(rows) == 2
        for row in rows:
            for key, cell in row.items():
                if key not in ("representation", "mode") and cell:
                    float(cell)
            assert int(row["readings"]) >= 1
            assert int(row["shots"]) == int(row["readings"]) * (mode.shots or 0)
        stats = summary["per_qubit_count"]["1"]
        assert stats["readings"] == sum(int(row["readings"]) for row in rows)
        assert stats["shots"] == sum(int(row["shots"]) for row in rows)

    def test_degenerate_draw_recorded_with_its_cause(self, tmp_path, monkeypatch):
        """A zero population row fails its trial; summary.json says why."""
        real = evolution.perturb_population

        def zero_row(w, params, rng):
            Z, W = real(w, params, rng)
            W[3] = 0.0
            return Z, W

        monkeypatch.setattr(evolution, "perturb_population", zero_row)
        cfg = ExperimentConfig(method="es", qubit_range=(1, 1), trials=1,
                               mode=FidelityMode.exact(), base_seed=1, max_iters=5)
        summary = run_experiment(cfg, tmp_path)
        assert summary["failures"] == [{
            "n_qubits": 1, "trial_id": 0,
            "error": "evolution failed at epoch 1: "
                     "parameter vector has near-zero norm; resample the candidate",
        }]
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert len(lines) == 1  # the header only

    def test_nn_method_runs(self, tmp_path):
        cfg = ExperimentConfig(method="nn", qubit_range=(1, 1), trials=1,
                               mode=FidelityMode.exact(), base_seed=3,
                               max_iters=30)
        summary = run_experiment(cfg, tmp_path)
        assert summary["failures"] == []


class TestPresets:
    def test_zero_preset(self):
        t = preset_target("zero", 1)
        assert t.state.amplitudes[0] == 1.0

    def test_one_preset(self):
        t = preset_target("one", 1)
        assert t.state.amplitudes[-1] == 1.0

    def test_hadamard_preset(self):
        t = preset_target("hadamard", 2)
        np.testing.assert_allclose(t.state.amplitudes, np.full(4, 0.5),
                                   atol=1e-12)

    def test_random_preset_seeded(self):
        a = preset_target("random", 2, seed=11)
        b = preset_target("random", 2, seed=11)
        np.testing.assert_array_equal(a.state.amplitudes, b.state.amplitudes)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_target("bell")

    def test_load_target_file(self, tmp_path):
        rng = RngStream(8)
        spec = TargetSpec(2, sample_random_state(2, rng), seed=8)
        path = tmp_path / "target.json"
        path.write_text(spec.to_json())
        back = load_target_file(path)
        np.testing.assert_array_equal(back.state.amplitudes,
                                      spec.state.amplitudes)

    def test_load_target_file_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="line"):
            load_target_file(path)


class TestSnapshotStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        state = sample_random_state(2, RngStream(1))
        store.put("bell-ish", state, created_from={"method": "es"})
        back = store.get("bell-ish")
        np.testing.assert_array_equal(back.amplitudes, state.amplitudes)

    def test_duplicate_label_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        state = sample_random_state(1, RngStream(2))
        store.put("dup", state)
        with pytest.raises(ValueError):
            store.put("dup", state)

    def test_bad_label_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        state = sample_random_state(1, RngStream(3))
        with pytest.raises(ValueError):
            store.put("../escape", state)

    def test_non_finite_snapshot_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.put("s", sample_random_state(1, RngStream(5)))
        raw = json.loads((tmp_path / "s.json").read_text())
        raw["im"][1] = float("nan")
        (tmp_path / "s.json").write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="non-finite"):
            store.get("s")

    def test_missing_label(self, tmp_path):
        with pytest.raises(KeyError):
            SnapshotStore(tmp_path).get("nope")

    def test_labels_listing(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for name in ("a", "b"):
            store.put(name, sample_random_state(1, RngStream(4)))
        assert store.labels() == ["a", "b"]


class TestReconstruct:
    def test_preset_reconstruction_stores(self, tmp_path):
        store = SnapshotStore(tmp_path)
        out = reconstruct(preset_target("zero", 1), method="es", seed=1,
                          max_iters=40, store=store, label="zero-run")
        assert out["stored_as"] == "zero-run"
        sol = store.get("zero-run")
        assert fidelity_oracle(preset_target("zero", 1).state, sol) > 0.99

    def test_record_contents(self):
        out = reconstruct(preset_target("hadamard", 1), method="es", seed=2,
                          max_iters=40)
        rec = out["record"]
        assert rec.fidelity_mode == "exact"
        assert rec.epochs_to_threshold[0.99] is not None

    def test_bad_method(self):
        with pytest.raises(ValueError):
            reconstruct(preset_target("zero", 1), method="sgd")


class TestEntropyReport:
    def test_bell_pair_report(self):
        bell = run_circuit(zero_state(2), [GateOp.h(0), GateOp.cx(0, 1)])
        out = entropy_report([("bell", bell, bell)])
        assert len(out["reports"]) == 1
        rep = out["reports"][0]
        assert rep.target_entropy == pytest.approx(1.0, abs=1e-9)
        assert out["max_abs_delta"] == pytest.approx(0.0, abs=1e-12)

    def test_single_qubit_skipped(self):
        z = zero_state(1)
        out = entropy_report([("tiny", z, z)])
        assert out["reports"] == []
        assert out["skipped_single_qubit"] == ["tiny"]

    def test_default_partition(self):
        assert default_partition(2) == (0,)
        assert default_partition(4) == (0, 1)
        assert default_partition(1) == (0,)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            entropy_report([])


class TestNoiseInspect:
    def test_default_model_summary(self):
        out = noise_inspect(default_noise_model())
        assert not out["all_identity"]
        names = [c["channel"] for c in out["channels"]]
        assert any("cx" in n for n in names)
        for ch in out["channels"]:
            assert ch["completeness_residual"] <= 1e-10

    def test_noiseless_flags_identity(self):
        out = noise_inspect(noiseless_model())
        assert out["all_identity"]
