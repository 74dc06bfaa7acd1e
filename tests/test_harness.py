"""Batch orchestration: seeds, configs, persistence, stores, reports."""

import csv
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import noiseless_model, run_circuit
from swapfit import evolution, harness
from swapfit.cli import main
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
from swapfit.noise import NoiseModelSpec, default_noise_model
from swapfit.prep import Representation, TargetSpec, sample_random_state, state_from_record
from swapfit.sim import GateOp, PureState, RngStream, zero_state
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
            method="nn", mode=FidelityMode.noisy(NoiseModelSpec(p_dep2=0.05), 128))
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back.mode.noise == cfg.mode.noise

    def test_noisy_mode_without_noise_key(self):
        """As with --mode noisy and no --noise, the model is the default."""
        back = ExperimentConfig.from_json('{"method": "es", "mode": "noisy(64)"}')
        assert back.mode == FidelityMode.noisy(default_noise_model(), 64)

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


class TestThreadCap:
    """MLP trials run on a pool of min(max_workers, usable CPUs, trials)
    threads, a pool of one runs inline, and the thread count changes no
    deterministic output."""

    @staticmethod
    def config(max_workers, method="nn"):
        return ExperimentConfig(method=method, qubit_range=(1, 2), trials=2,
                                mode=FidelityMode.sampled(64), base_seed=31,
                                max_iters=3, max_workers=max_workers)

    @staticmethod
    def outputs(out):
        summary = json.loads((out / "summary.json").read_text())
        del summary["config"]["max_workers"]  # the configured bound, not the threads run
        traces = json.loads((out / "traces.json").read_text())
        for trace in traces:
            del trace["wall_time"]
        return (out / "results.csv").read_bytes(), summary, traces

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class SpyPool(harness.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", SpyPool)
        return sizes

    @pytest.mark.parametrize("cpus,max_workers,threads", [
        (1, 4, 1),  # capped by the CPUs
        (2, 4, 2),
        (2, 1, 1),  # capped by max_workers
        (8, 16, 4),  # capped by the 4 trials (2 per n, n = 1..2)
    ])
    def test_threads_capped(self, tmp_path, monkeypatch, pool_sizes, cpus, max_workers,
                            threads):
        reference = run_experiment(self.config(1), tmp_path / "ref")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        summary = run_experiment(self.config(max_workers), tmp_path / "capped")
        assert pool_sizes == ([threads] if threads > 1 else [])  # one thread runs inline
        assert summary["config"]["max_workers"] == max_workers
        assert reference["failures"] == summary["failures"] == []
        assert self.outputs(tmp_path / "capped") == self.outputs(tmp_path / "ref")

    def test_cpu_count_without_affinity(self, tmp_path, monkeypatch, pool_sizes):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert harness.usable_cpus() == 3
        run_experiment(self.config(4), tmp_path)
        assert pool_sizes == [3]

    def test_es_runs_inline(self, tmp_path, monkeypatch, pool_sizes):
        """ES trials build no pool whatever max_workers and the CPUs allow."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        run_experiment(self.config(1, "es"), tmp_path / "ref")
        summary = run_experiment(self.config(4, "es"), tmp_path / "es")
        assert pool_sizes == []
        assert summary["failures"] == []
        assert ((tmp_path / "es" / "results.csv").read_bytes()
                == (tmp_path / "ref" / "results.csv").read_bytes())


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


def _stored(path: Path):
    """A stored snapshot read back through the one JSON state reader."""
    raw = json.loads(path.read_text())
    return state_from_record(raw["n_qubits"], raw)


class TestSnapshotStore:
    def test_put_get_roundtrip(self, tmp_path):
        """The stored file reads back through ``state_from_record`` bit for bit."""
        store = SnapshotStore(tmp_path)
        state = sample_random_state(2, RngStream(1))
        store.put("bell-ish", state, created_from={"method": "es"})
        back = _stored(tmp_path / "bell-ish.json")
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
            _stored(tmp_path / "s.json")

    @pytest.mark.parametrize("record,named", [
        ({"n_qubits": 1.9, "re": [0.6, 0.8], "im": [0]}, "'n_qubits'"),
        ({"n_qubits": 1, "re": [0.6, 0.8], "im": [0]}, "'im'"),
        ({"n_qubits": 1, "re": [0.6, "0.8"], "im": [0, 0]}, "'re'"),
    ], ids=["float-n", "short-im", "string"])
    def test_bad_record_rejected(self, tmp_path, record, named):
        """Checked like a target file: nothing is truncated or broadcast."""
        (tmp_path / "s.json").write_text(json.dumps(record))
        with pytest.raises(ValueError, match=f"{named} must be "):
            _stored(tmp_path / "s.json")


class TestReconstruct:
    def test_density_solution_not_stored(self, tmp_path):
        """A library caller gets the rule too, with the store left untouched."""
        with pytest.raises(ValueError, match="--store keeps pure states"):
            reconstruct(preset_target("zero", 1), representation=Representation.DENSITY,
                        store=SnapshotStore(tmp_path / "store"), max_iters=5)
        assert not (tmp_path / "store").exists()

    def test_preset_reconstruction_stores(self, tmp_path):
        store = SnapshotStore(tmp_path)
        out = reconstruct(preset_target("zero", 1), method="es", seed=1,
                          max_iters=40, store=store, label="zero-run")
        assert out["stored_as"] == "zero-run"
        sol = _stored(tmp_path / "zero-run.json")
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

    def test_density_pairs_skipped(self):
        bell = run_circuit(zero_state(2), [GateOp.h(0), GateOp.cx(0, 1)])
        out = entropy_report([("bell", bell, bell), ("mixed", bell, bell.density())])
        assert [r.circuit_id for r in out["reports"]] == ["bell"]
        assert out["skipped_density"] == ["mixed"]

    def test_density_pairs_alone_rejected(self):
        bell = run_circuit(zero_state(2), [GateOp.h(0), GateOp.cx(0, 1)])
        with pytest.raises(ValueError, match="takes pure-state records; all 2 record"):
            entropy_report([("a", bell.density(), bell), ("b", bell, bell.density())])

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


# The benchmark"s four workloads, rep 0 at seed 5000: each `swapfit run`
# command line, the sha256 prefix of its results.csv, and its rows as
# (trial_id, n_qubits, seed, representation, mode, epochs_to_0.95,
# epochs_to_0.99, final_fidelity, oracle_fidelity, readings, shots).
PINNED_RUNS = {
    "es-exact": (
        ("--method", "es", "--mode", "exact", "--max-iters", "100",
         "--qubits", "1:3", "--trials", "10"),
        "d2a3a2b4d4f2bdef",
        [
            (0, 1, 16294208416658611751, "statevector", "exact",
             4, 4, 0.9950712296295399, 0.9950712296295399, 154, 0),
            (1, 1, 10451216379200819017, "statevector", "exact",
             4, 9, 0.9916839450180076, 0.9916839450180076, 409, 0),
            (2, 1, 10905525725756343622, "statevector", "exact",
             2, 3, 0.999629681397629, 0.999629681397629, 103, 0),
            (3, 1, 2092789425003142245, "statevector", "exact",
             7, 8, 0.9999178795679519, 0.9999178795679519, 358, 0),
            (4, 1, 7958955049054607682, "statevector", "exact",
             4, 7, 0.9906881714964488, 0.9906881714964488, 307, 0),
            (5, 1, 7134611160154362066, "statevector", "exact",
             3, 3, 0.9911769454458453, 0.9911769454458453, 103, 0),
            (6, 1, 13647215125184115592, "statevector", "exact",
             4, 4, 0.9960292896291887, 0.9960292896291887, 154, 0),
            (7, 1, 7191089600892378719, "statevector", "exact",
             2, 2, 0.9942397002799023, 0.9942397002799023, 52, 0),
            (8, 1, 11409396526365353406, "statevector", "exact",
             3, 4, 0.9933356363834892, 0.9933356363834892, 154, 0),
            (9, 1, 12587370737594037228, "statevector", "exact",
             4, 4, 0.9917302189844245, 0.9917302189844245, 154, 0),
            (0, 2, 614480483733486658, "statevector", "exact",
             7, 8, 0.9983077167359001, 0.9983077167359001, 358, 0),
            (1, 2, 5833679380957635349, "statevector", "exact",
             6, 6, 0.9912042258130328, 0.9912042258130328, 256, 0),
            (2, 2, 10682531704454683787, "statevector", "exact",
             7, 8, 0.9981451423901542, 0.9981451423901542, 358, 0),
            (3, 2, 14180207640020097399, "statevector", "exact",
             8, 9, 0.9943579366962294, 0.9943579366962294, 409, 0),
            (4, 2, 7685909621375759798, "statevector", "exact",
             9, 10, 0.9971035702219866, 0.9971035702219866, 460, 0),
            (5, 2, 9753551079159972749, "statevector", "exact",
             5, 6, 0.9979144357669708, 0.9979144357669708, 256, 0),
            (6, 2, 6764836397866516879, "statevector", "exact",
             7, 8, 0.9964220333334755, 0.9964220333334755, 358, 0),
            (7, 2, 9260656408219836651, "statevector", "exact",
             6, 7, 0.9940566887297482, 0.9940566887297482, 307, 0),
            (8, 2, 1234184003990709178, "statevector", "exact",
             9, 10, 0.9949495470282405, 0.9949495470282405, 460, 0),
            (9, 2, 13564971763896617420, "statevector", "exact",
             7, 8, 0.9944744386039459, 0.9944744386039459, 358, 0),
            (0, 3, 3900778703475872260, "statevector", "exact",
             12, 13, 0.9956455251702481, 0.9956455251702481, 613, 0),
            (1, 3, 489215147674973775, "statevector", "exact",
             13, 15, 0.9966424824411579, 0.9966424824411579, 715, 0),
            (2, 3, 14415425345905106306, "statevector", "exact",
             12, 14, 0.9950195653615965, 0.9950195653615965, 664, 0),
            (3, 3, 16778118630780015198, "statevector", "exact",
             10, 11, 0.9906457994015704, 0.9906457994015704, 511, 0),
            (4, 3, 12306297088033426892, "statevector", "exact",
             14, 15, 0.9907778730078038, 0.9907778730078038, 715, 0),
            (5, 3, 11675794432720348289, "statevector", "exact",
             13, 15, 0.994778147746725, 0.994778147746725, 715, 0),
            (6, 3, 14103010035660840530, "statevector", "exact",
             11, 12, 0.9929696925662371, 0.9929696925662371, 562, 0),
            (7, 3, 10902710238276818178, "statevector", "exact",
             7, 8, 0.9918049806196351, 0.9918049806196351, 358, 0),
            (8, 3, 10402319577963759588, "statevector", "exact",
             10, 11, 0.9935981484452233, 0.9935981484452233, 511, 0),
            (9, 3, 13509472508297993464, "statevector", "exact",
             8, 9, 0.9922875238460209, 0.9922875238460209, 409, 0),
        ],
    ),
    "es-noisy": (
        ("--method", "es", "--mode", "noisy", "--noise", "default", "--shots", "1024",
         "--max-iters", "30", "--qubits", "1:1", "--trials", "2"),
        "929c19c989f290ae",
        [
            (0, 1, 16294208416658611751, "statevector", "noisy(1024)",
             None, None, 0.82421875, 0.9994349700300803, 1530, 1566720),
            (1, 1, 10451216379200819017, "statevector", "noisy(1024)",
             None, None, 0.830078125, 0.998073546516688, 1530, 1566720),
        ],
    ),
    "nn-exact": (
        ("--method", "nn", "--mode", "exact", "--max-iters", "500",
         "--qubits", "2:2", "--trials", "4"),
        "ccc1960a257eed11",
        [
            (0, 2, 16294208416658611751, "statevector", "exact",
             32, 44, 0.9990758383078305, 0.9990758383078305, 1038, 0),
            (1, 2, 10451216379200819017, "statevector", "exact",
             28, 44, 0.9993008097209729, 0.9993008097209729, 1055, 0),
            (2, 2, 10905525725756343622, "statevector", "exact",
             34, 49, 0.999027979882291, 0.999027979882291, 1208, 0),
            (3, 2, 2092789425003142245, "statevector", "exact",
             29, 38, 0.9990092626105408, 0.9990092626105408, 1038, 0),
        ],
    ),
    "nn-density": (
        ("--method", "nn", "--repr", "density", "--objective", "uhlmann", "--mode", "exact",
         "--max-iters", "500", "--qubits", "2:2", "--trials", "2"),
        "02dbd2f1e3500a5b",
        [
            (0, 2, 16294208416658611751, "density", "exact",
             45, 53, 0.9990480871725714, 0.9990481289502148, 4941, 0),
            (1, 2, 10451216379200819017, "density", "exact",
             44, 56, 0.9992910617683746, 0.999291083940468, 4876, 0),
        ],
    ),
}


class TestPinnedOutputs:
    """The benchmark workloads' rep-0 outputs, pinned.  A change that moves
    a value on purpose updates PINNED_RUNS in the same commit and says why."""

    COLUMNS = ("trial_id", "n_qubits", "seed", "representation", "mode", "epochs_to_0.95",
               "epochs_to_0.99", "final_fidelity", "oracle_fidelity", "readings", "shots")
    INTEGER = ("trial_id", "n_qubits", "seed", "epochs_to_0.95", "epochs_to_0.99",
               "readings", "shots")
    FLOAT = ("final_fidelity", "oracle_fidelity")

    @pytest.mark.parametrize("workload", list(PINNED_RUNS))
    def test_results_csv(self, tmp_path, capsys, workload):
        """Integer and text columns exactly, floats to 1e-12, then the file's
        digest: a digest that moved with every value in tolerance still
        fails, because a re-run must be byte-identical and a float that moved
        in its last bits must be declared by updating the pin."""
        flags, digest, rows = PINNED_RUNS[workload]
        assert main(["run", *flags, "--seed", "5000", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        text = (tmp_path / "results.csv").read_text()
        assert text.splitlines()[0] == ",".join(self.COLUMNS)
        got = list(csv.DictReader(text.splitlines()))
        assert len(got) == len(rows)
        for row, want in zip(got, rows):
            want = dict(zip(self.COLUMNS, want))
            for key in self.INTEGER:
                assert (int(row[key]) if row[key] else None) == want[key], (workload, key, row)
            for key in ("representation", "mode"):
                assert row[key] == want[key], (workload, key, row)
            for key in self.FLOAT:
                assert abs(float(row[key]) - want[key]) <= 1e-12, (workload, key, row)
        got_digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert got_digest == digest, (
            f"{workload}: results.csv digest {got_digest}, pinned {digest}; every value "
            "is within tolerance, so only the last bits of a float moved")
