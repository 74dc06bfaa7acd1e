"""Experiment orchestration: batch runs, persistence, reports, timing checks.

Reproducibility contract: a run is a pure function of (config, base seed).
Per-trial streams are derived as seed_i = base_seed XOR splitmix64(i), so
trials are independent and order-insensitive; workers may finish in any
order but rows are sorted and written by a single writer.  results.csv and
summary.json therefore contain deterministic values only; wall-clock times
go to traces.json, which is documented as not byte-stable.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .evolution import ESParams, TrialRecord, check_run_limits, run_es
from .metrics import EntropyReport, bipartite_entropy
from .neural import default_config, train_generator
from .noise import (
    KrausChannel,
    NoiseModelSpec,
    bitflip_channel,
    depolarizing_channel,
    thermal_relaxation_channel,
)
from .prep import MAX_TARGET_QUBITS, Representation, TargetSpec, sample_random_state
from .sim import DensityMatrix, PureState, RngStream, basis_state, zero_state
from .swap_test import FidelityMode, check_objective

MIN_QUBITS, MAX_QUBITS = 1, 6


def splitmix64(x: int) -> int:
    """One step of the splitmix64 permutation (used only for seed derivation)."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def derive_seed(base_seed: int, index: int) -> int:
    """Per-trial seed: base XOR splitmix64(index); independent streams."""
    return (base_seed ^ splitmix64(index)) & 0xFFFFFFFFFFFFFFFF


def check_mode(representation: Representation, mode: FidelityMode, objective: str,
               target_state=None) -> None:
    """Reject a stochastic mode where the reading is exact anyway.

    Density matrices, as candidates or as the target, and the Uhlmann
    objective are scored exactly, so a shot-count label would be false.
    """
    density = (representation is Representation.DENSITY
               or isinstance(target_state, DensityMatrix))
    if density and mode.kind != "exact":
        raise ValueError(
            f"density matrices are scored exactly; {mode.label()} mode is not supported"
        )
    if objective == "uhlmann" and mode.kind != "exact":
        raise ValueError(
            f"the uhlmann objective is scored exactly; {mode.label()} mode is not supported"
        )


def _is_integer(value) -> bool:
    """True for an int or numpy integer; a bool or a float is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """One batch configuration: method x representation x qubit range."""

    method: str  # "es" or "nn"
    representation: Representation = Representation.STATEVECTOR
    qubit_range: tuple = (1, 1)  # inclusive (lo, hi)
    trials: int = 100
    mode: FidelityMode = FidelityMode.exact()
    thresholds: tuple = (0.95, 0.99)
    base_seed: int = 0
    max_iters: int = 100
    max_workers: int = 4
    objective: str = "swap"

    def __post_init__(self):
        if self.method not in ("es", "nn"):
            raise ValueError(f"method must be 'es' or 'nn', got {self.method!r}")
        # int() or range() would truncate a float or fail at run time
        for name in ("trials", "base_seed", "max_iters", "max_workers"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if len(self.qubit_range) != 2 or not all(map(_is_integer, self.qubit_range)):
            raise ValueError(f"qubit_range must be two integers, got {self.qubit_range!r}")
        lo, hi = self.qubit_range
        if not (MIN_QUBITS <= lo <= hi <= MAX_QUBITS):
            raise ValueError(
                f"qubit range must lie within [{MIN_QUBITS}, {MAX_QUBITS}], got {self.qubit_range}"
            )
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        check_run_limits(self.max_iters, self.thresholds)
        check_objective(self.objective)
        check_mode(self.representation, self.mode, self.objective)

    def to_json(self) -> str:
        payload = {
            "method": self.method,
            "representation": self.representation.value,
            "qubit_range": list(self.qubit_range),
            "trials": self.trials,
            "mode": self.mode.label(),
            "noise": (
                json.loads(self.mode.noise.to_json()) if self.mode.noise else None
            ),
            "thresholds": list(self.thresholds),
            "base_seed": self.base_seed,
            "max_iters": self.max_iters,
            "max_workers": self.max_workers,
            "objective": self.objective,
        }
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config parse failure at line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        # a misspelled field would otherwise run silently with its default
        unknown = sorted(set(raw) - _CONFIG_KEYS)
        if unknown:
            raise ValueError(f"config has unknown field(s) {unknown}")
        try:
            mode = FidelityMode.from_label(raw.get("mode", "exact"))
            if mode.kind == "noisy" and raw.get("noise") is not None:
                mode = FidelityMode.noisy(
                    NoiseModelSpec.from_json(json.dumps(raw["noise"])), mode.shots
                )
            return ExperimentConfig(
                method=raw["method"],
                representation=Representation(raw.get("representation", "statevector")),
                qubit_range=tuple(raw.get("qubit_range", [1, 1])),
                trials=raw.get("trials", 100),
                mode=mode,
                thresholds=tuple(raw.get("thresholds", [0.95, 0.99])),
                base_seed=raw.get("base_seed", 0),
                max_iters=raw.get("max_iters", 100),
                max_workers=raw.get("max_workers", 4),
                objective=raw.get("objective", "swap"),
            )
        except KeyError as exc:
            raise ValueError(f"config missing required field {exc.args[0]!r}") from exc
        except TypeError as exc:
            raise ValueError(f"config field of the wrong type: {exc}") from exc


# the keys ExperimentConfig.to_json writes: the fields, with the mode's noise
# model under its own key
_CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig)) | {"noise"}


@dataclass(frozen=True)
class TimingBudget:
    """Feedback-loop latency pieces measured against the coherence window."""

    t_d_cq: float  # dispatch, classical -> quantum (seconds)
    t_d_qc: float  # readback, quantum -> classical
    t_p_c: float  # classical model update
    tau_d: float  # coherence window
    margin_factor: float = 10.0

    def __post_init__(self):
        for name in ("t_d_cq", "t_d_qc", "t_p_c", "tau_d", "margin_factor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("t_d_cq", "t_d_qc", "t_p_c", "tau_d"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if self.margin_factor <= 0.0:
            raise ValueError("margin_factor must be positive")

    @property
    def loop_time(self) -> float:
        return self.t_d_cq + self.t_d_qc + self.t_p_c


def check_timing_budget(budget: TimingBudget, iterations: int) -> dict:
    """Feasibility of running ``iterations`` feedback loops in the window.

    Feasible iff iterations * loop_time * margin <= tau_d.  A zero loop
    time is always feasible with unbounded max iterations (reported None),
    and so is one too small for the window to count its loops in a float.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    L = budget.loop_time
    needed = iterations * L * budget.margin_factor
    per_loop = L * budget.margin_factor
    loops = budget.tau_d / per_loop if per_loop > 0.0 else math.inf
    max_iters = None if math.isinf(loops) else math.floor(loops)
    feasible = needed <= budget.tau_d
    return {
        "loop_time_s": L,
        "iterations": iterations,
        "required_window_s": needed,
        "coherence_window_s": budget.tau_d,
        "margin_factor": budget.margin_factor,
        "feasible": feasible,
        "max_feasible_iterations": max_iters,
    }


# ---------------------------------------------------------------------------
# Batch experiments
# ---------------------------------------------------------------------------


def _optimize(target: TargetSpec, method: str, representation: Representation,
              mode: FidelityMode, rng: RngStream, thresholds, max_iters: int,
              objective: str, trial_id: int = 0):
    """The one method dispatch: run ES or train the MLP; (solution, record)."""
    if method == "es":
        params = ESParams(
            representation=representation, thresholds=tuple(thresholds),
            max_iters=max_iters,
        )
        return run_es(target, params, mode, rng, trial_id=trial_id, objective=objective)
    if method == "nn":
        gen = default_config(
            target.n_qubits, representation,
            thresholds=tuple(thresholds), max_epochs=max_iters,
        )
        solution, _, record = train_generator(
            target, gen, mode, rng, representation=representation,
            trial_id=trial_id, objective=objective,
        )
        return solution, record
    raise ValueError(f"method must be 'es' or 'nn', got {method!r}")


def _run_single_trial(config: ExperimentConfig, n_qubits: int, trial_id: int,
                      global_index: int):
    seed = derive_seed(config.base_seed, global_index)
    rng = RngStream(seed)
    target_state = sample_random_state(n_qubits, rng)
    target = TargetSpec(n_qubits=n_qubits, state=target_state, seed=seed)
    solution, record = _optimize(
        target, config.method, config.representation, config.mode, rng,
        config.thresholds, config.max_iters, config.objective, trial_id,
    )
    return target, solution, record


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def results_csv_header(thresholds) -> str:
    cols = ["trial_id", "n_qubits", "seed", "representation", "mode"]
    cols += [f"epochs_to_{t}" for t in thresholds]
    cols += ["final_fidelity", "oracle_fidelity", "readings", "shots"]
    return ",".join(cols)


def results_csv_row(n_qubits: int, record: TrialRecord, thresholds) -> str:
    cells = [
        str(record.trial_id),
        str(n_qubits),
        str(record.seed),
        record.representation,
        record.fidelity_mode,
    ]
    cells += [_csv_cell(record.epochs_to_threshold.get(t)) for t in thresholds]
    cells += [_csv_cell(record.final_fidelity), _csv_cell(record.oracle_fidelity)]
    cells += [str(record.readings), str(record.shots)]
    return ",".join(cells)


def summarize_records(records: list, thresholds) -> dict:
    """Deterministic summary statistics, all recomputable from the CSV rows."""
    out: dict = {"trials": len(records)}
    for t in thresholds:
        crossed = [
            r.epochs_to_threshold[t]
            for r in records
            if r.epochs_to_threshold.get(t) is not None
        ]
        key = f"threshold_{t}"
        out[key] = {
            "success_rate": len(crossed) / len(records) if records else 0.0,
            "mean_epochs": float(np.mean(crossed)) if crossed else None,
            "median_epochs": float(np.median(crossed)) if crossed else None,
        }
    if records:
        out["mean_final_fidelity"] = float(np.mean([r.final_fidelity for r in records]))
        out["mean_oracle_fidelity"] = float(np.mean([r.oracle_fidelity for r in records]))
    out["readings"] = sum(r.readings for r in records)
    out["shots"] = sum(r.shots for r in records)
    return out


def run_experiment(config: ExperimentConfig, out_dir) -> dict:
    """Execute every trial, write results.csv + summary.json + traces.json.

    Per-trial failures are recorded in the summary and the run continues.
    Returns the summary dict (also written to disk).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lo, hi = config.qubit_range
    jobs = []
    index = 0
    for n in range(lo, hi + 1):
        for trial in range(config.trials):
            jobs.append((n, trial, index))
            index += 1

    completed: dict = {}
    failures: list = []

    def work(job):
        n, trial, idx = job
        try:
            return job, _run_single_trial(config, n, trial, idx)
        except Exception as exc:
            return job, exc

    with ThreadPoolExecutor(max_workers=config.max_workers) as pool:
        for job, outcome in pool.map(work, jobs):
            n, trial, idx = job
            if isinstance(outcome, Exception):
                # an optimizer names the failing epoch; its cause says why
                cause = outcome.__cause__
                error = str(outcome) if cause is None else f"{outcome}: {cause}"
                failures.append({"n_qubits": n, "trial_id": trial, "error": error})
            else:
                completed[(n, trial)] = outcome

    # single writer, rows ordered by (n, trial) no matter who finished first
    lines = [results_csv_header(config.thresholds)]
    traces = []
    per_n_records: dict = {}
    for n, trial, idx in jobs:
        if (n, trial) not in completed:
            continue
        target, solution, record = completed[(n, trial)]
        lines.append(results_csv_row(n, record, config.thresholds))
        per_n_records.setdefault(n, []).append(record)
        entry = {
            "trial_id": record.trial_id,
            "n_qubits": n,
            "seed": record.seed,
            "fidelity_trace": record.fidelity_trace,
            "wall_time": record.wall_time,
            "target": _amplitude_payload(target.state),
            "solution": _amplitude_payload(solution),
        }
        traces.append(entry)
    (out / "results.csv").write_text("\n".join(lines) + "\n")

    summary = {
        "config": json.loads(config.to_json()),
        "failures": failures,
        "per_qubit_count": {
            str(n): summarize_records(recs, config.thresholds)
            for n, recs in sorted(per_n_records.items())
        },
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    (out / "traces.json").write_text(json.dumps(traces) + "\n")
    return summary


def _amplitude_payload(state) -> dict:
    if isinstance(state, PureState):
        return {
            "kind": "pure",
            "re": state.amplitudes.real.tolist(),
            "im": state.amplitudes.imag.tolist(),
        }
    flat = state.entries.reshape(-1)
    return {"kind": "density", "re": flat.real.tolist(), "im": flat.imag.tolist()}


# ---------------------------------------------------------------------------
# Single reconstructions and presets
# ---------------------------------------------------------------------------


def preset_target(name: str, n_qubits: int = 1, seed: int = 0) -> TargetSpec:
    """Named targets: zero, one, hadamard, random."""
    # checked before a 2**n_qubits amplitude vector is allocated
    if not 1 <= n_qubits <= MAX_TARGET_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_TARGET_QUBITS}], got {n_qubits}")
    if name == "zero":
        return TargetSpec(n_qubits, zero_state(n_qubits), seed=None)
    if name == "one":
        return TargetSpec(n_qubits, basis_state(n_qubits, 2**n_qubits - 1), seed=None)
    if name == "hadamard":
        amps = np.full(2**n_qubits, 2 ** (-n_qubits / 2), dtype=complex)
        return TargetSpec(n_qubits, PureState(n_qubits, amps), seed=None)
    if name == "random":
        state = sample_random_state(n_qubits, RngStream(seed))
        return TargetSpec(n_qubits, state, seed=seed)
    raise ValueError(
        f"unknown preset {name!r}; expected zero, one, hadamard, or random"
    )


def load_target_file(path) -> TargetSpec:
    """TargetSpec from a JSON file, with parse context in error messages."""
    text = Path(path).read_text()
    try:
        return TargetSpec.from_json(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: parse failure at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: invalid target record: {exc}") from exc


def reconstruct(target: TargetSpec, method: str = "es",
                representation: Representation = Representation.STATEVECTOR,
                mode: FidelityMode | None = None, seed: int = 0,
                max_iters: int = 100, thresholds=(0.95, 0.99),
                store: "SnapshotStore | None" = None, label: str | None = None,
                objective: str = "swap") -> dict:
    """One reconstruction run; optionally deposits the solution in a store."""
    mode = mode or FidelityMode.exact()
    check_mode(representation, mode, objective, target.state)
    solution, record = _optimize(
        target, method, representation, mode, RngStream(seed), thresholds,
        max_iters, objective,
    )
    stored_as = None
    if store is not None and isinstance(solution, PureState):
        stored_as = label or f"{method}-{representation.value}-seed{seed}"
        store.put(
            stored_as, solution,
            created_from={
                "method": method,
                "seed": seed,
                "fidelity": record.oracle_fidelity,
            },
        )
    return {
        "solution": solution,
        "record": record,
        "stored_as": stored_as,
    }


class SnapshotStore:
    """Directory of reconstructed states, one JSON file per label.

    Deposit keeps the exact amplitudes (bit-exact round trip); withdrawal is
    a get plus Mottonen synthesis on a device or simulator.
    """

    _LABEL_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, label: str) -> Path:
        if not self._LABEL_RE.match(label):
            raise ValueError(
                f"label {label!r} must be alphanumeric with ._- separators"
            )
        return self.root / f"{label}.json"

    def put(self, label: str, state: PureState, created_from: dict | None = None) -> None:
        path = self._path(label)
        if path.exists():
            raise ValueError(f"label {label!r} already exists in the store")
        payload = {
            "label": label,
            "n_qubits": state.n_qubits,
            "re": state.amplitudes.real.tolist(),
            "im": state.amplitudes.imag.tolist(),
            "created_from": created_from or {},
        }
        path.write_text(json.dumps(payload) + "\n")

    def get(self, label: str) -> PureState:
        path = self._path(label)
        if not path.exists():
            raise KeyError(f"no snapshot stored under label {label!r}")
        raw = json.loads(path.read_text())
        amps = np.asarray(raw["re"], dtype=float) + 1j * np.asarray(raw["im"], dtype=float)
        return PureState(int(raw["n_qubits"]), amps)

    def labels(self) -> list:
        return sorted(p.stem for p in self.root.glob("*.json"))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def default_partition(n_qubits: int) -> tuple:
    """First half of the register (single qubit for n <= 3)."""
    return tuple(range(max(1, n_qubits // 2)))


def entropy_report(pairs, partition=None) -> dict:
    """Target-vs-reconstruction entanglement entropies.

    ``pairs`` is a list of (circuit_id, target PureState, solution
    PureState); single-qubit circuits carry no bipartition and are skipped
    with a note.
    """
    if not pairs:
        raise ValueError("no reconstruction artifacts to report on")
    reports = []
    skipped = []
    for circuit_id, target, solution in pairs:
        if target.n_qubits < 2:
            skipped.append(circuit_id)
            continue
        part = tuple(partition) if partition is not None else default_partition(target.n_qubits)
        reports.append(
            EntropyReport(
                circuit_id=str(circuit_id),
                n_qubits=target.n_qubits,
                partition=part,
                target_entropy=bipartite_entropy(target, part),
                reconstructed_entropy=bipartite_entropy(solution, part),
            )
        )
    deltas = [abs(r.target_entropy - r.reconstructed_entropy) for r in reports]
    return {
        "reports": reports,
        "max_abs_delta": max(deltas) if deltas else 0.0,
        "skipped_single_qubit": skipped,
    }


def entropy_pairs_from_traces(traces_path) -> list:
    """Rebuild (id, target, solution) pure-state pairs from a traces.json."""
    path = Path(traces_path)
    if not path.exists():
        raise FileNotFoundError(f"missing reconstruction artifacts: {path}")
    entries = json.loads(path.read_text())
    pairs = []
    for e in entries:
        if e["target"]["kind"] != "pure" or e["solution"]["kind"] != "pure":
            continue
        n = e["n_qubits"]
        t = PureState(n, np.asarray(e["target"]["re"]) + 1j * np.asarray(e["target"]["im"]))
        s = PureState(
            n, np.asarray(e["solution"]["re"]) + 1j * np.asarray(e["solution"]["im"])
        )
        pairs.append((f"trial-{e['trial_id']}-n{n}", t, s))
    return pairs


def _channel_summary(name: str, ch: KrausChannel) -> dict:
    return {
        "channel": name,
        "arity": ch.arity,
        "operator_count": len(ch.operators),
        "completeness_residual": ch.completeness_residual(),
    }


def noise_inspect(spec: NoiseModelSpec) -> dict:
    """Parameters, operator counts, and completeness residuals per channel."""
    channels = [
        _channel_summary("bitflip", bitflip_channel(spec.p_bitflip)),
        _channel_summary("depolarizing_1q", depolarizing_channel(spec.p_dep1, 1)),
        _channel_summary("depolarizing_2q", depolarizing_channel(spec.p_dep2, 2)),
        _channel_summary(
            "thermal",
            thermal_relaxation_channel(spec.t1_us, spec.t2_us, spec.t_gate_ns),
        ),
        _channel_summary("single_qubit_composite", spec.single_qubit_channel),
        _channel_summary("cx_composite", spec.cx_channel),
    ]
    return {
        "parameters": json.loads(spec.to_json()),
        "channels": channels,
        "all_identity": all(
            spec.channel_for(k) is None for k in ("x", "cx")
        ),
    }
