"""swapfit benchmark runner.

    python3 perfbench/run.py --workload es-exact --seed 1 --seconds 30 --trace 0

Closed loop: this single-threaded process runs one `swapfit run` experiment
at a time, each in a fresh child process (child.py), so the estimator's
module-level caches start cold as they do for a command-line user.

--trace 0 repeats the workload while another rep fits in --seconds (at
least the workload's ``reps`` times), rep k at program seed
``seed * 1000 + k``, and reports the end-to-end metrics.  --trace 1 runs
the span self-test, then the workload once untraced and twice traced at the
same seed, then the estimator sweep for the rest of the time, and reports
the per-layer metrics.  Both check every run's outputs independently of the
program.  The last line of standard output is the result as JSON; metric
names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import selftest  # noqa: E402
from tracer import END, ID, NAME, PARENT, START, TRIAL, layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 150
# One BLAS thread per caller: the CLI's thread pool already runs four trial
# threads, and BLAS workers on top of them would measure the scheduler of a
# small machine rather than the program.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ORACLE_TOL = 1e-12
TRIAL_SPANS = ("evolution.run_es", "neural.train_generator")
CIRCUIT_SPANS = ("swap_test.swap_test_exact", "swap_test.swap_test_sampled")


def rep_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def run_child(spec: dict, workdir: Path) -> dict:
    spec = dict(spec, root=str(ROOT), result=str(workdir / "result.json"))
    spec["t_launch"] = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT, env={**os.environ, **CHILD_THREADS}, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode not in (0, 2) or not Path(spec["result"]).exists():
        raise RuntimeError(
            f"child {spec['job']} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(Path(spec["result"]).read_text())


def run_rep(wl, seed: int, traced: bool, workdir: Path) -> dict:
    workdir.mkdir(parents=True)
    out = workdir / "out"
    spec = {
        "job": "experiment", "trace": traced, "qubits": list(wl.qubits),
        "argv": wl.argv(seed, str(out)), "spans": str(workdir / "spans.json"),
    }
    rep = run_child(spec, workdir)
    rep.update(check_outputs(wl, out))
    if traced:
        rep["spans"] = [tuple(s) for s in json.loads((workdir / "spans.json").read_text())]
    return rep


# ---------------------------------------------------------------------------
# Output check, independent of the program
# ---------------------------------------------------------------------------


def _amplitudes(payload) -> np.ndarray:
    return np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def reference_fidelity(entry) -> tuple:
    """(fidelity of solution to target, deviation from the pure-target form).

    Pure solution: |<target|solution>|^2.  Density solution sigma against a
    pure target psi: the Uhlmann fidelity (Tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2,
    rho = |psi><psi|, which in exact arithmetic equals <psi|sigma|psi>; the
    second value reports how far the matrix-root form lands from that.
    """
    t = _amplitudes(entry["target"])
    s = _amplitudes(entry["solution"])
    if entry["solution"]["kind"] == "pure":
        return float(abs(np.vdot(t, s)) ** 2), 0.0
    d = t.shape[0]
    sigma = s.reshape(d, d)
    root = _psd_sqrt(sigma)
    inner = root @ np.outer(t, t.conj()) @ root
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    f = float(np.sum(np.sqrt(np.clip(vals, 0.0, None))) ** 2)
    return f, abs(f - float(np.real(np.vdot(t, sigma @ t))))


def check_outputs(wl, out: Path) -> dict:
    """Recompute every trial's oracle fidelity and count the failures."""
    csv_text = (out / "results.csv").read_text()
    rows = list(csv.DictReader(csv_text.splitlines()))
    traces = json.loads((out / "traces.json").read_text())
    failures = json.loads((out / "summary.json").read_text())["failures"]
    problems = []
    if len(rows) + len(failures) != wl.requested:
        problems.append(
            f"{len(rows)} rows + {len(failures)} failures != {wl.requested} requested"
        )
    if len(traces) != len(rows):
        problems.append(f"{len(traces)} traces for {len(rows)} rows")
    oracle = {(int(r["n_qubits"]), int(r["trial_id"])): float(r["oracle_fidelity"]) for r in rows}
    worst, pure_dev = 0.0, 0.0
    for e in traces:
        key = (e["n_qubits"], e["trial_id"])
        if key not in oracle:
            problems.append(f"trace {key} has no results.csv row")
            continue
        f, dev = reference_fidelity(e)
        worst = max(worst, abs(f - oracle[key]))
        pure_dev = max(pure_dev, dev)
    if worst > ORACLE_TOL:
        problems.append(f"oracle_fidelity differs from recomputation by {worst:.3e}")
    below = sum(f < wl.bar for f in oracle.values())
    return {
        "problems": problems,
        "attempted": wl.requested,
        "failed": len(failures) + below,
        "trial_walls": [e["wall_time"] for e in traces],
        "epochs": [len(e["fidelity_trace"]) for e in traces],
        "oracle": [oracle.get((e["n_qubits"], e["trial_id"])) for e in traces],
        "digest": hashlib.sha256(csv_text.encode()).hexdigest()[:16],
        "oracle_max_dev": worst,
        "pure_form_dev": pure_dev,
    }


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def fits(reps: list, deadline: float) -> bool:
    """Whether a rep as long as the median one so far ends by the deadline."""
    took = statistics.median(r["setup_s"] + r["wall_s"] for r in reps)
    return time.monotonic() + took < deadline


def run_untraced(wl, seed: int, deadline: float, tmp: Path) -> tuple:
    reps = []
    while len(reps) < wl.reps or fits(reps, deadline):
        k = len(reps)
        reps.append(run_rep(wl, rep_seed(seed, k), False, tmp / f"rep{k}"))
        r = reps[-1]
        print(
            f"rep {k}: seed {rep_seed(seed, k)} setup {r['setup_s']:.3f}s "
            f"wall {r['wall_s']:.3f}s trials {len(r['epochs'])} results.csv {r['digest']}"
        )
    walls = [w for r in reps for w in r["trial_walls"]]
    epoch_ms = [1000.0 * w / e for r in reps for w, e in zip(r["trial_walls"], r["epochs"])]
    det = reps[: wl.reps]  # a fixed set, so these repeat exactly at one seed
    det_epochs = [e for r in det for e in r["epochs"]]
    print(f"timed trials: {len(walls)} over {len(reps)} reps; "
          f"deterministic metrics over the first {wl.reps} reps ({len(det_epochs)} trials)")
    # p90 is information only: it is a bounded metric nowhere, because most
    # workloads time too few trials per run to leave ten samples beyond it
    print(f"info: trial_s_p90 {np.percentile(walls, 90):.4f} s, epoch_ms_p90 "
          f"{np.percentile(epoch_ms, 90):.3f} ms ({len(walls) // 10} samples beyond p90)")
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "trials_per_s": statistics.median(len(r["epochs"]) / r["wall_s"] for r in reps),
        "trial_s_p50": float(np.percentile(walls, 50)),
        "epoch_ms_p50": float(np.percentile(epoch_ms, 50)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "oracle_fidelity_mean": statistics.fmean(f for r in det for f in r["oracle"]),
        "epochs_mean": statistics.fmean(det_epochs),
        "evals_per_trial": sum(r["evals"] for r in det) / len(det_epochs),
    }
    return reps, metrics, []


def trace_metrics(rep: dict) -> dict:
    """Layer totals plus the derived swap_test / noise / harness ratios."""
    spans = rep["spans"]
    totals = layer_totals(spans)
    by_id = {s[ID]: s for s in spans}
    trials = [s for s in spans if s[NAME] in TRIAL_SPANS]
    run = next(s for s in spans if s[NAME] == "harness.run_experiment")
    run_wall = run[END] - run[START]
    trial_wall = sum(s[END] - s[START] for s in trials)
    evals = totals.get("swap_test.score_candidate", {}).get("calls", 0)

    # circuit evaluations per n: score_candidate spans with a circuit child
    circuit_evals: dict = {}
    dm_calls, noisy_evals = 0, set()
    for s in spans:
        parent = by_id.get(s[PARENT])
        if s[NAME] in CIRCUIT_SPANS and parent and parent[NAME] == "swap_test.score_candidate":
            n = s[TRIAL].split("/")[0][1:]
            circuit_evals[n] = circuit_evals.get(n, 0) + 1
        if s[NAME] == "noise.run_circuit_dm_noisy":
            dm_calls += 1
            if parent and parent[NAME] == "swap_test.swap_test_sampled":
                noisy_evals.add(parent[ID])
    cx = sum(rep["cx_per_circuit"][n] * c for n, c in circuit_evals.items())
    derived = {
        "swap_test.cx_per_eval": cx / evals if evals else 0.0,
        "noise.target_prep_reuse": (
            1.0 - (dm_calls - len(noisy_evals)) / len(noisy_evals) if noisy_evals else 0.0
        ),
        "harness.inflight_mean": trial_wall / run_wall,
        "harness.cpu_per_wall": rep["cpu_s"] / rep["wall_s"],
        "harness.wait_share": sum(totals[n]["wait_s"] for n in TRIAL_SPANS if n in totals)
        / trial_wall,
        "harness.persist_s": run[END] - max(s[END] for s in trials),
        "harness.trial_wall_s": trial_wall,
    }
    return {"totals": totals, "derived": derived}


def run_traced(wl, seed: int, deadline: float, tmp: Path, names: list) -> tuple:
    problems = [f"self-test: {p}" for p in selftest.run()]
    print("span bookkeeping self-test:", "FAIL" if problems else "PASS")
    s0 = rep_seed(seed, 0)
    t1 = run_rep(wl, s0, True, tmp / "traced1")
    plain = run_rep(wl, s0, False, tmp / "untraced")
    t2 = run_rep(wl, s0, True, tmp / "traced2")
    reps = [t1, plain, t2]
    for label, r in zip(("traced", "untraced", "traced"), reps):
        print(f"{label}: seed {s0} wall {r['wall_s']:.3f}s results.csv {r['digest']}")
    if t1["untraced_targets"]:
        print(f"not traced (absent from the program): {t1['untraced_targets']}")

    # deterministic counts repeat exactly at one seed
    for key in ("epochs", "oracle"):
        if not t1[key] == plain[key] == t2[key]:
            problems.append(f"{key} differ between runs at seed {s0}")
    m1, m2 = trace_metrics(t1), trace_metrics(t2)
    calls1 = {n: t["calls"] for n, t in m1["totals"].items()}
    calls2 = {n: t["calls"] for n, t in m2["totals"].items()}
    if calls1 != calls2:
        problems.append("span call counts differ between the two traced runs")
    if calls1.get("swap_test.score_candidate", 0) != plain["evals"]:
        problems.append("traced and untraced SWAP-test evaluation counts differ")

    # bypass predictions
    for name in wl.zero_calls:
        got = calls1.get(name, 0)
        print(f"prediction: zero {name} calls ... {'holds' if got == 0 else f'FAILS ({got})'}")
        if got:
            problems.append(f"bypass prediction broken: {got} {name} calls")

    sweep_dir = tmp / "sweep"
    sweep_dir.mkdir()
    sweep = run_child(
        {"job": "sweep", "seed": s0, "budget_s": max(0.0, deadline - time.monotonic())},
        sweep_dir,
    )
    print(f"estimator sweep: {sweep['rounds']} round(s)")

    metrics = {}
    for name in names:
        layer, _, stat = name.rpartition(".")
        if name in m1["derived"]:
            metrics[name] = (m1["derived"][name] + m2["derived"][name]) / 2.0
        elif name == "trace.overhead":
            metrics[name] = (t1["wall_s"] + t2["wall_s"]) / 2.0 / plain["wall_s"]
        elif stat == "us":
            samples = sweep["samples_s"][layer.removeprefix("swap_test.")]
            metrics[name] = 1e6 * statistics.median(samples)
        elif stat == "calls":
            metrics[name] = m1["totals"].get(layer, {}).get("calls", 0)
        elif stat in ("busy_share", "wait_share", "self_share"):
            # a share of the summed trial wall time, so a bypassed layer reads 0
            # as a ratio; harness.trial_wall_s turns it back into seconds
            key = stat.replace("_share", "_s")
            metrics[name] = statistics.fmean(
                m["totals"].get(layer, {}).get(key, 0.0) / m["derived"]["harness.trial_wall_s"]
                for m in (m1, m2)
            )
        else:
            raise ValueError(f"per-layer metric {name!r} has no definition")
    return reps, metrics, problems


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def environment(rep: dict) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "max_workers": rep["max_workers"],
        **CHILD_THREADS,
        **rep["versions"],
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.seconds

    if not (ROOT / "src" / "swapfit" / "__init__.py").exists():
        print(f"error: no swapfit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    wl = WORKLOADS[args.workload]

    scratch = ROOT / ".perfbench_runs"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        if args.trace:
            reps, metrics, problems = run_traced(wl, args.seed, deadline, Path(tmp), list(units))
        else:
            reps, metrics, problems = run_untraced(wl, args.seed, deadline, Path(tmp))
    if set(metrics) != set(units):
        raise ValueError(f"metrics {sorted(set(metrics) ^ set(units))} not as declared")

    for r in reps:
        problems += r["problems"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print("environment:", json.dumps(environment(reps[0])))
    print(
        f"output check: oracle_fidelity vs recomputation max "
        f"{max(r['oracle_max_dev'] for r in reps):.1e} (tolerance {ORACLE_TOL:.0e}); "
        f"failed_frac {failed / attempted:.4f} ({failed}/{attempted}, bar {wl.bar})"
    )
    if any(r["pure_form_dev"] for r in reps):
        print(f"info: Uhlmann matrix-root form vs <psi|sigma|psi>: max deviation "
              f"{max(r['pure_form_dev'] for r in reps):.1e}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    for name in units:
        print(f"  {name:<40} {metrics[name]:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
