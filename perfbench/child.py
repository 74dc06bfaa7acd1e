"""One measured process: a `swapfit run` experiment, or the estimator sweep.

Invoked by run.py as ``python3 child.py <spec-json>``; never imported by the
runner.  The spec names the checkout root, the job and where to write its
result.  An experiment goes through `swapfit.cli.main` exactly as the
command line does; ``cli.run_experiment`` is wrapped to take the set-up,
wall and CPU times of the call, and with ``trace`` set every function in
tracer.PATCHES is wrapped in a span.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time
from pathlib import Path


def _import_program(root: Path) -> None:
    """Import swapfit from the checkout's src/, and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import swapfit

    if Path(swapfit.__file__).resolve().parent != (src / "swapfit").resolve():
        raise SystemExit(f"swapfit imported from {swapfit.__file__}, not from {src}")


def _versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_experiment_job(spec: dict) -> dict:
    from swapfit import cli, evolution, neural

    tracer = counter = None
    if spec["trace"]:
        from tracer import Tracer  # this script's directory is on sys.path

        cx_per_circuit = _cx_per_circuit(spec["qubits"])  # before any patching
        tracer = Tracer()
        tracer.install()
    else:
        # untraced: a bare counter of SWAP-test evaluations, no clocks
        counter = itertools.count()

        def counting(fn):
            def counted(*args, **kwargs):
                next(counter)
                return fn(*args, **kwargs)
            return counted

        evolution.score_candidate = counting(evolution.score_candidate)
        neural.score_candidate = counting(neural.score_candidate)

    timing: dict = {}
    real_run = cli.run_experiment

    def timed_run(config, out_dir):
        timing["ready"] = time.monotonic()
        timing["max_workers"] = config.max_workers
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            return real_run(config, out_dir)
        finally:
            timing["wall_s"] = time.perf_counter() - t0
            timing["cpu_s"] = time.process_time() - cpu0

    cli.run_experiment = (
        tracer.wrap(timed_run, "harness.run_experiment") if tracer else timed_run
    )
    rc = cli.main(spec["argv"])
    result = {
        "rc": rc,
        "setup_s": timing["ready"] - spec["t_launch"],
        "wall_s": timing["wall_s"],
        "cpu_s": timing["cpu_s"],
        "max_workers": timing["max_workers"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if tracer is None:
        result["evals"] = next(counter)
    else:
        result["untraced_targets"] = tracer.missing
        result["cx_per_circuit"] = cx_per_circuit
        Path(spec["spans"]).write_text(json.dumps(tracer.spans))
    return result


def _cx_per_circuit(qubits) -> dict:
    """cx count of the full lowered SWAP-test circuit per n, generic inputs."""
    from swapfit.prep import sample_random_state
    from swapfit.sim import RngStream
    from swapfit.swap_test import noisy_circuit_ops

    lo, hi = qubits
    rng = RngStream(0)
    out = {}
    for n in range(lo, hi + 1):
        psi, phi = sample_random_state(n, rng), sample_random_state(n, rng)
        out[str(n)] = sum(op.kind == "cx" for op in noisy_circuit_ops(psi, phi))
    return out


# Estimator sweep: mode -> {n: timed calls per round}.  Noisy stops at
# n=3 because one n=4 call costs about a second.
SWEEP = {
    "exact": {n: 20 for n in range(1, 7)},
    "sampled": {n: 20 for n in range(1, 7)},
    "noisy": {1: 20, 2: 10, 3: 4},
}


def run_sweep_job(spec: dict) -> dict:
    """Median microseconds per score_candidate call, per mode and n.

    Each (mode, n) gets one untimed call first so the estimator's caches
    are warm, as they are after the first epoch of a run.  Rounds repeat
    until the time budget is spent.
    """
    from swapfit.noise import default_noise_model
    from swapfit.prep import sample_random_state
    from swapfit.sim import RngStream
    from swapfit.swap_test import FidelityMode, score_candidate

    modes = {
        "exact": FidelityMode.exact(),
        "sampled": FidelityMode.sampled(1024),
        "noisy": FidelityMode.noisy(default_noise_model(), 1024),
    }
    rng = RngStream(spec["seed"])
    cases = []
    for kind, calls_per_n in SWEEP.items():
        for n, calls in calls_per_n.items():
            target = sample_random_state(n, rng)
            cands = [sample_random_state(n, rng) for _ in range(8)]
            score_candidate(cands[0], target, modes[kind], rng)
            cases.append((f"{kind}.n{n}", target, cands, modes[kind], calls))
    samples = {key: [] for key, *_ in cases}
    deadline = time.monotonic() + spec["budget_s"]
    rounds = 0
    while rounds == 0 or time.monotonic() < deadline:
        for key, target, cands, mode, calls in cases:
            for i in range(calls):
                t0 = time.perf_counter()
                score_candidate(cands[i % len(cands)], target, mode, rng)
                samples[key].append(time.perf_counter() - t0)
        rounds += 1
    return {"rounds": rounds, "samples_s": samples}


def main() -> None:
    spec = json.loads(sys.argv[1])
    _import_program(Path(spec["root"]))
    job = run_experiment_job if spec["job"] == "experiment" else run_sweep_job
    result = job(spec)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
