"""The benchmark's workloads: `swapfit run` command lines and their checks.

Each workload is the argument list a user would give `swapfit run`; the
benchmark adds only `--trials`, `--seed` and `--out`.  The CLI builds the
ExperimentConfig, so `max_workers` stays at its default.  Why each workload
was chosen, and which layer numbers should move it, is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

NEURAL = (
    "neural.train_generator", "neural.init_mlp", "neural.mlp_forward",
    "neural.fd_gradient", "neural.mlp_backward", "neural.adam_step",
)
NOISE = ("noise.run_circuit_dm_noisy",)
UHLMANN = ("metrics.uhlmann_fidelity",)


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple  # `swapfit run` flags other than --qubits/--trials/--seed/--out
    qubits: tuple  # inclusive (lo, hi)
    trials: int  # per qubit count, per run_experiment call
    reps: int  # minimum reps per run; the deterministic metrics use these
    bar: float  # oracle fidelity below this counts the trial as failed
    zero_calls: tuple  # spans the traced run must not see (bypass predictions)

    @property
    def requested(self) -> int:
        lo, hi = self.qubits
        return self.trials * (hi - lo + 1)

    def argv(self, seed: int, out: str) -> list:
        lo, hi = self.qubits
        return [
            "run", *self.flags, "--qubits", f"{lo}:{hi}",
            "--trials", str(self.trials), "--seed", str(seed), "--out", out,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "es-exact",
            ("--method", "es", "--mode", "exact", "--max-iters", "100"),
            qubits=(1, 3), trials=10, reps=6, bar=0.99,
            zero_calls=NOISE + NEURAL + UHLMANN,
        ),
        Workload(
            "es-noisy",
            ("--method", "es", "--mode", "noisy", "--noise", "default",
             "--shots", "1024", "--max-iters", "30"),
            qubits=(1, 1), trials=2, reps=3, bar=0.95,
            zero_calls=("sim.run_circuit",) + NEURAL + UHLMANN,
        ),
        Workload(
            "nn-exact",
            ("--method", "nn", "--mode", "exact", "--max-iters", "500"),
            qubits=(2, 2), trials=4, reps=5, bar=0.99,
            zero_calls=NOISE + UHLMANN,
        ),
        Workload(
            "nn-density",
            ("--method", "nn", "--repr", "density", "--objective", "uhlmann",
             "--mode", "exact", "--max-iters", "500"),
            qubits=(2, 2), trials=2, reps=4, bar=0.99,
            zero_calls=NOISE + ("sim.run_circuit", "swap_test.swap_test_exact"),
        ),
    )
}
