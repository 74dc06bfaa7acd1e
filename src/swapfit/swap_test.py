"""The controlled-SWAP fidelity estimator: the system's only feedback signal.

Register layout on 2n+1 qubits: qubit 0 is the ancilla, qubits 1..n hold
the target, qubits n+1..2n the candidate.  The circuit is H(ancilla),
a controlled SWAP per qubit pair, H(ancilla); then F = 2 P(0) - 1 = <Z> on
the ancilla, and every estimator here returns that reading as a float.
For pure inputs it equals |<psi|phi>|^2; for mixed inputs the same
circuit measures Tr(rho sigma), which is NOT the Uhlmann fidelity (see
metrics for the consequences).

Noiseless pure readings are scored in closed form: P(0) = (1 + |<psi|phi>|^2)/2
(Buhrman et al., quant-ph/0102001), so ``score_candidate`` and the
noiseless branch of ``swap_test_sampled`` use ``fidelity_oracle`` and
simulate no circuit.  ``swap_test_exact`` still simulates the gadget; it
is the reference the tests hold the closed form to.  Noisy readings draw
their shots from the exact ancilla-zero probability of the whole lowered
circuit under the noise model, factorized per qubit pair
(``_target_observable``) so that no (2n+1)-qubit density matrix is built,
with each side's noisy preparation run from the Mottonen template compiled
for n (``noise.prepare_dm_noisy``); ``noisy_circuit_ops`` is the full
circuit the tests hold it to.  An optimizer prepares a population or probe
block as one stack (``prepare_noisy_candidates``) and still scores each
candidate with its own ``score_candidate`` call: the readings draw from the
random stream in the same order, and each is counted as one reading by the
trial record and by the benchmark, which counts those calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .metrics import hs_overlap, uhlmann_fidelity
from .noise import (
    NoiseModelSpec,
    apply_superop_dm,
    default_noise_model,
    prepare_dm_noisy,
)
from .prep import TargetSpec, prepare_on
from .sim import (
    GateOp,
    PureState,
    RngStream,
    expectation_z,
    lower_ops,
    run_circuit,
    zero_state,
)


@dataclass(frozen=True)
class RegisterLayout:
    """Index bookkeeping for the 2n+1-qubit estimator register."""

    n_qubits: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")

    @property
    def ancilla(self) -> int:
        return 0

    @property
    def target(self) -> tuple:
        return tuple(range(1, self.n_qubits + 1))

    @property
    def candidate(self) -> tuple:
        return tuple(range(self.n_qubits + 1, 2 * self.n_qubits + 1))

    @property
    def total(self) -> int:
        return 2 * self.n_qubits + 1


DEFAULT_SHOTS = 1024


def fidelity_oracle(psi: PureState, phi: PureState) -> float:
    """Exact |<psi|phi>|^2 straight from the amplitudes.

    This is the independent reference every circuit-based estimate is
    checked against; it never touches the simulator.
    """
    if psi.n_qubits != phi.n_qubits:
        raise ValueError(
            f"qubit-count mismatch: {psi.n_qubits} vs {phi.n_qubits}"
        )
    return float(abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2)


def swap_gadget_ops(n_qubits: int) -> list[GateOp]:
    """H(ancilla), one cswap per pair, H(ancilla); not yet lowered."""
    lay = RegisterLayout(n_qubits)
    ops = [GateOp.h(lay.ancilla)]
    for t, c in zip(lay.target, lay.candidate):
        ops.append(GateOp.cswap(lay.ancilla, t, c))
    ops.append(GateOp.h(lay.ancilla))
    return ops


def _joint_state(psi: PureState, phi: PureState) -> PureState:
    n = psi.n_qubits
    total = 2 * n + 1
    amps = np.zeros(2**total, dtype=complex)
    joint = np.kron(psi.amplitudes, phi.amplitudes)
    amps[: joint.shape[0]] = joint  # ancilla (qubit 0, MSB) starts in |0>
    return PureState(total, amps, check=False)


def swap_test_exact(psi: PureState, phi: PureState) -> float:
    """Simulate the estimator circuit and read the exact ancilla <Z> = 2 P(0) - 1."""
    if psi.n_qubits != phi.n_qubits:
        raise ValueError(
            f"qubit-count mismatch: {psi.n_qubits} vs {phi.n_qubits}"
        )
    state = run_circuit(_joint_state(psi, phi), swap_gadget_ops(psi.n_qubits))
    return expectation_z(state, 0)


def noisy_circuit_ops(psi: PureState, phi: PureState) -> list[GateOp]:
    """The full lowered circuit: both Mottonen preparations plus the gadget.

    Everything is expressed in {rz, sx, x, cx} so the noise model attaches a
    channel to each instruction, exactly as on hardware.
    """
    n = psi.n_qubits
    ops = prepare_on(2 * n + 1, psi, offset=1)
    ops += prepare_on(2 * n + 1, phi, offset=n + 1)
    ops += lower_ops(swap_gadget_ops(n))
    return ops


def _pull_back(obs: np.ndarray, n_qubits: int, ops, noise: NoiseModelSpec) -> np.ndarray:
    """Heisenberg picture: ``obs`` conjugated backward through the noisy ops."""
    for op in reversed(ops):
        obs = apply_superop_dm(obs, n_qubits, op.qubits, noise.gate_transfer(op).conj().T)
    return obs


@lru_cache(maxsize=128)
def _target_observable(noise: NoiseModelSpec, n_qubits: int, amplitudes: bytes) -> np.ndarray:
    """M_psi with p0 = Tr(M_psi rho_phi), before the readout flip.

    The two preparations act on disjoint registers, every channel acts on
    its own gate's qubits, and the lowered cswap of pair i touches only
    (ancilla, t_i, c_i).  So the gadget's pulled-back ancilla-zero projector
    is a chain over the pairs, linked by the ancilla's 4-dimensional
    operator space (a matrix product operator of bond 4, Schollwoeck,
    arXiv:1008.3477).  Its one site tensor is each ancilla matrix unit
    (x) I pulled back through the lowered cswap.  Contracted site by site
    with the noisy target state, between the first H's ancilla state and
    the second H's pulled-back projector, it leaves an operator on the
    candidate register; intermediates hold 4^(n+1) entries.  Cached per
    (model, n, target): a run scores thousands of candidates per target.
    """
    p_zero = np.array([[1, 0], [0, 0]], dtype=complex)
    h = lower_ops([GateOp.h(0)])
    rho_a = p_zero
    for op in h:
        rho_a = apply_superop_dm(rho_a, 1, op.qubits, noise.gate_transfer(op))
    closing = _pull_back(p_zero, 1, h, noise).reshape(4)
    block = lower_ops([GateOp.cswap(0, 1, 2)])
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    site = np.stack([_pull_back(np.kron(u, np.eye(4)), 3, block, noise) for u in units])
    # [unit, a_r, t_r, c_r, a_c, t_c, c_c] -> [unit, (c_r c_c), (a_r a_c), (t_c t_r)]
    site = site.reshape((4,) + (2,) * 6).transpose(0, 3, 6, 1, 4, 5, 2).reshape(4, 4, 4, 4)

    n = n_qubits
    rho_t = prepare_dm_noisy(np.frombuffer(amplitudes, dtype=complex)[None, :], noise)[0]
    # one (row, col) index pair per qubit, qubit 0 first; the bond starts as
    # Tr(rho_a E_kl) = rho_a[l, k] for the matrix unit E_kl
    pairs = rho_t.reshape((2,) * (2 * n)).transpose([a for q in range(n) for a in (q, n + q)])
    acc = np.outer(rho_a.T.reshape(4), pairs.reshape(-1))
    for _ in range(n):
        # trace out the next target pair; its candidate pair goes to the back
        acc = np.tensordot(site, acc.reshape(4, 4, -1), axes=([2, 3], [0, 1]))
        acc = acc.transpose(0, 2, 1)
    m = (closing @ acc.reshape(4, -1)).reshape((2,) * (2 * n))
    m = m.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))
    m = np.ascontiguousarray(m.reshape(1 << n, 1 << n))
    m.flags.writeable = False
    return m


def _noisy_exact_p0(psi: PureState, phi: PureState, noise: NoiseModelSpec,
                    prepared: np.ndarray | None = None) -> float:
    """Exact ancilla-zero probability of the noisy circuit, readout flip included.

    Equal to the full (2n+1)-qubit density-matrix run of ``noisy_circuit_ops``;
    per candidate only its own n-qubit noisy preparation is evolved, by
    ``prepare_dm_noisy`` from the Mottonen template compiled for n: no gate
    op is built and the general executor does not run.  ``prepared`` is
    that preparation when the caller already made it as one row of a stack
    (``prepare_noisy_candidates``); otherwise it is made here as a one-row
    stack.
    """
    n = psi.n_qubits
    m = _target_observable(noise, n, psi.amplitudes.tobytes())
    if prepared is None:
        prepared = prepare_dm_noisy(phi.amplitudes[None, :], noise)[0]
    return noise.flip_readout(float(np.real(np.vdot(m, prepared))))


def swap_test_sampled(psi: PureState, phi: PureState, shots: int = DEFAULT_SHOTS,
                      noise: NoiseModelSpec | None = None,
                      rng: RngStream | None = None,
                      prepared: np.ndarray | None = None) -> float:
    """Shot-sampled reading, optionally through the noise model.

    The reading is 2 p0 - 1 with p0 the ancilla-zero frequency over
    ``shots``.  The shot outcomes are one binomial draw from the exact
    ancilla-zero probability, which is distributionally identical to
    simulating shots one by one.  Noiseless mode takes that probability in closed form,
    (1 + |<psi|phi>|^2) / 2; noisy mode takes it from ``_noisy_exact_p0``,
    with ``phi``'s noisy preparation ``prepared`` if the caller made it.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if rng is None:
        raise ValueError("sampled mode requires an RngStream")
    if psi.n_qubits != phi.n_qubits:
        raise ValueError(
            f"qubit-count mismatch: {psi.n_qubits} vs {phi.n_qubits}"
        )
    if noise is not None and not noise.is_noiseless:
        p_true = _noisy_exact_p0(psi, phi, noise, prepared)
    else:
        p_true = (1.0 + fidelity_oracle(psi, phi)) / 2.0
    zeros = int(rng.gen.binomial(shots, min(1.0, max(0.0, p_true))))
    return 2.0 * (zeros / shots) - 1.0


def iterate_snapshot(target: TargetSpec, candidate_source, budget: int) -> list[float]:
    """Run the reconstruction loop shape and record every fidelity readout.

    Each iteration is one simulated execution: the register starts fresh,
    the target is Mottonen-prepared on its qubits, the ancilla and candidate
    registers are formally reset, the iteration's candidate is prepared, and
    the gadget runs with an exact readout.  ``candidate_source(i, last)``
    supplies candidate i and receives the previous iteration's fidelity
    (None on the first call).
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    state = target.state
    if not isinstance(state, PureState):
        raise TypeError("iterate_snapshot requires a pure target")
    n = state.n_qubits
    lay = RegisterLayout(n)
    target_prep = prepare_on(lay.total, state, offset=lay.target[0])
    # resets land on qubits that a fresh execution leaves in |0>, so their
    # outcome is deterministic and the throwaway stream is never observable
    quiet = RngStream(0)
    reset_ops = [GateOp.reset(lay.ancilla)] + [GateOp.reset(q) for q in lay.candidate]
    gadget = swap_gadget_ops(n)
    trace: list[float] = []
    last: float | None = None
    for i in range(budget):
        try:
            candidate = candidate_source(i, last)
        except Exception as exc:
            raise RuntimeError(f"candidate source failed at iteration {i}") from exc
        if candidate.n_qubits != n:
            raise ValueError(
                f"candidate at iteration {i} has {candidate.n_qubits} qubit(s), expected {n}"
            )
        reg = run_circuit(zero_state(lay.total), target_prep)
        reg = run_circuit(reg, reset_ops, rng=quiet)
        reg = run_circuit(reg, prepare_on(lay.total, candidate, offset=lay.candidate[0]))
        reg = run_circuit(reg, gadget)
        last = expectation_z(reg, lay.ancilla)
        trace.append(last)
    return trace


# ---------------------------------------------------------------------------
# Fidelity modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FidelityMode:
    """How candidate fidelity is measured during optimization.

    kind "exact" reads the analytic ancilla expectation; "sampled" draws a
    finite shot count; "noisy" additionally routes the full lowered circuit
    through a noise model.
    """

    kind: str
    shots: int | None = None
    noise: NoiseModelSpec | None = None

    def __post_init__(self):
        if self.kind not in ("exact", "sampled", "noisy"):
            raise ValueError(f"unknown fidelity mode {self.kind!r}")
        if self.kind in ("sampled", "noisy") and (self.shots is None or self.shots < 1):
            raise ValueError(f"{self.kind} mode requires a positive shot count")
        if self.kind == "noisy" and self.noise is None:
            raise ValueError("noisy mode requires a NoiseModelSpec")

    @staticmethod
    def exact() -> "FidelityMode":
        return FidelityMode("exact")

    @staticmethod
    def sampled(shots: int = DEFAULT_SHOTS) -> "FidelityMode":
        return FidelityMode("sampled", shots=shots)

    @staticmethod
    def noisy(noise: NoiseModelSpec, shots: int = DEFAULT_SHOTS) -> "FidelityMode":
        return FidelityMode("noisy", shots=shots, noise=noise)

    def label(self) -> str:
        if self.kind == "exact":
            return "exact"
        return f"{self.kind}({self.shots})"

    @staticmethod
    def from_label(label: str) -> "FidelityMode":
        if not isinstance(label, str):
            raise ValueError(f"fidelity mode label must be a string, got {label!r}")
        if label == "exact":
            return FidelityMode.exact()
        for kind in ("sampled", "noisy"):
            if label.startswith(kind + "(") and label.endswith(")"):
                shots = int(label[len(kind) + 1 : -1])
                if kind == "sampled":
                    return FidelityMode.sampled(shots)
                return FidelityMode.noisy(default_noise_model(), shots)
        raise ValueError(f"unparseable fidelity mode label {label!r}")


OBJECTIVES = ("swap", "uhlmann")


def check_objective(objective: str) -> None:
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")


def prepare_noisy_candidates(candidates: list, target, mode: FidelityMode,
                             objective: str = "swap") -> list:
    """Each candidate's noisy preparation, all made as one stack, for the
    ``prepared`` argument of that candidate's own ``score_candidate`` call.

    Only a noisy-mode "swap" reading of a pure pair under a model with
    noise prepares the candidate; for any other reading the list holds
    None per candidate and ``score_candidate`` needs nothing.  The
    preparations of a population or a probe block are one
    ``prepare_dm_noisy`` call, which is where a noisy reading spends most
    of its time; the readings stay one call each, in order, so each draws
    from the stream exactly as before and each is counted as one reading.
    """
    if (mode.kind != "noisy" or objective != "swap" or mode.noise.is_noiseless
            or not isinstance(target, PureState)
            or not all(isinstance(c, PureState) for c in candidates)):
        return [None] * len(candidates)
    return list(prepare_dm_noisy(np.stack([c.amplitudes for c in candidates]), mode.noise))


def score_candidate(candidate, target, mode: FidelityMode,
                    rng: RngStream | None = None, objective: str = "swap",
                    prepared: np.ndarray | None = None) -> float:
    """Fidelity signal for one candidate against the target.

    Pure-vs-pure with the "swap" objective is the SWAP-test reading per
    ``mode``: exact mode returns the noiseless reading in closed form,
    |<psi|phi>|^2 via ``fidelity_oracle`` (the circuit, ``swap_test_exact``,
    is its tested reference); sampled and noisy modes go through
    ``swap_test_sampled``.  Pure-vs-pure with "uhlmann" is the same
    |<psi|phi>|^2, which is what the Uhlmann fidelity of two pure states
    equals.  When either side is a density matrix the evaluation is exact,
    so any other mode is rejected.  A pure side psi against a density
    matrix sigma reads <psi|sigma|psi> in closed form under both
    objectives: it is the overlap Tr(rho sigma) the circuit would report
    and also the Uhlmann fidelity (Jozsa 1994).  Two density matrices keep
    the matrix-root forms: "swap" gives the Hilbert-Schmidt overlap,
    "uhlmann" the proper mixed-state fidelity.  ``prepared`` is the
    candidate's noisy preparation from ``prepare_noisy_candidates``, or
    None; only a noisy reading uses it.
    """
    check_objective(objective)
    cand_pure = isinstance(candidate, PureState)
    targ_pure = isinstance(target, PureState)
    if cand_pure and targ_pure:
        if objective == "uhlmann" or mode.kind == "exact":
            return fidelity_oracle(target, candidate)
        return swap_test_sampled(
            target, candidate, shots=mode.shots, noise=mode.noise, rng=rng,
            prepared=prepared,
        )
    if mode.kind != "exact":
        raise ValueError(
            f"density-matrix inputs are scored exactly; {mode.label()} mode is not supported"
        )
    if cand_pure or targ_pure:
        psi, sigma = (candidate, target) if cand_pure else (target, candidate)
        if psi.n_qubits != sigma.n_qubits:
            raise ValueError(
                f"qubit-count mismatch: {candidate.n_qubits} vs {target.n_qubits}"
            )
        a = psi.amplitudes
        f = float(np.real(np.vdot(a, sigma.entries @ a)))
        return min(1.0, max(0.0, f))
    if objective == "swap":
        return hs_overlap(candidate, target)
    return uhlmann_fidelity(candidate, target)
