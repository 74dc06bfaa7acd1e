"""The controlled-SWAP fidelity estimator: the system's only feedback signal.

Register layout on 2n+1 qubits: qubit 0 is the ancilla, qubits 1..n hold
the target, qubits n+1..2n the candidate.  The circuit is H(ancilla),
a controlled SWAP per qubit pair, H(ancilla); then F = 2 P(0) - 1 = <Z> on
the ancilla, and ``score_candidate`` returns that reading as a float.
For pure inputs it equals |<psi|phi>|^2; for mixed inputs the same
circuit measures Tr(rho sigma), which is NOT the Uhlmann fidelity (see
metrics for the consequences).

A trial builds one ``Estimator`` for its target, mode and objective; it
validates them once and holds what the target fixes.  Noiseless pure
readings are scored in closed form: P(0) = (1 + |<psi|phi>|^2)/2 (Buhrman
et al., quant-ph/0102001), via ``fidelity_oracle``, and no circuit is
simulated; the tests hold it to the gadget simulated op by op, a reference
that lives in ``tests/oracles.py``.  Noisy readings draw their
shots from the exact ancilla-zero probability of the whole lowered circuit
under the noise model, factorized per qubit pair (``_target_observable``,
M_psi, built once per estimator from the gadget's site tensor, which the
noise model builds once) so that no (2n+1)-qubit density matrix is
built, with each side's noisy preparation run from the Mottonen template
compiled for n (``noise.prepare_dm_noisy``); ``noisy_circuit_ops`` is the
full circuit the tests hold it to, through the op-by-op noisy executor in
``tests/oracles.py``.  ``Estimator.values`` scores a whole
population or probe block, as decoded by ``Representation.decode_rows``,
with a few array operations: one BLAS dot per row, or in noisy mode one
stacked preparation and one dot per row, and no state object per row.
Each candidate's reading is still its own ``score_candidate`` call: the
readings draw from the random stream in the same order, and each is
counted as one reading by the trial record and by the benchmark, which
counts those calls.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .metrics import hs_overlap, uhlmann_fidelity
from .noise import NoiseModelSpec, default_noise_model, prepare_dm_noisy
from .prep import prepare_on
from .sim import (
    DensityMatrix,
    GateOp,
    PureState,
    RngStream,
    lower_ops,
)


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
    """H(ancilla), one cswap per pair, H(ancilla); not yet lowered.

    Ancilla 0, target 1..n, candidate n+1..2n, as in the module docstring.
    """
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    cswaps = [GateOp.cswap(0, t, t + n_qubits) for t in range(1, n_qubits + 1)]
    return [GateOp.h(0), *cswaps, GateOp.h(0)]


def noisy_circuit_ops(psi: PureState, phi: PureState) -> list[GateOp]:
    """The full lowered circuit: both Mottonen preparations plus the gadget.

    Everything is expressed in {rz, sx, x, cx} so the noise model attaches a
    channel to each instruction, exactly as on hardware.  No command builds
    it: the tests run it op by op as the reference for noisy readings, and
    perfbench's traced run counts its cx.
    """
    n = psi.n_qubits
    ops = prepare_on(2 * n + 1, psi, offset=1)
    ops += prepare_on(2 * n + 1, phi, offset=n + 1)
    ops += lower_ops(swap_gadget_ops(n))
    return ops


def _target_observable(noise: NoiseModelSpec, psi: PureState) -> np.ndarray:
    """M_psi with p0 = Tr(M_psi rho_phi), before the readout flip.

    The two preparations act on disjoint registers, every channel acts on
    its own gate's qubits, and the lowered cswap of pair i touches only
    (ancilla, t_i, c_i).  So the gadget's pulled-back ancilla-zero projector
    is a chain over the pairs, linked by the ancilla's 4-dimensional
    operator space (a matrix product operator of bond 4, Schollwoeck,
    arXiv:1008.3477).  Its one site tensor is each ancilla matrix unit
    (x) I pulled back through the lowered cswap.  The site, the first H's
    ancilla state and the second H's pulled-back projector depend on the
    noise model alone, which builds them once (``noise.swap_gadget``).
    What is left here is psi's part: the site contracted pair by pair with
    the noisy target state, between those two ends, leaves an operator on
    the candidate register; intermediates hold 4^(n+1) entries.  A trial's
    ``Estimator`` builds it once for the thousands of candidates it reads.
    """
    rho_a, closing, site = noise.swap_gadget
    n = psi.n_qubits
    rho_t = prepare_dm_noisy(psi.amplitudes[None, :], noise)[0]
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
    return np.ascontiguousarray(m.reshape(1 << n, 1 << n))


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


def check_mode(mode: FidelityMode, objective: str, density: bool = False) -> None:
    """The one exact-only rule, applied where a run is configured.

    Density matrices, as candidates or as the target (``density``), and
    every reading under the Uhlmann objective are scored exactly, so a
    sampled or noisy mode's shot-count label would be false.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    if mode.kind == "exact":
        return
    if density:
        raise ValueError(
            f"density matrices are scored exactly; {mode.label()} mode is not supported"
        )
    if objective == "uhlmann":
        raise ValueError(
            f"the uhlmann objective is scored exactly; {mode.label()} mode is not supported"
        )


class Estimator:
    """The SWAP-test readings of one trial: what its target, mode and
    objective fix, validated and built once.

    ``values`` maps a decoded block (``Representation.decode_rows``) to the
    value each row's reading is drawn from, in a few array operations and
    without a state object per row; ``score_candidate`` turns one value
    into one reading.  In exact mode the value is the reading itself.
    Pure-vs-pure it is |<psi|phi>|^2 under both objectives, the form of
    ``fidelity_oracle``: the closed form of the noiseless circuit
    (the tests hold it to the gadget run op by op) and the Uhlmann fidelity
    of two pure states.  A pure side psi against a density matrix sigma
    reads <psi|sigma|psi>: the overlap Tr(rho sigma) the circuit would
    report and also the Uhlmann fidelity (Jozsa 1994).  Two density
    matrices keep the per-row matrix-root forms: "swap" gives the
    Hilbert-Schmidt overlap, "uhlmann" the proper mixed-state fidelity.  In
    sampled and noisy modes, which take pure states under "swap" only
    (``check_mode``), the value is the ancilla-zero probability p0:
    (1 + |<psi|phi>|^2)/2 without noise, and under a noise model
    flip_readout(Tr(M_psi rho_phi)) with M_psi built here once and the
    rows' noisy preparations made as one stack.
    """

    def __init__(self, target, mode: FidelityMode, objective: str = "swap"):
        check_mode(mode, objective, isinstance(target, DensityMatrix))
        self.target, self.mode, self.objective = target, mode, objective
        self._observable = None
        if mode.kind == "noisy" and not mode.noise.is_noiseless:
            self._observable = _target_observable(mode.noise, target).ravel()

    def values(self, block: np.ndarray) -> list:
        """One value per row of ``block``, in order, as Python floats.

        ``block`` holds (rows, 2^n) amplitudes or (rows, 2^n, 2^n) density
        matrices.  Each value has the bits of the row's one-pair form
        (``vecdot`` runs the same BLAS dot as ``np.vdot`` on each row); a
        noisy row's preparation runs in one stack with the others, where
        BLAS may round its last bit differently from a one-row stack.
        """
        d = 2**self.target.n_qubits
        if block.ndim not in (2, 3) or block.shape[1:] != (d,) * (block.ndim - 1):
            raise ValueError(f"qubit-count mismatch: candidate block has shape {block.shape}, "
                             f"expected (rows, {d}) or (rows, {d}, {d})")
        if self.mode.kind == "exact":
            return self._exact(block)
        if block.ndim == 3:
            check_mode(self.mode, self.objective, density=True)
        if self._observable is None:
            return [(1.0 + f) / 2.0 for f in self._pure_overlaps(block)]
        noise = self.mode.noise
        rhos = prepare_dm_noisy(block, noise).reshape(block.shape[0], -1)
        return noise.flip_readout(np.real(np.vecdot(self._observable, rhos))).tolist()

    def value(self, state) -> float:
        """``values`` of the one-row block of a PureState or DensityMatrix."""
        row = state.amplitudes if isinstance(state, PureState) else state.entries
        return self.values(row[None])[0]

    def _pure_overlaps(self, block: np.ndarray) -> list:
        # abs and ** on Python scalars, as fidelity_oracle takes them
        return [abs(z) ** 2 for z in np.vecdot(self.target.amplitudes, block).tolist()]

    def _exact(self, block: np.ndarray) -> list:
        target = self.target
        pure_rows = block.ndim == 2
        if isinstance(target, PureState):
            if pure_rows:
                return self._pure_overlaps(block)
            psi = target.amplitudes
            f = np.vecdot(psi, block @ psi)
        elif pure_rows:
            # one matrix-vector product per row, as sigma @ a for a lone row
            f = np.vecdot(block, np.matmul(target.entries, block[:, :, None])[:, :, 0])
        else:
            # two density matrices: the matrix-root forms, one row at a time
            metric = hs_overlap if self.objective == "swap" else uhlmann_fidelity
            n = target.n_qubits
            return [metric(DensityMatrix(n, rho, check=False), target) for rho in block]
        # maximum before minimum, each with the bound first, as min(1, max(0, f))
        return np.minimum(1.0, np.maximum(0.0, np.real(f))).tolist()


def score_candidate(candidate, target, mode: FidelityMode,
                    rng: RngStream | None = None, objective: str = "swap",
                    prepared: float | None = None) -> float:
    """One SWAP-test reading of ``candidate`` against ``target``.

    ``prepared`` is the candidate's value from the trial's ``Estimator``,
    and ``candidate`` is then not read; without it a one-off estimator
    computes the value of ``candidate``, a lone PureState or
    DensityMatrix.  In
    exact mode the value is the reading.  Otherwise it is p0, and the
    reading is 2 k/shots - 1 with k the ancilla-zero count of one binomial
    draw of ``mode.shots`` from ``rng``, which is distributionally identical
    to simulating the shots one by one.
    """
    if prepared is None:
        prepared = Estimator(target, mode, objective).value(candidate)
    if mode.kind == "exact":
        return prepared
    if rng is None:
        raise ValueError(f"{mode.kind} mode requires an RngStream")
    zeros = int(rng.gen.binomial(mode.shots, min(1.0, max(0.0, prepared))))
    return 2.0 * (zeros / mode.shots) - 1.0
