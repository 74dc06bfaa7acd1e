"""Mixed-state and entanglement diagnostics.

These quantify what the SWAP-test objective cannot see: the estimator
converges to the Hilbert-Schmidt overlap Tr(rho sigma), which for mixed
states disagrees with the Uhlmann fidelity (I/2 vs itself scores 0.5 on
overlap but 1.0 on fidelity), so this module keeps the two apart.

Entanglement entropies are in bits (log base 2).  Matrix square roots go
through Hermitian eigendecomposition with eigenvalue clamping at zero,
which stays stable for near-singular inputs.
That root costs two eigendecompositions and lands a few 1e-8 off when one
side is pure, where the fidelity is exactly <psi|sigma|psi>; so the
training loop scores pure/mixed pairs in closed form
(``swap_test.Estimator``), and ``uhlmann_fidelity`` serves mixed/mixed
pairs, the end-of-trial re-score and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sim import DensityMatrix, PureState

@dataclass(frozen=True)
class EntropyReport:
    """Entanglement-entropy comparison for one reconstructed circuit."""

    circuit_id: str
    n_qubits: int
    partition: tuple
    target_entropy: float
    reconstructed_entropy: float

    CSV_HEADER = "circuit_id,n_qubits,partition,target_entropy,reconstructed_entropy,units"

    def csv_row(self) -> str:
        part = ";".join(str(q) for q in self.partition)
        return (
            f"{self.circuit_id},{self.n_qubits},{part},"
            f"{self.target_entropy!r},{self.reconstructed_entropy!r},bits"
        )


def bipartite_entropy(psi: PureState, partition) -> float:
    """Entanglement entropy of a pure state across the given cut, in bits:
    -sum p log2 p over the reduced state's spectrum, with 0 log 0 := 0.

    That spectrum is the Schmidt probabilities: the squared singular values
    of the amplitudes as a (2^k, 2^(n-k)) matrix with the k partition
    qubits first.  No density matrix is built.
    """
    n = psi.n_qubits
    part = tuple(partition)
    if not part or len(set(part)) != len(part):
        raise ValueError(f"partition must be nonempty and distinct, got {part}")
    if not set(part) < set(range(n)):
        raise ValueError(f"partition must be a proper subset of the qubits 0..{n - 1}, "
                         f"got {part}")
    rest = tuple(q for q in range(n) if q not in part)
    amps = psi.amplitudes.reshape((2,) * n).transpose(part + rest)
    probs = np.linalg.svd(amps.reshape(2 ** len(part), -1), compute_uv=False) ** 2
    nz = probs[probs > 0.0]
    return max(0.0, float(-np.sum(nz * np.log2(nz))))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clipped into [0, 1]."""
    if rho.n_qubits != sigma.n_qubits:
        raise ValueError(
            f"qubit-count mismatch: {rho.n_qubits} vs {sigma.n_qubits}"
        )
    root = _psd_sqrt(rho.entries)
    inner = root @ sigma.entries @ root
    inner = (inner + inner.conj().T) / 2.0
    vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    f = float(np.sum(np.sqrt(vals)) ** 2)
    return min(1.0, max(0.0, f))


def hs_overlap(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr(rho sigma): the quantity a SWAP test reports for mixed inputs."""
    if rho.n_qubits != sigma.n_qubits:
        raise ValueError(
            f"qubit-count mismatch: {rho.n_qubits} vs {sigma.n_qubits}"
        )
    return float(np.real(np.trace(rho.entries @ sigma.entries)))
