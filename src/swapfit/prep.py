"""Target-state generation, Mottonen synthesis, and parameter decoding.

Mottonen synthesis is compiled once per qubit count into a template of
stages (``mottonen_template``); per state only the stages' rz angles and
which stages it keeps are computed (``mottonen_stages``), for a whole
matrix of states in one pass.  ``mottonen_circuit`` instantiates one
state's stages as gate ops, and the noisy executor
``noise.prepare_dm_noisy`` runs them directly on a stack of density
matrices: a trial's ``swap_test.Estimator`` prepares an ES population or
an MLP probe block as one stack, while each candidate still gets its own
SWAP-test reading.

``Representation.decode_rows`` decodes a whole parameter matrix into one
array, a block of amplitude rows or of density matrices, which the
estimator scores without building a state object per row;
``Representation.decode`` wraps one decoded row in a state.

Three candidate representations are supported, each decoded from a flat real
parameter vector:

* statevector: length 2*2^n, first half real parts, second half imaginary.
* unitary: length 2*4^n, decoded matrix projected to the nearest unitary by
  polar decomposition; the candidate state is U|0...0> (U's first column).
* density: length 2*4^n, decoded matrix L mapped to rho = L L+ / Tr(L L+),
  which is PSD and trace-1 unconditionally.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sim import DensityMatrix, GateOp, PureState, RngStream, dm_axes, lower_ry

MAX_TARGET_QUBITS = 10


class Representation(enum.Enum):
    """How a flat real parameter vector is interpreted as a quantum state."""

    STATEVECTOR = "statevector"
    UNITARY = "unitary"
    DENSITY = "density"

    def param_length(self, n_qubits: int) -> int:
        d = 2**n_qubits
        return 2 * d if self is Representation.STATEVECTOR else 2 * d * d

    def decode_rows(self, W: np.ndarray, n_qubits: int) -> np.ndarray:
        """Decode every row of a (rows, param_length) matrix in one pass.

        Returns the block as one complex array: (rows, 2^n) amplitudes for
        statevector and unitary, (rows, 2^n, 2^n) density matrices for
        density.  A degenerate row (a near-zero statevector, a singular
        unitary factor or a zero-trace density factor) raises ValueError
        for the whole matrix.  A row does not depend on the other rows, so
        ``decode`` of that row alone gives the same bits, or the same error.
        """
        W = np.asarray(W, dtype=float)
        length = self.param_length(n_qubits)
        if W.ndim != 2 or W.shape[1] != length:
            raise ValueError(f"parameter matrix has shape {W.shape}, expected (rows, {length})")
        if self is Representation.STATEVECTOR:
            return _statevector_rows(W, n_qubits)
        if self is Representation.UNITARY:
            return _unitary_rows(W, n_qubits)
        return _density_rows(W, n_qubits)

    def decode(self, w: np.ndarray, n_qubits: int):
        """``decode_rows`` of the one vector w, as a PureState or, for
        density, a DensityMatrix."""
        w = np.asarray(w, dtype=float)
        length = self.param_length(n_qubits)
        if w.shape != (length,):
            raise ValueError(f"parameter vector has shape {w.shape}, expected ({length},)")
        row = self.decode_rows(w[None, :], n_qubits)[0]
        if self is Representation.DENSITY:
            return DensityMatrix(n_qubits, row, check=False)
        return PureState(n_qubits, row, check=False)


@dataclass(frozen=True)
class TargetSpec:
    """A target state together with the seed that generated it."""

    n_qubits: int
    state: object  # PureState or DensityMatrix
    seed: int | None = None

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_TARGET_QUBITS:
            raise ValueError(
                f"n_qubits must be in [1, {MAX_TARGET_QUBITS}], got {self.n_qubits}"
            )
        if getattr(self.state, "n_qubits", self.n_qubits) != self.n_qubits:
            raise ValueError(
                f"state is on {self.state.n_qubits} qubit(s), spec says {self.n_qubits}"
            )

    def to_json(self) -> str:
        return json.dumps({"n_qubits": self.n_qubits, "seed": self.seed,
                           **state_record(self.state)})

    @staticmethod
    def from_json(text: str) -> "TargetSpec":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("target record must be a JSON object")
        state = state_from_record(raw["n_qubits"], raw)
        return TargetSpec(n_qubits=state.n_qubits, state=state, seed=raw.get("seed"))


def state_record(state) -> dict:
    """The JSON record of a PureState or DensityMatrix: its ``kind`` and its
    flat amplitudes, or flat density matrix, as the lists ``re`` and
    ``im``.  ``state_from_record`` reads it back bit for bit."""
    if isinstance(state, PureState):
        kind, flat = "pure", state.amplitudes
    else:
        kind, flat = "density", state.entries.reshape(-1)
    return {"kind": kind, "re": flat.real.tolist(), "im": flat.imag.tolist()}


def state_from_record(n, raw: dict):
    """The state a ``state_record`` holds on ``n`` qubits.

    ``raw["kind"]`` is "pure" (when absent) or "density".  ``n`` must be an
    integer in [1, MAX_TARGET_QUBITS] and ``re`` and ``im`` each hold 2^n
    (4^n) finite numbers, or ValueError names the field; the state's own
    checks follow, positivity included for a density matrix.
    """
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_TARGET_QUBITS:
        raise ValueError(f"'n_qubits' must be an integer in [1, {MAX_TARGET_QUBITS}], "
                         f"got {n!r}")
    kind = raw.get("kind", "pure")
    if kind not in ("pure", "density"):
        raise ValueError(f"'kind' must be 'pure' or 'density', got {kind!r}")
    length = 4**n if kind == "density" else 2**n
    for key in ("re", "im"):
        values = raw.get(key)
        if not (isinstance(values, list) and len(values) == length):
            raise ValueError(f"{key!r} must be a list of {length} finite numbers")
        if not all(_is_finite_number(x) for x in values):
            raise ValueError(f"{key!r} must be a list of {length} finite numbers; "
                             "it holds a non-finite or non-numeric entry")
    flat = np.empty(length, dtype=complex)
    flat.real, flat.imag = raw["re"], raw["im"]  # keeps each part's bits, signed zeros too
    if kind == "pure":
        return PureState(n, flat)
    rho = DensityMatrix(n, flat.reshape(2**n, 2**n))
    rho.validate()
    return rho


def _is_finite_number(value) -> bool:
    """True for a finite int or float; a bool, a string or null is not one."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def sample_random_state(n_qubits: int, rng: RngStream) -> PureState:
    """Draw a normalized random state: i.i.d. complex Gaussian amplitudes."""
    if not 1 <= n_qubits <= MAX_TARGET_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_TARGET_QUBITS}], got {n_qubits}")
    d = 2**n_qubits
    amps = rng.gen.normal(size=d) + 1j * rng.gen.normal(size=d)
    norm = np.linalg.norm(amps)
    while norm < 1e-12:  # pragma: no cover - probability ~0
        amps = rng.gen.normal(size=d) + 1j * rng.gen.normal(size=d)
        norm = np.linalg.norm(amps)
    return PureState(n_qubits, amps / norm, check=False)


# ---------------------------------------------------------------------------
# Mottonen state preparation
# ---------------------------------------------------------------------------
#
# The state is split into magnitudes and phases, a[i] = |a[i]| e^{i w[i]}.
# Magnitudes are fixed by a cascade of uniformly controlled RY rotations
# (stage k rotates qubit n-k, controlled on all earlier qubits), then phases
# by the analogous RZ cascade.  Each uniformly controlled rotation is
# expanded with the Gray-code walk, so the emitted gate list uses only
# {rz, sx, x, cx}.  The walk's gates depend on n alone; only the rz angles
# depend on the state.  A single global phase remains, which nothing
# downstream can observe.


def _gray(i: int) -> int:
    return i ^ (i >> 1)


@lru_cache(maxsize=None)
def _angle_mixer(m: int) -> np.ndarray:
    """M with M[i, j] = (-1)^popcount(j & gray(i)) / m; maps multiplexer
    angles to the rotation angles of the Gray-code expansion."""
    M = np.empty((m, m))
    for i in range(m):
        gi = _gray(i)
        for j in range(m):
            M[i, j] = (-1) ** int(bin(j & gi).count("1"))
    M /= m
    M.flags.writeable = False  # cached: one in-place write would corrupt every later call
    return M


def _alpha_y(a_sq: np.ndarray, n: int, k: int) -> np.ndarray:
    sq = a_sq.reshape(-1, 2 ** (n - k), 2, 2 ** (k - 1))
    num = sq[:, :, 1].sum(axis=-1)
    den = sq.reshape(sq.shape[0], 2 ** (n - k), -1).sum(axis=-1)
    ratio = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    return 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(ratio)))


def _alpha_z(omega: np.ndarray, n: int, k: int) -> np.ndarray:
    half = 2 ** (k - 1)
    w = omega.reshape(-1, 2 ** (n - k), 2, half)
    return (w[:, :, 1] - w[:, :, 0]).sum(axis=-1) / half


@dataclass(frozen=True)
class MottonenStage:
    """One uniformly controlled rotation of the cascade, with its angles open.

    Stage k rotates qubit n-k about ``axis``, controlled on qubits
    0..n-k-1, through the Gray-code walk over its m = 2^(n-k) slots.
    ``gates`` holds one (op, slot, axes) triple per emitted op: an rz
    carries a placeholder angle and the index of the slot whose angle it
    takes, the fixed sx, x and cx carry slot -1, and ``axes`` are the op's
    row-then-column axes in an n-qubit density tensor (``sim.dm_axes``).
    The Gray-code bit p that flips between consecutive slots selects
    control qubit n-k-1-p.
    """

    axis: str  # "y" or "z"
    k: int
    gates: tuple  # ((GateOp, slot, axes), ...)

    def ops(self, thetas: np.ndarray) -> list[GateOp]:
        """The stage's gate list with slot i's rz rotating by ``thetas[i]``."""
        return [op if slot < 0 else GateOp.rz(thetas[slot], op.qubits[0])
                for op, slot, _ in self.gates]


@lru_cache(maxsize=None)
def mottonen_template(n: int) -> tuple:
    """Every stage the cascade on n qubits can emit, in emission order: the
    RY stages for k = n..1, then the RZ stages for k = n..1."""
    stages = []
    for axis in ("y", "z"):
        for k in range(n, 0, -1):
            target = n - k
            m = 2**target
            rot = lower_ry(0.0, target) if axis == "y" else [GateOp.rz(0.0, target)]
            ops = []
            for i in range(m):
                ops += [(op, i if op.kind == "rz" else -1) for op in rot]
                if m > 1:
                    changed = _gray(i) ^ _gray((i + 1) % m)
                    control = target - 1 - (changed.bit_length() - 1)
                    ops.append((GateOp.cx(control, target), -1))
            gates = tuple((op, slot, dm_axes(n, op.qubits)) for op, slot in ops)
            stages.append(MottonenStage(axis, k, gates))
    return tuple(stages)


def mottonen_stages(amplitudes: np.ndarray) -> tuple[list, np.ndarray]:
    """Every row's rz angles for each ``mottonen_template`` stage, and which
    stages the row keeps.

    ``amplitudes`` is a (rows, 2^n) matrix with one state per row.  Returns
    (thetas, kept): ``thetas[s]`` is the (rows, m) angle matrix of template
    stage s, and ``kept[r, s]`` is False when row r drops stage s because
    its multiplexer angles are all zero.  A state with no phase has
    all-zero RZ angles, so it drops every RZ stage.  A dropped gate also
    drops the noise a noisy executor attaches to it, so every executor of
    the cascade must drop exactly these.  Every step works row by row, so
    a row gets the same angles alone or in a stack.
    """
    A = np.asarray(amplitudes, dtype=complex)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 2 or A.shape[1] & (A.shape[1] - 1):
        raise ValueError(f"amplitude matrix has shape {A.shape}, expected (rows, 2^n)")
    a_sq = np.abs(A) ** 2
    if math.sqrt(a_sq.sum(axis=1).min()) < 1e-12:
        raise ValueError("cannot synthesize a circuit for a zero-norm state")
    n = A.shape[1].bit_length() - 1
    omega = np.angle(A)
    thetas, kept = [], []
    for stage in mottonen_template(n):
        alpha = (_alpha_y(a_sq, n, stage.k) if stage.axis == "y"
                 else _alpha_z(omega, n, stage.k))
        # one matrix-vector product per row: the same bits as a lone row
        thetas.append(np.matmul(_angle_mixer(alpha.shape[1]), alpha[:, :, None])[:, :, 0])
        kept.append(alpha.any(axis=1))
    return thetas, np.array(kept).T


def mottonen_circuit(target: PureState) -> list[GateOp]:
    """Gate list over {rz, sx, x, cx} preparing ``target`` from |0...0>.

    The stages ``mottonen_stages`` keeps for the one-row matrix of
    ``target``, instantiated in order.  The result matches the target up
    to global phase; all-zero rotation stages are dropped, so |0...0>
    compiles to an empty list.  The noisy executor
    ``noise.prepare_dm_noisy`` runs the same stages without building ops.
    """
    thetas, kept = mottonen_stages(target.amplitudes[None, :])
    ops: list[GateOp] = []
    for stage, angles, keep in zip(mottonen_template(target.n_qubits), thetas, kept[0]):
        if keep:
            ops += stage.ops(angles[0])
    return ops


# ---------------------------------------------------------------------------
# Parameter decoding
# ---------------------------------------------------------------------------
#
# Each representation decodes a whole parameter matrix with stacked numpy
# calls into one array; ``Representation.decode`` is a one-row call of it.
# Every stacked call works matrix by matrix or row by row, so a row decodes
# to the same bits alone or in a batch.

def _complex_rows(W: np.ndarray, half: int) -> np.ndarray:
    return W[:, :half] + 1j * W[:, half:]


def _statevector_rows(W: np.ndarray, n_qubits: int) -> np.ndarray:
    """First half real parts, second half imaginary parts, normalized."""
    C = _complex_rows(W, 2**n_qubits)
    # vecdot runs BLAS ddot on each row's strided real and imaginary parts,
    # which is what np.linalg.norm does for one complex vector
    norms = np.sqrt(np.vecdot(C.real, C.real) + np.vecdot(C.imag, C.imag))
    if np.any(norms <= 1e-12):
        raise ValueError("parameter vector has near-zero norm; resample the candidate")
    return C / norms[:, None]


def _unitary_rows(W: np.ndarray, n_qubits: int) -> np.ndarray:
    """U|0...0> for U = M (M+M)^{-1/2}, the polar projection via SVD of M."""
    d = 2**n_qubits
    M = _complex_rows(W, d * d).reshape(-1, d, d)
    u, s, vh = np.linalg.svd(M)
    if np.any(s[:, -1] <= 1e-10):
        raise ValueError("decoded matrix is singular; resample the candidate")
    return (u @ vh)[:, :, 0]


def _density_rows(W: np.ndarray, n_qubits: int) -> np.ndarray:
    """rho = L L+ / Tr(L L+) from the decoded factor L."""
    d = 2**n_qubits
    L = _complex_rows(W, d * d).reshape(-1, d, d)
    rho = L @ L.conj().transpose(0, 2, 1)
    tr = np.trace(rho, axis1=1, axis2=2).real
    if np.any(tr <= 1e-12):
        raise ValueError("decoded factor is numerically zero; resample the candidate")
    return rho / tr[:, None, None]


def prepare_on(n_qubits: int, target: PureState, offset: int = 0) -> list[GateOp]:
    """Mottonen ops for ``target`` placed at qubit ``offset`` of a wider register."""
    ops = mottonen_circuit(target)
    if offset == 0:
        return ops
    return [op.shifted(offset) for op in ops]
