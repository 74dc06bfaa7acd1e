"""Statevector and density-matrix simulation substrate.

Index convention used everywhere in this package: qubit 0 is the MOST
significant bit of the amplitude index.  For a 3-qubit register the basis
state |q0 q1 q2> = |011> sits at amplitude index 0b011 = 3, and qubit 0
owns the bitmask ``1 << 2``.  Tensor products follow the same rule:
``tensor(a, b)`` puts ``a`` on the lower (more significant) qubit indices.

One kernel, ``apply_on_axes``, multiplies every gate, Kraus operator and
transfer matrix into a register: the register is a (2,)*m tensor, the
operator's qubit axes are transposed to the front, and one matrix product
with the small 2^k x 2^k operator does the rest, so no 2^n x 2^n matrix is
ever materialized.  A density matrix is the tensor of its n row axes
followed by its n column axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerance budget shared by the library and its tests.

    structural: validity of states and channels (norms, traces, completeness).
    algebraic: closed-form identities (update rules, exact decompositions).
    psd_slack: how far below zero a density-matrix eigenvalue may dip.
    """

    structural: float = 1e-10
    algebraic: float = 1e-12
    psd_slack: float = 1e-9


TOL = Tolerances()


class RngStream:
    """A named, seeded random stream (PCG64 under the hood).

    Every stochastic operation in the package draws from one of these, so
    identical seeds give identical results across runs and platforms.
    """

    algorithm = "pcg64"

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.gen = np.random.Generator(np.random.PCG64(self.seed))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, algorithm={self.algorithm!r})"


class PureState:
    """Unit-norm complex amplitude vector over ``n_qubits`` qubits."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes, *, check: bool = True):
        amps = np.asarray(amplitudes, dtype=complex)
        if check:
            if n_qubits < 1:
                raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
            if amps.shape != (2**n_qubits,):
                raise ValueError(
                    f"amplitude vector has shape {amps.shape}, "
                    f"expected ({2**n_qubits},) for {n_qubits} qubit(s)"
                )
            if not np.all(np.isfinite(amps)):
                raise ValueError("amplitude vector contains non-finite entries")
            norm = np.linalg.norm(amps)
            if abs(norm - 1.0) > TOL.structural:
                raise ValueError(f"state norm {norm} deviates from 1 beyond tolerance")
        self.n_qubits = n_qubits
        self.amplitudes = amps

    def copy(self) -> "PureState":
        return PureState(self.n_qubits, self.amplitudes.copy(), check=False)

    def density(self) -> "DensityMatrix":
        """|psi><psi| as a DensityMatrix."""
        return DensityMatrix(
            self.n_qubits,
            np.outer(self.amplitudes, self.amplitudes.conj()),
            check=False,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"PureState(n_qubits={self.n_qubits})"


class DensityMatrix:
    """Hermitian, trace-1, PSD complex matrix over ``n_qubits`` qubits.

    Hermiticity and trace are checked at construction (cheap); positivity
    needs an eigendecomposition, so it is checked on demand via
    :meth:`validate`.
    """

    __slots__ = ("n_qubits", "entries")

    def __init__(self, n_qubits: int, entries, *, check: bool = True):
        mat = np.asarray(entries, dtype=complex)
        if check:
            if n_qubits < 1:
                raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
            d = 2**n_qubits
            if mat.shape != (d, d):
                raise ValueError(
                    f"entries have shape {mat.shape}, expected ({d}, {d})"
                )
            if not np.all(np.isfinite(mat)):
                raise ValueError("density matrix contains non-finite entries")
            herm = np.max(np.abs(mat - mat.conj().T))
            if herm > TOL.structural:
                raise ValueError(f"matrix is not Hermitian (residual {herm:.3e})")
            tr = mat.trace()
            if abs(tr - 1.0) > TOL.structural:
                raise ValueError(f"trace {tr} deviates from 1 beyond tolerance")
        self.n_qubits = n_qubits
        self.entries = mat

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, self.entries.copy(), check=False)

    def validate(self) -> None:
        """Full invariant check including positivity (eigendecomposition)."""
        herm = np.max(np.abs(self.entries - self.entries.conj().T))
        if herm > TOL.structural:
            raise ValueError(f"matrix is not Hermitian (residual {herm:.3e})")
        tr = self.entries.trace()
        if abs(tr - 1.0) > TOL.structural:
            raise ValueError(f"trace {tr} deviates from 1 beyond tolerance")
        lo = np.linalg.eigvalsh(self.entries).min()
        if lo < -TOL.psd_slack:
            raise ValueError(f"matrix has eigenvalue {lo} below -{TOL.psd_slack}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"DensityMatrix(n_qubits={self.n_qubits})"


# ---------------------------------------------------------------------------
# Gate vocabulary
# ---------------------------------------------------------------------------

UNITARY_KINDS = frozenset({"h", "x", "rz", "sx", "cx", "cswap"})
BASIS_KINDS = frozenset({"rz", "sx", "x", "cx"})
_ARITY = {"h": 1, "x": 1, "rz": 1, "sx": 1, "cx": 2, "cswap": 3, "reset": 1, "measure": 1}


@dataclass(frozen=True)
class GateOp:
    """One circuit instruction.

    kind is one of {h, x, rz, sx, cx, cswap, reset, measure}; ``angle`` is
    used only by rz.  cx lists (control, target); cswap lists
    (control, a, b).
    """

    kind: str
    qubits: tuple
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != _ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} takes {_ARITY[self.kind]} qubit(s), got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit indices in {self.qubits}")
        if self.kind == "rz" and self.angle is None:
            raise ValueError("rz requires an angle")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def h(q: int) -> "GateOp":
        return GateOp("h", (q,))

    @staticmethod
    def x(q: int) -> "GateOp":
        return GateOp("x", (q,))

    @staticmethod
    def rz(theta: float, q: int) -> "GateOp":
        return GateOp("rz", (q,), float(theta))

    @staticmethod
    def sx(q: int) -> "GateOp":
        return GateOp("sx", (q,))

    @staticmethod
    def cx(control: int, target: int) -> "GateOp":
        return GateOp("cx", (control, target))

    @staticmethod
    def cswap(control: int, a: int, b: int) -> "GateOp":
        return GateOp("cswap", (control, a, b))

    @staticmethod
    def reset(q: int) -> "GateOp":
        return GateOp("reset", (q,))

    @staticmethod
    def measure(q: int) -> "GateOp":
        return GateOp("measure", (q,))

    def shifted(self, offset: int) -> "GateOp":
        """Same op with every qubit index moved up by ``offset``."""
        return GateOp(self.kind, tuple(q + offset for q in self.qubits), self.angle)


H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
SX_MAT = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
CX_MAT = np.array(  # control is the first listed qubit, the more significant bit
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

CSWAP_MAT = np.eye(8, dtype=complex)  # control first: swaps |101> and |110>
CSWAP_MAT[[5, 6]] = CSWAP_MAT[[6, 5]]


def rz_mat(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex
    )


_FIXED_GATES = {"h": H_MAT, "x": X_MAT, "sx": SX_MAT, "cx": CX_MAT, "cswap": CSWAP_MAT}


def _gate_matrix(op: GateOp) -> np.ndarray:
    """The 2^k x 2^k unitary of a unitary-kind op on its listed qubits."""
    if op.kind == "rz":
        return rz_mat(op.angle)
    if op.kind not in _FIXED_GATES:
        raise ValueError(f"{op.kind} is not a unitary gate; use measure_z/reset_qubits")
    return _FIXED_GATES[op.kind]


# ---------------------------------------------------------------------------
# The register kernel
# ---------------------------------------------------------------------------
#
# A register is a (2,)*m tensor: one axis per qubit for a statevector, and
# for a density matrix the n row axes followed by the n column axes.  Every
# gate, Kraus operator and transfer matrix reaches a register through
# ``apply_on_axes``.


def _check_qubits(n: int, qubits: Sequence[int]) -> None:
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubit(s)")


def dm_axes(n: int, qubits: Sequence[int]) -> tuple:
    """The row axes, then the column axes, of ``qubits`` in a density tensor."""
    return (*qubits, *[n + q for q in qubits])


@lru_cache(maxsize=None)
def _axis_order(ndim: int, axes: tuple) -> tuple:
    """Transposes of an ndim-axis tensor that bring ``axes`` to the front in
    the listed order (the other axes keep theirs), and back."""
    forward = axes + tuple(a for a in range(ndim) if a not in axes)
    back = tuple(int(a) for a in np.argsort(forward))
    return forward, back


def apply_on_axes(t: np.ndarray, axes: tuple, mat: np.ndarray) -> np.ndarray:
    """``mat`` on the listed axes of the register tensor ``t``; the first
    listed axis is the most significant bit of ``mat``'s index.

    One copy and one matrix product; the result is a transposed view, which
    the next call's transpose-and-reshape consumes without a second copy.
    """
    forward, back = _axis_order(t.ndim, axes)
    out = mat @ t.transpose(forward).reshape(mat.shape[1], -1)
    return out.reshape(t.shape).transpose(back)


def kraus_map_dm(rho: DensityMatrix, qubits: Sequence[int], operators) -> DensityMatrix:
    """rho -> sum_K K rho K+ with each K on ``qubits``: K on the row axes,
    then conj(K) on the column axes."""
    n = rho.n_qubits
    _check_qubits(n, qubits)
    t = rho.entries.reshape((2,) * (2 * n))
    rows, cols = tuple(qubits), tuple(n + q for q in qubits)
    acc = None
    for K in operators:
        term = apply_on_axes(apply_on_axes(t, rows, K), cols, K.conj())
        acc = term if acc is None else acc + term
    return DensityMatrix(n, acc.reshape(rho.entries.shape), check=False)


def apply_gate(state: PureState, op: GateOp) -> PureState:
    """U|psi> for a unitary-kind op embedded on the listed qubits."""
    mat = _gate_matrix(op)
    n = state.n_qubits
    _check_qubits(n, op.qubits)
    t = apply_on_axes(state.amplitudes.reshape((2,) * n), op.qubits, mat)
    return PureState(n, t.reshape(-1), check=False)


def apply_gate_dm(rho: DensityMatrix, op: GateOp) -> DensityMatrix:
    """U rho U+ for a unitary-kind op."""
    return kraus_map_dm(rho, op.qubits, (_gate_matrix(op),))


def run_circuit(state: PureState, ops: Iterable[GateOp],
                rng: RngStream | None = None) -> PureState:
    """Apply a gate list to a statevector; reset/measure ops need an rng."""
    out = state
    for op in ops:
        if op.kind in UNITARY_KINDS:
            out = apply_gate(out, op)
        elif op.kind == "reset":
            if rng is None:
                raise ValueError("reset in circuit requires an RngStream")
            out = reset_qubits(out, op.qubits, rng)
        elif op.kind == "measure":
            if rng is None:
                raise ValueError("measure in circuit requires an RngStream")
            _, out = measure_z(out, op.qubits[0], rng)
        else:  # pragma: no cover
            raise ValueError(f"unsupported op {op.kind}")
    return out


def run_circuit_dm(rho: DensityMatrix, ops: Iterable[GateOp]) -> DensityMatrix:
    """Apply a gate list to a density matrix (reset becomes its channel)."""
    out = rho
    for op in ops:
        if op.kind in UNITARY_KINDS:
            out = apply_gate_dm(out, op)
        elif op.kind == "reset":
            out = reset_qubits(out, op.qubits, None)
        else:
            raise ValueError(
                f"{op.kind} is not supported on the density-matrix path"
            )
    return out


# ---------------------------------------------------------------------------
# Measurement, reset, expectation
# ---------------------------------------------------------------------------


def _bit_view(values: np.ndarray, n: int, qubit: int) -> np.ndarray:
    """A length-2^n axis as (2^qubit, 2, rest): axis 1 is ``qubit``'s bit."""
    _check_qubits(n, (qubit,))
    return values.reshape(1 << qubit, 2, -1)


def measure_z(state: PureState, qubit: int, rng: RngStream) -> tuple[int, PureState]:
    """Projective Z measurement: returns (bit, collapsed renormalized state)."""
    n = state.n_qubits
    amps = _bit_view(state.amplitudes, n, qubit)
    p0 = float(np.sum(np.abs(amps[:, 0]) ** 2))
    bit = 0 if rng.gen.random() < p0 else 1
    prob = p0 if bit == 0 else 1.0 - p0
    divisor = math.sqrt(prob)
    if divisor < 1e-15:
        raise RuntimeError(
            f"measurement selected a branch with probability {prob} (qubit {qubit})"
        )
    out = np.zeros_like(amps)
    out[:, bit] = amps[:, bit] / divisor
    return bit, PureState(n, out.reshape(-1), check=False)


_RESET_KRAUS = (
    np.array([[1, 0], [0, 0]], dtype=complex),   # |0><0|
    np.array([[0, 1], [0, 0]], dtype=complex),   # |0><1|
)


def reset_qubits(state, qubits: Sequence[int], rng: RngStream | None):
    """Force the listed qubits to |0>.

    PureState: measure-then-conditional-X per qubit (needs an rng).
    DensityMatrix: the reset channel {|0><0|, |0><1|} per qubit (rng unused).
    """
    if isinstance(state, PureState):
        if rng is None:
            raise ValueError("resetting a PureState requires an RngStream")
        out = state
        for q in qubits:
            bit, out = measure_z(out, q, rng)
            if bit:
                out = apply_gate(out, GateOp.x(q))
        return out
    if isinstance(state, DensityMatrix):
        out = state
        for q in qubits:
            out = kraus_map_dm(out, (q,), _RESET_KRAUS)
        return out
    raise TypeError(f"unsupported state type {type(state)}")


def expectation_z(state, qubit: int) -> float:
    """Exact <Z> on one qubit (+1 for |0>, -1 for |1>); no sampling."""
    if isinstance(state, PureState):
        probs = np.abs(state.amplitudes) ** 2
    elif isinstance(state, DensityMatrix):
        probs = np.real(np.diagonal(state.entries))
    else:
        raise TypeError(f"unsupported state type {type(state)}")
    p0 = float(np.sum(_bit_view(probs, state.n_qubits, qubit)[:, 0]))
    return 2.0 * p0 - 1.0


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix on ``keep``; result qubit i is keep[i]."""
    n = rho.n_qubits
    keep = list(keep)
    if not keep:
        raise ValueError("keep list must be nonempty")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate qubit indices in {keep}")
    _check_qubits(n, keep)
    if sorted(keep) == list(range(n)) and keep == list(range(n)):
        return rho.copy()
    traced = sorted(set(range(n)) - set(keep), reverse=True)
    t = rho.entries.reshape((2,) * (2 * n))
    remaining = list(range(n))
    for q in traced:
        i = remaining.index(q)
        m = len(remaining)
        t = np.trace(t, axis1=i, axis2=m + i)
        remaining.pop(i)
    k = len(remaining)
    if remaining != keep:
        perm = [remaining.index(q) for q in keep]
        t = t.transpose(perm + [k + p for p in perm])
    return DensityMatrix(k, t.reshape(2**k, 2**k), check=False)


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker composite with ``a`` on the lower (more significant) qubits."""
    return PureState(
        a.n_qubits + b.n_qubits, np.kron(a.amplitudes, b.amplitudes), check=False
    )


def zero_state(n: int) -> PureState:
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    return PureState(n, amps, check=False)


def basis_state(n: int, index: int) -> PureState:
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return PureState(n, amps, check=False)


# ---------------------------------------------------------------------------
# Lowering to the hardware basis {rz, sx, x, cx}
# ---------------------------------------------------------------------------
#
# Identities (verified exactly by the test suite):
#   RY(t) = X . SX . RZ(t) . SX            (no phase)
#   H     = e^{i pi/4} RZ(pi/2) . SX . RZ(pi/2)
#   T     = e^{-i pi/8} RZ(pi/4),  Tdg analogous
# Per-op global phases are unconditional, so the lowered circuit matches the
# original up to one overall phase, which no measurement can see.


def lower_ry(theta: float, q: int) -> list[GateOp]:
    """RY as basis gates, exact with no global phase."""
    return [GateOp.sx(q), GateOp.rz(theta, q), GateOp.sx(q), GateOp.x(q)]


def lower_h(q: int) -> list[GateOp]:
    """H as basis gates (global phase pi/4)."""
    return [GateOp.rz(math.pi / 2, q), GateOp.sx(q), GateOp.rz(math.pi / 2, q)]


def _lower_ccx(c1: int, c2: int, t: int) -> list[GateOp]:
    """Standard 6-CNOT Toffoli with T/Tdg as rz(+-pi/4)."""
    tq = lambda q: GateOp.rz(math.pi / 4, q)
    tdg = lambda q: GateOp.rz(-math.pi / 4, q)
    ops = []
    ops += lower_h(t)
    ops += [GateOp.cx(c2, t), tdg(t), GateOp.cx(c1, t), tq(t)]
    ops += [GateOp.cx(c2, t), tdg(t), GateOp.cx(c1, t)]
    ops += [tq(c2), tq(t)]
    ops += lower_h(t)
    ops += [GateOp.cx(c1, c2), tq(c1), tdg(c2), GateOp.cx(c1, c2)]
    return ops


def lower_cswap(control: int, a: int, b: int) -> list[GateOp]:
    """Fredkin as CNOT-conjugated Toffoli: 8 cx total."""
    wrap = GateOp.cx(b, a)
    return [wrap] + _lower_ccx(control, a, b) + [wrap]


def lower_op(op: GateOp) -> list[GateOp]:
    """Express one op in the basis set; basis ops pass through unchanged."""
    if op.kind in BASIS_KINDS or op.kind in ("reset", "measure"):
        return [op]
    if op.kind == "h":
        return lower_h(op.qubits[0])
    if op.kind == "cswap":
        return lower_cswap(*op.qubits)
    raise ValueError(f"no lowering for {op.kind}")  # pragma: no cover


def lower_ops(ops: Iterable[GateOp]) -> list[GateOp]:
    out: list[GateOp] = []
    for op in ops:
        out.extend(lower_op(op))
    return out
