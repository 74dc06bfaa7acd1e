"""Statevector and density-matrix simulation substrate.

Index convention used everywhere in this package: qubit 0 is the MOST
significant bit of the amplitude index.  For a 3-qubit register the basis
state |q0 q1 q2> = |011> sits at amplitude index 0b011 = 3, and qubit 0
owns the bitmask ``1 << 2``, so in a Kronecker product ``np.kron(a, b)``
the first factor ``a`` takes the lower (more significant) qubit indices.

Every gate kind is unitary.  Circuits are built as ``GateOp`` lists and
lowered to the hardware basis {rz, sx, x, cx}; no gate list is executed op
by op here.  The readings run from the compiled Mottonen template and the
SWAP gadget's tensors (``noise``), and the op-by-op executors that the tests
hold them to live in ``tests/oracles.py``, on this module's kernel.

One kernel, ``apply_on_axes``, multiplies every gate, Kraus operator and
transfer matrix into a register: the register is a (2,)*m tensor, the
operator's qubit axes are transposed to the front, and one matrix product
with the small 2^k x 2^k operator does the rest, so no 2^n x 2^n matrix is
ever materialized.  A density matrix is the tensor of its n row axes
followed by its n column axes.  A stack of registers carries one more,
trailing, row axis, and ``apply_on_axes`` applies one operator to every
row; what differs between rows (the noisy preparation's rz phases) is an
elementwise product, not an operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
# imported at load: numpy 2 loads numpy.random lazily, so otherwise the first
# RngStream, built inside run_experiment, would pay for the import
from numpy.random import PCG64, Generator


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerance budget shared by the library and its tests.

    structural: validity of states and channels (norms, traces, completeness).
    psd_slack: how far below zero a density-matrix eigenvalue may dip.
    """

    structural: float = 1e-10
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
        self.gen = Generator(PCG64(self.seed))

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


def zero_state(n: int) -> PureState:
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    return PureState(n, amps, check=False)


def basis_state(n: int, index: int) -> PureState:
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return PureState(n, amps, check=False)


# ---------------------------------------------------------------------------
# Gate vocabulary
# ---------------------------------------------------------------------------

BASIS_KINDS = frozenset({"rz", "sx", "x", "cx"})
_ARITY = {"h": 1, "x": 1, "rz": 1, "sx": 1, "cx": 2, "cswap": 3}


@dataclass(frozen=True)
class GateOp:
    """One circuit instruction.

    kind is one of the unitary gates {h, x, rz, sx, cx, cswap}; ``angle``
    is used only by rz.  cx lists (control, target); cswap lists
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

    def shifted(self, offset: int) -> "GateOp":
        """Same op with every qubit index moved up by ``offset``."""
        return GateOp(self.kind, tuple(q + offset for q in self.qubits), self.angle)


# the noisy basis gates' unitaries, which ``NoiseModelSpec.fused_transfers`` fuses
X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
SX_MAT = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
CX_MAT = np.array(  # control is the first listed qubit, the more significant bit
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


# ---------------------------------------------------------------------------
# The register kernel
# ---------------------------------------------------------------------------
#
# A register is a (2,)*m tensor: one axis per qubit for a statevector, and
# for a density matrix the n row axes followed by the n column axes.  Every
# gate, Kraus operator and transfer matrix reaches a register through
# ``apply_on_axes``.


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
    A trailing row axis, of any length, stays last through both
    transposes, so one call applies ``mat`` to every register of a stack.
    """
    forward, back = _axis_order(t.ndim, axes)
    out = mat @ t.transpose(forward).reshape(mat.shape[1], -1)
    return out.reshape(t.shape).transpose(back)


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
    if op.kind in BASIS_KINDS:
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
