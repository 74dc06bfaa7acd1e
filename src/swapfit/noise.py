"""Kraus channels calibrated to the hardware-style error budget.

The model attaches a composite channel after every noisy basis-gate
application:

* single-qubit gates (id, rz, sx, x): bit flip then depolarizing,
* cx: two-qubit depolarizing then thermal relaxation on both qubits,
* measure: a classical flip of the outcome bit,
* reset: noiseless.

Channels are plain Kraus-operator lists.  The noisy executor fuses each
basis gate with its channel into one transfer matrix and applies that on
the listed qubits.  ``run_circuit_dm_noisy`` does so for any lowered op
list; ``prepare_dm_noisy`` does so for a Mottonen preparation straight from
its compiled template, without building ops.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

import numpy as np

from .sim import (
    CX_MAT,
    SX_MAT,
    TOL,
    X_MAT,
    DensityMatrix,
    GateOp,
    PureState,
    _check_qubits,
    apply_on_axes,
    dm_axes,
    reset_qubits,
)
from .prep import mottonen_stages

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS_1Q = (_I2, _X, _Y, _Z)


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map in Kraus form."""

    arity: int
    operators: tuple
    name: str = ""

    def __post_init__(self):
        d = 2**self.arity
        for K in self.operators:
            if K.shape != (d, d):
                raise ValueError(
                    f"operator shape {K.shape} does not match arity {self.arity}"
                )
        res = self.completeness_residual()
        if res > TOL.structural:
            raise ValueError(f"channel {self.name!r} violates completeness ({res:.3e})")

    def completeness_residual(self) -> float:
        """max |sum K+K - I|; zero for an exactly trace-preserving map."""
        d = 2**self.arity
        acc = np.zeros((d, d), dtype=complex)
        for K in self.operators:
            acc += K.conj().T @ K
        return float(np.max(np.abs(acc - np.eye(d))))


def _prune(ops: list, name: str, arity: int) -> KrausChannel:
    kept = tuple(K for K in ops if np.max(np.abs(K)) > 1e-16)
    return KrausChannel(arity=arity, operators=kept, name=name)


def bitflip_channel(p: float) -> KrausChannel:
    """{sqrt(1-p) I, sqrt(p) X}."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    return _prune(
        [math.sqrt(1.0 - p) * _I2, math.sqrt(p) * _X], name=f"bitflip({p})", arity=1
    )


def _pauli_basis(arity: int) -> list:
    basis = list(_PAULIS_1Q)
    for _ in range(arity - 1):
        basis = [np.kron(a, b) for a in basis for b in _PAULIS_1Q]
    return basis


def depolarizing_channel(p: float, arity: int = 1) -> KrausChannel:
    """rho -> (1-p) rho + p I/2^arity, as a weighted Pauli-basis Kraus set."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if arity not in (1, 2):
        raise ValueError(f"arity must be 1 or 2, got {arity}")
    d = 2**arity
    basis = _pauli_basis(arity)
    w_id = math.sqrt(1.0 - p + p / d**2)
    w_rest = math.sqrt(p) / d
    ops = [w_id * basis[0]] + [w_rest * P for P in basis[1:]]
    return _prune(ops, name=f"depolarizing({p}, {arity}q)", arity=arity)


def thermal_relaxation_channel(t1_us: float, t2_us: float, t_gate_ns: float) -> KrausChannel:
    """Amplitude damping plus dephasing over one gate duration.

    gamma = 1 - exp(-t/T1) sets the damping; the dephasing weight is chosen
    so off-diagonal elements decay by exactly exp(-t/T2).
    """
    if t1_us <= 0.0:
        raise ValueError(f"T1 must be positive, got {t1_us}")
    if not 0.0 < t2_us <= 2.0 * t1_us:
        raise ValueError(f"T2 must satisfy 0 < T2 <= 2*T1, got T2={t2_us}, T1={t1_us}")
    if t_gate_ns < 0.0:
        raise ValueError(f"gate time must be nonnegative, got {t_gate_ns}")
    t = t_gate_ns * 1e-9
    gamma = 1.0 - math.exp(-t / (t1_us * 1e-6))
    a0 = np.array([[1, 0], [0, math.sqrt(1.0 - gamma)]], dtype=complex)
    a1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    # residual dephasing after damping already shrank the coherence
    decay = math.exp(-t / (t2_us * 1e-6)) / math.sqrt(1.0 - gamma)
    q = (1.0 - decay) / 2.0
    ops = [math.sqrt(1.0 - q) * a0, math.sqrt(q) * (_Z @ a0), a1]
    return _prune(ops, name=f"thermal(T1={t1_us}us, T2={t2_us}us, t={t_gate_ns}ns)", arity=1)


def tensor_channels(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """Independent channels on adjacent registers; ``a`` on the lower indices."""
    ops = [np.kron(Ka, Kb) for Ka in a.operators for Kb in b.operators]
    return KrausChannel(a.arity + b.arity, tuple(ops), name=f"{a.name} (x) {b.name}")


def compose_channels(first: KrausChannel, second: KrausChannel) -> KrausChannel:
    """Channel equal to ``first`` then ``second``: operators {K_j K_i}."""
    if first.arity != second.arity:
        raise ValueError(
            f"arity mismatch: {first.arity} vs {second.arity}"
        )
    ops = [Kj @ Ki for Ki in first.operators for Kj in second.operators]
    return KrausChannel(
        first.arity, tuple(ops), name=f"{second.name} after {first.name}"
    )


def channel_superop(ch: KrausChannel) -> np.ndarray:
    """Transfer matrix S with vec(E(rho)) = S vec(rho), row-major vec.

    One matrix product replaces the whole Kraus sum, which matters in the
    optimization loops where a channel is applied thousands of times.
    """
    d = 2**ch.arity
    s = np.zeros((d * d, d * d), dtype=complex)
    for K in ch.operators:
        s += np.kron(K, K.conj())
    return s


def unitary_superop(u: np.ndarray) -> np.ndarray:
    """Transfer matrix of rho -> U rho U+ in the same row-major vec."""
    return np.kron(u, u.conj())


def apply_superop_dm(entries: np.ndarray, n_qubits: int, qubits: Sequence[int],
                     superop: np.ndarray) -> np.ndarray:
    """Apply a transfer matrix to the row/column axes of the listed qubits.

    The adjoint map (Heisenberg picture, for pulling observables backward
    through a channel) is the same call with ``superop.conj().T``.
    """
    t = entries.reshape((2,) * (2 * n_qubits))
    return apply_on_axes(t, dm_axes(n_qubits, qubits), superop).reshape(entries.shape)


# ---------------------------------------------------------------------------
# The calibrated model
# ---------------------------------------------------------------------------

NOISY_KINDS = frozenset({"id", "rz", "sx", "x", "cx", "measure"})
_RZ_PHASE = np.array([0.0, -1j, 1j, 0.0])


@dataclass(frozen=True)
class NoiseModelSpec:
    """Scalar error budget plus the composite channels built from it.

    Frozen: the channels and fused gate transfer matrices are cached on the
    instance, so a field changed after first use would leave them stale.
    """

    p_bitflip: float = 0.001
    p_dep1: float = 0.002
    p_dep2: float = 0.02
    t1_us: float = 80.0
    t2_us: float = 100.0
    t_gate_ns: float = 50.0

    def __post_init__(self):
        for name in ("p_bitflip", "p_dep1", "p_dep2"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if not 0.0 < self.t2_us <= 2.0 * self.t1_us:
            raise ValueError(
                f"T2 must satisfy 0 < T2 <= 2*T1, got T2={self.t2_us}, T1={self.t1_us}"
            )
        if not 0.0 <= self.t_gate_ns < math.inf:
            raise ValueError(f"t_gate_ns must be finite and >= 0, got {self.t_gate_ns}")

    @property
    def is_noiseless(self) -> bool:
        return (
            self.p_bitflip == 0.0
            and self.p_dep1 == 0.0
            and self.p_dep2 == 0.0
            and self.t_gate_ns == 0.0
        )

    @cached_property
    def single_qubit_channel(self) -> KrausChannel:
        """Composite for id/rz/sx/x: bit flip, then depolarizing."""
        return compose_channels(
            bitflip_channel(self.p_bitflip), depolarizing_channel(self.p_dep1, 1)
        )

    @cached_property
    def cx_channel(self) -> KrausChannel:
        """Composite for cx: two-qubit depolarizing, then thermal on both."""
        thermal = thermal_relaxation_channel(self.t1_us, self.t2_us, self.t_gate_ns)
        return compose_channels(
            depolarizing_channel(self.p_dep2, 2), tensor_channels(thermal, thermal)
        )

    @cached_property
    def _single_qubit_superop(self) -> np.ndarray:
        return channel_superop(self.single_qubit_channel)

    @cached_property
    def _cx_superop(self) -> np.ndarray:
        return channel_superop(self.cx_channel)

    # each fixed basis gate fused with the channel that follows it
    @cached_property
    def _sx_transfer(self) -> np.ndarray:
        return self._single_qubit_superop @ unitary_superop(SX_MAT)

    @cached_property
    def _x_transfer(self) -> np.ndarray:
        return self._single_qubit_superop @ unitary_superop(X_MAT)

    @cached_property
    def _cx_transfer(self) -> np.ndarray:
        return self._cx_superop @ unitary_superop(CX_MAT)

    def channel_for(self, kind: str) -> KrausChannel | None:
        """Channel attached after a gate of this kind, or None if noiseless."""
        if self.is_noiseless or kind not in NOISY_KINDS:
            return None
        if kind == "cx":
            return self.cx_channel
        if kind == "measure":
            return None  # classical outcome flip, handled by flip_readout
        return self.single_qubit_channel

    def gate_transfer(self, op: GateOp) -> np.ndarray:
        """Transfer matrix of the basis gate ``op`` then its channel.

        A noiseless model's channels prune to the identity, so it gets the
        bare gate's transfer matrix.  rz's product is built per op by
        ``rz_transfer``; sx, x and cx products are cached.
        """
        if op.kind == "rz":
            return self.rz_transfer(op.angle)
        if op.kind == "sx":
            return self._sx_transfer
        if op.kind == "x":
            return self._x_transfer
        if op.kind == "cx":
            return self._cx_transfer
        raise ValueError(f"op kind {op.kind!r} is not a noisy basis gate")

    def rz_transfer(self, theta) -> np.ndarray:
        """Transfer matrix of rz(theta) then its channel.

        rz's own transfer matrix is diag(1, e^{-i theta}, e^{i theta}, 1),
        so the product is a column scaling of the channel's.  An array of
        angles gives one matrix per angle, stacked along the leading axes.
        """
        phases = np.exp(np.multiply.outer(theta, _RZ_PHASE))
        return self._single_qubit_superop * phases[..., None, :]

    def flip_readout(self, p0: float) -> float:
        """Probability of reading 0 after the classical measurement flip."""
        return p0 * (1.0 - self.p_bitflip) + (1.0 - p0) * self.p_bitflip

    def to_json(self) -> str:
        return json.dumps(
            {
                "p_bitflip": self.p_bitflip,
                "p_dep1": self.p_dep1,
                "p_dep2": self.p_dep2,
                "t1_us": self.t1_us,
                "t2_us": self.t2_us,
                "t_gate_ns": self.t_gate_ns,
            }
        )

    @staticmethod
    def from_json(text: str) -> "NoiseModelSpec":
        """Every field is required and no other key is allowed, as in ``to_json``."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("noise model must be a JSON object")
        names = [f.name for f in fields(NoiseModelSpec)]
        unknown = sorted(set(raw) - set(names))
        if unknown:
            raise ValueError(f"noise model has unknown field(s) {unknown}")
        missing = [name for name in names if name not in raw]
        if missing:
            raise ValueError(f"noise model missing required field(s) {missing}")
        for name in names:
            value = raw[name]
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"noise model field {name!r} must be a number, got {value!r}")
        return NoiseModelSpec(**{name: float(raw[name]) for name in names})


def default_noise_model() -> NoiseModelSpec:
    """The calibrated error budget used throughout: see the class defaults."""
    return NoiseModelSpec()


def noiseless_model() -> NoiseModelSpec:
    return NoiseModelSpec(p_bitflip=0.0, p_dep1=0.0, p_dep2=0.0, t_gate_ns=0.0)


# ---------------------------------------------------------------------------
# Noisy executors
# ---------------------------------------------------------------------------


def run_circuit_dm_noisy(rho: DensityMatrix, ops, model: NoiseModelSpec) -> DensityMatrix:
    """Density-matrix evolution with the model's channel after each gate.

    Each noisy gate is one pass over the density matrix: its fused transfer
    matrix ``model.gate_transfer(op)`` (channel after unitary) is applied
    in a single ``apply_superop_dm`` call.  The op list must already be
    lowered to {rz, sx, x, cx} (plus reset); anything else is rejected so
    noise cannot silently skip a gate.
    """
    out = rho
    for op in ops:
        if op.kind in ("rz", "sx", "x", "cx"):
            s = model.gate_transfer(op)
            n = out.n_qubits
            _check_qubits(n, op.qubits)  # before the index reaches an axis permutation
            out = DensityMatrix(n, apply_superop_dm(out.entries, n, op.qubits, s),
                                check=False)
        elif op.kind == "reset":
            out = reset_qubits(out, op.qubits, None)
        else:
            raise ValueError(
                f"op kind {op.kind!r} is not part of the noisy basis; lower the circuit first"
            )
    return out


def prepare_dm_noisy(target: PureState, model: NoiseModelSpec) -> DensityMatrix:
    """The noisy Mottonen preparation of ``target`` from |0...0>.

    Equal to ``run_circuit_dm_noisy(zero_state(n).density(),
    mottonen_circuit(target), model)``, but no op is built: the kept
    ``mottonen_stages`` are applied straight to the density tensor, the
    fixed sx, x and cx as the model's cached fused transfers and each rz as
    ``rz_transfer`` of its stage angle, one matrix product per gate.
    """
    n = target.n_qubits
    t = np.zeros((2,) * (2 * n), dtype=complex)
    t[(0,) * (2 * n)] = 1.0
    for stage, thetas in mottonen_stages(target):
        rz = model.rz_transfer(thetas)
        for op, slot in stage.gates:
            s = model.gate_transfer(op) if slot < 0 else rz[slot]
            t = apply_on_axes(t, dm_axes(n, op.qubits), s)
    dim = 1 << n
    return DensityMatrix(n, t.reshape(dim, dim), check=False)
