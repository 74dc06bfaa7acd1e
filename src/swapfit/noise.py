"""Kraus channels calibrated to the hardware-style error budget.

The model attaches a composite channel after every noisy basis-gate
application:

* single-qubit gates (id, rz, sx, x): bit flip then depolarizing,
* cx: two-qubit depolarizing then thermal relaxation on both qubits,

and the ancilla's readout is a classical flip of the outcome bit
(``NoiseModelSpec.flip_readout``).

A channel holds its Kraus operators stacked into one read-only array.
Composing, tensoring and turning them into transfer matrices works on
that stack: one broadcast multiply or one stacked matmul, then an in-order
sum over the stack, which has the bits of the one-operator-at-a-time loop.
The noisy executor fuses each basis gate with its channel into one
transfer matrix and applies that on the listed qubits.
``prepare_dm_noisy`` does so for a stack of Mottonen preparations
straight from their compiled template, without building ops; the tests
hold it to an op-by-op executor over any lowered op list, which lives in
``tests/oracles.py``.  There rz's
own transfer matrix is a phase, so each rz multiplies every row by its own
phases and then applies the channel's transfer matrix, shared by all rows.
A trial's ``swap_test.Estimator`` prepares a whole ES population or MLP
probe block in one such call, which is most of a noisy reading's time,
and then reads each candidate separately.

A ``NoiseModelSpec`` builds what depends on it alone once, on the
instance: its channels, their fused transfer matrices, and the SWAP
gadget's tensors (``swap_gadget``), which every Estimator on the model
shares, so each of these arrays is read-only.
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
    BASIS_KINDS,
    CX_MAT,
    SX_MAT,
    TOL,
    X_MAT,
    GateOp,
    apply_on_axes,
    dm_axes,
    lower_ops,
)
from .prep import mottonen_stages, mottonen_template

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS_1Q = np.stack((_I2, _X, _Y, _Z))


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A completely positive trace-preserving map in Kraus form.

    ``operators`` is given as a sequence of 2^arity x 2^arity matrices, and
    kept as a read-only copy stacked into one (count, d, d) array: a noise
    model's channels are shared by every executor and Estimator on it.  A
    channel equals only itself, and hashes by identity.
    """

    arity: int
    operators: np.ndarray
    name: str = ""

    def __post_init__(self):
        d = 2**self.arity
        for K in self.operators:
            if K.shape != (d, d):
                raise ValueError(
                    f"operator shape {K.shape} does not match arity {self.arity}"
                )
        stack = np.array(self.operators)
        stack.flags.writeable = False
        object.__setattr__(self, "operators", stack)
        res = self.completeness_residual()
        if res > TOL.structural:
            raise ValueError(f"channel {self.name!r} violates completeness ({res:.3e})")

    def completeness_residual(self) -> float:
        """max |sum K+K - I|; zero for an exactly trace-preserving map."""
        K = self.operators
        acc = _sum_stack(np.matmul(K.conj().transpose(0, 2, 1), K))
        return float(np.max(np.abs(acc - np.eye(2**self.arity))))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the trailing matrices of ``a`` and ``b``, broadcast over
    their leading axes: one multiply, the one ``np.kron`` makes per pair."""
    (p, q), (r, s) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (p * r, q * s))


def _sum_stack(terms: np.ndarray) -> np.ndarray:
    """The sum of ``terms`` over its first axis, in order, from a zero
    matrix: what ``acc += term`` in a loop gives, bit for bit."""
    return np.add.reduce(terms, axis=0, initial=0)


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


def _pauli_basis(arity: int) -> np.ndarray:
    """The 4^arity Pauli strings as one stack, the last qubit's Pauli fastest."""
    basis = _PAULIS_1Q
    for _ in range(arity - 1):
        d = 2 * basis.shape[-1]
        basis = _kron(basis[:, None], _PAULIS_1Q).reshape(-1, d, d)
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
    # residual dephasing after damping already shrank the coherence; at
    # T2 = 2 T1 there is none, and decay may round to just above 1
    decay = math.exp(-t / (t2_us * 1e-6)) / math.sqrt(1.0 - gamma)
    q = max(0.0, (1.0 - decay) / 2.0)
    ops = [math.sqrt(1.0 - q) * a0, math.sqrt(q) * (_Z @ a0), a1]
    return _prune(ops, name=f"thermal(T1={t1_us}us, T2={t2_us}us, t={t_gate_ns}ns)", arity=1)


def tensor_channels(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """Independent channels on adjacent registers; ``a`` on the lower indices."""
    d = 2 ** (a.arity + b.arity)
    ops = _kron(a.operators[:, None], b.operators).reshape(-1, d, d)
    return KrausChannel(a.arity + b.arity, ops, name=f"{a.name} (x) {b.name}")


def compose_channels(first: KrausChannel, second: KrausChannel) -> KrausChannel:
    """Channel equal to ``first`` then ``second``: operators {K_j K_i}."""
    if first.arity != second.arity:
        raise ValueError(
            f"arity mismatch: {first.arity} vs {second.arity}"
        )
    d = 2**first.arity
    ops = np.matmul(second.operators, first.operators[:, None])
    return KrausChannel(
        first.arity, ops.reshape(-1, d, d), name=f"{second.name} after {first.name}"
    )


def channel_superop(ch: KrausChannel) -> np.ndarray:
    """Transfer matrix S with vec(E(rho)) = S vec(rho), row-major vec.

    One matrix product replaces the whole Kraus sum, which matters in the
    optimization loops where a channel is applied thousands of times.
    """
    K = ch.operators
    return _sum_stack(_kron(K, K.conj()))


def unitary_superop(u: np.ndarray) -> np.ndarray:
    """Transfer matrix of rho -> U rho U+ in the same row-major vec."""
    return _kron(u, u.conj())


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

_RZ_PHASE = np.array([0.0, -1j, 1j, 0.0])


@dataclass(frozen=True)
class NoiseModelSpec:
    """Scalar error budget plus the composite channels built from it.

    Frozen: the channels, the fused gate transfer matrices and the SWAP
    gadget's tensors are cached on the instance, so a field changed after
    first use would leave them stale.
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
        """Composite for rz/sx/x: bit flip, then depolarizing."""
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
    def fused_transfers(self) -> dict:
        """Each noisy basis gate's transfer matrix with its channel's fused
        in: S1 (U (x) U*) for sx and x and S_cx (U (x) U*) for cx, where S1
        and S_cx are the channels'.  rz's own transfer matrix is a phase,
        applied before S1 (``rz_transfer``).  A noiseless model's channels
        prune to the identity, so it gets the bare gates'.  The arrays are
        read-only, as every executor and Estimator on the model shares them.
        """
        s1 = channel_superop(self.single_qubit_channel)
        transfers = {
            "rz": s1,
            "sx": s1 @ unitary_superop(SX_MAT),
            "x": s1 @ unitary_superop(X_MAT),
            "cx": channel_superop(self.cx_channel) @ unitary_superop(CX_MAT),
        }
        for s in transfers.values():
            s.flags.writeable = False
        return transfers

    @cached_property
    def swap_gadget(self) -> tuple:
        """The SWAP test's tensors that only the model fixes, as the
        read-only arrays ``(rho_a, closing, site)``:

        * ``rho_a``: the ancilla after the first noisy H, from |0><0|;
        * ``closing``: the ancilla-zero projector pulled back through the
          second noisy H, flattened to 4 entries;
        * ``site``: each ancilla matrix unit (x) I pulled back through the
          lowered cswap on (ancilla, target, candidate), indexed
          [unit, (c_r c_c), (a_r a_c), (t_c t_r)].

        ``swap_test._target_observable`` chains ``site`` over the qubit
        pairs; every Estimator on this model shares these arrays.  The four
        units run through the cswap's ops as one stack on a trailing axis.
        """
        p_zero = np.array([[1, 0], [0, 0]], dtype=complex)
        h = lower_ops([GateOp.h(0)])
        rho_a = closing = p_zero
        for op in h:
            rho_a = apply_superop_dm(rho_a, 1, op.qubits, self.gate_transfer(op))
        for op in reversed(h):
            closing = apply_superop_dm(closing, 1, op.qubits, self.gate_transfer(op).conj().T)
        units = np.eye(4, dtype=complex).reshape(4, 2, 2)
        site = _kron(units, np.eye(4)).reshape((4,) + (2,) * 6).transpose(1, 2, 3, 4, 5, 6, 0)
        for op in reversed(lower_ops([GateOp.cswap(0, 1, 2)])):
            site = apply_on_axes(site, dm_axes(3, op.qubits), self.gate_transfer(op).conj().T)
        # [a_r, t_r, c_r, a_c, t_c, c_c, unit] -> [unit, (c_r c_c), (a_r a_c), (t_c t_r)]
        site = site.transpose(6, 2, 5, 0, 3, 4, 1).reshape(4, 4, 4, 4)
        tensors = (rho_a, closing.reshape(4), site)
        for t in tensors:
            t.flags.writeable = False
        return tensors

    def channel_for(self, kind: str) -> KrausChannel | None:
        """Channel attached after a gate of this kind, or None if noiseless."""
        if self.is_noiseless or kind not in BASIS_KINDS:
            return None
        if kind == "cx":
            return self.cx_channel
        return self.single_qubit_channel

    def gate_transfer(self, op: GateOp) -> np.ndarray:
        """Transfer matrix of the basis gate ``op`` then its channel."""
        if op.kind not in self.fused_transfers:
            raise ValueError(f"op kind {op.kind!r} is not a noisy basis gate")
        if op.kind == "rz":
            return self.rz_transfer(op.angle)
        return self.fused_transfers[op.kind]

    def rz_transfer(self, theta: float) -> np.ndarray:
        """Transfer matrix of rz(theta) then its channel: S1 with its
        columns scaled by rz's phases."""
        return self.fused_transfers["rz"] * np.exp(theta * _RZ_PHASE)

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


# ---------------------------------------------------------------------------
# Noisy preparation
# ---------------------------------------------------------------------------


def prepare_dm_noisy(amplitudes: np.ndarray, model: NoiseModelSpec) -> np.ndarray:
    """The noisy Mottonen preparation from |0...0> of each row of ``amplitudes``.

    ``amplitudes`` is a (rows, 2^n) matrix; the result is the (rows, 2^n,
    2^n) stack of density matrices.  Row r equals the noisy evolution of
    |0...0><0...0| through ``mottonen_circuit(state_r)``, one fused transfer
    per op, but no op is built: the stack is one density tensor with a
    trailing row axis, run straight through ``mottonen_template(n)``.  Every
    gate applies one of the model's ``fused_transfers`` to all rows at
    once; an rz first multiplies each row by its own phases (see
    ``_run_stage``).  A stage runs only on the rows ``mottonen_stages``
    keeps it for, so a row that drops a stage also drops that stage's noise.
    """
    thetas, kept = mottonen_stages(amplitudes)
    rows, dim = np.shape(amplitudes)
    n = dim.bit_length() - 1
    t = np.zeros((2,) * (2 * n) + (rows,), dtype=complex)
    t[(0,) * (2 * n)] = 1.0
    # which stages every row, or some row, keeps: two reductions, not two per stage
    stages = zip(mottonen_template(n), thetas, kept.T,
                 kept.all(axis=0).tolist(), kept.any(axis=0).tolist())
    for stage, angles, keep, all_rows, some_rows in stages:
        if all_rows:
            t = _run_stage(t, stage, angles, model)
        elif some_rows:
            t[..., keep] = _run_stage(t[..., keep], stage, angles[keep], model)
    return t.reshape(dim, dim, rows).transpose(2, 0, 1)


def _run_stage(t: np.ndarray, stage, angles: np.ndarray, model: NoiseModelSpec) -> np.ndarray:
    """One template stage on a density stack; ``angles[r, slot]`` is row r's
    angle for the stage's rz in that slot.  An rz multiplies each row by its
    own phases on the qubit's row and column axes, and then applies S1 to
    every row at once, as a fixed gate applies its transfer matrix.
    """
    n = (t.ndim - 1) // 2
    q = n - stage.k  # the qubit every rz of stage k rotates
    # phases[slot] broadcasts against t: its (2, 2) on q's row and column axes
    shape = (-1,) + (1,) * q + (2,) + (1,) * (n - 1) + (2,) + (1,) * (n - 1 - q) + (t.shape[-1],)
    phases = np.exp(angles.T[:, None, :] * _RZ_PHASE[:, None]).reshape(shape)
    for op, slot, axes in stage.gates:
        if slot >= 0:
            t = t * phases[slot]
        t = apply_on_axes(t, axes, model.fused_transfers[op.kind])
    return t
