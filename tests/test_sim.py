"""Simulator substrate: gate kernels, measurement, lowering."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import swapfit
from oracles import apply_gate, apply_gate_dm, expectation_z, run_circuit, run_circuit_dm
from swapfit import prep, sim
from swapfit.sim import (
    DensityMatrix,
    GateOp,
    PureState,
    RngStream,
    apply_on_axes,
    basis_state,
    lower_cswap,
    lower_h,
    lower_op,
    lower_ops,
    lower_ry,
    zero_state,
)


def random_ops(n_qubits, count, rng):
    """A random mix of every supported gate kind on random qubits."""
    ops = []
    for _ in range(count):
        kind = rng.choice(["h", "x", "sx", "rz", "cx", "cswap"])
        if kind in ("h", "x", "sx"):
            q = int(rng.integers(n_qubits))
            ops.append(GateOp(kind, (q,)))
        elif kind == "rz":
            ops.append(GateOp.rz(float(rng.uniform(-np.pi, np.pi)),
                                 int(rng.integers(n_qubits))))
        elif kind == "cx" and n_qubits >= 2:
            c, t = rng.choice(n_qubits, size=2, replace=False)
            ops.append(GateOp.cx(int(c), int(t)))
        elif kind == "cswap" and n_qubits >= 3:
            c, a, b = rng.choice(n_qubits, size=3, replace=False)
            ops.append(GateOp.cswap(int(c), int(a), int(b)))
    return ops


@st.composite
def kernel_cases(draw):
    """(m, axes, seed): up to 3 distinct axes of an m <= 8 axis tensor, any order."""
    m = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(3, m)))
    axes = tuple(draw(st.permutations(range(m)))[:k])
    return m, axes, draw(st.integers(0, 2**32 - 1))


class TestStates:
    def test_zero_state(self):
        """|0..0> has amplitude 1 in slot 0."""
        s = zero_state(3)
        assert s.amplitudes[0] == 1.0
        np.testing.assert_allclose(np.linalg.norm(s.amplitudes), 1.0, atol=1e-15)

    def test_basis_state(self):
        s = basis_state(3, 5)
        assert s.amplitudes[5] == 1.0

    def test_norm_validation(self):
        with pytest.raises(ValueError):
            PureState(1, np.array([1.0, 1.0], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            PureState(1, np.array([bad, 0.0]))
        rho = np.array([[bad, 0.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(1, rho)

    def test_density_of_pure(self):
        """|psi><psi| is rank one with the right trace."""
        rng = np.random.default_rng(7)
        amps = oracles.random_state_dense(2, rng)
        rho = PureState(2, amps).density()
        np.testing.assert_allclose(rho.entries, np.outer(amps, amps.conj()),
                                   atol=1e-15)

    def test_density_validation_rejects_nonhermitian(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            DensityMatrix(1, bad).validate()

    def test_tensor_order(self):
        """First factor takes the more significant qubits."""
        joint = PureState(2, np.kron(basis_state(1, 1).amplitudes,
                                     basis_state(1, 0).amplitudes))
        assert joint.amplitudes[2] == 1.0


class TestGateKernels:
    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
    def test_statevector_vs_dense(self, n_qubits):
        """Bit-masked kernels agree with full matrix products."""
        rng = np.random.default_rng(100 + n_qubits)
        for _ in range(10):
            amps = oracles.random_state_dense(n_qubits, rng)
            ops = random_ops(n_qubits, 12, rng)
            got = run_circuit(PureState(n_qubits, amps), ops)
            want = oracles.run_dense(amps, ops, n_qubits)
            np.testing.assert_allclose(got.amplitudes, want, atol=1e-12)

    @pytest.mark.parametrize("n_qubits", [2, 3, 4])
    def test_density_vs_dense(self, n_qubits):
        rng = np.random.default_rng(200 + n_qubits)
        rho = oracles.random_density_dense(n_qubits, rng)
        ops = random_ops(n_qubits, 10, rng)
        got = run_circuit_dm(DensityMatrix(n_qubits, rho), ops)
        want = oracles.run_dense_dm(rho, ops, n_qubits)
        np.testing.assert_allclose(got.entries, want, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(case=kernel_cases())
    @example(case=(8, (7, 3, 0), 1))  # reversed and non-adjacent
    def test_kernel_matches_dense_embedding(self, case):
        """The one register kernel, with a non-unitary matrix on any axes."""
        m, axes, seed = case
        rng = np.random.default_rng(seed)
        d = 1 << len(axes)
        mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        flat = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
        got = apply_on_axes(flat.reshape((2,) * m), axes, mat).reshape(-1)
        want = oracles.embed(mat, m, axes) @ flat
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    PERMUTATION_OPS = [GateOp.x(2), GateOp.cx(3, 0), GateOp.cx(0, 3),
                       GateOp.cswap(1, 3, 0), GateOp.cswap(3, 0, 2)]

    def test_permutation_gates_on_scrambled_qubits(self):
        """x/cx/cswap at every qubit position move amplitudes bit for bit."""
        rng = np.random.default_rng(31)
        amps = oracles.random_state_dense(4, rng)
        for op in self.PERMUTATION_OPS:
            got = apply_gate(PureState(4, amps), op)
            want = oracles.run_dense(amps, [op], 4)
            np.testing.assert_array_equal(got.amplitudes, want)

    def test_permutation_gates_on_scrambled_qubits_dm(self):
        """The same on a density matrix: rows and columns move bit for bit."""
        rng = np.random.default_rng(37)
        rho = oracles.random_density_dense(4, rng)
        for op in self.PERMUTATION_OPS:
            got = apply_gate_dm(DensityMatrix(4, rho), op)
            want = oracles.run_dense_dm(rho, [op], 4)
            np.testing.assert_array_equal(got.entries, want)

    def test_unitarity_preserved(self):
        rng = np.random.default_rng(5)
        state = PureState(3, oracles.random_state_dense(3, rng))
        out = run_circuit(state, random_ops(3, 40, rng))
        np.testing.assert_allclose(np.linalg.norm(out.amplitudes), 1.0, atol=1e-12)

    def test_sv_dm_agreement(self):
        """Pure-state and density-matrix evolution tell the same story."""
        rng = np.random.default_rng(77)
        for n_qubits in (2, 3, 4):
            amps = oracles.random_state_dense(n_qubits, rng)
            ops = random_ops(n_qubits, 15, rng)
            sv = run_circuit(PureState(n_qubits, amps), ops)
            dm = run_circuit_dm(PureState(n_qubits, amps).density(), ops)
            np.testing.assert_allclose(
                dm.entries,
                np.outer(sv.amplitudes, sv.amplitudes.conj()),
                atol=1e-12,
            )


class TestMeasurement:
    def test_expectation_z_basis(self):
        assert expectation_z(basis_state(2, 0), 0) == pytest.approx(1.0)
        assert expectation_z(basis_state(2, 2), 0) == pytest.approx(-1.0)
        assert expectation_z(basis_state(2, 2), 1) == pytest.approx(1.0)

    def test_expectation_z_dm_matches_sv(self):
        rng = np.random.default_rng(11)
        amps = oracles.random_state_dense(3, rng)
        state = PureState(3, amps)
        for q in range(3):
            np.testing.assert_allclose(expectation_z(state, q),
                                       expectation_z(state.density(), q),
                                       atol=1e-13)

    @pytest.mark.parametrize("qubit", [0, 1, 2])
    def test_measure_and_expectation_against_projectors(self, qubit):
        """<Z> on every qubit, against the embedded Pauli Z."""
        amps = oracles.random_state_dense(3, np.random.default_rng(53 + qubit))
        state = PureState(3, amps)
        z = np.diag([1, -1]).astype(complex)
        want_z = np.real(np.vdot(amps, oracles.embed(z, 3, (qubit,)) @ amps))
        np.testing.assert_allclose(expectation_z(state, qubit), want_z, atol=1e-13)


class TestLowering:
    def test_ry_sequence(self):
        """sx rz sx x composes to exactly RY(theta)."""
        for theta in (0.3, -1.2, np.pi / 2, 2.9):
            seq = oracles.X @ oracles.SX @ oracles.rz(theta) @ oracles.SX
            want = np.array([[np.cos(theta / 2), -np.sin(theta / 2)],
                             [np.sin(theta / 2), np.cos(theta / 2)]],
                            dtype=complex)
            np.testing.assert_allclose(seq, want, atol=1e-14)

    def test_lower_ry_circuit_level(self):
        rng = np.random.default_rng(8)
        amps = oracles.random_state_dense(2, rng)
        theta = 1.234
        got = run_circuit(PureState(2, amps), lower_ry(theta, 1))
        ry = np.array([[np.cos(theta / 2), -np.sin(theta / 2)],
                       [np.sin(theta / 2), np.cos(theta / 2)]], dtype=complex)
        want = oracles.embed(ry, 2, (1,)) @ amps
        np.testing.assert_allclose(got.amplitudes, want, atol=1e-13)

    def test_lower_h_phase(self):
        """rz sx rz equals H up to a global phase of -pi/4."""
        seq = oracles.rz(np.pi / 2) @ oracles.SX @ oracles.rz(np.pi / 2)
        np.testing.assert_allclose(seq, np.exp(-1j * np.pi / 4) * oracles.H,
                                   atol=1e-14)

    def test_lower_cswap_fidelity(self):
        """The 8-cx decomposition acts as cswap up to global phase."""
        rng = np.random.default_rng(19)
        amps = oracles.random_state_dense(3, rng)
        got = run_circuit(PureState(3, amps), lower_cswap(0, 1, 2))
        want = oracles.run_dense(amps, [GateOp.cswap(0, 1, 2)], 3)
        overlap = abs(np.vdot(want, got.amplitudes))
        np.testing.assert_allclose(overlap, 1.0, atol=1e-12)

    def test_lowered_kinds_are_basis_only(self):
        ops = lower_ops([GateOp.h(0), GateOp.cswap(0, 1, 2), GateOp.rz(0.5, 1)])
        assert set(op.kind for op in ops) <= {"rz", "sx", "x", "cx"}

    def test_lower_op_passthrough(self):
        op = GateOp.cx(0, 1)
        assert lower_op(op) == [op]

    def test_lower_cswap_cx_count(self):
        """Two flanking cx plus the six inside the Toffoli."""
        ops = lower_cswap(0, 1, 2)
        assert sum(1 for op in ops if op.kind == "cx") == 8

    def test_lower_cswap_single_qubit_count(self):
        """Seven phase rotations plus two lowered Hadamards."""
        ops = lower_cswap(0, 1, 2)
        assert sum(1 for op in ops if op.kind != "cx") == 13

    def test_lower_h_is_exported_sequence(self):
        kinds = [op.kind for op in lower_h(0)]
        assert kinds == ["rz", "sx", "rz"]


class TestGateOp:
    def test_shift(self):
        op = GateOp.cx(0, 1).shifted(3)
        assert op.qubits == (3, 4)

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            GateOp.cx(1, 1)

    def test_measure_is_not_a_kind(self):
        with pytest.raises(ValueError, match="unknown gate kind 'measure'"):
            GateOp("measure", (0,))

    def test_frozen(self):
        op = GateOp.h(0)
        with pytest.raises(Exception):
            op.kind = "x"


class TestRngStream:
    def test_determinism(self):
        a = RngStream(99).gen.random(5)
        b = RngStream(99).gen.random(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        assert RngStream(1).gen.random() != RngStream(2).gen.random()


def _immutable(value) -> bool:
    if isinstance(value, np.ndarray):
        return not value.flags.writeable
    if isinstance(value, tuple):
        return all(_immutable(v) for v in value)
    if dataclasses.is_dataclass(value):
        return (type(value).__dataclass_params__.frozen
                and all(_immutable(getattr(value, f.name)) for f in dataclasses.fields(value)))
    return isinstance(value, (int, float, str, type(None)))


class TestModuleCaches:
    CACHED = {
        "swapfit.prep._angle_mixer": lambda: prep._angle_mixer(4),
        "swapfit.prep.mottonen_template": lambda: prep.mottonen_template(3),
        "swapfit.sim._axis_order": lambda: sim._axis_order(6, (4, 1)),
    }

    def test_every_cache_is_listed(self):
        found = set()
        for info in pkgutil.iter_modules(swapfit.__path__, "swapfit."):
            module = importlib.import_module(info.name)
            found |= {f"{module.__name__}.{name}" for name, fn in vars(module).items()
                      if hasattr(fn, "cache_info") and fn.__module__ == module.__name__}
        assert found == set(self.CACHED)

    @pytest.mark.parametrize("name", sorted(CACHED))
    def test_cached_values_are_immutable(self, name):
        """A cache hands the same value to every caller, so none may be writeable."""
        assert _immutable(self.CACHED[name]())
