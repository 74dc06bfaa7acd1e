"""Target sampling, Mottonen synthesis, and parameter-vector decoding."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from swapfit.prep import (
    MAX_TARGET_QUBITS,
    Representation,
    TargetSpec,
    mottonen_circuit,
    prepare_on,
    sample_random_density,
    sample_random_state,
)
from swapfit.sim import (
    DensityMatrix,
    PureState,
    RngStream,
    basis_state,
    lower_ops,
    run_circuit,
    zero_state,
)


def _product_state(factors):
    """Tensor product of one-qubit amplitude pairs, qubit 0 first."""
    amps = np.ones(1, dtype=complex)
    for f in factors:
        amps = np.kron(amps, np.asarray(f, dtype=complex))
    return PureState(len(factors), amps / np.linalg.norm(amps))


def _degenerate_states():
    """States on which the Mottonen cascade drops stages: |0..0> (no ops at
    all), every basis state for n <= 3, nonnegative real amplitudes (no RZ
    stage), and products whose |0> factors zero out some RY stages."""
    rng = np.random.default_rng(2024)
    one = (0.6, 0.8j)
    states = [zero_state(n) for n in range(1, 7)]
    states += [basis_state(n, i) for n in (1, 2, 3) for i in range(1, 2**n)]
    for n in range(1, 7):
        v = np.abs(rng.normal(size=2**n))
        states.append(PureState(n, (v / np.linalg.norm(v)).astype(complex)))
    states += [
        _product_state([(1, 0), one]),
        _product_state([one, (1, 0)]),
        _product_state([(0, 1), one, (1, 0)]),
        _product_state([one, (1, 0), (0.3, -0.2 + 0.5j), (1, 0)]),
        _product_state([(1, 0), (1, 0), one, (0, 1), one]),
        _product_state([(1, 0), one, (1, 0), (1, 0), (0.8, 0.6), (1, 0)]),
    ]
    return states


DEGENERATE_STATES = _degenerate_states()
DEGENERATE_IDS = [f"n{s.n_qubits}-{i}" for i, s in enumerate(DEGENERATE_STATES)]


def prep_fidelity(state):
    """|<target|circuit(|0..0>)>|^2 for the synthesized circuit."""
    out = run_circuit(zero_state(state.n_qubits), mottonen_circuit(state))
    return abs(np.vdot(state.amplitudes, out.amplitudes)) ** 2


class TestSampling:
    def test_random_state_normalized(self):
        rng = RngStream(1)
        for n_qubits in range(1, 6):
            s = sample_random_state(n_qubits, rng)
            np.testing.assert_allclose(np.linalg.norm(s.amplitudes), 1.0,
                                       atol=1e-12)

    def test_random_state_deterministic(self):
        a = sample_random_state(3, RngStream(42))
        b = sample_random_state(3, RngStream(42))
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_random_density_valid(self):
        rng = RngStream(2)
        rho = sample_random_density(2, rng)
        vals = np.linalg.eigvalsh(rho.entries)
        assert vals.min() > -1e-12
        np.testing.assert_allclose(np.trace(rho.entries), 1.0, atol=1e-12)


class TestMottonen:
    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
    def test_roundtrip_random(self, n_qubits):
        """Synthesized circuit reproduces arbitrary complex amplitudes."""
        rng = RngStream(300 + n_qubits)
        for _ in range(10):
            state = sample_random_state(n_qubits, rng)
            assert prep_fidelity(state) > 1.0 - 1e-9

    def test_basis_states(self):
        for idx in range(8):
            state = PureState(3, np.eye(8, dtype=complex)[idx])
            assert prep_fidelity(state) > 1.0 - 1e-12

    def test_sparse_amplitudes(self):
        """Zero blocks exercise the 0/0 branch of the angle computation."""
        amps = np.zeros(8, dtype=complex)
        amps[1] = 0.6
        amps[6] = 0.8j
        assert prep_fidelity(PureState(3, amps)) > 1.0 - 1e-10

    def test_real_positive_skips_phase_stages(self):
        """A phase-free target needs strictly fewer ops than a phased one."""
        rng = np.random.default_rng(9)
        v = np.abs(rng.normal(size=4)) + 1e-3
        v = v / np.linalg.norm(v)
        plain = PureState(2, v.astype(complex))
        phased = PureState(2, v * np.exp(1j * np.array([0.0, 0.4, 1.1, 2.0])))
        assert len(mottonen_circuit(plain)) < len(mottonen_circuit(phased))
        assert prep_fidelity(plain) > 1.0 - 1e-10
        assert prep_fidelity(phased) > 1.0 - 1e-10

    def test_lowered_roundtrip(self):
        """The basis-gate version prepares the same state up to global phase."""
        rng = RngStream(55)
        state = sample_random_state(3, rng)
        out = run_circuit(zero_state(3), lower_ops(mottonen_circuit(state)))
        overlap = abs(np.vdot(state.amplitudes, out.amplitudes)) ** 2
        assert overlap > 1.0 - 1e-9

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            mottonen_circuit(PureState(1, np.zeros(2, dtype=complex), check=False))

    @staticmethod
    def assert_matches_loop_form(state):
        got = mottonen_circuit(state)
        want = oracles.mottonen_circuit(state)
        assert [(op.kind, op.qubits) for op in got] == [(op.kind, op.qubits) for op in want]
        for g, w in zip(got, want):
            if w.angle is not None:
                assert abs(g.angle - w.angle) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(n_qubits=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_template_matches_loop_form(self, n_qubits, seed):
        """The compiled template emits the loop form's circuit, op for op."""
        self.assert_matches_loop_form(sample_random_state(n_qubits, RngStream(seed)))

    @pytest.mark.parametrize("state", DEGENERATE_STATES, ids=DEGENERATE_IDS)
    def test_template_drops_stages_like_loop_form(self, state):
        self.assert_matches_loop_form(state)

    def test_prepare_on_offset(self):
        """Preparation embeds at the right register offset."""
        rng = RngStream(66)
        state = sample_random_state(2, rng)
        ops = prepare_on(5, state, offset=1)
        touched = set(q for op in ops for q in op.qubits)
        assert touched <= {1, 2}
        out = run_circuit(zero_state(5), ops)
        tail = out.amplitudes.reshape(2, 4, 4)[0, :, 0]
        overlap = abs(np.vdot(state.amplitudes, tail)) ** 2
        assert overlap > 1.0 - 1e-9


class TestRepresentation:
    def test_param_lengths(self):
        assert Representation.STATEVECTOR.param_length(2) == 8
        assert Representation.UNITARY.param_length(2) == 32
        assert Representation.DENSITY.param_length(2) == 32

    def test_decode_statevector_normalizes(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=8)
        state = Representation.STATEVECTOR.decode(w, 2)
        np.testing.assert_allclose(np.linalg.norm(state.amplitudes), 1.0,
                                   atol=1e-12)
        want = (w[:4] + 1j * w[4:])
        want = want / np.linalg.norm(want)
        np.testing.assert_allclose(state.amplitudes, want, atol=1e-12)

    def test_decode_statevector_zero_rejected(self):
        with pytest.raises(ValueError):
            Representation.STATEVECTOR.decode(np.zeros(8), 2)

    def test_decode_unitary_first_column_unit(self):
        rng = np.random.default_rng(13)
        for n_qubits in (1, 2):
            w = rng.normal(size=Representation.UNITARY.param_length(n_qubits))
            state = Representation.UNITARY.decode(w, n_qubits)
            np.testing.assert_allclose(np.linalg.norm(state.amplitudes), 1.0,
                                       atol=1e-10)

    def test_decode_unitary_fixed_point(self):
        """Encoding an exact unitary decodes to its own first column."""
        rng = np.random.default_rng(14)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(a)
        w = np.concatenate([q.real.reshape(-1), q.imag.reshape(-1)])
        state = Representation.UNITARY.decode(w, 2)
        np.testing.assert_allclose(state.amplitudes, q[:, 0], atol=1e-10)

    def test_decode_unitary_singular_rejected(self):
        with pytest.raises(ValueError):
            Representation.UNITARY.decode(np.zeros(8), 1)

    def test_decode_density_valid(self):
        rng = np.random.default_rng(15)
        w = rng.normal(size=32)
        rho = Representation.DENSITY.decode(w, 2)
        vals = np.linalg.eigvalsh(rho.entries)
        assert vals.min() > -1e-12
        np.testing.assert_allclose(np.trace(rho.entries), 1.0, atol=1e-12)

    def test_decode_density_zero_rejected(self):
        with pytest.raises(ValueError):
            Representation.DENSITY.decode(np.zeros(8), 1)

    def test_enum_decode_dispatch(self):
        rng = np.random.default_rng(16)
        kinds = {Representation.STATEVECTOR: PureState,
                 Representation.UNITARY: PureState,
                 Representation.DENSITY: DensityMatrix}
        for rep, kind in kinds.items():
            out = rep.decode(rng.normal(size=rep.param_length(1)), 1)
            assert type(out) is kind and out.n_qubits == 1


def _payload(state):
    return state.amplitudes if isinstance(state, PureState) else state.entries


def _degenerate_row(rep, n, kind, rng):
    """A parameter row that ``rep`` must refuse: zero, tiny, or singular."""
    length = rep.param_length(n)
    if kind == "zero":
        return np.zeros(length)
    if kind == "tiny":  # norm or trace below the decoders' cut-offs
        return 1e-15 * rng.normal(size=length)
    d = 2**n  # unitary only: a repeated column makes the matrix singular
    M = rng.normal(size=(2, d, d))
    M[:, :, 1] = M[:, :, 0]
    return M.reshape(-1)


_VECTOR_REFERENCE = {
    Representation.STATEVECTOR: oracles.decode_statevector_vector,
    Representation.UNITARY: oracles.decode_unitary_vector,
    Representation.DENSITY: oracles.decode_density_vector,
}


class TestDecodeRows:
    """The batched decode against the one-row decode and the replaced one."""

    @settings(max_examples=80, deadline=None)
    @given(
        rep=st.sampled_from(list(Representation)),
        n=st.integers(1, 6),
        rows=st.integers(1, 7),
        degenerate=st.lists(st.sampled_from(["zero", "tiny", "singular"]), max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_one_row_decodes(self, rep, n, rows, degenerate, seed):
        if rep is Representation.UNITARY:
            n = 1 + (n - 1) % 3
        rng = np.random.default_rng(seed)
        W = rng.normal(size=(rows, rep.param_length(n)))
        bad = set()
        for kind in degenerate:
            if kind == "singular" and rep is not Representation.UNITARY:
                continue
            i = int(rng.integers(rows))
            W[i] = _degenerate_row(rep, n, kind, rng)
            bad.add(i)
        if bad:
            with pytest.raises(ValueError) as batch:
                rep.decode_rows(W, n)
            for i in bad:
                with pytest.raises(ValueError) as one:
                    rep.decode(W[i], n)
                with pytest.raises(ValueError) as old:
                    _VECTOR_REFERENCE[rep](W[i], n)
                assert str(batch.value) == str(one.value) == str(old.value)
            return
        states = rep.decode_rows(W, n)
        assert len(states) == rows
        for i, state in enumerate(states):
            alone = rep.decode(W[i], n)
            assert type(state) is type(alone)
            assert state.n_qubits == alone.n_qubits == n
            assert np.array_equal(_payload(state), _payload(alone))
            assert np.array_equal(_payload(state), _VECTOR_REFERENCE[rep](W[i], n))

    def test_shapes_checked(self):
        rep = Representation.STATEVECTOR
        with pytest.raises(ValueError, match="parameter matrix has shape"):
            rep.decode_rows(np.zeros(4), 1)
        with pytest.raises(ValueError, match="parameter matrix has shape"):
            rep.decode_rows(np.zeros((3, 5)), 1)
        with pytest.raises(ValueError, match=r"parameter vector has shape \(5,\)"):
            rep.decode(np.zeros(5), 1)
        assert rep.decode_rows(np.zeros((0, 4)), 1) == []


class TestTargetSpec:
    def test_json_roundtrip_pure(self):
        rng = RngStream(90)
        spec = TargetSpec(2, sample_random_state(2, rng), seed=90)
        back = TargetSpec.from_json(spec.to_json())
        assert back.n_qubits == 2
        assert back.seed == 90
        np.testing.assert_array_equal(back.state.amplitudes,
                                      spec.state.amplitudes)

    def test_json_roundtrip_density(self):
        rng = RngStream(91)
        spec = TargetSpec(2, sample_random_density(2, rng), seed=91)
        back = TargetSpec.from_json(spec.to_json())
        np.testing.assert_array_equal(back.state.entries, spec.state.entries)

    def test_json_is_plain_dict(self):
        rng = RngStream(92)
        spec = TargetSpec(1, sample_random_state(1, rng), seed=92)
        raw = json.loads(spec.to_json())
        assert raw["n_qubits"] == 1
        assert len(raw["re"]) == 2

    def test_qubit_cap(self):
        amps = np.zeros(2 ** (MAX_TARGET_QUBITS + 1), dtype=complex)
        amps[0] = 1.0
        with pytest.raises(ValueError):
            TargetSpec(MAX_TARGET_QUBITS + 1,
                       PureState(MAX_TARGET_QUBITS + 1, amps), seed=0)
