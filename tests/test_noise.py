"""Channel algebra, the calibrated model, and the noisy executors."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import kraus_map_dm, noiseless_model, run_circuit_dm_noisy
from swapfit import noise as noise_module
from swapfit import sim
from swapfit.noise import (
    KrausChannel,
    NoiseModelSpec,
    apply_superop_dm,
    bitflip_channel,
    channel_superop,
    compose_channels,
    default_noise_model,
    depolarizing_channel,
    prepare_dm_noisy,
    tensor_channels,
    thermal_relaxation_channel,
    unitary_superop,
)
from swapfit.prep import prepare_on, sample_random_state
from swapfit.sim import (
    DensityMatrix,
    GateOp,
    PureState,
    RngStream,
    basis_state,
    lower_ops,
    zero_state,
)
from swapfit.swap_test import Estimator, FidelityMode, noisy_circuit_ops
from test_prep import DEGENERATE_IDS, DEGENERATE_STATES


def all_default_channels():
    model = default_noise_model()
    return [
        bitflip_channel(model.p_bitflip),
        depolarizing_channel(model.p_dep1, 1),
        depolarizing_channel(model.p_dep2, 2),
        thermal_relaxation_channel(model.t1_us, model.t2_us, model.t_gate_ns),
        model.single_qubit_channel,
        model.cx_channel,
    ]


class TestChannelAlgebra:
    def test_completeness_all_default_channels(self):
        """Every channel in the calibrated model is trace preserving."""
        for ch in all_default_channels():
            assert ch.completeness_residual() <= 1e-10, ch.name

    def test_trace_preservation_on_random_states(self):
        rng = np.random.default_rng(1)
        for ch in all_default_channels():
            rho = oracles.random_density_dense(ch.arity, rng)
            out = kraus_map_dm(DensityMatrix(ch.arity, rho), tuple(range(ch.arity)),
                               ch.operators)
            np.testing.assert_allclose(np.trace(out.entries), 1.0, atol=1e-10)

    def test_identity_channel(self):
        """A zero-probability flip prunes down to the lone identity operator."""
        (only,) = bitflip_channel(0.0).operators
        np.testing.assert_array_equal(only, np.eye(2))
        assert len(bitflip_channel(0.25).operators) == 2

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            bitflip_channel(1.5)
        with pytest.raises(ValueError):
            depolarizing_channel(-0.1, 1)

    def test_incomplete_kraus_rejected(self):
        half = (np.eye(2, dtype=complex) * 0.5,)
        with pytest.raises(ValueError):
            KrausChannel(1, half)

    def test_compose_arity_mismatch(self):
        with pytest.raises(ValueError):
            compose_channels(bitflip_channel(0.1), depolarizing_channel(0.1, 2))

    def test_bitflip_action(self):
        """(1-p) rho + p X rho X, checked in closed form."""
        p = 0.12
        rho = np.array([[0.7, 0.2j], [-0.2j, 0.3]], dtype=complex)
        out = kraus_map_dm(DensityMatrix(1, rho), (0,), bitflip_channel(p).operators)
        want = (1 - p) * rho + p * (oracles.X @ rho @ oracles.X)
        np.testing.assert_allclose(out.entries, want, atol=1e-14)

    @pytest.mark.parametrize("arity,p", [(1, 0.002), (1, 0.3), (2, 0.02), (2, 0.5)])
    def test_depolarizing_action(self, arity, p):
        """Weighted Pauli mix equals (1-p) rho + p I/d."""
        rng = np.random.default_rng(17)
        d = 2**arity
        rho = oracles.random_density_dense(arity, rng)
        out = kraus_map_dm(DensityMatrix(arity, rho), tuple(range(arity)),
                           depolarizing_channel(p, arity).operators)
        want = (1 - p) * rho + p * np.eye(d) / d
        np.testing.assert_allclose(out.entries, want, atol=1e-13)

    def test_thermal_diagonal_decay(self):
        """Excited population decays by exp(-t/T1)."""
        model = default_noise_model()
        ch = thermal_relaxation_channel(model.t1_us, model.t2_us, model.t_gate_ns)
        rho = np.diag([0.0, 1.0]).astype(complex)
        out = kraus_map_dm(DensityMatrix(1, rho), (0,), ch.operators)
        stay = np.exp(-(model.t_gate_ns * 1e-9) / (model.t1_us * 1e-6))
        np.testing.assert_allclose(out.entries[1, 1].real, stay, atol=1e-12)

    def test_thermal_coherence_decay(self):
        """Off-diagonal element of |+><+| decays by exp(-t/T2)."""
        model = default_noise_model()
        ch = thermal_relaxation_channel(model.t1_us, model.t2_us, model.t_gate_ns)
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        out = kraus_map_dm(DensityMatrix(1, plus), (0,), ch.operators)
        decay = np.exp(-(model.t_gate_ns * 1e-9) / (model.t2_us * 1e-6))
        np.testing.assert_allclose(out.entries[0, 1].real, 0.5 * decay, atol=1e-12)

    def test_thermal_t2_bound(self):
        with pytest.raises(ValueError):
            thermal_relaxation_channel(10.0, 25.0, 50.0)

    @pytest.mark.parametrize("t1_us", [999.5002501250626, 80.0, 3.7])
    @pytest.mark.parametrize("t_gate_ns", [10.0, 50.0, 333.0])
    def test_thermal_at_t2_bound_is_pure_damping(self, t1_us, t_gate_ns):
        """T2 = 2 T1 is allowed, and builds even where the coherence ratio
        rounds to just above 1 (the first T1 here): a dephasing weight that
        rounds below zero is none."""
        ch = thermal_relaxation_channel(t1_us, 2.0 * t1_us, t_gate_ns)
        assert ch.completeness_residual() <= 1e-12
        out = kraus_map_dm(DensityMatrix(1, np.full((2, 2), 0.5 + 0j)), (0,), ch.operators)
        assert abs(out.entries[0, 1] - 0.5 * math.exp(-t_gate_ns / (2e3 * t1_us))) <= 1e-12

    def test_channel_vs_dense_embedding(self):
        """Package channel application equals fully embedded Kraus sums."""
        rng = np.random.default_rng(23)
        model = default_noise_model()
        rho = oracles.random_density_dense(3, rng)
        for ch, qubits in [(model.single_qubit_channel, (1,)),
                           (model.cx_channel, (2, 0))]:
            got = kraus_map_dm(DensityMatrix(3, rho), qubits, ch.operators)
            want = oracles.apply_kraus_dense(rho, ch.operators, 3, qubits)
            np.testing.assert_allclose(got.entries, want, atol=1e-12)


class TestReduction:
    def test_operator_counts(self):
        """Composition multiplies the operator counts.  Nothing reduces them:
        the fused transfer matrix is 16x16 or 4x4 whatever the count."""
        model = default_noise_model()
        assert len(model.cx_channel.operators) == 144
        assert len(model.single_qubit_channel.operators) == 8
        assert model.gate_transfer(GateOp.cx(0, 1)).shape == (16, 16)


class TestSuperops:
    def test_superop_equals_dense_transfer(self):
        model = default_noise_model()
        for ch in (model.single_qubit_channel, model.cx_channel):
            s = channel_superop(ch)
            want = oracles.channel_transfer_dense(ch.operators, ch.arity,
                                                  tuple(range(ch.arity)))
            np.testing.assert_allclose(s, want, atol=1e-12)

    @pytest.mark.parametrize("qubits", [(0,), (2,), (0, 1), (2, 0), (1, 2)])
    def test_apply_superop_matches_kraus(self, qubits):
        """The fast path and the literal Kraus sum agree at any position."""
        rng = np.random.default_rng(len(qubits) * 10 + qubits[0])
        model = default_noise_model()
        ch = (model.single_qubit_channel if len(qubits) == 1 else model.cx_channel)
        rho = oracles.random_density_dense(3, rng)
        via_kraus = kraus_map_dm(DensityMatrix(3, rho), qubits, ch.operators)
        via_superop = apply_superop_dm(rho, 3, qubits, channel_superop(ch))
        np.testing.assert_allclose(via_superop, via_kraus.entries, atol=1e-12)

    def test_adjoint_pullback_identity(self):
        """Tr(M E(rho)) == Tr(E+(M) rho) for random M and rho."""
        rng = np.random.default_rng(47)
        model = default_noise_model()
        ch = model.single_qubit_channel
        s = channel_superop(ch)
        rho = oracles.random_density_dense(2, rng)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = m + m.conj().T
        fwd = apply_superop_dm(rho, 2, (1,), s)
        back = apply_superop_dm(m, 2, (1,), s.conj().T)
        np.testing.assert_allclose(np.trace(m @ fwd), np.trace(back @ rho),
                                   atol=1e-12)


class TestModel:
    def test_default_values(self):
        model = default_noise_model()
        assert model.p_bitflip == 0.001
        assert model.p_dep1 == 0.002
        assert model.p_dep2 == 0.02
        assert model.t1_us == 80.0
        assert model.t2_us == 100.0
        assert model.t_gate_ns == 50.0

    def test_channel_for_mapping(self):
        model = default_noise_model()
        for kind in ("rz", "sx", "x"):
            assert model.channel_for(kind).arity == 1
        assert model.channel_for("cx").arity == 2
        assert model.channel_for("id") is None
        assert model.channel_for("measure") is None
        assert model.channel_for("cswap") is None

    @pytest.mark.parametrize("kind", sorted(sim.BASIS_KINDS))
    def test_noisy_kinds_are_buildable_basis_gates(self, kind):
        """Each kind a channel follows is a GateOp kind with a fused transfer."""
        op = GateOp(kind, tuple(range(sim._ARITY[kind])), angle=0.3 if kind == "rz" else None)
        model = default_noise_model()
        assert model.channel_for(kind).arity == len(op.qubits)
        assert model.gate_transfer(op).shape == (4 ** len(op.qubits),) * 2

    def test_noiseless_model_returns_none(self):
        model = noiseless_model()
        assert model.is_noiseless
        assert model.channel_for("cx") is None

    def test_superop_for_mapping(self):
        """gate_transfer gives each basis gate's superoperator, channel after
        gate; a noiseless model leaves the bare gate's."""
        model = default_noise_model()
        for op in (GateOp.rz(0.3, 0), GateOp.sx(0), GateOp.x(0)):
            assert model.gate_transfer(op).shape == (4, 4)
        dense = oracles.channel_transfer_dense(model.single_qubit_channel.operators, 1, (0,))
        np.testing.assert_allclose(model.gate_transfer(GateOp.x(0)),
                                   dense @ np.kron(oracles.X, oracles.X), atol=1e-15)
        with pytest.raises(ValueError, match="not a noisy basis gate"):
            model.gate_transfer(GateOp.h(0))
        bare = noiseless_model()
        for op, u in ((GateOp.sx(0), oracles.SX), (GateOp.rz(0.3, 0), oracles.rz(0.3)),
                      (GateOp.cx(0, 1), oracles.cx_matrix())):
            np.testing.assert_allclose(bare.gate_transfer(op), unitary_superop(u),
                                       rtol=0, atol=1e-15)

    def test_flip_readout(self):
        model = NoiseModelSpec(p_bitflip=0.25)
        assert model.flip_readout(1.0) == pytest.approx(0.75)
        assert model.flip_readout(0.5) == pytest.approx(0.5)

    def test_json_roundtrip(self):
        model = NoiseModelSpec(p_bitflip=0.01, t2_us=90.0)
        back = NoiseModelSpec.from_json(model.to_json())
        assert back == model

    def test_fields_frozen(self):
        """Cached channels cannot go stale: the budget is fixed at construction."""
        model = default_noise_model()
        model.gate_transfer(GateOp.x(0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.p_bitflip = 0.3

    def test_shared_arrays_read_only(self):
        """Every executor and Estimator on a model shares its channels'
        operators and its fused transfers, so none can be written in place;
        a channel copies its operators, leaving the caller's writeable."""
        model = default_noise_model()
        shared = [*model.fused_transfers.values(), *model.single_qubit_channel.operators,
                  *model.cx_channel.operators]
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0
        given = np.eye(2, dtype=complex)
        KrausChannel(1, (given,))
        assert given.flags.writeable

    def test_channels_compare_by_identity(self):
        a, b = bitflip_channel(0.1), bitflip_channel(0.1)
        assert a == a and a != b
        assert len({a, a, b}) == 2

    def test_invalid_t2_rejected(self):
        with pytest.raises(ValueError):
            NoiseModelSpec(t1_us=10.0, t2_us=25.0)

    @pytest.mark.parametrize("t_gate_ns", [-5.0, math.nan, math.inf])
    def test_bad_gate_time_rejected(self, t_gate_ns):
        """Caught at construction, not as a failure of every trial's first reading."""
        with pytest.raises(ValueError, match="t_gate_ns"):
            NoiseModelSpec(t_gate_ns=t_gate_ns)

    def test_delay_channel_durations(self):
        """Longer idle time damps harder."""
        model = default_noise_model()
        rho = DensityMatrix(1, np.diag([0.0, 1.0]).astype(complex))
        short = kraus_map_dm(
            rho, (0,), thermal_relaxation_channel(model.t1_us, model.t2_us, 50.0).operators)
        long = kraus_map_dm(
            rho, (0,), thermal_relaxation_channel(model.t1_us, model.t2_us, 5000.0).operators)
        assert long.entries[1, 1].real < short.entries[1, 1].real


class TestNoisyExecutors:
    def test_rejects_unlowered_ops(self):
        model = default_noise_model()
        rho = zero_state(3).density()
        with pytest.raises(ValueError, match="lower"):
            run_circuit_dm_noisy(rho, [GateOp.cswap(0, 1, 2)], model)

    def test_noiseless_model_is_unitary_evolution(self):
        rng = np.random.default_rng(3)
        amps = oracles.random_state_dense(2, rng)
        ops = lower_ops([GateOp.h(0), GateOp.cx(0, 1), GateOp.rz(0.7, 1)])
        out = run_circuit_dm_noisy(PureState(2, amps).density(), ops,
                                   noiseless_model())
        want = oracles.run_dense_dm(np.outer(amps, amps.conj()), ops, 2)
        np.testing.assert_allclose(out.entries, want, atol=1e-12)

    def test_noisy_dm_vs_dense_channel_oracle(self):
        """Full noisy evolution against embedded dense Kraus at every step."""
        model = default_noise_model()
        ops = lower_ops([GateOp.h(0), GateOp.cx(0, 1)])
        got = run_circuit_dm_noisy(zero_state(2).density(), ops, model)
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        for op in ops:
            u = oracles.op_matrix(op, 2)
            rho = u @ rho @ u.conj().T
            ch = model.channel_for(op.kind)
            if ch is not None:
                rho = oracles.apply_kraus_dense(rho, ch.operators, 2, op.qubits)
        np.testing.assert_allclose(got.entries, rho, atol=1e-12)

    def test_purity_drops_under_noise(self):
        model = default_noise_model()
        ops = lower_ops([GateOp.h(0), GateOp.cx(0, 1)])
        out = run_circuit_dm_noisy(zero_state(2).density(), ops, model)
        purity = float(np.real(np.trace(out.entries @ out.entries)))
        assert purity < 1.0 - 1e-4


# Models the fused executor is checked under: the default budget, no noise,
# and a heavy budget whose channels move every entry well past 1e-12.
MODELS = (
    default_noise_model(),
    noiseless_model(),
    NoiseModelSpec(p_bitflip=0.05, p_dep1=0.1, p_dep2=0.2, t1_us=1.0, t2_us=1.5,
                   t_gate_ns=300.0),
)


@st.composite
def lowered_circuits(draw):
    """(n_qubits, ops): a random circuit in {rz, sx, x, cx} on 1-3 qubits."""
    n = draw(st.integers(1, 3))
    kinds = ("rz", "sx", "x", "cx") if n > 1 else ("rz", "sx", "x")
    ops = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=8)):
        if kind == "cx":
            control, target = draw(st.permutations(range(n)))[:2]
            ops.append(GateOp.cx(control, target))
        elif kind == "rz":
            angle = draw(st.floats(-2.0 * math.pi, 2.0 * math.pi))
            ops.append(GateOp.rz(angle, draw(st.integers(0, n - 1))))
        else:
            ops.append(GateOp(kind, (draw(st.integers(0, n - 1)),)))
    return n, ops


class TestFusedExecutor:
    """run_circuit_dm_noisy applies each gate fused with its channel."""

    @settings(max_examples=150, deadline=None)
    @given(circuit=lowered_circuits(), model=st.sampled_from(MODELS),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_kraus_oracle(self, circuit, model, seed):
        n, ops = circuit
        rho = oracles.random_density_dense(n, np.random.default_rng(seed))
        got = run_circuit_dm_noisy(DensityMatrix(n, rho), ops, model)
        want = rho
        for op in ops:
            u = oracles.op_matrix(op, n)
            want = u @ want @ u.conj().T
            ch = model.channel_for(op.kind)
            if ch is not None:
                want = oracles.apply_kraus_dense(want, ch.operators, n, op.qubits)
        np.testing.assert_allclose(got.entries, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("model", MODELS[:2], ids=["default", "noiseless"])
    @pytest.mark.parametrize("op", [GateOp.sx(2), GateOp.sx(-1), GateOp.rz(0.3, 2),
                                    GateOp.x(-1), GateOp.cx(0, 2), GateOp.cx(-1, 0)],
                             ids=lambda op: f"{op.kind}{op.qubits}")
    def test_out_of_range_qubit_rejected(self, model, op):
        with pytest.raises(ValueError, match="out of range"):
            run_circuit_dm_noisy(zero_state(2).density(), [op], model)

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_cached_p0_matches_dense_full_circuit(self, n_qubits):
        """The trial Estimator's noisy p0 against the dense oracle over every lowered op."""
        model = default_noise_model()
        rng = RngStream(500 + n_qubits)
        psi = sample_random_state(n_qubits, rng)
        phi = sample_random_state(n_qubits, rng)
        total = 2 * n_qubits + 1
        dim = 1 << total
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        rho = oracles.run_dense_dm_noisy(rho, noisy_circuit_ops(psi, phi), total, model)
        # ancilla is qubit 0, the most significant bit: P(0) is the top half
        p0 = float(np.real(np.trace(rho[: dim // 2, : dim // 2])))
        np.testing.assert_allclose(Estimator(psi, FidelityMode.noisy(model)).value(phi),
                                   model.flip_readout(p0), rtol=0, atol=1e-12)


MODEL_IDS = ("default", "noiseless", "heavy")


def _rows_of_kind(kind, n, rng):
    """One state of ``kind`` on n qubits: generic, real-amplitude (no RZ
    stage), basis (RY stages dropped too), or one of DEGENERATE_STATES."""
    if kind == "generic":
        return sample_random_state(n, RngStream(int(rng.integers(2**32))))
    if kind == "real":
        v = np.abs(rng.normal(size=2**n))
        return PureState(n, (v / np.linalg.norm(v)).astype(complex))
    if kind == "basis":
        return basis_state(n, int(rng.integers(2**n)))
    pool = [s for s in DEGENERATE_STATES if s.n_qubits == n]
    return pool[int(rng.integers(len(pool)))]


class TestCompiledPreparation:
    """prepare_dm_noisy runs a stack of states through the compiled Mottonen
    template: each row must equal the general executor over that state's
    instantiated ops, dropped stages and their noise included."""

    @staticmethod
    def assert_rows_match_executor(states, model):
        n = states[0].n_qubits
        got = prepare_dm_noisy(np.stack([s.amplitudes for s in states]), model)
        assert got.shape == (len(states), 2**n, 2**n)
        for rho, state in zip(got, states):
            want = run_circuit_dm_noisy(zero_state(n).density(), prepare_on(n, state), model)
            np.testing.assert_allclose(rho, want.entries, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n_qubits=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           model=st.sampled_from(MODELS),
           kinds=st.lists(st.sampled_from(["generic", "real", "basis", "degenerate"]),
                          min_size=1, max_size=5))
    def test_matches_general_executor(self, n_qubits, seed, model, kinds):
        rng = np.random.default_rng(seed)
        states = [_rows_of_kind(kind, n_qubits, rng) for kind in kinds]
        self.assert_rows_match_executor(states, model)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("state", DEGENERATE_STATES, ids=DEGENERATE_IDS)
    def test_degenerate_states(self, state, model):
        """Alone, and between generic rows that keep every stage."""
        generic = [sample_random_state(state.n_qubits, RngStream(i)) for i in range(2)]
        self.assert_rows_match_executor([state], model)
        self.assert_rows_match_executor([generic[0], state, generic[1]], model)

    def test_zero_norm_row_rejected(self):
        rows = np.stack([sample_random_state(2, RngStream(3)).amplitudes, np.zeros(4)])
        with pytest.raises(ValueError, match="zero-norm"):
            prepare_dm_noisy(rows, default_noise_model())


@st.composite
def noise_models(draw):
    """A valid NoiseModelSpec: any probabilities, T2 in (0, 2 T1], and gates
    no longer than T1."""
    t1 = draw(st.floats(1.0, 1000.0))
    return NoiseModelSpec(
        p_bitflip=draw(st.floats(0.0, 1.0)), p_dep1=draw(st.floats(0.0, 1.0)),
        p_dep2=draw(st.floats(0.0, 1.0)), t1_us=t1,
        t2_us=draw(st.floats(1e-3, 2.0)) * t1,
        t_gate_ns=draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3 * t1))),
    )


def _same_operators(got, want):
    return len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


class TestStackedAlgebra:
    """The channel algebra on stacked operator arrays has the bits of its
    loop form (``oracles``): one broadcast multiply or stacked matmul, then
    an in-order sum from zero, make the same operations in the same order."""

    @pytest.mark.parametrize("arity", [1, 2])
    def test_pauli_basis(self, arity):
        assert _same_operators(noise_module._pauli_basis(arity), oracles.pauli_basis_loop(arity))

    @staticmethod
    def assert_model_matches_loops(model):
        depol1 = depolarizing_channel(model.p_dep1, 1)
        depol2 = depolarizing_channel(model.p_dep2, 2)
        thermal = thermal_relaxation_channel(model.t1_us, model.t2_us, model.t_gate_ns)
        pair = oracles.tensor_operators_loop(thermal.operators, thermal.operators)
        assert _same_operators(tensor_channels(thermal, thermal).operators, pair)
        single = oracles.compose_operators_loop(
            bitflip_channel(model.p_bitflip).operators, depol1.operators)
        assert _same_operators(model.single_qubit_channel.operators, single)
        assert _same_operators(model.cx_channel.operators,
                               oracles.compose_operators_loop(depol2.operators, pair))
        for ch in (model.single_qubit_channel, model.cx_channel):
            assert np.array_equal(channel_superop(ch), oracles.channel_superop_loop(ch.operators))
            assert ch.completeness_residual() == oracles.completeness_residual_loop(ch.operators)
        s1 = oracles.channel_superop_loop(model.single_qubit_channel.operators)
        s_cx = oracles.channel_superop_loop(model.cx_channel.operators)
        want = {"rz": s1,
                "sx": s1 @ np.kron(oracles.SX, oracles.SX.conj()),
                "x": s1 @ np.kron(oracles.X, oracles.X),
                "cx": s_cx @ np.kron(oracles.cx_matrix(), oracles.cx_matrix())}
        assert model.fused_transfers.keys() == want.keys()
        for kind, transfer in want.items():
            assert np.array_equal(model.fused_transfers[kind], transfer), kind
        for u in (oracles.SX, oracles.X, oracles.cx_matrix()):
            assert np.array_equal(unitary_superop(u), np.kron(u, u.conj()))

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_fixed_models(self, model):
        self.assert_model_matches_loops(model)

    @settings(max_examples=60, deadline=None)
    @given(model=noise_models())
    def test_drawn_models(self, model):
        self.assert_model_matches_loops(model)
