"""The fidelity estimator circuit in all three modes."""

import collections
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    expectation_z,
    noiseless_model,
    run_circuit_dm_noisy,
    sample_random_density,
    swap_test_exact,
)
from test_noise import MODEL_IDS, MODELS, _rows_of_kind, noise_models
from swapfit import noise as noise_module
from swapfit import prep as prep_module
from swapfit import swap_test as swap_test_module
from swapfit.metrics import hs_overlap, uhlmann_fidelity
from swapfit.noise import NoiseModelSpec, default_noise_model
from swapfit.prep import Representation, sample_random_state
from swapfit.sim import (
    DensityMatrix,
    PureState,
    RngStream,
    basis_state,
    zero_state,
)
from swapfit.swap_test import (
    DEFAULT_SHOTS,
    Estimator,
    FidelityMode,
    fidelity_oracle,
    noisy_circuit_ops,
    score_candidate,
    swap_gadget_ops,
)

SEEDS = st.integers(0, 2**32 - 1)


def _m_psi_p0(psi, phi, noise):
    """p0 through M_psi, which the Estimator skips for a noiseless model."""
    rho = noise_module.prepare_dm_noisy(phi.amplitudes[None, :], noise)[0]
    m_psi = swap_test_module._target_observable(noise, psi)
    return noise.flip_readout(float(np.real(np.vdot(m_psi, rho))))


def random_pair(n_qubits, seed, same):
    """(psi, phi) drawn from one seed; ``same`` makes phi a copy of psi."""
    rng = RngStream(seed)
    psi = sample_random_state(n_qubits, rng)
    return psi, (psi if same else sample_random_state(n_qubits, rng))


# Calibration constants for the default model, frozen from this
# implementation's own density-matrix runs: the expected noisy reading
# 2 p0 - 1 of identical |0..0> inputs.  It is the ceiling for |0..0> only:
# that target's Mottonen preparation emits no gates, so just the gadget is
# noisy.  Targets whose preparation emits gates read lower for identical
# inputs (random 1-qubit targets under the default model: 0.834-0.836).
FLOOR_1Q = 0.8525372632881913
FLOOR_2Q = 0.7444893200195593


class TestLayout:
    def test_register_indices(self):
        """Ancilla 0, target 1..3, candidate 4..6: seven qubits in all."""
        ops = swap_gadget_ops(3)
        assert [op.kind for op in ops] == ["h", "cswap", "cswap", "cswap", "h"]
        assert [op.qubits for op in ops] == [(0,), (0, 1, 4), (0, 2, 5), (0, 3, 6), (0,)]
        assert {q for op in ops for q in op.qubits} == set(range(7))

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            swap_gadget_ops(0)


class TestExact:
    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
    def test_matches_oracle(self, n_qubits):
        """Circuit estimate equals |<psi|phi>|^2 computed from amplitudes."""
        rng = RngStream(400 + n_qubits)
        for _ in range(10):
            psi = sample_random_state(n_qubits, rng)
            phi = sample_random_state(n_qubits, rng)
            got = swap_test_exact(psi, phi)
            np.testing.assert_allclose(got, fidelity_oracle(psi, phi),
                                       atol=1e-12)

    def test_identical_states(self):
        psi = sample_random_state(2, RngStream(9))
        assert swap_test_exact(psi, psi) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        got = swap_test_exact(basis_state(2, 0), basis_state(2, 3))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_symmetric(self):
        rng = RngStream(10)
        psi, phi = sample_random_state(2, rng), sample_random_state(2, rng)
        np.testing.assert_allclose(swap_test_exact(psi, phi),
                                   swap_test_exact(phi, psi),
                                   atol=1e-13)

    def test_qubit_mismatch(self):
        with pytest.raises(ValueError):
            swap_test_exact(basis_state(1, 0), basis_state(2, 0))

    def test_gadget_shape(self):
        ops = swap_gadget_ops(3)
        assert ops[0].kind == "h" and ops[-1].kind == "h"
        assert [op.kind for op in ops[1:-1]] == ["cswap"] * 3
        assert ops[1].qubits == (0, 1, 4)


class TestClosedForm:
    """Noiseless readings in closed form agree with the simulated circuit."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), seed=SEEDS, same=st.booleans())
    def test_exact_score_equals_circuit(self, n, seed, same):
        psi, phi = random_pair(n, seed, same)
        got = score_candidate(phi, psi, FidelityMode.exact())
        want = swap_test_exact(psi, phi)
        assert abs(got - want) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), seed=SEEDS, same=st.booleans(),
           draw_seed=SEEDS, shots=st.integers(1, 4096),
           noise=st.sampled_from([None, noiseless_model()]))
    def test_sampled_zero_count_equals_circuit_binomial(self, n, seed, same,
                                                         draw_seed, shots, noise):
        """One binomial on the circuit's p0 from an identically seeded stream."""
        psi, phi = random_pair(n, seed, same)
        mode = FidelityMode.sampled(shots) if noise is None else FidelityMode.noisy(noise, shots)
        out = score_candidate(phi, psi, mode, RngStream(draw_seed))
        p0 = (1.0 + swap_test_exact(psi, phi)) / 2.0
        want = int(RngStream(draw_seed).gen.binomial(shots, min(1.0, max(0.0, p0))))
        assert out == 2.0 * (want / shots) - 1.0


class TestSampled:
    def test_concentrates_near_exact(self):
        """Empirical frequency lands inside a generous binomial interval."""
        rng = RngStream(77)
        psi = sample_random_state(2, rng)
        phi = sample_random_state(2, rng)
        want = swap_test_exact(psi, phi)
        got = score_candidate(phi, psi, FidelityMode.sampled(20000), rng)
        assert abs(got - want) < 0.03

    def test_requires_rng(self):
        psi = basis_state(1, 0)
        with pytest.raises(ValueError):
            score_candidate(psi, psi, FidelityMode.sampled(16), rng=None)

    def test_requires_positive_shots(self):
        """A reading takes its shot count from its mode, which checks it."""
        with pytest.raises(ValueError, match="shot"):
            FidelityMode.sampled(0)

    def test_deterministic_given_stream(self):
        psi = sample_random_state(1, RngStream(3))
        a = score_candidate(psi, psi, FidelityMode.sampled(64), RngStream(5))
        b = score_candidate(psi, psi, FidelityMode.sampled(64), RngStream(5))
        assert a == b

    def test_default_shots_constant(self):
        assert DEFAULT_SHOTS == 1024


class TestNoisy:
    def test_cached_route_equals_full_circuit(self):
        """The factorized reading must match straight (2n+1)-qubit DM evolution,
        for n = 1..4 under each of the three test models."""
        for n_qubits in (1, 2, 3, 4):
            rng = RngStream(88 + n_qubits)
            psi = sample_random_state(n_qubits, rng)
            phi = sample_random_state(n_qubits, rng)
            for name, model in zip(("default", "noiseless", "heavy"), MODELS):
                fast = (_m_psi_p0(psi, phi, model) if model.is_noiseless
                        else Estimator(psi, FidelityMode.noisy(model)).value(phi))
                rho = zero_state(2 * n_qubits + 1).density()
                rho = run_circuit_dm_noisy(rho, noisy_circuit_ops(psi, phi), model)
                slow = model.flip_readout((1.0 + expectation_z(rho, 0)) / 2.0)
                np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12,
                                           err_msg=f"n={n_qubits}, {name} model")

    @settings(max_examples=30, deadline=None)
    @given(n_qubits=st.integers(1, 6), seed=SEEDS, same=st.booleans())
    def test_noiseless_reading_is_closed_form(self, n_qubits, seed, same):
        """With no noise the factorized route is the ideal (1 + |<psi|phi>|^2)/2."""
        psi, phi = random_pair(n_qubits, seed, same)
        np.testing.assert_allclose(_m_psi_p0(psi, phi, noiseless_model()),
                                   (1.0 + fidelity_oracle(psi, phi)) / 2.0,
                                   rtol=0, atol=1e-12)

    def test_floor_values_frozen(self):
        """Calibration numbers for the default budget stay put."""
        model = default_noise_model()
        for n_qubits, floor in ((1, FLOOR_1Q), (2, FLOOR_2Q)):
            z = zero_state(n_qubits)
            p0 = Estimator(z, FidelityMode.noisy(model)).value(z)
            np.testing.assert_allclose(2 * p0 - 1, floor, atol=1e-12)

    def test_floor_is_noise_only(self):
        """With the noiseless budget the floor sits at exactly 1."""
        z = zero_state(1)
        np.testing.assert_allclose(2 * _m_psi_p0(z, z, noiseless_model()) - 1, 1.0,
                                   atol=1e-12)

    def test_sampled_noisy_hovers_at_floor(self):
        model = default_noise_model()
        z = zero_state(1)
        out = score_candidate(z, z, FidelityMode.noisy(model, 4096), RngStream(6))
        assert abs(out - FLOOR_1Q) < 0.05

    def test_noisy_orders_fidelities(self):
        """Noisy estimates still rank a good candidate above a bad one."""
        model = default_noise_model()
        psi = basis_state(1, 0)
        estimator = Estimator(psi, FidelityMode.noisy(model))
        good = estimator.value(psi)
        bad = estimator.value(basis_state(1, 1))
        assert good > bad + 0.3

    def test_trajectory_fallback_runs(self):
        """n=5 and 6 (11 and 13 circuit qubits) read exactly, like every n:
        one binomial draw from the Estimator's p0, not per-shot trajectories."""
        model = default_noise_model()
        for n_qubits in (5, 6):
            rng = RngStream(11)
            psi = sample_random_state(n_qubits, rng)
            phi = sample_random_state(n_qubits, rng)
            out = score_candidate(phi, psi, FidelityMode.noisy(model, 1024), RngStream(12))
            p0 = Estimator(psi, FidelityMode.noisy(model)).value(phi)
            zeros = RngStream(12).gen.binomial(1024, p0)
            assert out == 2.0 * (zeros / 1024) - 1.0

    def test_reading_builds_no_ops(self, monkeypatch):
        """Noisy readings, cold and warm, run both preparations from the
        compiled template: no op-level synthesis.  The op-by-op executor
        lives in the tests, so the package cannot reach it."""
        calls = collections.Counter()

        def count(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[f"{module.__name__}.{name}"] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(prep_module, "mottonen_circuit")
        count(prep_module, "prepare_on")
        count(swap_test_module, "prepare_on")
        rng = RngStream(31)
        psi = sample_random_state(2, rng)
        mode = FidelityMode.noisy(default_noise_model(), 1024)
        for _ in range(4):
            score_candidate(sample_random_state(2, rng), psi, mode, rng)
        assert not calls
        noisy_circuit_ops(psi, psi)  # the counters do see the op-level route
        assert calls == {"swapfit.swap_test.prepare_on": 2,
                         "swapfit.prep.mottonen_circuit": 2}

    def test_six_qubit_noisy_score_is_fast(self):
        """A cold n=6 noisy reading, target preparation included, takes under
        1 s of this process's CPU time (every thread, BLAS included), which
        another process sharing the CPUs does not inflate."""
        rng = RngStream(13)
        psi = sample_random_state(6, rng)
        phi = sample_random_state(6, rng)
        mode = FidelityMode.noisy(default_noise_model(), 1024)
        start = time.process_time()
        score_candidate(phi, psi, mode, rng)
        assert time.process_time() - start < 1.0


class TestGadgetTensors:
    """The SWAP gadget's tensors depend on the noise model alone: each model
    builds them once, and every Estimator on it reads the same arrays."""

    def test_estimators_on_one_model_share_them(self, monkeypatch):
        real, calls = noise_module.lower_ops, []
        monkeypatch.setattr(noise_module, "lower_ops",
                            lambda ops: calls.append(ops) or real(ops))
        mode = FidelityMode.noisy(NoiseModelSpec())
        rng = RngStream(11)
        Estimator(sample_random_state(2, rng), mode)
        gadget, built = mode.noise.swap_gadget, len(calls)
        assert built > 0
        Estimator(sample_random_state(1, rng), mode)
        assert len(calls) == built
        assert all(a is b for a, b in zip(mode.noise.swap_gadget, gadget))
        other = NoiseModelSpec()
        Estimator(sample_random_state(2, rng), FidelityMode.noisy(other))
        assert len(calls) == 2 * built
        for a, b in zip(other.swap_gadget, gadget):
            assert a is not b
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_arrays_are_read_only(self, model):
        for t in model.swap_gadget:
            assert not t.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                t[(0,) * t.ndim] = 1.0

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), seed=SEEDS,
           model=st.sampled_from(MODELS) | noise_models(),
           kind=st.sampled_from(["generic", "real", "basis", "degenerate"]))
    def test_observable_matches_per_call_construction(self, n, seed, model, kind):
        """M_psi from the model's tensors has the bits of M_psi built whole
        for each target, the earlier form kept in ``oracles``."""
        psi = _rows_of_kind(kind, n, np.random.default_rng(seed))
        assert np.array_equal(swap_test_module._target_observable(model, psi),
                              oracles.target_observable_per_call(model, psi))


class TestMixed:
    def test_overlap_against_dense(self):
        rng = RngStream(21)
        rho = sample_random_density(2, rng)
        sig = sample_random_density(2, rng)
        want = float(np.real(np.trace(rho.entries @ sig.entries)))
        np.testing.assert_allclose(hs_overlap(rho, sig), want,
                                   atol=1e-13)

    def test_maximally_mixed_pair(self):
        """Identical I/2 inputs read 0.5, not 1: the estimator's blind spot."""
        from swapfit.sim import DensityMatrix
        half = DensityMatrix(1, np.eye(2, dtype=complex) / 2)
        assert hs_overlap(half, half) == pytest.approx(0.5, abs=1e-15)


class TestFidelityMode:
    def test_labels_roundtrip(self):
        for mode in (FidelityMode.exact(), FidelityMode.sampled(256),
                     FidelityMode.noisy(default_noise_model(), 128)):
            back = FidelityMode.from_label(mode.label())
            assert back.kind == mode.kind
            assert back.shots == mode.shots

    def test_noisy_requires_model(self):
        with pytest.raises(ValueError):
            FidelityMode("noisy", shots=100)

    def test_bad_label(self):
        with pytest.raises(ValueError):
            FidelityMode.from_label("exactly")


class TestScoreCandidate:
    def test_pure_exact_equals_circuit(self):
        rng = RngStream(41)
        psi, phi = sample_random_state(2, rng), sample_random_state(2, rng)
        got = score_candidate(phi, psi, FidelityMode.exact())
        np.testing.assert_allclose(got, swap_test_exact(psi, phi),
                                   atol=1e-13)

    def test_density_swap_objective(self):
        rng = RngStream(42)
        rho = sample_random_density(2, rng)
        psi = sample_random_state(2, rng)
        got = score_candidate(rho, psi, FidelityMode.exact(), objective="swap")
        want = float(np.real(psi.amplitudes.conj() @ rho.entries @ psi.amplitudes))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_density_uhlmann_objective(self):
        rng = RngStream(43)
        rho = sample_random_density(2, rng)
        sig = sample_random_density(2, rng)
        got = score_candidate(rho, sig, FidelityMode.exact(), objective="uhlmann")
        np.testing.assert_allclose(got, oracles.uhlmann_scipy(rho.entries,
                                                              sig.entries),
                                   atol=1e-9)

    @pytest.mark.parametrize("mode", [FidelityMode.exact(), FidelityMode.sampled(64),
                                      FidelityMode.noisy(default_noise_model(), 64)],
                             ids=lambda m: m.kind)
    def test_pure_uhlmann_is_overlap(self, mode):
        """Pure/pure Uhlmann fidelity is |<psi|phi>|^2, not a matrix-root value;
        it is scored exactly, so a stochastic mode is rejected as at validation."""
        rng = RngStream(44)
        for n_qubits in (1, 2, 3):
            psi, phi = sample_random_state(n_qubits, rng), sample_random_state(n_qubits, rng)
            if mode.kind != "exact":
                with pytest.raises(ValueError, match="uhlmann objective is scored exactly"):
                    score_candidate(phi, psi, mode, RngStream(1), objective="uhlmann")
                continue
            got = score_candidate(phi, psi, mode, RngStream(1), objective="uhlmann")
            assert abs(got - fidelity_oracle(psi, phi)) <= 1e-12

    def test_unknown_objective(self):
        psi = basis_state(1, 0)
        with pytest.raises(ValueError):
            score_candidate(psi, psi, FidelityMode.exact(), objective="trace")

    @pytest.mark.parametrize("mode", [FidelityMode.sampled(64),
                                      FidelityMode.noisy(default_noise_model(), 64)],
                             ids=lambda m: m.kind)
    def test_density_rejects_stochastic_mode(self, mode):
        """A density side is scored exactly, so a shot or noise label would lie."""
        rng = RngStream(45)
        psi, rho = sample_random_state(1, rng), sample_random_density(1, rng)
        for cand, targ in ((rho, psi), (psi, rho), (rho, rho)):
            with pytest.raises(ValueError, match="exactly"):
                score_candidate(cand, targ, mode, RngStream(1))


class TestPureMixed:
    """A pure side against a density matrix reads <psi|sigma|psi> in closed form."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 6), seed=SEEDS, pure_candidate=st.booleans(),
           objective=st.sampled_from(["swap", "uhlmann"]))
    def test_matches_references(self, n, seed, pure_candidate, objective):
        rng = RngStream(seed)
        psi, sigma = sample_random_state(n, rng), sample_random_density(n, rng)
        cand, targ = (psi, sigma) if pure_candidate else (sigma, psi)
        got = score_candidate(cand, targ, FidelityMode.exact(), objective=objective)
        want = oracles.pure_expectation(psi.amplitudes, sigma.entries)
        assert abs(got - want) <= 1e-12
        # The matrix-root forms carry up to ~3e-8 of eigendecomposition error
        # against a rank-one side, so they agree only to 1e-7.
        assert abs(got - oracles.uhlmann_scipy(sigma.entries, psi.density().entries)) <= 1e-7
        assert abs(got - uhlmann_fidelity(psi.density(), sigma)) <= 1e-7

    @pytest.mark.parametrize("objective", ["swap", "uhlmann"])
    def test_clipped_into_unit_interval(self, objective):
        """<psi|psi><psi|psi> rounds above 1 for about a third of random psi."""
        for seed in range(30):
            psi = sample_random_state(1 + seed % 6, RngStream(seed))
            for cand, targ in ((psi, psi.density()), (psi.density(), psi)):
                got = score_candidate(cand, targ, FidelityMode.exact(), objective=objective)
                assert 1.0 - 1e-12 <= got <= 1.0

    @pytest.mark.parametrize("objective", ["swap", "uhlmann"])
    def test_qubit_mismatch(self, objective):
        rng = RngStream(46)
        psi, sigma = sample_random_state(1, rng), sample_random_density(2, rng)
        for cand, targ in ((psi, sigma), (sigma, psi)):
            with pytest.raises(ValueError, match="qubit-count mismatch"):
                score_candidate(cand, targ, FidelityMode.exact(), objective=objective)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4), seed=SEEDS)
    def test_mixed_pair_keeps_matrix_forms(self, n, seed):
        rng = RngStream(seed)
        rho, sigma = sample_random_density(n, rng), sample_random_density(n, rng)
        exact = FidelityMode.exact()
        assert score_candidate(rho, sigma, exact, objective="swap") == hs_overlap(rho, sigma)
        assert (score_candidate(rho, sigma, exact, objective="uhlmann")
                == uhlmann_fidelity(rho, sigma))


# Every (mode, objective, candidate representation, target kind) an
# estimator accepts: sampled and noisy modes read pure pairs under "swap".
PURE_REPS = (Representation.STATEVECTOR, Representation.UNITARY)
EXACT_CASES = [(FidelityMode.exact(), objective, rep, density_target)
               for objective in ("swap", "uhlmann") for rep in Representation
               for density_target in (False, True)]
NOISY_MODES = [FidelityMode.noisy(model, 256) for model in MODELS]
STOCHASTIC_CASES = [(mode, "swap", rep, False)
                    for mode in [FidelityMode.sampled(256)] + NOISY_MODES for rep in PURE_REPS]


def _estimator_inputs(case, n, seed, kinds):
    """(target, block): a decoded block of the case's representation, with
    real-amplitude and basis rows written in where ``kinds`` says."""
    _, _, rep, density_target = case
    rng = np.random.default_rng(seed)
    stream = RngStream(seed)
    target = sample_random_density(n, stream) if density_target else sample_random_state(n, stream)
    block = rep.decode_rows(rng.normal(size=(len(kinds), rep.param_length(n))), n)
    for i, kind in enumerate(kinds):
        if kind != "decoded":
            state = _rows_of_kind(kind, n, rng)
            block[i] = state.density().entries if rep is Representation.DENSITY else state.amplitudes
    return target, block


def _state(row, n):
    """The state object a block row stands for."""
    return PureState(n, row, check=False) if row.ndim == 1 else DensityMatrix(n, row, check=False)


KINDS = st.lists(st.sampled_from(["decoded", "real", "basis"]), min_size=1, max_size=5)


class TestEstimator:
    """Estimator.values, the value each reading is drawn from: a stacked row
    against its one-row value, and every mode against an independent
    reference."""

    @settings(max_examples=80, deadline=None)
    @given(case=st.sampled_from(EXACT_CASES + STOCHASTIC_CASES), n=st.integers(1, 4),
           seed=SEEDS, kinds=KINDS)
    def test_stacked_row_equals_one_row(self, case, n, seed, kinds):
        mode, objective, _, _ = case
        target, block = _estimator_inputs(case, n, seed, kinds)
        estimator = Estimator(target, mode, objective)
        stacked = estimator.values(block)
        alone = [estimator.value(_state(row, n)) for row in block]
        if mode.kind == "noisy" and not mode.noise.is_noiseless:
            # BLAS multiplies a one-row preparation's matrices by gemv, and the
            # last columns of a stack's by gemm edge kernels, so a stacked noisy
            # density can differ from the one-row density in its last bit
            assert max(abs(a - b) for a, b in zip(stacked, alone)) <= 1e-12
        else:
            assert stacked == alone

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(EXACT_CASES), n=st.integers(1, 4), seed=SEEDS, kinds=KINDS)
    def test_exact_values_match_references(self, case, n, seed, kinds):
        """The reading itself: pure pairs against the amplitudes and the
        simulated circuit, a pure side against <psi|sigma|psi>, and two
        density matrices against the dense overlap or scipy's matrix root."""
        mode, objective, _, _ = case
        target, block = _estimator_inputs(case, n, seed, kinds)
        for value, row in zip(Estimator(target, mode, objective).values(block), block):
            cand = _state(row, n)
            pure = [s for s in (target, cand) if isinstance(s, PureState)]
            if len(pure) == 2:
                assert abs(value - fidelity_oracle(target, cand)) <= 1e-12
                assert abs(value - swap_test_exact(target, cand)) <= 1e-12
            elif pure:
                sigma = cand if pure[0] is target else target
                assert abs(value - oracles.pure_expectation(pure[0].amplitudes,
                                                            sigma.entries)) <= 1e-12
            elif objective == "swap":
                want = float(np.real(np.trace(cand.entries @ target.entries)))
                assert abs(value - want) <= 1e-12
            else:
                # the matrix-root form against scipy's, full-rank side first; a
                # rank-one (basis or real) row costs it up to ~3e-8, as in TestPureMixed
                want = oracles.uhlmann_scipy(target.entries, cand.entries)
                assert abs(value - want) <= 1e-7

    @settings(max_examples=30, deadline=None)
    @given(rep=st.sampled_from(PURE_REPS), n=st.integers(1, 4), seed=SEEDS, kinds=KINDS)
    def test_sampled_values_are_circuit_p0(self, rep, n, seed, kinds):
        case = (FidelityMode.sampled(256), "swap", rep, False)
        target, block = _estimator_inputs(case, n, seed, kinds)
        for value, row in zip(Estimator(target, case[0]).values(block), block):
            assert abs(value - (1.0 + swap_test_exact(target, _state(row, n))) / 2.0) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(mode=st.sampled_from(NOISY_MODES), rep=st.sampled_from(PURE_REPS),
           n=st.integers(1, 3), seed=SEEDS,
           kinds=st.lists(st.sampled_from(["decoded", "real", "basis"]),
                          min_size=1, max_size=3))
    def test_noisy_values_match_full_circuit(self, mode, rep, n, seed, kinds):
        """p0 against the (2n+1)-qubit density matrix run over every lowered op."""
        target, block = _estimator_inputs((mode, "swap", rep, False), n, seed, kinds)
        for value, row in zip(Estimator(target, mode).values(block), block):
            rho = zero_state(2 * n + 1).density()
            rho = run_circuit_dm_noisy(rho, noisy_circuit_ops(target, _state(row, n)),
                                       mode.noise)
            want = mode.noise.flip_readout((1.0 + expectation_z(rho, 0)) / 2.0)
            assert abs(value - want) <= 1e-12


def _per_row_value(target, row, n, mode, objective):
    """The per-row form ``Estimator.values`` replaced, for one exact or
    sampled row: a state object per row and one scalar formula each."""
    cand = _state(row, n)
    if isinstance(target, PureState) and isinstance(cand, PureState):
        f = fidelity_oracle(target, cand)
    elif isinstance(target, PureState) or isinstance(cand, PureState):
        psi, sigma = (cand, target) if isinstance(cand, PureState) else (target, cand)
        a = psi.amplitudes
        f = min(1.0, max(0.0, float(np.real(np.vdot(a, sigma.entries @ a)))))
    elif objective == "swap":
        f = hs_overlap(cand, target)
    else:
        f = uhlmann_fidelity(cand, target)
    return f if mode.kind == "exact" else (1.0 + f) / 2.0


WIDE_KINDS = st.lists(st.sampled_from(["decoded", "real", "basis"]), min_size=1, max_size=6)


class TestBlockValues:
    """The block form of ``Estimator.values`` against the per-row forms it
    replaced, bit for bit, over the three representations and n = 1..6."""

    @settings(max_examples=80, deadline=None)
    @given(case=st.sampled_from(EXACT_CASES + STOCHASTIC_CASES[:len(PURE_REPS)]),
           n=st.integers(1, 6), seed=SEEDS, kinds=WIDE_KINDS)
    def test_exact_and_sampled_bit_for_bit(self, case, n, seed, kinds):
        mode, objective, _, _ = case
        target, block = _estimator_inputs(case, n, seed, kinds)
        got = Estimator(target, mode, objective).values(block)
        assert all(type(v) is float for v in got)
        assert got == [_per_row_value(target, row, n, mode, objective) for row in block]

    @settings(max_examples=25, deadline=None)
    @given(mode=st.sampled_from(NOISY_MODES), rep=st.sampled_from(PURE_REPS),
           n=st.integers(1, 3), seed=SEEDS, kinds=WIDE_KINDS)
    def test_noisy_bit_for_bit_on_the_same_stack(self, mode, rep, n, seed, kinds):
        """One vecdot over the stack against one np.vdot per row of the same
        stack, bit for bit, and against the one-pair reference to 1e-12."""
        target, block = _estimator_inputs((mode, "swap", rep, False), n, seed, kinds)
        got = Estimator(target, mode).values(block)
        noise = mode.noise
        if noise.is_noiseless:
            want = [(1.0 + fidelity_oracle(target, _state(row, n))) / 2.0 for row in block]
            assert got == want
            return
        observable = swap_test_module._target_observable(noise, target)
        rhos = noise_module.prepare_dm_noisy(block, noise)
        assert got == [noise.flip_readout(float(np.real(np.vdot(observable, rho))))
                       for rho in rhos]
        for value, row in zip(got, block):
            assert abs(value - Estimator(target, mode).value(_state(row, n))) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(mode=st.sampled_from([FidelityMode.sampled(256)] + NOISY_MODES),
           rep=st.sampled_from(PURE_REPS), n=st.integers(1, 3), seed=SEEDS,
           kinds=WIDE_KINDS)
    def test_draws_and_stream_match_per_row_path(self, mode, rep, n, seed, kinds):
        """Readings drawn from the block's values take the same draws, and
        leave the stream in the same state, as the per-row path: one p0 per
        state object and one binomial each."""
        target, block = _estimator_inputs((mode, "swap", rep, False), n, seed, kinds)
        rng_block, rng_rows = RngStream(seed), RngStream(seed)
        got = [score_candidate(row, target, mode, rng_block, prepared=v)
               for row, v in zip(block, Estimator(target, mode).values(block))]
        if mode.kind == "sampled" or mode.noise.is_noiseless:
            p0 = [(1.0 + fidelity_oracle(target, _state(row, n))) / 2.0 for row in block]
        else:
            observable = swap_test_module._target_observable(mode.noise, target)
            p0 = [mode.noise.flip_readout(float(np.real(np.vdot(observable, rho))))
                  for rho in noise_module.prepare_dm_noisy(block, mode.noise)]
        want = []
        for p in p0:
            zeros = int(rng_rows.gen.binomial(mode.shots, min(1.0, max(0.0, p))))
            want.append(2.0 * (zeros / mode.shots) - 1.0)
        assert got == want
        assert rng_block.gen.bit_generator.state == rng_rows.gen.bit_generator.state


class TestBlockValidation:
    """What a state object per row used to check, checked on the block."""

    @pytest.mark.parametrize("mode", [FidelityMode.sampled(64),
                                      FidelityMode.noisy(default_noise_model(), 64)],
                             ids=["sampled", "noisy"])
    def test_density_block_in_stochastic_mode_raises(self, mode):
        rng = RngStream(70)
        target = sample_random_state(2, rng)
        block = Representation.DENSITY.decode_rows(np.random.default_rng(70).normal(
            size=(3, Representation.DENSITY.param_length(2))), 2)
        with pytest.raises(ValueError, match="density matrices are scored exactly"):
            Estimator(target, mode).values(block)

    @pytest.mark.parametrize("mode", [FidelityMode.exact(), FidelityMode.sampled(64),
                                      FidelityMode.noisy(default_noise_model(), 64)],
                             ids=["exact", "sampled", "noisy"])
    @pytest.mark.parametrize("shape", [(3, 8), (3, 8, 8), (4,), (3, 4, 8), (3, 4, 4, 4)])
    def test_width_mismatch_names_the_shape(self, mode, shape):
        target = sample_random_state(2, RngStream(71))
        block = np.zeros(shape, dtype=complex)
        want = r"candidate block has shape \(" + r",\s*".join(map(str, shape))
        with pytest.raises(ValueError, match=want):
            Estimator(target, mode).values(block)

    def test_density_target_width_mismatch(self):
        target = sample_random_density(2, RngStream(72))
        for shape in ((2, 2), (2, 8, 8)):
            with pytest.raises(ValueError, match="qubit-count mismatch"):
                Estimator(target, FidelityMode.exact()).values(np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("mode", [FidelityMode.exact(), FidelityMode.sampled(64),
                                      FidelityMode.noisy(default_noise_model(), 64)],
                             ids=["exact", "sampled", "noisy"])
    def test_lone_states_still_accepted(self, mode):
        """``score_candidate`` without ``prepared`` reads a lone state, as the
        benchmark's estimator sweep and the tests call it."""
        rng = RngStream(73)
        psi, phi = sample_random_state(2, rng), sample_random_state(2, rng)
        estimator = Estimator(psi, mode)
        a, b = RngStream(5), RngStream(5)
        assert (score_candidate(phi, psi, mode, a)
                == score_candidate(phi, psi, mode, b,
                                   prepared=estimator.values(phi.amplitudes[None])[0]))
        if mode.kind == "exact":
            sigma = sample_random_density(2, rng)
            assert (score_candidate(sigma, psi, mode)
                    == Estimator(psi, mode).values(sigma.entries[None])[0])
            assert (score_candidate(phi, sigma, mode)
                    == Estimator(sigma, mode).values(phi.amplitudes[None])[0])
