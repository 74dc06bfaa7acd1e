"""The population-based optimizer: perturbations, advantages, update, loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import sample_random_density
from swapfit.evolution import (
    EpochLog,
    ESParams,
    es_update,
    perturb_population,
    run_es,
    standardized_advantages,
)
from swapfit import evolution, neural
from swapfit.metrics import uhlmann_fidelity
from swapfit.noise import default_noise_model
from swapfit.neural import GeneratorConfig, train_generator
from swapfit.prep import Representation, TargetSpec, sample_random_state
from swapfit.sim import PureState, RngStream
from swapfit.swap_test import FidelityMode, fidelity_oracle


class TestParams:
    def test_defaults(self):
        p = ESParams()
        assert p.population == 50
        assert p.sigma == 0.1
        assert p.alpha == 0.05
        assert p.max_iters == 100
        assert p.thresholds == (0.95, 0.99)

    def test_validation(self):
        with pytest.raises(ValueError):
            ESParams(population=1)
        with pytest.raises(ValueError):
            ESParams(sigma=0.0)
        with pytest.raises(ValueError):
            ESParams(max_iters=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -0.1])
    @pytest.mark.parametrize("field", ["sigma", "alpha", "advantage_epsilon"])
    def test_non_finite_or_nonpositive_scale_rejected(self, field, value):
        """NaN fails ``x <= 0`` as well as ``x > 0``; each field must be
        positive and finite, and the error names it."""
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            ESParams(**{field: value})

    def test_duplicate_thresholds_rejected(self):
        """Each threshold is one results.csv column and one EpochLog key."""
        with pytest.raises(ValueError, match="distinct"):
            ESParams(thresholds=(0.95, 0.95))
        with pytest.raises(ValueError, match="distinct"):
            ESParams(thresholds=(0.9, 0.99, 0.9))


class TestPerturb:
    def test_shapes_and_arithmetic(self):
        rng = RngStream(1)
        w = np.zeros(6)
        params = ESParams(population=20, sigma=0.5)
        Z, W = perturb_population(w, params, rng)
        assert len(Z) == len(W) == 20
        for z, cand in zip(Z, W):
            assert z.shape == (6,)
            np.testing.assert_allclose(cand, w + 0.5 * z, atol=1e-15)

    def test_rejects_nonfinite(self):
        rng = RngStream(2)
        with pytest.raises(ValueError):
            perturb_population(np.array([1.0, np.nan]), ESParams(), rng)

    def test_moments_are_standard_normal(self):
        rng = RngStream(3)
        zs, _ = perturb_population(np.zeros(4), ESParams(population=4000, sigma=1.0),
                                   rng)
        assert abs(zs.mean()) < 0.05
        assert abs(zs.std() - 1.0) < 0.05


class TestAdvantages:
    def test_hand_case(self):
        adv = standardized_advantages([1.0, 2.0, 3.0])
        std = np.std([1.0, 2.0, 3.0])
        np.testing.assert_allclose(adv, [-1.0 / std, 0.0, 1.0 / std], atol=1e-9)

    def test_degenerate_scores_give_zeros(self):
        """Identical fitness must not blow up on the zero std."""
        adv = standardized_advantages([0.7, 0.7, 0.7, 0.7])
        np.testing.assert_allclose(adv, np.zeros(4), atol=1e-15)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            standardized_advantages([1.0])

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=200),
           flat=st.booleans(), epsilon=st.sampled_from([1e-8, 1e-3]))
    def test_one_pass_matches_mean_and_std(self, values, flat, epsilon):
        """The one-pass form has the bits of numpy's mean and std, all-equal
        populations included."""
        F = np.full(len(values), values[0]) if flat else np.array(values)
        want = (F - F.mean()) / (F.std() + epsilon)
        got = standardized_advantages(F.tolist(), epsilon)
        assert np.array_equal(got, want)


class TestUpdate:
    def test_matches_naive_loop(self):
        """Vectorized update equals the literal population sum."""
        rng = np.random.default_rng(5)
        w = rng.normal(size=8)
        zs = [rng.normal(size=8) for _ in range(12)]
        adv = rng.normal(size=12)
        params = ESParams(population=12, sigma=0.1, alpha=0.05)
        got = es_update(w, np.stack(zs), adv, params)
        want = oracles.es_update_naive(w, 0.1, 0.05, zs, adv)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_zero_advantages_leave_w_unchanged(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=5)
        zs = [rng.normal(size=5) for _ in range(7)]
        got = es_update(w, np.stack(zs), np.zeros(7), ESParams(population=7))
        np.testing.assert_array_equal(got, w)

    def test_length_mismatch(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=3)
        zs = [rng.normal(size=3) for _ in range(4)]
        with pytest.raises(ValueError):
            es_update(w, np.stack(zs), np.zeros(3), ESParams(population=4))


class TestRunES:
    def test_deterministic_rerun(self):
        """Same seed, same trace, same solution."""
        def one_run():
            rng = RngStream(7777)
            target = TargetSpec(1, sample_random_state(1, rng), seed=7777)
            return run_es(target, ESParams(), FidelityMode.exact(), rng)

        sol_a, rec_a = one_run()
        sol_b, rec_b = one_run()
        assert rec_a.fidelity_trace == rec_b.fidelity_trace
        np.testing.assert_array_equal(sol_a.amplitudes, sol_b.amplitudes)

    def test_converges_one_qubit(self):
        rng = RngStream(11)
        target = TargetSpec(1, sample_random_state(1, rng), seed=11)
        sol, rec = run_es(target, ESParams(), FidelityMode.exact(), rng)
        assert rec.oracle_fidelity > 0.99
        assert rec.epochs_to_threshold[0.99] is not None

    def test_trace_crossing_consistency(self):
        """epochs_to_threshold points at the first crossing in the trace."""
        rng = RngStream(12)
        target = TargetSpec(1, sample_random_state(1, rng), seed=12)
        _, rec = run_es(target, ESParams(), FidelityMode.exact(), rng)
        for thr, epoch in rec.epochs_to_threshold.items():
            if epoch is None:
                continue
            assert rec.fidelity_trace[epoch - 1] >= thr
            assert all(f < thr for f in rec.fidelity_trace[: epoch - 1])

    def test_stops_at_top_threshold(self):
        rng = RngStream(13)
        target = TargetSpec(1, sample_random_state(1, rng), seed=13)
        params = ESParams(max_iters=100)
        _, rec = run_es(target, params, FidelityMode.exact(), rng)
        assert len(rec.fidelity_trace) < 100
        assert rec.fidelity_trace[-1] >= 0.99

    def test_final_is_best_in_exact_mode(self):
        rng = RngStream(14)
        target = TargetSpec(2, sample_random_state(2, rng), seed=14)
        _, rec = run_es(target, ESParams(), FidelityMode.exact(), rng)
        np.testing.assert_allclose(rec.final_fidelity,
                                   max(rec.fidelity_trace), atol=1e-12)

    def test_oracle_rescoring_in_sampled_mode(self):
        """Sampled runs report the sampled final and the true oracle score."""
        rng = RngStream(15)
        target = TargetSpec(1, sample_random_state(1, rng), seed=15)
        sol, rec = run_es(target, ESParams(max_iters=30),
                          FidelityMode.sampled(512), rng)
        np.testing.assert_allclose(rec.oracle_fidelity,
                                   fidelity_oracle(target.state, sol),
                                   atol=1e-12)

    def test_unitary_representation(self):
        rng = RngStream(16)
        target = TargetSpec(1, sample_random_state(1, rng), seed=16)
        params = ESParams(representation=Representation.UNITARY)
        sol, rec = run_es(target, params, FidelityMode.exact(), rng)
        assert rec.representation == Representation.UNITARY.value
        assert rec.oracle_fidelity > 0.95

    def test_record_metadata(self):
        rng = RngStream(17)
        target = TargetSpec(1, sample_random_state(1, rng), seed=17)
        _, rec = run_es(target, ESParams(), FidelityMode.exact(), rng,
                        trial_id=5)
        assert rec.trial_id == 5
        assert rec.fidelity_mode == "exact"
        assert rec.wall_time >= 0.0


def assert_log_invariants(trace, epochs, thresholds, stop_at, max_epochs):
    """What any trial record must say about its own trace."""
    for t in thresholds:
        first = next((i for i, f in enumerate(trace, start=1) if f >= t), None)
        assert epochs[t] == first
    assert all(f < stop_at for f in trace[:-1])
    assert trace[-1] >= stop_at or len(trace) == max_epochs


FIDELITY = st.floats(0.0, 1.0, allow_nan=False)
THRESHOLDS = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4, unique=True)


class TestEpochLog:
    @settings(max_examples=200, deadline=None)
    @given(trace=st.lists(FIDELITY, min_size=1, max_size=30), thresholds=THRESHOLDS,
           stop=st.one_of(st.none(), FIDELITY))
    def test_record_and_finish(self, trace, thresholds, stop):
        """Threshold epochs, argmax state, stop signal and final reading."""
        stop_at = max(thresholds) if stop is None else stop
        target = TargetSpec(1, PureState(1, np.array([1.0, 0.0], dtype=complex)))
        states = [
            PureState(1, np.array([math.cos(i), math.sin(i)], dtype=complex))
            for i in range(len(trace))
        ]
        log = EpochLog(thresholds, stop_at)
        seen = []
        for epoch, (f, state) in enumerate(zip(trace, states), start=1):
            seen.append(f)
            stopped = log.record(epoch, f, state)
            assert stopped == (f >= stop_at)
            if stopped:
                break
        best = seen.index(max(seen))
        assert log.best_state is states[best]
        rng = RngStream(3)
        rec = log.finish(target, Representation.STATEVECTOR, FidelityMode.exact(), rng, 4)
        assert rec.fidelity_trace == seen
        assert rec.final_fidelity == seen[-1]
        assert rec.oracle_fidelity == fidelity_oracle(states[best], target.state)
        assert (rec.trial_id, rec.seed) == (4, 3)
        assert_log_invariants(seen, rec.epochs_to_threshold, thresholds, stop_at, len(trace))

    def test_finish_rescores_density_by_matrix_root(self):
        """The closed form scores pure/density pairs during training only.

        The record's oracle fidelity stays the matrix-root value, because the
        benchmark recomputes every density solution's oracle_fidelity with that
        formula and requires agreement to 1e-12; the closed form is up to ~3e-8
        away from it.
        """
        rng = RngStream(5)
        target = TargetSpec(2, sample_random_state(2, rng), seed=5)
        solution = sample_random_density(2, rng)
        log = EpochLog((0.99,), 0.99)
        log.record(1, 0.5, solution)
        rec = log.finish(target, Representation.DENSITY, FidelityMode.exact(), rng, 0)
        assert rec.oracle_fidelity == uhlmann_fidelity(solution, target.state.density())

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), thresholds=THRESHOLDS,
           max_iters=st.integers(1, 6))
    def test_run_es_records(self, seed, thresholds, max_iters):
        rng = RngStream(seed)
        target = TargetSpec(1, sample_random_state(1, rng), seed=seed)
        params = ESParams(population=4, max_iters=max_iters, thresholds=tuple(thresholds))
        sol, rec = run_es(target, params, FidelityMode.exact(), rng)
        assert_log_invariants(rec.fidelity_trace, rec.epochs_to_threshold, thresholds,
                              max(thresholds), max_iters)
        assert rec.final_fidelity == rec.fidelity_trace[-1]
        np.testing.assert_allclose(rec.oracle_fidelity, max(rec.fidelity_trace), atol=1e-12)
        assert rec.oracle_fidelity == fidelity_oracle(sol, target.state)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), thresholds=THRESHOLDS,
           stop=st.floats(0.05, 1.0), max_epochs=st.integers(1, 6))
    def test_train_generator_records(self, seed, thresholds, stop, max_epochs):
        rng = RngStream(seed)
        target = TargetSpec(1, sample_random_state(1, rng), seed=seed)
        cfg = GeneratorConfig(layer_widths=(6, 5, 5, 4, 3, 4), latent_dim=7,
                              learning_rate=1e-2, max_epochs=max_epochs,
                              thresholds=tuple(thresholds), stop_threshold=stop)
        sol, _, rec = train_generator(target, cfg, FidelityMode.exact(), rng)
        assert_log_invariants(rec.fidelity_trace, rec.epochs_to_threshold, thresholds,
                              stop, max_epochs)
        assert rec.final_fidelity == rec.fidelity_trace[-1]
        np.testing.assert_allclose(rec.oracle_fidelity, max(rec.fidelity_trace), atol=1e-12)
        assert rec.oracle_fidelity == fidelity_oracle(sol, target.state)


def _same_record(a, b):
    """Every TrialRecord field but the wall clock."""
    return {**vars(a), "wall_time": 0.0} == {**vars(b), "wall_time": 0.0}


def _both_runs(rep, n, mode, seed, **params):
    """run_es and the per-candidate reference from identical streams."""
    params = ESParams(representation=rep, **params)
    runs = []
    for run in (run_es, oracles.run_es_per_candidate):
        rng = RngStream(seed)
        target = TargetSpec(n, sample_random_state(n, rng), seed=seed)
        sol, rec = run(target, params, mode, rng)
        runs.append((sol, rec, rng.gen.bit_generator.state))
    return runs


class TestBatchedPopulation:
    """run_es decodes the population as one matrix; the reference loop decodes
    one (z_i, w_i) pair at a time.  Readings and draws must not change."""

    @pytest.mark.parametrize("rep,n,mode", [
        (Representation.DENSITY, 1, FidelityMode.exact()),
        (Representation.DENSITY, 2, FidelityMode.exact()),
        (Representation.STATEVECTOR, 1, FidelityMode.sampled(64)),
        (Representation.STATEVECTOR, 1, FidelityMode.noisy(default_noise_model(), 256)),
        (Representation.STATEVECTOR, 2, FidelityMode.noisy(default_noise_model(), 256)),
        (Representation.STATEVECTOR, 3, FidelityMode.noisy(default_noise_model(), 256)),
        (Representation.UNITARY, 2, FidelityMode.noisy(default_noise_model(), 256)),
    ])
    def test_identical_records(self, rep, n, mode):
        (sol, rec, state), (sol_ref, rec_ref, state_ref) = _both_runs(
            rep, n, mode, 4100 + n, max_iters=12)
        assert _same_record(rec, rec_ref)
        assert state == state_ref
        payload = "entries" if rep is Representation.DENSITY else "amplitudes"
        np.testing.assert_array_equal(getattr(sol, payload), getattr(sol_ref, payload))

    @settings(max_examples=12, deadline=None)
    @given(rep=st.sampled_from([Representation.STATEVECTOR, Representation.UNITARY]),
           n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_exact_readings_agree(self, rep, n, seed):
        (_, rec, _), (_, rec_ref, _) = _both_runs(
            rep, n, FidelityMode.exact(), seed, max_iters=15)
        assert rec.epochs_to_threshold == rec_ref.epochs_to_threshold
        assert len(rec.fidelity_trace) == len(rec_ref.fidelity_trace)
        np.testing.assert_allclose(rec.fidelity_trace, rec_ref.fidelity_trace,
                                   rtol=0, atol=1e-12)
        assert abs(rec.oracle_fidelity - rec_ref.oracle_fidelity) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_stage_dropping_rows_identical_records(self, monkeypatch, n):
        """A noisy population holding a basis row (it drops every stage) and
        a nonnegative real row (it drops the RZ stages) reads as the
        per-candidate loop does."""
        d = 2**n
        basis = np.zeros(2 * d)
        basis[1] = 1.0
        real = np.concatenate([np.linspace(0.1, 1.0, d), np.zeros(d)])
        real_pairs, real_matrix = oracles.perturb_population_pairs, perturb_population

        def dropping_pairs(w, params, rng):
            pairs = real_pairs(w, params, rng)
            pairs[3], pairs[5] = (pairs[3][0], basis), (pairs[5][0], real)
            return pairs

        def dropping_rows(w, params, rng):
            Z, W = real_matrix(w, params, rng)
            W[3], W[5] = basis, real
            return Z, W

        monkeypatch.setattr(oracles, "perturb_population_pairs", dropping_pairs)
        monkeypatch.setattr(evolution, "perturb_population", dropping_rows)
        mode = FidelityMode.noisy(default_noise_model(), 256)
        (sol, rec, state), (sol_ref, rec_ref, state_ref) = _both_runs(
            Representation.STATEVECTOR, n, mode, 4300 + n, max_iters=6, population=8)
        assert _same_record(rec, rec_ref)
        assert state == state_ref
        np.testing.assert_array_equal(sol.amplitudes, sol_ref.amplitudes)

    def test_degenerate_row_raises_decode_error(self, monkeypatch):
        """A zero population row fails the epoch with the one-vector decode's
        error, in run_es and in the per-candidate reference alike."""
        real_pairs, real_matrix = oracles.perturb_population_pairs, perturb_population

        def zero_pair(w, params, rng):
            pairs = real_pairs(w, params, rng)
            pairs[3] = (pairs[3][0], np.zeros_like(w))
            return pairs

        def zero_row(w, params, rng):
            Z, W = real_matrix(w, params, rng)
            W[3] = 0.0
            return Z, W

        monkeypatch.setattr(oracles, "perturb_population_pairs", zero_pair)
        monkeypatch.setattr(evolution, "perturb_population", zero_row)
        with pytest.raises(ValueError) as want:
            Representation.STATEVECTOR.decode(np.zeros(8), 2)
        params = ESParams(max_iters=2, population=6, thresholds=(1.0,))
        for run, message in ((run_es, "evolution failed at epoch 1"),
                             (oracles.run_es_per_candidate,
                              "population evaluation failed at epoch 1")):
            rng = RngStream(4242)
            target = TargetSpec(2, sample_random_state(2, rng), seed=4242)
            with pytest.raises(RuntimeError, match=message) as got:
                run(target, params, FidelityMode.sampled(64), rng)
            assert type(got.value.__cause__) is ValueError
            assert str(got.value.__cause__) == str(want.value)


class TestReadingCount:
    """One SWAP-test reading per candidate: the count the benchmark reads."""

    @pytest.mark.parametrize("rep,n", [
        (Representation.STATEVECTOR, 2),
        (Representation.UNITARY, 1),
        (Representation.DENSITY, 1),
    ])
    def test_es_epoch_reads_population_plus_one(self, monkeypatch, rep, n):
        calls = []
        real = evolution.score_candidate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(evolution, "score_candidate", counting)
        rng = RngStream(77)
        target = TargetSpec(n, sample_random_state(n, rng), seed=77)
        params = ESParams(population=9, max_iters=4, thresholds=(1.0,), representation=rep)
        _, rec = run_es(target, params, FidelityMode.exact(), rng)
        assert len(rec.fidelity_trace) == 4
        assert rec.readings == len(calls) == 4 * (params.population + 1)
        assert rec.shots == 0

    def test_es_early_stop_skips_last_population(self, monkeypatch):
        """epochs + (epochs - stopped) * population readings, shots per reading."""
        calls = []
        real = evolution.score_candidate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(evolution, "score_candidate", counting)
        rng = RngStream(72)
        target = TargetSpec(1, sample_random_state(1, rng), seed=72)
        params = ESParams(population=9, max_iters=40, thresholds=(0.9,))
        _, rec = run_es(target, params, FidelityMode.sampled(64), rng)
        epochs = len(rec.fidelity_trace)
        assert 1 < epochs < params.max_iters and rec.fidelity_trace[-1] >= 0.9
        assert rec.readings == len(calls) == epochs + (epochs - 1) * params.population
        assert rec.shots == 64 * rec.readings

    @pytest.mark.parametrize("method", ["es", "nn"])
    def test_noisy_epochs_read_once_per_candidate(self, monkeypatch, method):
        """Noisy mode prepares each population or probe block as one stack,
        but still takes one reading per candidate, each its own call, and
        every reading, the lone w or MLP output included, comes prepared by
        the trial's estimator."""
        module = evolution if method == "es" else neural
        calls = []
        real = module.score_candidate

        def counting(*args, prepared=None, **kwargs):
            calls.append(prepared is not None)
            return real(*args, prepared=prepared, **kwargs)

        monkeypatch.setattr(module, "score_candidate", counting)
        rng = RngStream(78)
        target = TargetSpec(2, sample_random_state(2, rng), seed=78)
        mode = FidelityMode.noisy(default_noise_model(), 64)
        if method == "es":
            params = ESParams(population=9, max_iters=3, thresholds=(1.0,))
            _, rec = run_es(target, params, mode, rng)
            block = params.population
        else:
            cfg = GeneratorConfig(layer_widths=(6, 5, 5, 4, 3, 8), latent_dim=7,
                                  max_epochs=3, thresholds=(1.0,), stop_threshold=1.0)
            _, _, rec = train_generator(target, cfg, mode, rng)
            block = 2 * cfg.output_dim
        assert len(rec.fidelity_trace) == 3
        assert rec.readings == len(calls) == 3 * (block + 1)
        assert sum(calls) == 3 * (block + 1)
        assert rec.shots == 64 * rec.readings
