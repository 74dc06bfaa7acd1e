"""Acceptance suite: one test per release criterion, one printed verdict each.

The first eight criteria are deterministic properties and must pass exactly.
The statistical block (9-15) is a desk-scale check with 20 seeded trials per
setting (5 and 10 seeds per preset in 14 and 15; full-scale studies use
100-1000 trials), so its epoch bands are wide.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import time

import numpy as np
import pytest

import oracles
from oracles import (
    expectation_z,
    run_circuit,
    run_circuit_dm,
    run_circuit_dm_noisy,
    sample_random_density,
    swap_test_exact,
)
from swapfit.evolution import ESParams, es_update, perturb_population
from swapfit.harness import derive_seed, preset_target, reconstruct
from swapfit.metrics import bipartite_entropy, hs_overlap, uhlmann_fidelity
from swapfit.neural import fd_gradient
from swapfit.noise import (
    bitflip_channel,
    default_noise_model,
    depolarizing_channel,
    thermal_relaxation_channel,
)
from swapfit.prep import (
    Representation,
    TargetSpec,
    mottonen_circuit,
    sample_random_state,
)
from swapfit.sim import (
    DensityMatrix,
    GateOp,
    PureState,
    RngStream,
    zero_state,
)
from swapfit.swap_test import (
    Estimator,
    FidelityMode,
    fidelity_oracle,
    noisy_circuit_ops,
)


def _verdict(number: int, ok: bool, detail: str) -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {number:2d}: {detail}")
    return ok


def _random_circuit(n: int, rng: RngStream, depth: int = 12) -> list:
    ops = []
    for _ in range(depth):
        q = int(rng.gen.integers(n))
        pick = int(rng.gen.integers(5))
        if pick == 0:
            ops.append(GateOp.h(q))
        elif pick == 1:
            ops.append(GateOp.x(q))
        elif pick == 2:
            ops.append(GateOp.rz(float(rng.gen.uniform(0, 2 * np.pi)), q))
        elif pick == 3:
            ops.append(GateOp.sx(q))
        elif n > 1:
            r = int(rng.gen.integers(n - 1))
            other = r if r < q else r + 1
            ops.append(GateOp.cx(q, other))
    return ops


# ---------------------------------------------------------------------------
# Deterministic property block
# ---------------------------------------------------------------------------


def test_criterion_01_swap_oracle_equivalence():
    start = time.monotonic()
    rng = RngStream(101)
    worst = 0.0
    for n in range(1, 7):
        for _ in range(100):
            psi = sample_random_state(n, rng)
            phi = sample_random_state(n, rng)
            est = swap_test_exact(psi, phi)
            worst = max(worst, abs(est - fidelity_oracle(psi, phi)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    assert _verdict(
        1, ok,
        f"circuit vs amplitude fidelity, max err {worst:.2e} "
        f"(<=1e-10), {elapsed:.1f}s (<30s)",
    )


def test_criterion_02_state_preparation_roundtrip():
    rng = RngStream(202)
    worst = 1.0
    for n in range(1, 7):
        for _ in range(100):
            target = sample_random_state(n, rng)
            prepared = run_circuit(zero_state(n), mottonen_circuit(target))
            worst = min(worst, fidelity_oracle(target, prepared))
    ok = worst >= 1.0 - 1e-9
    assert _verdict(
        2, ok, f"amplitude-encoding fidelity, min {worst:.12f} (>=1-1e-9)"
    )


def test_criterion_03_channels_are_cptp():
    spec = default_noise_model()
    channels = [
        bitflip_channel(spec.p_bitflip),
        depolarizing_channel(spec.p_dep1, 1),
        depolarizing_channel(spec.p_dep2, 2),
        thermal_relaxation_channel(spec.t1_us, spec.t2_us, spec.t_gate_ns),
        spec.single_qubit_channel,
        spec.cx_channel,
    ]
    rng = RngStream(303)
    worst_complete = 0.0
    worst_trace = 0.0
    for ch in channels:
        worst_complete = max(worst_complete, ch.completeness_residual())
        for _ in range(5):
            rho = sample_random_density(ch.arity, rng)
            out = np.trace(
                sum(K @ rho.entries @ K.conj().T for K in ch.operators)
            )
            worst_trace = max(worst_trace, abs(float(np.real(out)) - 1.0))
    ok = worst_complete <= 1e-10 and worst_trace <= 1e-10
    assert _verdict(
        3, ok,
        f"{len(channels)} default channels, completeness {worst_complete:.2e}, "
        f"trace drift {worst_trace:.2e} (both <=1e-10)",
    )


def test_criterion_04_statevector_density_agreement():
    rng = RngStream(404)
    worst = 0.0
    for n in range(1, 5):
        for _ in range(10):
            ops = _random_circuit(n, rng)
            psi = run_circuit(zero_state(n), ops)
            rho = run_circuit_dm(zero_state(n).density(), ops)
            outer = np.outer(psi.amplitudes, psi.amplitudes.conj())
            worst = max(worst, float(np.max(np.abs(outer - rho.entries))))
    ok = worst <= 1e-10
    assert _verdict(
        4, ok, f"pure vs density execution, max |delta| {worst:.2e} (<=1e-10)"
    )


def test_criterion_05_gradient_check_through_circuit():
    rng = RngStream(505)
    worst = 0.0
    for case in range(20):
        n = 1 + case % 2
        target = sample_random_state(n, rng)
        raw = rng.gen.normal(0.0, 1.0, size=2 * 2**n)

        def fidelity_at(w):
            return swap_test_exact(target, Representation.STATEVECTOR.decode(w, n))

        numeric = fd_gradient(
            lambda probes: [fidelity_at(p) for p in probes], raw, fd_epsilon=1e-3
        )
        analytic = oracles.overlap_gradient(raw, target.amplitudes)
        worst = max(worst, float(np.max(np.abs(numeric - analytic))))
    ok = worst <= 1e-4
    assert _verdict(
        5, ok,
        f"probed vs analytic overlap gradient, max err {worst:.2e} (<=1e-4)",
    )


def test_criterion_06_es_update_closed_form():
    rng = RngStream(606)
    params = ESParams(population=12, sigma=0.1, alpha=0.05)
    w = rng.gen.normal(size=16)
    Z, _ = perturb_population(w, params, rng)
    advantages = rng.gen.normal(size=params.population)
    got = es_update(w, Z, advantages, params)
    want = oracles.es_update_naive(
        w, params.sigma, params.alpha, list(Z), advantages
    )
    err = float(np.max(np.abs(got - want)))
    unchanged = np.array_equal(
        es_update(w, Z, np.zeros(params.population), params), w
    )
    ok = err <= 1e-12 and unchanged
    assert _verdict(
        6, ok,
        f"population update vs naive loop, err {err:.2e} (<=1e-12); "
        f"zero advantages leave w unchanged: {unchanged}",
    )


def test_criterion_07_maximally_mixed_divergence():
    half = DensityMatrix(1, np.eye(2) / 2.0)
    overlap = hs_overlap(half, half)
    uhl = uhlmann_fidelity(half, half)
    p0 = (1.0 + overlap) / 2.0
    ok = (
        abs(overlap - 0.5) <= 1e-12
        and abs(uhl - 1.0) <= 1e-12
        and abs(p0 - 0.75) <= 1e-12
    )
    assert _verdict(
        7, ok,
        f"identical maximally mixed pair: overlap estimate {overlap:.12f} "
        f"(0.5) vs Uhlmann {uhl:.12f} (1.0); ancilla P(0)={p0:.2f} sits at "
        "the 0.75 discrimination ceiling, so the test cannot tell "
        "identical mixed states from merely overlapping ones",
    )


def test_criterion_08_bell_ghz_entropies():
    bell = run_circuit(zero_state(2), [GateOp.h(0), GateOp.cx(0, 1)])
    ghz = run_circuit(
        zero_state(3), [GateOp.h(0), GateOp.cx(0, 1), GateOp.cx(1, 2)]
    )
    values = [
        bipartite_entropy(bell, (0,)),
        bipartite_entropy(ghz, (0,)),
        bipartite_entropy(ghz, (0, 1)),
    ]
    worst = max(abs(v - 1.0) for v in values)
    ok = worst <= 1e-9
    assert _verdict(
        8, ok,
        "Bell and GHZ bipartitions all at "
        f"{', '.join(f'{v:.9f}' for v in values)} bits (1.0 +/- 1e-9)",
    )


# ---------------------------------------------------------------------------
# Statistical block: 20 seeded trials per setting
# ---------------------------------------------------------------------------

TRIALS = 20


def _es_trials(n: int, *, representation=Representation.STATEVECTOR,
               mode=None, trials=TRIALS, seed_base=0, max_iters=100):
    records = []
    for i in range(trials):
        target = preset_target("random", n, seed=derive_seed(seed_base, i))
        out = reconstruct(
            target, method="es", representation=representation,
            mode=mode or FidelityMode.exact(),
            seed=derive_seed(seed_base + 1, i), max_iters=max_iters,
        )
        records.append(out["record"])
    return records


def test_criterion_09_es_statevector_exact_epochs():
    start = time.monotonic()
    bands = {1: (2, 15, 5), 2: (3, 20, 7), 3: (5, 35, 13)}
    lines = []
    ok = True
    for n, (lo, hi, nominal) in bands.items():
        records = _es_trials(n, seed_base=900 + 10 * n)
        epochs = [r.epochs_to_threshold[0.99] for r in records]
        if any(e is None for e in epochs):
            ok = False
            lines.append(f"n={n}: {sum(e is None for e in epochs)} never converged")
            continue
        mean_e = float(np.mean(epochs))
        mean_f = float(np.mean([r.oracle_fidelity for r in records]))
        ok = ok and lo <= mean_e <= hi and mean_f >= 0.99
        lines.append(
            f"n={n}: mean epochs {mean_e:.2f} in [{lo},{hi}] "
            f"(nominal {nominal}), mean fidelity {mean_f:.4f}"
        )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 600.0
    assert _verdict(
        9, ok, "; ".join(lines) + f"; {elapsed:.0f}s (<600s)"
    )


def test_criterion_10_es_unitary_exact_epochs():
    caps = {1: (24, 8), 2: (33, 11)}
    lines = []
    ok = True
    for n, (cap, nominal) in caps.items():
        records = _es_trials(
            n, representation=Representation.UNITARY, seed_base=1000 + 10 * n
        )
        epochs = [r.epochs_to_threshold[0.99] for r in records]
        if any(e is None for e in epochs):
            ok = False
            lines.append(f"n={n}: {sum(e is None for e in epochs)} never converged")
            continue
        mean_e = float(np.mean(epochs))
        mean_f = float(np.mean([r.oracle_fidelity for r in records]))
        ok = ok and mean_e <= cap and mean_f >= 0.99
        lines.append(
            f"n={n}: mean epochs {mean_e:.2f} <= {cap} "
            f"(3x nominal {nominal}), mean fidelity {mean_f:.4f}"
        )
    assert _verdict(10, ok, "; ".join(lines))


def _noisy_identical_reading(psi, model) -> float:
    """Exact noisy reading 2*p0 - 1 for identical states (psi, psi).

    Slow path: the whole lowered circuit (both preparations and the gadget)
    evolved as one density matrix, then the readout flip.
    """
    rho = zero_state(2 * psi.n_qubits + 1).density()
    rho = run_circuit_dm_noisy(rho, noisy_circuit_ops(psi, psi), model)
    return 2.0 * model.flip_readout((1.0 + expectation_z(rho, 0)) / 2.0) - 1.0


def test_criterion_11_es_noisy_sampled_single_qubit():
    """Under the default noise model the raw reading of identical states,
    c(psi), sits near 0.835, so a raw 0.99 reading is out of reach; clause 1
    asserts that ceiling and then applies the 0.99 threshold on the
    estimator's own scale: every trial's recorded reading must reach
    0.99 * c(psi), with c taken from the slow full-circuit path (c == 1
    without noise, where this is the raw-reading check).  Clause 2 re-scores
    the returned states against the true target."""
    model = default_noise_model()
    mode = FidelityMode.noisy(model, shots=1024)
    records = _es_trials(1, mode=mode, seed_base=1100)

    oracle_median = float(np.median([r.oracle_fidelity for r in records]))
    clause_2 = oracle_median >= 0.95
    _verdict(
        11, clause_2,
        f"(clause 2) oracle-re-scored median fidelity {oracle_median:.4f} (>=0.95)",
    )
    assert clause_2

    targets = [
        preset_target("random", 1, seed=derive_seed(1100, i)).state
        for i in range(len(records))
    ]
    ceilings = [_noisy_identical_reading(psi, model) for psi in targets]
    fast_gap = max(
        abs(2.0 * Estimator(psi, mode).value(psi) - 1.0 - c)
        for psi, c in zip(targets, ceilings)
    )
    assert fast_gap <= 1e-12, f"cached noisy path off the full circuit by {fast_gap:.2e}"
    assert max(ceilings) < 0.99, f"ceiling {max(ceilings):.4f} no longer below 0.99"

    crossed = []
    for record, c in zip(records, ceilings):
        hits = [e for e, f in enumerate(record.fidelity_trace, start=1)
                if f >= 0.99 * c]
        if hits:
            crossed.append(hits[0])
    clause_1 = len(crossed) == len(records) and float(np.median(crossed)) <= 30
    median = f"{float(np.median(crossed)):.1f}" if crossed else "n/a"
    detail = (
        f"(clause 1) {len(crossed)}/{len(records)} trials read >=0.99 of their "
        f"target's identical-state ceiling c in {min(ceilings):.4f}..{max(ceilings):.4f} "
        f"(raw 0.99 out of reach); median epoch {median} (<=30)"
    )
    _verdict(11, clause_1, detail)
    assert clause_1, detail


def test_criterion_12_nn_statevector_exact_success_rate():
    lines = []
    ok = True
    for n in (1, 2):
        hits = 0
        for i in range(TRIALS):
            target = preset_target("random", n, seed=derive_seed(1200 + n, i))
            out = reconstruct(
                target, method="nn", seed=derive_seed(1210 + n, i),
                max_iters=500,
            )
            if out["record"].epochs_to_threshold[0.99] is not None:
                hits += 1
        ok = ok and hits >= 0.9 * TRIALS
        lines.append(f"n={n}: {hits}/{TRIALS} reached 0.99 within 500 epochs")
    assert _verdict(12, ok, "; ".join(lines) + " (need >=90%)")


def test_criterion_13_density_objective_plateau():
    rng = RngStream(1300)
    stalls = 0
    mixed_scores = []
    for i in range(10):
        target = TargetSpec(2, sample_random_density(2, rng), seed=i)
        out = reconstruct(
            target, method="nn", representation=Representation.DENSITY,
            seed=derive_seed(1301, i), max_iters=500, objective="swap",
        )
        score = hs_overlap(target.state, out["solution"])
        mixed_scores.append(score)
        if score < 0.9:
            stalls += 1
    half_a = stalls >= 5

    uhl_scores = []
    for i in range(5):
        target = preset_target("random", 2, seed=derive_seed(1302, i))
        out = reconstruct(
            target, method="nn", representation=Representation.DENSITY,
            seed=derive_seed(1303, i), max_iters=500, objective="uhlmann",
        )
        uhl_scores.append(
            uhlmann_fidelity(target.state.density(), out["solution"])
        )
    half_b = min(uhl_scores) >= 0.99

    ok = half_a and half_b
    assert _verdict(
        13, ok,
        f"overlap objective stalled <0.9 on {stalls}/10 mixed targets "
        f"(scores {min(mixed_scores):.2f}..{max(mixed_scores):.2f}); "
        f"Uhlmann objective on pure targets reached "
        f"{min(uhl_scores):.4f} minimum (>=0.99)",
    )


def test_criterion_14_known_state_presets():
    lines = []
    ok = True
    for name in ("zero", "one", "hadamard"):
        worst = 0
        for s in range(5):
            out = reconstruct(
                preset_target(name, 1), method="es",
                seed=derive_seed(777, s), max_iters=100,
            )
            e = out["record"].epochs_to_threshold[0.99]
            if e is None:
                ok = False
                worst = None
                break
            worst = max(worst, e)
        ok = ok and worst is not None and worst <= 10
        lines.append(f"{name}: worst {worst} epochs")
    assert _verdict(14, ok, "; ".join(lines) + " (each <=10)")


def test_criterion_15_known_state_presets_under_noise():
    """The paper's hardware check (|0>, |1>, |+> within three optimization
    steps), under the default noise model at 1024 shots.  Each preset's
    median first epoch whose reading reaches 0.99 * c(psi) must be <= 10,
    with c from criterion 11's slow path; a run that never reaches it in 30
    epochs counts as never.  The oracle fidelity after three epochs is
    reported, not asserted: at these seeds it does not reach 0.99 for every
    run, so the three-step claim is not reproduced under this noise model."""
    model = default_noise_model()
    mode = FidelityMode.noisy(model, shots=1024)
    lines = []
    ok = True
    for name in ("zero", "one", "hadamard"):
        target = preset_target(name, 1)
        c = _noisy_identical_reading(target.state, model)
        firsts, after_three = [], []
        for s in range(10):
            seed = derive_seed(777, s)
            trace = reconstruct(target, method="es", mode=mode, seed=seed,
                                max_iters=30)["record"].fidelity_trace
            hits = [e for e, f in enumerate(trace, start=1) if f >= 0.99 * c]
            firsts.append(hits[0] if hits else np.inf)
            after_three.append(reconstruct(target, method="es", mode=mode, seed=seed,
                                           max_iters=3)["record"].oracle_fidelity)
        median = float(np.median(firsts))
        ok = ok and median <= 10
        lines.append(
            f"{name}: c={c:.4f}, median first epoch {median:g} (<=10), "
            f"oracle fidelity after 3 epochs {min(after_three):.3f}..{max(after_three):.3f} "
            f"(median {float(np.median(after_three)):.3f})"
        )
    assert _verdict(15, ok, "; ".join(lines))
