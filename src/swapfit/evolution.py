"""Gradient-free evolutionary reconstruction driven by fidelity feedback.

One optimizer iteration: perturb the parameter vector into a population of
N candidates (one N-row matrix, decoded in one pass into one array of
amplitude rows or density matrices), take the values of their readings
from the trial's ``Estimator`` in one call (a few array operations over
the block; in noisy mode the noisy preparations are one stack), turn each
into its own SWAP-test reading, one ``score_candidate`` call per candidate
so that the readings draw and are counted one by one, standardize the
scores into advantages, and move the mean by

    w <- w + alpha/(N sigma) * sum_i A_i z_i.

The per-epoch fidelity reported in traces is that of the decoded mean
vector w (the quantity the update steers), the one state object an epoch
builds; the best-scoring decoded state seen so far is kept separately and
returned as the solution.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .metrics import uhlmann_fidelity
from .prep import Representation, TargetSpec
from .sim import PureState, RngStream
from .swap_test import Estimator, FidelityMode, fidelity_oracle, score_candidate


def check_threshold(value: float, name: str = "thresholds") -> None:
    """A fidelity threshold lies in (0, 1]; NaN fails the comparison too."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")


def check_positive(value: float, name: str) -> None:
    """A step size, scale or offset is positive and finite; NaN fails the
    comparison too."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_run_limits(max_iters: int, thresholds, name: str = "max_iters") -> None:
    """The stopping rule every optimizer shares: >= 1 epoch, distinct
    thresholds in (0, 1]."""
    if max_iters < 1:
        raise ValueError(f"{name} must be >= 1, got {max_iters}")
    if not thresholds:
        raise ValueError("at least one threshold is required")
    for t in thresholds:
        check_threshold(t)
    # each threshold is one results.csv column and one EpochLog key
    if len(set(thresholds)) != len(thresholds):
        raise ValueError(f"thresholds must be distinct, got {list(thresholds)}")


@dataclass(frozen=True)
class ESParams:
    """Optimizer hyperparameters; defaults are the reference configuration."""

    population: int = 50
    sigma: float = 0.1
    alpha: float = 0.05
    max_iters: int = 100
    thresholds: tuple = (0.95, 0.99)
    representation: Representation = Representation.STATEVECTOR
    advantage_epsilon: float = 1e-8

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2 (standardization needs variance)")
        for name in ("sigma", "alpha", "advantage_epsilon"):
            check_positive(getattr(self, name), name)
        check_run_limits(self.max_iters, self.thresholds)


@dataclass
class TrialRecord:
    """Everything recorded about one optimization run."""

    trial_id: int
    seed: int
    representation: str
    fidelity_mode: str
    epochs_to_threshold: dict
    final_fidelity: float
    oracle_fidelity: float
    readings: int  # SWAP-test readings the optimizer took
    shots: int  # readings times the mode's shot count; 0 in exact mode
    fidelity_trace: list
    wall_time: float


class EpochLog:
    """One trial's bookkeeping, shared by ES and the MLP.

    ``record`` keeps the trace, each threshold's first epoch and the best
    state, and says whether the reading reached the stop value.  The
    optimizer adds each reading it takes to ``readings``.  ``finish``
    re-scores the best state analytically, so the record carries the true
    reconstruction quality next to the feedback the optimizer saw.
    """

    def __init__(self, thresholds, stop_at: float):
        self.start = time.perf_counter()
        self.stop_at = stop_at
        self.epochs = {t: None for t in thresholds}
        self.trace: list[float] = []
        self.best_f = -np.inf
        self.best_state = None
        self.readings = 0

    def record(self, epoch: int, f: float, state) -> bool:
        """Log one 1-based epoch's reading; True when it reaches the stop value."""
        self.trace.append(f)
        if f > self.best_f:
            self.best_f, self.best_state = f, state
        for t, seen in self.epochs.items():
            if seen is None and f >= t:
                self.epochs[t] = epoch
        return f >= self.stop_at

    def finish(self, target: TargetSpec, representation: Representation,
               mode: FidelityMode, rng: RngStream, trial_id: int) -> TrialRecord:
        solution, truth = self.best_state, target.state
        if isinstance(solution, PureState) and isinstance(truth, PureState):
            oracle_f = fidelity_oracle(solution, truth)
        else:
            rho = solution.density() if isinstance(solution, PureState) else solution
            sig = truth.density() if isinstance(truth, PureState) else truth
            oracle_f = uhlmann_fidelity(rho, sig)
        return TrialRecord(
            trial_id=trial_id,
            seed=rng.seed,
            representation=representation.value,
            fidelity_mode=mode.label(),
            epochs_to_threshold=self.epochs,
            final_fidelity=self.trace[-1],
            oracle_fidelity=oracle_f,
            readings=self.readings,
            shots=0 if mode.kind == "exact" else self.readings * int(mode.shots),
            fidelity_trace=self.trace,
            wall_time=time.perf_counter() - self.start,
        )


def perturb_population(w: np.ndarray, params: ESParams,
                       rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """(Z, W = w + sigma Z): N rows z_i i.i.d. standard normal, row i of W
    the candidate w + sigma z_i."""
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("parameter vector contains non-finite entries")
    Z = rng.gen.normal(size=(params.population, w.shape[0]))
    return Z, w + params.sigma * Z


def standardized_advantages(fidelities, epsilon: float = 1e-8) -> np.ndarray:
    """A_i = (F_i - mean F) / (population std F + epsilon).

    All-equal scores give exactly zero advantages, so a converged or
    flat-landscape population leaves w untouched.  One pass of the
    operations ``F.mean()`` and ``F.std()`` make, with the deviations
    computed once: the same bits, without their per-call overhead.
    """
    F = np.asarray(fidelities, dtype=float)
    n = F.shape[0]
    if n < 2:
        raise ValueError("need at least two fidelities to standardize")
    d = F - F.sum() / n
    return d / (math.sqrt((d * d).sum() / n) + epsilon)


def es_update(w: np.ndarray, Z: np.ndarray, advantages, params: ESParams) -> np.ndarray:
    """The quoted update, vectorized: w + alpha/(N sigma) sum A_i z_i, with
    z_i the rows of Z."""
    A = np.asarray(advantages, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if Z.shape[0] != A.shape[0]:
        raise ValueError(f"{Z.shape[0]} perturbations but {A.shape[0]} advantages")
    step = (params.alpha / (params.population * params.sigma)) * (A @ Z)
    return np.asarray(w, dtype=float) + step


def run_es(target: TargetSpec, params: ESParams, mode: FidelityMode,
           rng: RngStream, trial_id: int = 0,
           objective: str = "swap") -> tuple[object, TrialRecord]:
    """Full optimization run; returns (solution state, TrialRecord).

    Epochs are 1-based.  Each epoch scores the decoded mean w first, so a
    lucky initialization can terminate at epoch 1 with a single-entry
    trace.  Stochastic modes stop on the sampled estimate at the highest
    threshold; the record comes from the shared EpochLog.
    """
    n = target.n_qubits
    rep = params.representation
    estimator = Estimator(target.state, mode, objective)
    log = EpochLog(params.thresholds, stop_at=max(params.thresholds))
    w = rng.gen.normal(size=rep.param_length(n))
    for epoch in range(1, params.max_iters + 1):
        try:
            state_w = rep.decode(w, n)
            f_w = score_candidate(state_w, target.state, mode, rng, objective,
                                  prepared=estimator.value(state_w))
            log.readings += 1
            if log.record(epoch, f_w, state_w):
                break
            Z, W = perturb_population(w, params, rng)
            block = rep.decode_rows(W, n)
            fids = [score_candidate(row, target.state, mode, rng, objective, prepared=v)
                    for row, v in zip(block, estimator.values(block))]
            log.readings += len(fids)
            A = standardized_advantages(fids, params.advantage_epsilon)
            w = es_update(w, Z, A, params)
        except Exception as exc:
            raise RuntimeError(f"evolution failed at epoch {epoch}") from exc
    return log.best_state, log.finish(target, rep, mode, rng, trial_id)
