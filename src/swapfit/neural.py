"""Gradient-based generator: an MLP trained through the fidelity signal.

The network maps a 256-dimensional latent vector to the raw parameter
vector of the chosen representation.  No autodiff framework is involved:
the loss 1 - F is differentiated with respect to the raw OUTPUT by
symmetric finite differences through the SWAP test (2 * dim extra circuit
evaluations per epoch), and that output gradient is backpropagated through
the network analytically.  Adam consumes the result after multiplication
by a constant scaling factor, which compensates for the tiny magnitude of
fidelity differences.  Weights and biases are one flat vector with
per-layer views, and so is each Adam moment.  Backprop and Adam are one
reverse walk over the layers: each layer first hands its delta down to
the layer below, then updates its own rows in chunks, each chunk's
gradient multiplied from the delta into a chunk-sized buffer, so no
parameter-sized gradient is ever built.

GELU's erf is a numpy port of the Cephes erf that ``scipy.special.erf``
runs, equal to it bit for bit, so the package needs no scipy at run time.
Each forward pass takes the erf of every hidden pre-activation once and
keeps it in its ``ForwardCache``, where backprop's GELU derivative reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evolution import (
    EpochLog,
    TrialRecord,
    check_positive,
    check_run_limits,
    check_threshold,
)
from .prep import Representation, TargetSpec
from .sim import RngStream
from .swap_test import Estimator, FidelityMode, score_candidate

N_WEIGHT_LAYERS = 6
HIDDEN_WIDTHS = (512, 512, 256, 128, 64)
# Elements per Adam chunk, rounded down to whole rows (one row at least),
# with the bias riding on a layer's last chunk: in the reference network,
# 256 rows of 256 inputs or 128 rows of 512, about 512 KiB per float64
# operand.  Each chunk costs one product and fifteen numpy calls, between
# which the trial threads hand the GIL over.  With two trial threads on two
# CPUs, 128K chunks lost to 64K in 8 of 10 alternated pairs on each MLP
# workload (BENCH_row_walk.json), and 64K beat 16K in 10 of 10 before the
# gradient was fused in (BENCH_block_values.json).
ADAM_BLOCK = 65536
# Coordinates per finite-difference probe block (2*FD_BLOCK probe rows).  At
# the largest output, density on 6 qubits (dim 8192), one block's probes and
# each of its decoded arrays take 8 MiB; the whole probe set would take 1 GiB.
FD_BLOCK = 64


@dataclass(frozen=True)
class GeneratorConfig:
    """Architecture and training hyperparameters."""

    layer_widths: tuple  # output width of each of the 6 weight layers
    latent_dim: int = 256
    learning_rate: float = 1e-4
    adam_betas: tuple = (0.9, 0.999)
    adam_epsilon: float = 1e-8
    fd_epsilon: float = 1e-3
    scaling_factor: float = 100.0
    max_epochs: int = 500
    thresholds: tuple = (0.95, 0.99)
    stop_threshold: float = 0.999

    def __post_init__(self):
        if len(self.layer_widths) != N_WEIGHT_LAYERS:
            raise ValueError(
                f"expected {N_WEIGHT_LAYERS} weight layers, got {len(self.layer_widths)}"
            )
        if any(wd <= 0 for wd in self.layer_widths):
            raise ValueError("layer widths must be strictly positive")
        if self.latent_dim <= 0:
            raise ValueError("latent_dim must be positive")
        for name in ("fd_epsilon", "scaling_factor", "learning_rate", "adam_epsilon"):
            check_positive(getattr(self, name), name)
        if len(self.adam_betas) != 2 or not all(0.0 <= b < 1.0 for b in self.adam_betas):
            raise ValueError(f"adam_betas must be two values in [0, 1), got {self.adam_betas}")
        check_run_limits(self.max_epochs, self.thresholds, "max_epochs")
        check_threshold(self.stop_threshold, "stop_threshold")

    @property
    def output_dim(self) -> int:
        return self.layer_widths[-1]


def default_config(n_qubits: int, representation: Representation,
                   **overrides) -> GeneratorConfig:
    """The reference architecture: 256 -> 512 -> 512 -> 256 -> 128 -> 64 -> out."""
    widths = HIDDEN_WIDTHS + (representation.param_length(n_qubits),)
    return GeneratorConfig(layer_widths=widths, **overrides)


@dataclass
class MlpParams:
    """Weights and biases in one flat vector theta; Adam moments m, v alike.

    Layer k occupies the same slice of theta, m and v: W_k row-major, then
    b_k.  ``weights[k]`` and ``biases[k]`` are views into theta, so a write
    through either is seen by both.
    """

    shapes: list  # (out_k, in_k) of each weight layer
    theta: np.ndarray
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step: int = 0
    slices: list = field(init=False, repr=False)
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)

    def __post_init__(self):
        self.shapes = [tuple(s) for s in self.shapes]
        self.slices, size = [], 0
        for rows, cols in self.shapes:
            self.slices.append(slice(size, size + rows * cols + rows))
            size = self.slices[-1].stop
        if self.m is None:
            self.m = np.zeros(size)
        if self.v is None:
            self.v = np.zeros(size)
        if any(a.shape != (size,) for a in (self.theta, self.m, self.v)):
            raise ValueError(f"theta, m and v must each have shape ({size},)")
        self.weights, self.biases = self.layers(self.theta)

    def layers(self, flat: np.ndarray) -> tuple[list, list]:
        """Per-layer (weights, biases) views of a vector laid out like theta."""
        weights, biases = [], []
        for (rows, cols), sl in zip(self.shapes, self.slices):
            block = flat[sl]
            weights.append(block[: rows * cols].reshape(rows, cols))
            biases.append(block[rows * cols:])
        return weights, biases


def init_mlp(config: GeneratorConfig, rng: RngStream) -> MlpParams:
    """Uniform fan-in initialization: U(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    sizes = (config.latent_dim,) + tuple(config.layer_widths)
    shapes = list(zip(sizes[1:], sizes[:-1]))
    params = MlpParams(shapes, theta=np.empty(sum(r * c + r for r, c in shapes)))
    for W, b in zip(params.weights, params.biases):
        bound = 1.0 / math.sqrt(W.shape[1])
        W[...] = rng.gen.uniform(-bound, bound, size=W.shape)
        b[...] = rng.gen.uniform(-bound, bound, size=b.shape)
    return params


# Cephes erf coefficients: x*T(x^2)/U(x^2) for |x| <= 1, and
# erf = 1 - exp(-x^2)*P(|x|)/Q(|x|) above; U and Q are monic, the leading 1 left out.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)


def _erf_tail(x: float) -> float:
    """erf(x) for |x| > 1 or NaN, in Python floats, so exp is the C library's
    as in scipy; numpy's vectorized exp rounds differently on some inputs.
    Cephes switches to a second rational form at |x| = 8, but from |x| ~ 6 on
    its 1 - erfc rounds to 1.0 either way."""
    if math.isnan(x):
        return math.nan  # scipy's NaN, whatever the input's payload
    a = abs(x)
    if a >= 8.0:
        return math.copysign(1.0, x)
    p = _ERF_P[0]
    for c in _ERF_P[1:]:
        p = p * a + c
    q = a + _ERF_Q[0]
    for c in _ERF_Q[1:]:
        q = q * a + c
    return math.copysign(1.0 - math.exp(-a * a) * p / q, x)


def erf(x: np.ndarray) -> np.ndarray:
    """The error function, bit for bit ``scipy.special.erf`` (Cephes).

    Every element takes the |x| <= 1 form, the others with 0 in place of x
    so that huge inputs cannot overflow; those, a few per hidden layer in
    training, are then overwritten one by one by ``_erf_tail``.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    small = np.abs(flat) <= 1.0  # False for NaN
    s = np.where(small, flat, 0.0)
    z = s * s
    p = _ERF_T[0] * z
    p += _ERF_T[1]
    for c in _ERF_T[2:]:
        p *= z
        p += c
    q = z + _ERF_U[0]
    for c in _ERF_U[1:]:
        q *= z
        q += c
    y = s * p
    y /= q
    for i in np.flatnonzero(~small).tolist():
        y[i] = _erf_tail(float(flat[i]))
    return y.reshape(x.shape)


def gelu_erf(x: np.ndarray) -> np.ndarray:
    """erf(x / sqrt(2)), which gelu and gelu_grad take as ``e``."""
    return erf(x / math.sqrt(2.0))


def gelu(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Exact Gaussian-CDF GELU: x * Phi(x), with Phi(x) = (1 + e) / 2."""
    return 0.5 * x * (1.0 + e)


def gelu_grad(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return 0.5 * (1.0 + e) + x * phi


@dataclass
class ForwardCache:
    """Activation record from one forward pass, input to backprop."""

    z: np.ndarray
    pre_activations: list
    activations: list  # activations[0] is z itself
    erfs: list  # gelu_erf of each hidden layer's pre-activation


def mlp_forward(params: MlpParams, z: np.ndarray, return_cache: bool = False):
    """Affine -> GELU chain; the last layer stays affine."""
    z = np.asarray(z, dtype=float)
    if z.shape != (params.weights[0].shape[1],):
        raise ValueError(
            f"latent shape {z.shape} does not match input width {params.weights[0].shape[1]}"
        )
    h = z
    pres, acts, erfs = [], [h], []
    last = len(params.weights) - 1
    for k, (W, b) in enumerate(zip(params.weights, params.biases)):
        a = W @ h + b
        pres.append(a)
        if k < last:
            erfs.append(gelu_erf(a))
            h = gelu(a, erfs[-1])
        else:
            h = a
        acts.append(h)
    if return_cache:
        return h, ForwardCache(z=z, pre_activations=pres, activations=acts, erfs=erfs)
    return h


def fd_gradient(losses_at, raw: np.ndarray, fd_epsilon: float) -> np.ndarray:
    """Symmetric finite differences over the 2*dim probes, in blocks.

    Row 2k of the probe matrix is raw + eps e_k and row 2k+1 is raw - eps e_k.
    The rows of ``FD_BLOCK`` coordinates at a time go to ``losses_at``, which
    maps them to their losses in row order, so stochastic losses draw in the
    order of one probe at a time and peak memory is O(FD_BLOCK * dim).
    """
    check_positive(fd_epsilon, "fd_epsilon")
    raw = np.asarray(raw, dtype=float)
    dim = raw.shape[0]
    grad = np.empty(dim)
    for lo in range(0, dim, FD_BLOCK):
        k = np.arange(lo, min(lo + FD_BLOCK, dim))
        rows = np.arange(k.size)
        probes = np.repeat(raw[None, :], 2 * k.size, axis=0)
        probes[2 * rows, k] = raw[k] + fd_epsilon
        probes[2 * rows + 1, k] = raw[k] - fd_epsilon
        losses = np.asarray(losses_at(probes), dtype=float)
        if losses.shape != (2 * k.size,):
            raise ValueError(f"expected {2 * k.size} losses, got shape {losses.shape}")
        up, down = losses[0::2], losses[1::2]
        bad = np.flatnonzero(~(np.isfinite(up) & np.isfinite(down)))
        if bad.size:
            b = bad[0]
            raise ValueError(f"non-finite loss at coordinate {k[b]}: {up[b]}, {down[b]}")
        grad[k] = (up - down) / (2.0 * fd_epsilon)
    return grad


def adam_step(params: MlpParams, cache: ForwardCache, output_gradient: np.ndarray,
              config: GeneratorConfig) -> MlpParams:
    """Backprop fused into the in-place Adam update: no gradient vector.

    One reverse walk over the layers, from the output layer down to layer
    0.  At layer k it first takes the next delta (the loss gradient at
    layer k-1's pre-activation) from W_k's weights before the update, then
    runs Adam over W_k and b_k in chunks of whole rows, ``ADAM_BLOCK //
    cols`` rows (at least one) per chunk, with b_k riding on the layer's
    last chunk.  Each chunk's gradient, np.outer's product of its rows of
    delta_k with the cached activation a_k and then delta_k itself for the
    bias, is multiplied straight into a buffer g that stays in cache with
    its partner tmp; it is then scaled by scaling_factor and run through
    Adam's passes.  The bits are those of the full gradient fed to a flat
    Adam step.
    """
    if cache is None:
        raise ValueError("adam_step requires the ForwardCache from mlp_forward")
    delta = np.asarray(output_gradient, dtype=float)
    if delta.shape != (params.weights[-1].shape[0],):
        raise ValueError(
            f"output gradient shape {delta.shape} does not match "
            f"output width {params.weights[-1].shape[0]}"
        )
    b1, b2 = config.adam_betas
    lr, eps, s = config.learning_rate, config.adam_epsilon, config.scaling_factor
    params.step += 1
    t = params.step
    # room for any chunk: a chunk's worth of rows, or all of them, and the bias
    block = max(min(max(1, ADAM_BLOCK // cols), rows) * cols + rows
                for rows, cols in params.shapes)
    g_buf, tmp_buf = np.empty(block), np.empty(block)
    for k in range(len(params.shapes) - 1, -1, -1):
        (rows, cols), start, d = params.shapes[k], params.slices[k].start, delta
        if k > 0:
            delta = (params.weights[k].T @ d) * gelu_grad(cache.pre_activations[k - 1],
                                                          cache.erfs[k - 1])
        step = max(1, ADAM_BLOCK // cols)
        for r0 in range(0, rows, step):
            r1 = min(r0 + step, rows)
            n_w, bias = (r1 - r0) * cols, rows if r1 == rows else 0
            lo = start + r0 * cols
            sl = slice(lo, lo + n_w + bias)
            p, m, v = params.theta[sl], params.m[sl], params.v[sl]
            g, tmp = g_buf[: n_w + bias], tmp_buf[: n_w + bias]
            np.multiply(d[r0:r1, None], cache.activations[k],
                        out=g[:n_w].reshape(r1 - r0, cols))
            g[n_w:] = d[:bias]
            g *= s
            np.multiply(1.0 - b1, g, out=tmp)
            m *= b1
            m += tmp
            np.multiply(1.0 - b2, g, out=tmp)
            tmp *= g
            v *= b2
            v += tmp
            np.divide(v, 1.0 - b2**t, out=tmp)  # v_hat
            np.sqrt(tmp, out=tmp)
            tmp += eps
            np.divide(m, 1.0 - b1**t, out=g)  # m_hat
            g *= lr
            g /= tmp
            p -= g
    return params


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def train_generator(target: TargetSpec, config: GeneratorConfig,
                    mode: FidelityMode, rng: RngStream,
                    representation: Representation = Representation.STATEVECTOR,
                    trial_id: int = 0,
                    objective: str = "swap") -> tuple[object, MlpParams, TrialRecord]:
    """Train until the stop threshold or max_epochs; returns the best state.

    Per epoch: draw the latent, forward, decode, score through
    the SWAP signal, finite-difference the loss on the raw output, then
    backprop and Adam in one fused step.  The 2*dim probes are decoded one
    block of rows at a time into
    one array, and the trial's ``Estimator`` takes each block's values in
    one call, a few array operations with no state object per probe (in
    noisy mode the block's noisy preparations are one stack); each probe is
    still scored by its own ``score_candidate`` call, so the readings draw
    and are counted one by one.  Only the output gets a state object, which
    the log keeps when it reads best.  The trace holds the
    pre-update fidelity of each epoch's decoded output, so early-stop
    bookkeeping matches the evolutionary records.
    """
    if config.output_dim != representation.param_length(target.n_qubits):
        raise ValueError(
            f"config output width {config.output_dim} does not fit "
            f"{representation.value} on {target.n_qubits} qubit(s)"
        )
    estimator = Estimator(target.state, mode, objective)
    log = EpochLog(config.thresholds, stop_at=config.stop_threshold)
    params = init_mlp(config, rng)
    # a latent no epoch reads: skipping its draw would shift every trial's stream
    rng.gen.random(config.latent_dim)
    n = target.n_qubits

    def losses_at(probes: np.ndarray) -> list:
        block = representation.decode_rows(probes, n)
        losses = [1.0 - score_candidate(row, target.state, mode, rng, objective,
                                        prepared=v)
                  for row, v in zip(block, estimator.values(block))]
        log.readings += len(losses)
        return losses

    for epoch in range(1, config.max_epochs + 1):
        try:
            z = rng.gen.random(config.latent_dim)
            raw, cache = mlp_forward(params, z, return_cache=True)
            state = representation.decode(raw, n)
            f = score_candidate(state, target.state, mode, rng, objective,
                                prepared=estimator.value(state))
            log.readings += 1
            if log.record(epoch, f, state):
                break
            g_out = fd_gradient(losses_at, raw, config.fd_epsilon)
            params = adam_step(params, cache, g_out, config)
        except Exception as exc:
            raise RuntimeError(f"training failed at epoch {epoch}") from exc
    record = log.finish(target, representation, mode, rng, trial_id)
    return log.best_state, params, record
