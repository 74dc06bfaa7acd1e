"""Gradient-based generator: an MLP trained through the fidelity signal.

The network maps a 256-dimensional latent vector to the raw parameter
vector of the chosen representation.  No autodiff framework is involved:
the loss 1 - F is differentiated with respect to the raw OUTPUT by
symmetric finite differences through the SWAP test (2 * dim extra circuit
evaluations per epoch), and that output gradient is backpropagated through
the network analytically.  Adam consumes the result after multiplication
by a constant scaling factor, which compensates for the tiny magnitude of
fidelity differences.  Weights, biases, the gradient and both Adam moments
are each one flat vector with per-layer views; Adam walks those vectors in
fixed-size blocks, independent of the layer edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .evolution import EpochLog, TrialRecord, check_run_limits, check_threshold
from .prep import Representation, TargetSpec
from .sim import RngStream
from .swap_test import FidelityMode, score_candidate

N_WEIGHT_LAYERS = 6
HIDDEN_WIDTHS = (512, 512, 256, 128, 64)
# Elements per Adam block: 512 KiB per float64 operand.  8K-16K blocks run as
# fast single-threaded but lose most of the gain to GIL hand-offs between the
# trial threads; one whole-vector block falls out of cache.
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
    latent_mode: str = "resample"  # or "fixed"
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
        if self.fd_epsilon <= 0.0:
            raise ValueError("fd_epsilon must be positive")
        if self.scaling_factor <= 0.0:
            raise ValueError("scaling_factor must be positive")
        if self.latent_mode not in ("resample", "fixed"):
            raise ValueError(f"unknown latent_mode {self.latent_mode!r}")
        if not self.learning_rate > 0.0:  # also rejects NaN
            raise ValueError("learning_rate must be positive")
        if len(self.adam_betas) != 2 or not all(0.0 <= b < 1.0 for b in self.adam_betas):
            raise ValueError(f"adam_betas must be two values in [0, 1), got {self.adam_betas}")
        if not self.adam_epsilon > 0.0:
            raise ValueError("adam_epsilon must be positive")
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


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0))) + x * phi


@dataclass
class ForwardCache:
    """Activation record from one forward pass, input to backprop."""

    z: np.ndarray
    pre_activations: list
    activations: list  # activations[0] is z itself


def mlp_forward(params: MlpParams, z: np.ndarray, return_cache: bool = False):
    """Affine -> GELU chain; the last layer stays affine."""
    z = np.asarray(z, dtype=float)
    if z.shape != (params.weights[0].shape[1],):
        raise ValueError(
            f"latent shape {z.shape} does not match input width {params.weights[0].shape[1]}"
        )
    h = z
    pres, acts = [], [h]
    last = len(params.weights) - 1
    for k, (W, b) in enumerate(zip(params.weights, params.biases)):
        a = W @ h + b
        pres.append(a)
        h = gelu(a) if k < last else a
        acts.append(h)
    if return_cache:
        return h, ForwardCache(z=z, pre_activations=pres, activations=acts)
    return h


def fd_gradient(losses_at, raw: np.ndarray, fd_epsilon: float) -> np.ndarray:
    """Symmetric finite differences over the 2*dim probes, in blocks.

    Row 2k of the probe matrix is raw + eps e_k and row 2k+1 is raw - eps e_k.
    The rows of ``FD_BLOCK`` coordinates at a time go to ``losses_at``, which
    maps them to their losses in row order, so stochastic losses draw in the
    order of one probe at a time and peak memory is O(FD_BLOCK * dim).
    """
    if fd_epsilon <= 0.0:
        raise ValueError("fd_epsilon must be positive")
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


def mlp_backward(params: MlpParams, cache: ForwardCache,
                 output_gradient: np.ndarray) -> np.ndarray:
    """Reverse-mode chain rule from the raw-output gradient to all parameters.

    Returns one flat gradient laid out like ``params.theta``; each layer's
    outer product is written straight into its view.
    """
    if cache is None:
        raise ValueError("mlp_backward requires the ForwardCache from mlp_forward")
    delta = np.asarray(output_gradient, dtype=float)
    if delta.shape != (params.weights[-1].shape[0],):
        raise ValueError(
            f"output gradient shape {delta.shape} does not match "
            f"output width {params.weights[-1].shape[0]}"
        )
    grad = np.empty_like(params.theta)
    dW, db = params.layers(grad)
    n_layers = len(params.weights)
    for k in range(n_layers - 1, -1, -1):
        if k < n_layers - 1:
            delta = delta * gelu_grad(cache.pre_activations[k])
        np.outer(delta, cache.activations[k], out=dW[k])
        db[k][...] = delta
        if k > 0:
            delta = params.weights[k].T @ delta
    return grad


def adam_step(params: MlpParams, grads: np.ndarray, config: GeneratorConfig) -> MlpParams:
    """In-place Adam update; gradients are scaled by scaling_factor first.

    The update is elementwise, so it walks the flat vectors in blocks of
    ``ADAM_BLOCK`` elements, ignoring layer edges, through two block-sized
    buffers (g, tmp) that stay in cache across the block's fifteen passes.
    """
    if grads.shape != params.theta.shape:
        raise ValueError(f"gradient shape {grads.shape} does not match {params.theta.shape}")
    b1, b2 = config.adam_betas
    lr, eps, s = config.learning_rate, config.adam_epsilon, config.scaling_factor
    params.step += 1
    t = params.step
    size = params.theta.shape[0]
    block = min(ADAM_BLOCK, size)
    g_buf, tmp_buf = np.empty(block), np.empty(block)
    for lo in range(0, size, ADAM_BLOCK):
        sl = slice(lo, min(lo + ADAM_BLOCK, size))
        p, m, v = params.theta[sl], params.m[sl], params.v[sl]
        g, tmp = g_buf[: sl.stop - lo], tmp_buf[: sl.stop - lo]
        np.multiply(s, grads[sl], out=g)
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

    Per epoch: draw (or reuse) the latent, forward, decode, score through
    the SWAP signal, finite-difference the loss on the raw output (the
    2*dim probes decoded one block of rows at a time, each probe scored by
    its own reading), backprop, Adam.  The trace holds the pre-update fidelity of each
    epoch's decoded output, so early-stop bookkeeping matches the
    evolutionary records.
    """
    if config.output_dim != representation.param_length(target.n_qubits):
        raise ValueError(
            f"config output width {config.output_dim} does not fit "
            f"{representation.value} on {target.n_qubits} qubit(s)"
        )
    log = EpochLog(config.thresholds, stop_at=config.stop_threshold)
    params = init_mlp(config, rng)
    fixed_z = rng.gen.random(config.latent_dim)
    n = target.n_qubits

    def losses_at(probes: np.ndarray) -> list:
        losses = [1.0 - score_candidate(state, target.state, mode, rng, objective)
                  for state in representation.decode_rows(probes, n)]
        log.readings += len(losses)
        return losses

    for epoch in range(1, config.max_epochs + 1):
        try:
            z = fixed_z if config.latent_mode == "fixed" else rng.gen.random(config.latent_dim)
            raw, cache = mlp_forward(params, z, return_cache=True)
            state = representation.decode(raw, n)
            f = score_candidate(state, target.state, mode, rng, objective)
            log.readings += 1
            if log.record(epoch, f, state):
                break
            g_out = fd_gradient(losses_at, raw, config.fd_epsilon)
            # inline, so each epoch's gradient is freed before the next is built
            params = adam_step(params, mlp_backward(params, cache, g_out), config)
        except RuntimeError:
            raise
        except Exception as exc:
            raise RuntimeError(f"training failed at epoch {epoch}") from exc
    record = log.finish(target, representation, mode, rng, trial_id)
    return log.best_state, params, record
