"""The MLP generator: forward/backward, the FD bridge, Adam, training loop."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import erf

import oracles
from swapfit import neural
from swapfit.neural import (
    GeneratorConfig,
    MlpParams,
    N_WEIGHT_LAYERS,
    adam_step,
    default_config,
    fd_gradient,
    gelu,
    gelu_erf,
    gelu_grad,
    init_mlp,
    mlp_forward,
    train_generator,
)
from swapfit.noise import default_noise_model
from swapfit.prep import Representation, TargetSpec, sample_random_state
from swapfit.sim import RngStream
from swapfit.swap_test import FidelityMode


def tiny_config(out_dim=4, **overrides):
    """A shrunken architecture so oracle comparisons stay cheap."""
    return GeneratorConfig(layer_widths=(6, 5, 5, 4, 3, out_dim), latent_dim=7,
                           **overrides)


BLOCK_CASES = ("under-row", "uneven", "one-layer", "size", "size+1")


def block_for(case, shapes):
    """The ADAM_BLOCK that gives ``adam_step`` the chunks ``case`` names, on
    a network of ``shapes`` whose layer L has the most rows (r rows of c):
    one row per chunk in every layer (1 element, less than any row wider
    than 1); chunks of r - 1 rows in L, which do not divide r once r >= 3;
    all of L in one chunk (L's length); every layer in one chunk (the
    vector's length, and one more)."""
    size = sum(r * c + r for r, c in shapes)
    rows, cols = max(shapes)
    return {"under-row": 1, "uneven": max(1, rows - 1) * cols,
            "one-layer": rows * cols + rows, "size": size, "size+1": size + 1}[case]


class TestConfig:
    def test_default_architecture(self):
        cfg = default_config(2, Representation.STATEVECTOR)
        assert cfg.layer_widths == (512, 512, 256, 128, 64, 8)
        assert cfg.latent_dim == 256
        assert cfg.learning_rate == 1e-4
        assert cfg.adam_betas == (0.9, 0.999)
        assert cfg.fd_epsilon == 1e-3
        assert cfg.scaling_factor == 100.0
        assert cfg.max_epochs == 500

    def test_density_output_width(self):
        cfg = default_config(2, Representation.DENSITY)
        assert cfg.output_dim == 32

    def test_wrong_layer_count_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(layer_widths=(4, 4, 4))

    @pytest.mark.parametrize("overrides", [
        {"max_epochs": 0},
        {"thresholds": (1.5,)},
        {"thresholds": (0.0, 0.99)},
        {"thresholds": ()},
    ])
    def test_bad_run_limits_rejected(self, overrides):
        """Same stopping-rule checks as ESParams, at construction time."""
        with pytest.raises(ValueError):
            tiny_config(**overrides)

    @pytest.mark.parametrize("overrides", [
        {"learning_rate": 0.0},
        {"learning_rate": -1e-4},
        {"learning_rate": float("nan")},
        {"adam_betas": (1.0, 0.999)},
        {"adam_betas": (0.9, 1.0)},
        {"adam_betas": (-0.1, 0.999)},
        {"adam_betas": (0.9,)},
        {"adam_betas": (0.9, 0.999, 0.5)},
        {"adam_epsilon": 0.0},
        {"adam_epsilon": -1e-8},
        {"adam_epsilon": float("nan")},
    ])
    def test_bad_adam_hyperparameters_rejected(self, overrides):
        """Rejected at construction: each would otherwise write NaN into
        theta, or fail, inside the first Adam step."""
        with pytest.raises(ValueError):
            default_config(1, Representation.STATEVECTOR, **overrides)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    @pytest.mark.parametrize("field", ["fd_epsilon", "scaling_factor", "learning_rate",
                                       "adam_epsilon"])
    def test_non_finite_or_zero_scale_rejected(self, field, value):
        """NaN fails ``x <= 0`` as well as ``x > 0``; each field must be
        positive and finite, and the error names it."""
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            default_config(1, Representation.STATEVECTOR, **{field: value})

    @pytest.mark.parametrize("value", [0.0, -1.0, 1.5, float("nan")])
    def test_bad_stop_threshold_rejected(self, value):
        """0 would stop every trial at epoch 1; 1.5 and NaN would never stop."""
        with pytest.raises(ValueError, match="stop_threshold"):
            default_config(1, Representation.STATEVECTOR, stop_threshold=value)

    def test_duplicate_thresholds_rejected(self):
        """Each threshold is one results.csv column and one EpochLog key."""
        with pytest.raises(ValueError, match="distinct"):
            default_config(1, Representation.STATEVECTOR, thresholds=(0.95, 0.95))

    def test_stop_threshold_one_accepted(self):
        cfg = default_config(1, Representation.STATEVECTOR, stop_threshold=1.0)
        assert cfg.stop_threshold == 1.0


class TestInitAndForward:
    def test_shapes(self):
        cfg = tiny_config()
        params = init_mlp(cfg, RngStream(1))
        assert len(params.weights) == N_WEIGHT_LAYERS
        assert params.weights[0].shape == (6, 7)
        assert params.weights[-1].shape == (4, 3)
        assert params.biases[-1].shape == (4,)

    def test_fan_in_bounds(self):
        """Weights and biases both stay inside +-1/sqrt(fan_in)."""
        cfg = tiny_config()
        params = init_mlp(cfg, RngStream(2))
        sizes = (cfg.latent_dim,) + cfg.layer_widths
        for fan_in, W, b in zip(sizes[:-1], params.weights, params.biases):
            bound = 1.0 / np.sqrt(fan_in)
            assert np.max(np.abs(W)) <= bound
            assert np.max(np.abs(b)) <= bound

    def test_moments_start_zero(self):
        params = init_mlp(tiny_config(), RngStream(3))
        assert params.step == 0
        assert params.m.shape == params.v.shape == params.theta.shape
        assert not params.m.any() and not params.v.any()

    def test_views_alias_flat_vectors(self):
        """For params built from given arrays, an Adam step on the flat
        vectors moves weights[k]."""
        cfg = tiny_config()
        init = init_mlp(cfg, RngStream(20))
        params = MlpParams(init.shapes, theta=init.theta.copy(), m=init.m.copy(),
                           v=init.v.copy(), step=init.step)
        for W, b in zip(params.weights, params.biases):
            assert np.shares_memory(W, params.theta) and np.shares_memory(b, params.theta)
        before = [W.copy() for W in params.weights]
        oracles.adam_step(params, np.ones_like(params.theta), cfg)
        for k, W in enumerate(params.weights):
            assert np.all(W < before[k])

    def test_flat_length_checked(self):
        params = init_mlp(tiny_config(), RngStream(3))
        with pytest.raises(ValueError):
            MlpParams(params.shapes, theta=params.theta[:-1])
        with pytest.raises(ValueError):
            MlpParams(params.shapes, theta=params.theta, m=np.zeros(3))

    def test_gelu_values(self):
        x = np.array([-2.0, 0.0, 1.5])
        want = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
        np.testing.assert_allclose(gelu(x, gelu_erf(x)), want, atol=1e-15)
        assert gelu(np.zeros(1), gelu_erf(np.zeros(1)))[0] == 0.0

    def test_cached_erf_gelu_is_the_scipy_formula(self):
        """gelu and gelu_grad fed the forward pass's gelu_erf give the bits of
        the formulas on scipy's erf, layer by layer through a real forward."""
        params = init_mlp(default_config(2, Representation.STATEVECTOR), RngStream(13))
        _, cache = mlp_forward(params, RngStream(14).gen.random(256), return_cache=True)
        assert len(cache.erfs) == N_WEIGHT_LAYERS - 1
        for k, e in enumerate(cache.erfs):
            x = cache.pre_activations[k]
            want_e = erf(x / np.sqrt(2.0))
            phi = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
            assert np.array_equal(e, want_e)
            assert np.array_equal(gelu(x, e), 0.5 * x * (1.0 + want_e))
            assert np.array_equal(cache.activations[k + 1], gelu(x, e))
            assert np.array_equal(gelu_grad(x, e), 0.5 * (1.0 + want_e) + x * phi)

    def test_gelu_grad_matches_fd(self):
        x = np.linspace(-3, 3, 13)
        eps = 1e-6
        up, down = x + eps, x - eps
        fd = (gelu(up, gelu_erf(up)) - gelu(down, gelu_erf(down))) / (2 * eps)
        np.testing.assert_allclose(gelu_grad(x, gelu_erf(x)), fd, atol=1e-9)

    def test_forward_matches_naive_loop(self):
        """Layer arithmetic checked against the written-out recursion."""
        cfg = tiny_config()
        params = init_mlp(cfg, RngStream(4))
        z = RngStream(5).gen.random(7)
        got = mlp_forward(params, z)
        h = z
        for k in range(N_WEIGHT_LAYERS):
            a = params.weights[k] @ h + params.biases[k]
            h = gelu(a, gelu_erf(a)) if k < N_WEIGHT_LAYERS - 1 else a
        np.testing.assert_allclose(got, h, atol=1e-14)

    def test_last_layer_linear(self):
        """Doubling the last weights doubles the output exactly."""
        cfg = tiny_config()
        params = init_mlp(cfg, RngStream(6))
        z = RngStream(7).gen.random(7)
        base = mlp_forward(params, z)
        params.weights[-1] *= 2.0
        params.biases[-1] *= 2.0
        np.testing.assert_allclose(mlp_forward(params, z), 2.0 * base, atol=1e-13)

    def test_latent_shape_checked(self):
        params = init_mlp(tiny_config(), RngStream(8))
        with pytest.raises(ValueError):
            mlp_forward(params, np.zeros(3))


ERF_EDGES = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0),
             np.nextafter(1.0, 0.0), 8.0, -8.0, np.nextafter(8.0, 0.0),
             np.nextafter(-8.0, -9.0), np.inf, -np.inf, np.nan, 5e-324, -5e-324,
             2.2250738585072014e-308, 26.6, -27.3, 1e200, -1.7976931348623157e308,
             -np.nan, np.array(0x7FF8000000000001).view(float).item()]  # a NaN payload


def same_bits(a, b) -> bool:
    """Equal bit patterns, NaN included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestErf:
    """neural.erf is scipy.special.erf (Cephes) bit for bit."""

    def test_edges(self):
        x = np.array(ERF_EDGES)
        assert same_bits(neural.erf(x), erf(x))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True)
                    | st.floats(-1.5, 1.5) | st.floats(-9.0, 9.0)
                    | st.sampled_from(ERF_EDGES), max_size=40))
    def test_matches_scipy(self, values):
        x = np.array(values, dtype=float)
        assert same_bits(neural.erf(x), erf(x))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 0.5, 2.0, 6.0]))
    def test_matches_scipy_on_blocks(self, seed, scale):
        """Whole arrays at the magnitudes of hidden pre-activations and
        beyond, in any shape."""
        x = np.random.default_rng(seed).normal(scale=scale, size=(3, 700))
        assert same_bits(neural.erf(x), erf(x))

    def test_shape_and_input_kept(self):
        x = np.array([[2.0, -0.5], [9.0, np.nan]])
        keep = x.copy()
        assert neural.erf(x).shape == (2, 2)
        assert same_bits(x, keep)
        assert neural.erf(np.zeros(0)).shape == (0,)


class TestFdGradient:
    def test_probe_count(self):
        """Exactly 2*dim evaluations, no more."""
        calls = []

        def losses(probes):
            calls.extend(probes)
            return np.sum(probes**2, axis=1)

        fd_gradient(losses, np.ones(5), 1e-3)
        assert len(calls) == 10

    def test_quadratic_exact(self):
        """Symmetric differences are exact for quadratics."""
        raw = np.array([0.3, -1.2, 2.0])
        g = fd_gradient(lambda probes: np.sum(probes**2, axis=1), raw, 1e-3)
        np.testing.assert_allclose(g, 2 * raw, atol=1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda probes: np.full(len(probes), np.nan), np.ones(2), 1e-3)

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           eps=st.sampled_from([1e-3, 1e-6, 0.25]))
    def test_matches_per_probe_reference(self, dim, seed, eps):
        """Same probes in the same order, same gradient bits."""
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=dim)
        c = rng.normal(size=dim)

        def loss(v):
            return float(np.sin(v @ c) + v @ v)

        seen, seen_ref = [], []

        def losses(probes):
            seen.extend(p.copy() for p in probes)
            return [loss(p) for p in probes]

        def loss_ref(v):
            seen_ref.append(v.copy())
            return loss(v)

        got = fd_gradient(losses, raw, eps)
        want = oracles.fd_gradient_per_probe(loss_ref, raw, eps)
        assert np.array_equal(np.array(seen), np.array(seen_ref))
        assert np.array_equal(got, want)

    def test_nonfinite_names_first_bad_coordinate(self):
        def losses(probes):
            out = np.zeros(len(probes))
            out[5] = np.inf  # the minus probe of coordinate 2
            out[7] = np.nan
            return out

        with pytest.raises(ValueError, match="coordinate 2: 0.0, inf"):
            fd_gradient(losses, np.ones(4), 1e-3)

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 40), block=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_blocks_match_per_probe_reference(self, dim, block, seed):
        """Small blocks: every call holds at most 2*block rows, and the probes,
        their order and the gradient bits are the per-probe reference's."""
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=dim)
        c = rng.normal(size=dim)

        def loss(v):
            return float(np.sin(v @ c) + v @ v)

        seen, seen_ref, sizes = [], [], []

        def losses(probes):
            sizes.append(len(probes))
            seen.extend(p.copy() for p in probes)
            return [loss(p) for p in probes]

        def loss_ref(v):
            seen_ref.append(v.copy())
            return loss(v)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neural, "FD_BLOCK", block)
            got = fd_gradient(losses, raw, 1e-3)
        want = oracles.fd_gradient_per_probe(loss_ref, raw, 1e-3)
        assert max(sizes) <= 2 * block
        assert sum(sizes) == 2 * dim
        assert np.array_equal(np.array(seen), np.array(seen_ref))
        assert np.array_equal(got, want)

    def test_nonfinite_in_later_block_names_global_coordinate(self, monkeypatch):
        monkeypatch.setattr(neural, "FD_BLOCK", 2)

        def losses(probes):
            out = np.zeros(len(probes))
            if probes[0, 4] != 1.0:  # the block of coordinates 4 and 5
                out[3] = np.inf  # the minus probe of coordinate 5
            return out

        with pytest.raises(ValueError, match="coordinate 5: 0.0, inf"):
            fd_gradient(losses, np.ones(6), 1e-3)

    def test_widest_output_stays_in_blocks(self):
        """Density matrices on 6 qubits (dim 8192): no call sees more than
        2*FD_BLOCK probe rows, where one matrix would hold 1 GiB."""
        dim = Representation.DENSITY.param_length(6)
        raw = np.linspace(-1.0, 1.0, dim)
        sizes = []

        def losses(probes):
            sizes.append(len(probes))
            return np.sum(probes**2, axis=1)

        g = fd_gradient(losses, raw, 1e-3)
        assert max(sizes) == 2 * neural.FD_BLOCK
        assert sum(sizes) == 2 * dim
        np.testing.assert_allclose(g, 2 * raw, atol=1e-6)


class TestBackward:
    def test_against_parameter_fd(self):
        """Analytic backprop vs finite differences on every parameter."""
        cfg = tiny_config(out_dim=3)
        params = init_mlp(cfg, RngStream(9))
        z = RngStream(10).gen.random(7)
        target = np.array([0.3, -0.7, 1.1])

        def scalar_loss():
            out = mlp_forward(params, z)
            return float(np.sum((out - target) ** 2))

        out, cache = mlp_forward(params, z, return_cache=True)
        grads = oracles.mlp_backward(params, cache, 2.0 * (out - target))
        assert grads.shape == params.theta.shape
        grad_w, grad_b = params.layers(grads)

        eps = 1e-6
        for k in range(N_WEIGHT_LAYERS):
            for arr, g in ((params.weights[k], grad_w[k]),
                           (params.biases[k], grad_b[k])):
                flat = arr.reshape(-1)
                gflat = g.reshape(-1)
                idx = RngStream(20 + k).gen.integers(flat.shape[0], size=3)
                for i in idx:
                    keep = flat[i]
                    flat[i] = keep + eps
                    up = scalar_loss()
                    flat[i] = keep - eps
                    down = scalar_loss()
                    flat[i] = keep
                    np.testing.assert_allclose(gflat[i], (up - down) / (2 * eps),
                                               atol=1e-6)

    def test_requires_cache(self):
        cfg = tiny_config()
        params = init_mlp(cfg, RngStream(11))
        with pytest.raises(ValueError):
            oracles.mlp_backward(params, None, np.zeros(4))
        with pytest.raises(ValueError, match="ForwardCache"):
            adam_step(params, None, np.zeros(4), cfg)
        assert params.step == 0

    def test_output_gradient_shape_checked(self):
        cfg = tiny_config()
        params = init_mlp(cfg, RngStream(12))
        _, cache = mlp_forward(params, np.zeros(7), return_cache=True)
        with pytest.raises(ValueError):
            oracles.mlp_backward(params, cache, np.zeros(9))
        with pytest.raises(ValueError, match="output gradient shape"):
            adam_step(params, cache, np.zeros(9), cfg)
        assert params.step == 0


class TestAdam:
    """The flat-gradient Adam step in ``oracles``, the reference the fused
    ``adam_step`` is held to, and what a step in the package allocates."""

    def test_single_step_closed_form(self):
        """First step moves by lr * sign-ish rule with bias correction."""
        cfg = tiny_config()
        params = init_mlp(cfg, RngStream(13))
        w_before = [W.copy() for W in params.weights]
        oracles.adam_step(params, np.ones_like(params.theta), cfg)
        assert params.step == 1
        b1, b2 = cfg.adam_betas
        gs = cfg.scaling_factor * 1.0
        m_hat = (1 - b1) * gs / (1 - b1)
        v_hat = (1 - b2) * gs * gs / (1 - b2)
        delta = cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_epsilon)
        np.testing.assert_allclose(params.weights[0],
                                   w_before[0] - delta, atol=1e-12)

    def test_scaling_factor_cancels_in_ratio(self):
        """Adam is nearly scale invariant; the factor matters via epsilon only."""
        cfg_a = tiny_config(scaling_factor=100.0)
        cfg_b = tiny_config(scaling_factor=1.0)
        pa = init_mlp(cfg_a, RngStream(14))
        pb = init_mlp(cfg_b, RngStream(14))
        grads = RngStream(15).gen.normal(size=pa.theta.shape)
        oracles.adam_step(pa, grads, cfg_a)
        oracles.adam_step(pb, grads, cfg_b)
        np.testing.assert_allclose(pa.weights[0], pb.weights[0], atol=1e-6)

    def test_moments_accumulate(self):
        cfg = tiny_config()
        params = init_mlp(cfg, RngStream(16))
        grads = np.ones_like(params.theta)
        oracles.adam_step(params, grads, cfg)
        oracles.adam_step(params, grads, cfg)
        assert params.step == 2
        assert params.m.min() > 0

    def test_gradient_shape_checked(self):
        cfg = tiny_config()
        params = init_mlp(cfg, RngStream(19))
        with pytest.raises(ValueError):
            oracles.adam_step(params, np.ones(3), cfg)

    @settings(max_examples=40, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 6), min_size=2, max_size=5),
        steps=st.integers(1, 6),
        scaling=st.sampled_from([1.0, 100.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_naive_per_layer_loop(self, widths, steps, scaling, seed):
        """Flat, slice-wise Adam agrees with the per-layer reference loop."""
        cfg = tiny_config(scaling_factor=scaling, learning_rate=1e-2)
        gen = np.random.default_rng(seed)
        shapes = list(zip(widths[1:], widths[:-1]))
        theta = gen.normal(size=sum(r * c + r for r, c in shapes))
        params = MlpParams(shapes, theta=theta.copy())
        layers = [a.copy() for W, b in zip(params.weights, params.biases) for a in (W, b)]
        m = [np.zeros_like(a) for a in layers]
        v = [np.zeros_like(a) for a in layers]
        for t in range(1, steps + 1):
            grads = gen.normal(size=theta.shape)
            oracles.adam_step(params, grads, cfg)
            gw, gb = params.layers(grads)
            oracles.adam_naive(
                layers, [g for pair in zip(gw, gb) for g in pair], m, v, t,
                lr=cfg.learning_rate, betas=cfg.adam_betas,
                eps=cfg.adam_epsilon, scale=cfg.scaling_factor,
            )
        got = [a for W, b in zip(params.weights, params.biases) for a in (W, b)]
        for mine, ref in zip(got, layers):
            np.testing.assert_allclose(mine, ref, rtol=0, atol=1e-12)
        assert params.step == steps

    @staticmethod
    def _run_both(shapes, steps, cfg, gen):
        """``steps`` Adam steps through the flat-gradient ``oracles.adam_step``
        and through the layer-slice oracle, from one theta and one gradient
        sequence."""
        theta = gen.normal(size=sum(r * c + r for r, c in shapes))
        mine = MlpParams(shapes, theta=theta.copy())
        ref = MlpParams(shapes, theta=theta.copy())
        for _ in range(steps):
            grads = gen.normal(size=theta.shape)
            oracles.adam_step(mine, grads, cfg)
            oracles.adam_layer_slices(
                ref, grads, lr=cfg.learning_rate, betas=cfg.adam_betas,
                eps=cfg.adam_epsilon, scale=cfg.scaling_factor,
            )
        return mine, ref

    @staticmethod
    def _assert_bit_identical(mine, ref):
        for name in ("theta", "m", "v"):
            assert np.array_equal(getattr(mine, name), getattr(ref, name)), name
        assert mine.step == ref.step

    @settings(max_examples=60, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 6), min_size=2, max_size=5),
        steps=st.integers(1, 6),
        block=st.sampled_from(BLOCK_CASES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_edges_change_nothing(self, widths, steps, block, seed):
        """The oracle's flat blocks cut rows and layers anywhere; at each
        ADAM_BLOCK that ``TestFusedStep`` gives the fused step, they give
        the same bits as the layer-slice loop, so the fused step's row
        chunks are held to that loop too."""
        shapes = list(zip(widths[1:], widths[:-1]))
        n_block = block_for(block, shapes)
        cfg = tiny_config(learning_rate=1e-2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neural, "ADAM_BLOCK", n_block)
            mine, ref = self._run_both(shapes, steps, cfg, np.random.default_rng(seed))
        self._assert_bit_identical(mine, ref)

    def test_default_shape_matches_layer_slices(self):
        """The nn-exact architecture spans several real blocks."""
        cfg = default_config(2, Representation.STATEVECTOR)
        shapes = init_mlp(cfg, RngStream(21)).shapes
        assert sum(r * c + r for r, c in shapes) == 567_240 > 2 * neural.ADAM_BLOCK
        mine, ref = self._run_both(shapes, 3, cfg, np.random.default_rng(22))
        self._assert_bit_identical(mine, ref)

    def test_temporaries_stay_block_sized(self):
        """A warm fused step allocates two buffers of its largest chunk (128
        rows of 512 and a bias of 512) and two layer deltas at a time, and
        no parameter-sized gradient (567,240 elements here)."""
        cfg = default_config(2, Representation.STATEVECTOR)
        params = init_mlp(cfg, RngStream(23))
        z = RngStream(24).gen.random(cfg.latent_dim)
        _, cache = mlp_forward(params, z, return_cache=True)
        g_out = RngStream(25).gen.normal(size=cfg.output_dim)
        adam_step(params, cache, g_out, cfg)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            adam_step(params, cache, g_out, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # numpy's ufunc iterator buffers a broadcast product, np.outer's too:
        # two operands of np.getbufsize() elements
        ufunc_buffers = 2 * 8 * np.getbufsize()
        assert peak <= (2 * 8 * neural.ADAM_BLOCK + 8 * sum(cfg.layer_widths)
                        + ufunc_buffers + 64 * 1024)


class TestFusedStep:
    """``adam_step`` against the unfused reference it replaced:
    ``oracles.mlp_backward``'s flat gradient fed to ``oracles.adam_step``."""

    @staticmethod
    def _run_both(shapes, steps, cfg, gen):
        """``steps`` forward passes and updates, each through the fused step
        and through the reference, from one theta, latent and output
        gradient sequence."""
        theta = gen.normal(size=sum(r * c + r for r, c in shapes))
        mine = MlpParams(shapes, theta=theta.copy())
        ref = MlpParams(shapes, theta=theta.copy())
        for _ in range(steps):
            z = gen.normal(size=shapes[0][1])
            g_out = gen.normal(size=shapes[-1][0])
            _, cache = mlp_forward(mine, z, return_cache=True)
            _, ref_cache = mlp_forward(ref, z, return_cache=True)
            adam_step(mine, cache, g_out, cfg)
            oracles.adam_step(ref, oracles.mlp_backward(ref, ref_cache, g_out), cfg)
        return mine, ref

    @settings(max_examples=80, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 6), min_size=2, max_size=7),
        steps=st.integers(1, 6),
        block=st.sampled_from(BLOCK_CASES),
        scaling=st.sampled_from([1.0, 100.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_backward_then_adam(self, widths, steps, block, scaling, seed):
        """Bit for bit, on networks of one to six layers, whether a chunk is
        one row, leaves a shorter last chunk, holds exactly one layer or
        every layer whole."""
        shapes = list(zip(widths[1:], widths[:-1]))
        assume(block != "uneven" or max(shapes)[0] >= 3)
        n_block = block_for(block, shapes)
        cfg = tiny_config(scaling_factor=scaling, learning_rate=1e-2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neural, "ADAM_BLOCK", n_block)
            mine, ref = self._run_both(shapes, steps, cfg, np.random.default_rng(seed))
        TestAdam._assert_bit_identical(mine, ref)

    def test_default_shape(self):
        """The nn-exact architecture at the real ADAM_BLOCK: eleven chunks,
        the three widest layers each split into two or four of them."""
        cfg = default_config(2, Representation.STATEVECTOR)
        shapes = init_mlp(cfg, RngStream(26)).shapes
        mine, ref = self._run_both(shapes, 3, cfg, np.random.default_rng(27))
        TestAdam._assert_bit_identical(mine, ref)


class TestTrainGenerator:
    def test_deterministic_rerun(self):
        def one_run():
            rng = RngStream(2121)
            target = TargetSpec(1, sample_random_state(1, rng), seed=2121)
            cfg = default_config(1, Representation.STATEVECTOR, max_epochs=15)
            return train_generator(target, cfg, FidelityMode.exact(), rng)

        sol_a, _, rec_a = one_run()
        sol_b, _, rec_b = one_run()
        assert rec_a.fidelity_trace == rec_b.fidelity_trace
        np.testing.assert_array_equal(sol_a.amplitudes, sol_b.amplitudes)

    def test_converges_one_qubit(self):
        rng = RngStream(303)
        target = TargetSpec(1, sample_random_state(1, rng), seed=303)
        cfg = default_config(1, Representation.STATEVECTOR)
        sol, params, rec = train_generator(target, cfg, FidelityMode.exact(), rng)
        assert rec.oracle_fidelity > 0.99

    def test_stop_threshold_respected(self):
        rng = RngStream(304)
        target = TargetSpec(1, sample_random_state(1, rng), seed=304)
        cfg = default_config(1, Representation.STATEVECTOR)
        _, _, rec = train_generator(target, cfg, FidelityMode.exact(), rng)
        if len(rec.fidelity_trace) < cfg.max_epochs:
            assert rec.fidelity_trace[-1] >= cfg.stop_threshold

    def test_config_width_mismatch_rejected(self):
        rng = RngStream(307)
        target = TargetSpec(2, sample_random_state(2, rng), seed=307)
        cfg = default_config(1, Representation.STATEVECTOR)
        with pytest.raises(ValueError):
            train_generator(target, cfg, FidelityMode.exact(), rng)


def _per_probe_fd(losses_at, raw, fd_epsilon):
    """The replaced gradient: one one-row loss call per probe."""
    return oracles.fd_gradient_per_probe(lambda v: losses_at(v[None, :])[0], raw, fd_epsilon)


def _train_both(monkeypatch, rep, n, mode, seed, objective="swap"):
    """train_generator with the probe matrix, then with one probe per call."""
    cfg = tiny_config(out_dim=rep.param_length(n), learning_rate=1e-2, max_epochs=12)
    runs = []
    for fd in (fd_gradient, _per_probe_fd):
        monkeypatch.setattr(neural, "fd_gradient", fd)
        rng = RngStream(seed)
        target = TargetSpec(n, sample_random_state(n, rng), seed=seed)
        sol, params, rec = train_generator(target, cfg, mode, rng, representation=rep,
                                           objective=objective)
        runs.append((sol, params, rec, rng.gen.bit_generator.state))
    return runs


class TestProbeMatrix:
    """train_generator decodes the 2*dim probes as one matrix and still reads
    each probe once, in the order the per-probe loop read them."""

    @pytest.mark.parametrize("rep,n,mode,objective", [
        (Representation.DENSITY, 1, FidelityMode.exact(), "swap"),
        (Representation.DENSITY, 2, FidelityMode.exact(), "uhlmann"),
        (Representation.STATEVECTOR, 1, FidelityMode.sampled(64), "swap"),
        (Representation.STATEVECTOR, 1, FidelityMode.noisy(default_noise_model(), 256),
         "swap"),
        (Representation.STATEVECTOR, 2, FidelityMode.noisy(default_noise_model(), 256),
         "swap"),
        (Representation.STATEVECTOR, 3, FidelityMode.noisy(default_noise_model(), 256),
         "swap"),
        (Representation.UNITARY, 2, FidelityMode.noisy(default_noise_model(), 256), "swap"),
    ])
    def test_identical_records(self, monkeypatch, rep, n, mode, objective):
        (sol, params, rec, state), (sol_ref, params_ref, rec_ref, state_ref) = _train_both(
            monkeypatch, rep, n, mode, 5100 + n, objective)
        assert {**vars(rec), "wall_time": 0} == {**vars(rec_ref), "wall_time": 0}
        assert state == state_ref
        assert np.array_equal(params.theta, params_ref.theta)

    @pytest.mark.parametrize("rep,n", [
        (Representation.STATEVECTOR, 1),
        (Representation.STATEVECTOR, 2),
        (Representation.UNITARY, 1),
    ])
    def test_exact_readings_agree(self, monkeypatch, rep, n):
        (_, _, rec, _), (_, _, rec_ref, _) = _train_both(
            monkeypatch, rep, n, FidelityMode.exact(), 5200 + n)
        assert rec.epochs_to_threshold == rec_ref.epochs_to_threshold
        np.testing.assert_allclose(rec.fidelity_trace, rec_ref.fidelity_trace,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rep,n,mode,block", [
        (Representation.DENSITY, 3, FidelityMode.exact(), 5),
        (Representation.STATEVECTOR, 2, FidelityMode.sampled(64), 3),
    ])
    def test_small_blocks_identical_records(self, monkeypatch, rep, n, mode, block):
        """Probe sets decoded over many small blocks train exactly as one
        probe at a time."""
        monkeypatch.setattr(neural, "FD_BLOCK", block)
        assert rep.param_length(n) > 2 * block
        (sol, params, rec, state), (sol_ref, params_ref, rec_ref, state_ref) = _train_both(
            monkeypatch, rep, n, mode, 5500 + n)
        assert {**vars(rec), "wall_time": 0} == {**vars(rec_ref), "wall_time": 0}
        assert state == state_ref
        assert np.array_equal(params.theta, params_ref.theta)

    @pytest.mark.parametrize("n", [2, 3])
    def test_stage_dropping_probes_identical_records(self, monkeypatch, n):
        """With the output's imaginary half zeroed and its real half made
        nonnegative, every probe block mixes real-amplitude rows, which drop
        the RZ stages, with rows that keep them; noisy readings of such
        blocks train exactly as one probe at a time."""
        real_forward = neural.mlp_forward

        def real_amplitude_output(*args, **kwargs):
            raw, cache = real_forward(*args, **kwargs)
            half = raw.shape[0] // 2
            return np.concatenate([np.abs(raw[:half]) + 0.1, np.zeros(half)]), cache

        monkeypatch.setattr(neural, "mlp_forward", real_amplitude_output)
        mode = FidelityMode.noisy(default_noise_model(), 256)
        (sol, params, rec, state), (sol_ref, params_ref, rec_ref, state_ref) = _train_both(
            monkeypatch, Representation.STATEVECTOR, n, mode, 5600 + n)
        assert {**vars(rec), "wall_time": 0} == {**vars(rec_ref), "wall_time": 0}
        assert state == state_ref
        assert np.array_equal(params.theta, params_ref.theta)

    def test_runtime_error_names_its_epoch(self, monkeypatch):
        """A RuntimeError inside an epoch is wrapped like any other error."""
        boom = RuntimeError("reading failed")

        def failing(*args, **kwargs):
            raise boom

        monkeypatch.setattr(neural, "score_candidate", failing)
        rng = RngStream(5310)
        target = TargetSpec(1, sample_random_state(1, rng), seed=5310)
        with pytest.raises(RuntimeError, match="training failed at epoch 1") as got:
            train_generator(target, tiny_config(), FidelityMode.exact(), rng)
        assert got.value.__cause__ is boom

    def test_degenerate_probe_raises_decode_error(self, monkeypatch):
        """A zero probe fails the epoch with the one-vector decode's error."""
        eps = tiny_config().fd_epsilon
        raw = np.array([eps, 0.0, 0.0, 0.0])  # its minus probe on coordinate 0 is zero
        monkeypatch.setattr(neural, "mlp_forward", lambda *a, **k: (raw.copy(), None))
        with pytest.raises(ValueError) as want:
            Representation.STATEVECTOR.decode(np.zeros(4), 1)
        rng = RngStream(5300)
        target = TargetSpec(1, sample_random_state(1, rng), seed=5300)
        cfg = tiny_config(stop_threshold=1.0)
        with pytest.raises(RuntimeError, match="training failed at epoch 1") as got:
            train_generator(target, cfg, FidelityMode.exact(), rng)
        assert type(got.value.__cause__) is ValueError
        assert str(got.value.__cause__) == str(want.value)

    @pytest.mark.parametrize("rep", [Representation.STATEVECTOR, Representation.DENSITY])
    def test_epoch_reads_two_dim_plus_one(self, monkeypatch, rep):
        calls = []
        real = neural.score_candidate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(neural, "score_candidate", counting)
        dim = rep.param_length(1)
        cfg = tiny_config(out_dim=dim, max_epochs=3, thresholds=(1.0,), stop_threshold=1.0)
        rng = RngStream(5400)
        target = TargetSpec(1, sample_random_state(1, rng), seed=5400)
        _, _, rec = train_generator(target, cfg, FidelityMode.exact(), rng, representation=rep)
        assert len(rec.fidelity_trace) == 3
        assert rec.readings == len(calls) == 3 * (2 * dim + 1)
        assert rec.shots == 0

    def test_early_stop_skips_last_probes(self, monkeypatch):
        """epochs + (epochs - stopped) * 2 * dim readings, shots per reading."""
        calls = []
        real = neural.score_candidate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(neural, "score_candidate", counting)
        cfg = tiny_config(max_epochs=20, thresholds=(0.9,), stop_threshold=0.9,
                          learning_rate=1e-2)
        rng = RngStream(5405)
        target = TargetSpec(1, sample_random_state(1, rng), seed=5405)
        _, _, rec = train_generator(target, cfg, FidelityMode.sampled(64), rng)
        epochs, dim = len(rec.fidelity_trace), cfg.output_dim
        assert 1 < epochs < cfg.max_epochs and rec.fidelity_trace[-1] >= 0.9
        assert rec.readings == len(calls) == epochs + (epochs - 1) * 2 * dim
        assert rec.shots == 64 * rec.readings
