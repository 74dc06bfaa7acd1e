"""Independent reference implementations used as test oracles.

Everything in here is deliberately naive: dense matrices, explicit loops,
no shared code with the package internals.  Slow is fine; these only run
inside the test suite, and disagreement with the package is always a bug
in exactly one of the two routes.  The one exception is the Mottonen
reference, which emits the package's own GateOp records (RY lowered by
sim.lower_ry) so that its ops compare with the package's field by field.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import sqrtm
from scipy.sparse import csr_matrix

from swapfit.sim import GateOp, lower_ry

SQ2 = np.sqrt(2.0)

I2 = np.eye(2, dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / SQ2
X = np.array([[0, 1], [1, 0]], dtype=complex)
SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)


def rz(theta):
    return np.array(
        [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex
    )


def cx_matrix():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[1, 1] = m[2, 3] = m[3, 2] = 1
    return m


def cswap_matrix():
    m = np.eye(8, dtype=complex)
    # controls on the top bit; swaps |101> <-> |110>
    m[5, 5] = m[6, 6] = 0
    m[5, 6] = m[6, 5] = 1
    return m


def embed(small, n_qubits, qubits):
    """Full 2^n x 2^n matrix acting as ``small`` on ``qubits`` (qubit 0 = MSB).

    Built index-by-index, which is the most literal (and slowest) possible
    embedding: exactly what we want from an oracle.
    """
    dim = 1 << n_qubits
    k = len(qubits)
    rest = [q for q in range(n_qubits) if q not in qubits]
    big = np.zeros((dim, dim), dtype=complex)

    def bits_of(idx):
        return [(idx >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]

    def idx_of(bits):
        out = 0
        for q, b in enumerate(bits):
            out |= b << (n_qubits - 1 - q)
        return out

    for col in range(dim):
        cb = bits_of(col)
        sub_col = 0
        for j, q in enumerate(qubits):
            sub_col |= cb[q] << (k - 1 - j)
        for sub_row in range(1 << k):
            rb = list(cb)
            for j, q in enumerate(qubits):
                rb[q] = (sub_row >> (k - 1 - j)) & 1
            big[idx_of(rb), col] = small[sub_row, sub_col]
    return big


def op_matrix(op, n_qubits):
    """Dense full-register unitary for one gate op."""
    if op.kind == "h":
        return embed(H, n_qubits, op.qubits)
    if op.kind == "x":
        return embed(X, n_qubits, op.qubits)
    if op.kind == "sx":
        return embed(SX, n_qubits, op.qubits)
    if op.kind == "rz":
        return embed(rz(op.angle), n_qubits, op.qubits)
    if op.kind == "cx":
        return embed(cx_matrix(), n_qubits, op.qubits)
    if op.kind == "cswap":
        return embed(cswap_matrix(), n_qubits, op.qubits)
    raise ValueError(f"no dense matrix for op kind {op.kind!r}")


def run_dense(amps, ops, n_qubits):
    """Matrix-product evolution of a raw amplitude vector."""
    out = np.array(amps, dtype=complex)
    for op in ops:
        out = op_matrix(op, n_qubits) @ out
    return out


def run_dense_dm(rho, ops, n_qubits):
    out = np.array(rho, dtype=complex)
    for op in ops:
        u = op_matrix(op, n_qubits)
        out = u @ out @ u.conj().T
    return out


def apply_kraus_dense(rho, operators, n_qubits, qubits):
    """Channel action via fully embedded Kraus matrices."""
    out = np.zeros_like(rho)
    for K in operators:
        big = embed(K, n_qubits, qubits)
        out += big @ rho @ big.conj().T
    return out


def run_dense_dm_noisy(rho, ops, n_qubits, model):
    """Noisy evolution gate by gate: U rho U+, then the composite Kraus sum.

    The same arithmetic as op_matrix followed by apply_kraus_dense with
    ``model.channel_for(kind)``, except that each gate's
    embedded Kraus operators are built once per (kind, qubits) and kept
    sparse: the composite cx channel has 144 operators, and a 7-qubit
    register would otherwise take minutes.
    """
    embedded = {}
    out = np.array(rho, dtype=complex)
    for op in ops:
        u = op_matrix(op, n_qubits)
        out = u @ out @ u.conj().T
        ch = model.channel_for(op.kind)
        if ch is None:
            continue
        key = (op.kind, op.qubits)
        if key not in embedded:
            embedded[key] = [csr_matrix(embed(K, n_qubits, op.qubits)) for K in ch.operators]
        acc = np.zeros_like(out)
        for big in embedded[key]:
            acc += big @ (big @ out.conj().T).conj().T  # big @ out @ big+
        out = acc
    return out


def channel_transfer_dense(operators, n_qubits, qubits):
    """Row-major transfer matrix of the embedded channel."""
    dim = 1 << n_qubits
    s = np.zeros((dim * dim, dim * dim), dtype=complex)
    for K in operators:
        big = embed(K, n_qubits, qubits)
        s += np.kron(big, big.conj())
    return s


def partial_trace_dense(rho, n_qubits, keep):
    """Partial trace by explicit index summation (qubit 0 = MSB)."""
    keep = list(keep)
    traced = [q for q in range(n_qubits) if q not in keep]
    dk = 1 << len(keep)
    out = np.zeros((dk, dk), dtype=complex)

    def full_idx(keep_bits, traced_bits):
        idx = 0
        for q, b in zip(keep, keep_bits):
            idx |= b << (n_qubits - 1 - q)
        for q, b in zip(traced, traced_bits):
            idx |= b << (n_qubits - 1 - q)
        return idx

    def bits(v, width):
        return [(v >> (width - 1 - j)) & 1 for j in range(width)]

    for r in range(dk):
        for c in range(dk):
            acc = 0j
            for t in range(1 << len(traced)):
                tb = bits(t, len(traced))
                acc += rho[full_idx(bits(r, len(keep)), tb),
                           full_idx(bits(c, len(keep)), tb)]
            out[r, c] = acc
    return out


# ---------------------------------------------------------------------------
# Analytic pieces
# ---------------------------------------------------------------------------


def overlap_gradient(raw, target_amps):
    """d/d(raw) of F = |<target|c/||c||>|^2 with c = raw[:d] + i raw[d:].

    With s = <target|c> and N = <c|c>:
        dF/d conj(c_k) = s t_k / N - |s|^2 c_k / N^2
    and the real-parameter gradient is twice the real/imaginary parts.
    """
    d = len(raw) // 2
    c = raw[:d] + 1j * raw[d:]
    t = np.asarray(target_amps, dtype=complex)
    s = np.vdot(t, c)
    norm2 = float(np.real(np.vdot(c, c)))
    g = s * t / norm2 - (abs(s) ** 2) * c / norm2**2
    return np.concatenate([2.0 * np.real(g), 2.0 * np.imag(g)])


def es_update_naive(w, sigma, alpha, perturbations, advantages):
    """The update written as the obvious loop over the population."""
    out = np.array(w, dtype=float)
    n = len(perturbations)
    for z_i, a_i in zip(perturbations, advantages):
        out = out + (alpha / (n * sigma)) * a_i * np.asarray(z_i)
    return out


def adam_naive(layers, grads, m, v, t, *, lr, betas, eps, scale):
    """One Adam step over separate per-layer arrays, updated in place.

    ``layers``, ``grads``, ``m`` and ``v`` are matching lists of arrays;
    ``t`` is the 1-based step.  Kingma & Ba's update on the scaled gradient.
    """
    b1, b2 = betas
    for p, g, m_k, v_k in zip(layers, grads, m, v):
        g = scale * np.asarray(g)
        m_k[...] = b1 * m_k + (1.0 - b1) * g
        v_k[...] = b2 * v_k + (1.0 - b2) * g**2
        m_hat = m_k / (1.0 - b1**t)
        v_hat = v_k / (1.0 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def adam_layer_slices(params, grads, *, lr, betas, eps, scale):
    """One Adam step over an MlpParams, one layer slice at a time.

    The slice-wise form the blocked ``adam_step`` replaced: the same ufunc
    sequence per element, so the two must agree bit for bit.
    """
    b1, b2 = betas
    params.step += 1
    t = params.step
    for sl in params.slices:
        p, m, v = params.theta[sl], params.m[sl], params.v[sl]
        g = scale * grads[sl]
        tmp = (1.0 - b1) * g
        m *= b1
        m += tmp
        np.multiply(1.0 - b2, g, out=tmp)
        tmp *= g
        v *= b2
        v += tmp
        np.divide(v, 1.0 - b2**t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        np.divide(m, 1.0 - b1**t, out=g)
        g *= lr
        g /= tmp
        p -= g


def pure_expectation(psi, sigma):
    """<psi|sigma|psi> as a row-vector product, from raw arrays."""
    return float(np.real(psi.conj() @ sigma @ psi))


def uhlmann_scipy(rho, sigma):
    """Uhlmann fidelity via scipy's matrix square root, squared convention."""
    root = sqrtm(rho)
    inner = sqrtm(root @ sigma @ root)
    return float(np.real(np.trace(inner)) ** 2)


def entropy_bits(rho):
    """Von Neumann entropy in bits straight from the eigenvalues."""
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > 1e-15]
    return float(-np.sum(vals * np.log2(vals)))


def splitmix64_reference(x):
    """Steele-Lea-Flood finalizer, written out independently."""
    mask = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def random_state_dense(n_qubits, rng):
    """Haar-ish random pure state for oracle-side test data."""
    v = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return v / np.linalg.norm(v)


def random_density_dense(n_qubits, rng, rank=None):
    dim = 1 << n_qubits
    rank = rank or dim
    l = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = l @ l.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# Mottonen synthesis, op by op: the loop form the package's compiled template
# must reproduce (same kinds and qubits, angles to 1e-15).
# ---------------------------------------------------------------------------


def _gray(i: int) -> int:
    return i ^ (i >> 1)


@lru_cache(maxsize=None)
def _angle_mixer(m: int) -> np.ndarray:
    """M with M[i, j] = (-1)^popcount(j & gray(i)) / m; maps multiplexer
    angles to the rotation angles of the Gray-code expansion."""
    M = np.empty((m, m))
    for i in range(m):
        gi = _gray(i)
        for j in range(m):
            M[i, j] = (-1) ** int(bin(j & gi).count("1"))
    return M / m


def _alpha_y(a_abs: np.ndarray, n: int, k: int) -> np.ndarray:
    out = np.zeros(2 ** (n - k))
    half = 2 ** (k - 1)
    for j in range(out.shape[0]):
        num = float(np.sum(a_abs[(2 * j + 1) * half : (2 * j + 2) * half] ** 2))
        den = float(np.sum(a_abs[2 * j * half : (2 * j + 2) * half] ** 2))
        if den > 0.0:
            out[j] = 2.0 * math.asin(min(1.0, math.sqrt(num / den)))
    return out


def _alpha_z(omega: np.ndarray, n: int, k: int) -> np.ndarray:
    out = np.zeros(2 ** (n - k))
    half = 2 ** (k - 1)
    for j in range(out.shape[0]):
        upper = omega[(2 * j + 1) * half : (2 * j + 2) * half]
        lower = omega[2 * j * half : (2 * j + 1) * half]
        out[j] = float(np.sum(upper - lower)) / half
    return out


def _multiplexer_ops(angles: np.ndarray, target: int, axis: str) -> list[GateOp]:
    """Gray-code expansion of a uniformly controlled RY or RZ rotation.

    Controls are qubits 0..target-1; the Gray-code bit p that flips between
    consecutive rotation slots selects control qubit target-1-p.
    """
    thetas = _angle_mixer(len(angles)) @ np.asarray(angles, dtype=float)
    m = len(thetas)

    def rot(theta: float) -> list[GateOp]:
        if axis == "y":
            return lower_ry(theta, target)
        return [GateOp.rz(theta, target)]

    if m == 1:
        return rot(float(thetas[0]))
    ops: list[GateOp] = []
    for i in range(m):
        ops += rot(float(thetas[i]))
        changed = _gray(i) ^ _gray((i + 1) % m)
        control = target - 1 - (changed.bit_length() - 1)
        ops.append(GateOp.cx(control, target))
    return ops


def mottonen_circuit(target) -> list[GateOp]:
    """Gate list over {rz, sx, x, cx} preparing ``target`` from |0...0>.

    The result matches the target up to global phase; all-zero rotation
    stages are dropped, so |0...0> compiles to an empty list.
    """
    norm = np.linalg.norm(target.amplitudes)
    if norm < 1e-12:
        raise ValueError("cannot synthesize a circuit for a zero-norm state")
    n = target.n_qubits
    a_abs = np.abs(target.amplitudes)
    omega = np.angle(target.amplitudes)
    ops: list[GateOp] = []
    for k in range(n, 0, -1):
        ay = _alpha_y(a_abs, n, k)
        if np.any(ay != 0.0):
            ops += _multiplexer_ops(ay, n - k, "y")
    if np.any(omega != 0.0):
        for k in range(n, 0, -1):
            az = _alpha_z(omega, n, k)
            if np.any(az != 0.0):
                ops += _multiplexer_ops(az, n - k, "z")
    return ops


# ---------------------------------------------------------------------------
# Per-candidate references for the batched decode, the ES population loop
# and the finite-difference gradient
# ---------------------------------------------------------------------------
#
# The replaced package code, kept verbatim (names suffixed): one decode per
# parameter vector, one (z_i, w_i) pair per population member, one loss call
# per probe.  The ES loop runs on the package's EpochLog, decoding and
# scoring, so it differs from run_es only in how candidates are built and
# decoded.


def _split_complex(w: np.ndarray, half: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (2 * half,):
        raise ValueError(f"parameter vector has shape {w.shape}, expected ({2 * half},)")
    return w[:half] + 1j * w[half:]


def decode_statevector_vector(w, n_qubits):
    """First half real parts, second half imaginary parts, normalized."""
    c = _split_complex(w, 2**n_qubits)
    norm = np.linalg.norm(c)
    if norm <= 1e-12:
        raise ValueError("parameter vector has near-zero norm; resample the candidate")
    return c / norm


def decode_unitary_vector(w, n_qubits):
    """U|0...0> of the polar projection U of the decoded matrix."""
    d = 2**n_qubits
    M = _split_complex(w, d * d).reshape(d, d)
    u, s, vh = np.linalg.svd(M)
    if s[-1] <= 1e-10:
        raise ValueError("decoded matrix is singular; resample the candidate")
    return (u @ vh)[:, 0]


def decode_density_vector(w, n_qubits):
    """rho = L L+ / Tr(L L+) from the decoded factor L."""
    d = 2**n_qubits
    L = _split_complex(w, d * d).reshape(d, d)
    rho = L @ L.conj().T
    tr = rho.trace().real
    if tr <= 1e-12:
        raise ValueError("decoded factor is numerically zero; resample the candidate")
    return rho / tr


def perturb_population_pairs(w, params, rng):
    """N pairs (z_i, w + sigma z_i) with z_i i.i.d. standard normal."""
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("parameter vector contains non-finite entries")
    Z = rng.gen.normal(size=(params.population, w.shape[0]))
    return [(Z[i], w + params.sigma * Z[i]) for i in range(params.population)]


def es_update_pairs(w, pairs, advantages, params):
    """The quoted update, vectorized: w + alpha/(N sigma) sum A_i z_i."""
    A = np.asarray(advantages, dtype=float)
    if len(pairs) != A.shape[0]:
        raise ValueError(f"{len(pairs)} pairs but {A.shape[0]} advantages")
    Z = np.stack([z for z, _ in pairs])
    step = (params.alpha / (params.population * params.sigma)) * (A @ Z)
    return np.asarray(w, dtype=float) + step


def run_es_per_candidate(target, params, mode, rng, trial_id=0, objective="swap"):
    """run_es with one decode and one reading per (z_i, w_i) pair."""
    from swapfit.evolution import EpochLog, score_candidate, standardized_advantages

    n = target.n_qubits
    rep = params.representation
    log = EpochLog(params.thresholds, stop_at=max(params.thresholds))
    w = rng.gen.normal(size=rep.param_length(n))
    for epoch in range(1, params.max_iters + 1):
        try:
            state_w = rep.decode(w, n)
            f_w = score_candidate(state_w, target.state, mode, rng, objective)
        except Exception as exc:
            raise RuntimeError(f"fidelity evaluation failed at epoch {epoch}") from exc
        log.readings += 1
        if log.record(epoch, f_w, state_w):
            break
        pairs = perturb_population_pairs(w, params, rng)
        fids = []
        for z_i, w_i in pairs:
            try:
                cand = rep.decode(w_i, n)
                fids.append(score_candidate(cand, target.state, mode, rng, objective))
            except Exception as exc:
                raise RuntimeError(
                    f"population evaluation failed at epoch {epoch}"
                ) from exc
            log.readings += 1
        A = standardized_advantages(fids, params.advantage_epsilon)
        w = es_update_pairs(w, pairs, A, params)
    return log.best_state, log.finish(target, rep, mode, rng, trial_id)


def fd_gradient_per_probe(loss_at, raw, fd_epsilon):
    """Symmetric finite differences: exactly 2*dim loss evaluations."""
    if fd_epsilon <= 0.0:
        raise ValueError("fd_epsilon must be positive")
    raw = np.asarray(raw, dtype=float)
    g = np.zeros_like(raw)
    for k in range(raw.shape[0]):
        probe = raw.copy()
        probe[k] = raw[k] + fd_epsilon
        up = loss_at(probe)
        probe[k] = raw[k] - fd_epsilon
        down = loss_at(probe)
        if not (np.isfinite(up) and np.isfinite(down)):
            raise ValueError(f"non-finite loss at coordinate {k}: {up}, {down}")
        g[k] = (up - down) / (2.0 * fd_epsilon)
    return g
