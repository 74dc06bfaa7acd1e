"""Mixed-state and entanglement diagnostics."""

import itertools

import numpy as np
import pytest

import oracles
from oracles import run_circuit, sample_random_density
from swapfit.metrics import (
    EntropyReport,
    bipartite_entropy,
    hs_overlap,
    uhlmann_fidelity,
)
from swapfit.sim import DensityMatrix, GateOp, PureState, RngStream, zero_state
from swapfit.prep import sample_random_state


def bell_state():
    return run_circuit(zero_state(2), [GateOp.h(0), GateOp.cx(0, 1)])


def ghz_state(n_qubits=3):
    ops = [GateOp.h(0)] + [GateOp.cx(0, q) for q in range(1, n_qubits)]
    return run_circuit(zero_state(n_qubits), ops)


class TestEntropy:
    def test_pure_state_zero(self):
        """Across the cut between its factors, a product of random states
        leaves each side a pure reduced state: zero bits."""
        rng = RngStream(1)
        a, b = sample_random_state(1, rng), sample_random_state(2, rng)
        psi = PureState(3, np.kron(a.amplitudes, b.amplitudes))
        assert bipartite_entropy(psi, (0,)) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed(self):
        """Bell pairs on (0, 2) and (1, 3) leave qubits (0, 1) maximally
        mixed: the 2-bit ceiling of a two-qubit side."""
        ops = [GateOp.h(0), GateOp.cx(0, 2), GateOp.h(1), GateOp.cx(1, 3)]
        psi = run_circuit(zero_state(4), ops)
        assert bipartite_entropy(psi, (0, 1)) == pytest.approx(2.0, abs=1e-12)

    def test_bell_partition(self):
        assert bipartite_entropy(bell_state(), (0,)) == pytest.approx(1.0,
                                                                      abs=1e-9)

    def test_ghz_partition(self):
        ghz = ghz_state(3)
        assert bipartite_entropy(ghz, (0,)) == pytest.approx(1.0, abs=1e-9)
        assert bipartite_entropy(ghz, (0, 1)) == pytest.approx(1.0, abs=1e-9)

    def test_product_state_partition(self):
        assert bipartite_entropy(zero_state(3), (1,)) == pytest.approx(0.0,
                                                                       abs=1e-12)

    def test_partition_must_be_proper_subset(self):
        with pytest.raises(ValueError):
            bipartite_entropy(bell_state(), (0, 1))
        with pytest.raises(ValueError):
            bipartite_entropy(bell_state(), ())
        with pytest.raises(ValueError, match="proper subset"):
            bipartite_entropy(bell_state(), (2,))

    @pytest.mark.parametrize("n_qubits", [2, 3, 4, 5, 6])
    def test_against_dense_partial_trace(self, n_qubits):
        """The Schmidt probabilities give the entropy of the reduced density
        matrix, summed index by index, for every proper partition in both
        qubit orders."""
        amps = oracles.random_state_dense(n_qubits, np.random.default_rng(80 + n_qubits))
        psi, rho = PureState(n_qubits, amps), np.outer(amps, amps.conj())
        for k in range(1, n_qubits):
            for part in itertools.combinations(range(n_qubits), k):
                want = oracles.entropy_bits(oracles.partial_trace_dense(rho, n_qubits, part))
                for order in (part, part[::-1]):
                    assert abs(bipartite_entropy(psi, order) - want) <= 1e-12


class TestUhlmann:
    def test_identical_is_one(self):
        rho = sample_random_density(2, RngStream(3))
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_pure_pure_reduces_to_overlap(self):
        rng = RngStream(4)
        a, b = sample_random_state(2, rng), sample_random_state(2, rng)
        want = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
        got = uhlmann_fidelity(a.density(), b.density())
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_against_scipy_sqrtm(self):
        rng = RngStream(5)
        for _ in range(5):
            rho = sample_random_density(2, rng)
            sig = sample_random_density(2, rng)
            np.testing.assert_allclose(
                uhlmann_fidelity(rho, sig),
                oracles.uhlmann_scipy(rho.entries, sig.entries),
                atol=1e-8,
            )

    def test_maximally_mixed_pair(self):
        half = DensityMatrix(1, np.eye(2, dtype=complex) / 2)
        assert uhlmann_fidelity(half, half) == pytest.approx(1.0, abs=1e-12)


class TestOverlapAndDistance:
    def test_hs_overlap_formula(self):
        rng = RngStream(6)
        rho, sig = sample_random_density(2, rng), sample_random_density(2, rng)
        want = float(np.real(np.trace(rho.entries @ sig.entries)))
        np.testing.assert_allclose(hs_overlap(rho, sig), want, atol=1e-13)


class TestReport:
    def test_entropy_report_csv_row(self):
        rep = EntropyReport(circuit_id="bell", n_qubits=2, partition=(0,),
                            target_entropy=1.0, reconstructed_entropy=0.999)
        row = rep.csv_row()
        assert row.startswith("bell,2,0,")
        assert row.endswith(",bits")
        assert EntropyReport.CSV_HEADER.startswith("circuit_id,")
