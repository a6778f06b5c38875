import math

import numpy as np
import pytest

from vtqg.circuit import (
    Circuit,
    classically_controlled,
    cnot,
    h,
    measure_z,
    reset,
    rx,
    rz,
    rzx,
    rzz,
    swap,
    sx,
    x,
)
from vtqg.errors import InvalidCircuitError, ResourceLimitError, StatevectorModeError
from vtqg.sim import (
    DensityMatrix,
    PauliObservable,
    StateVector,
    circuit_unitary,
    expectation,
    run_density,
    run_statevector,
    sample_shots,
    write_shots_csv,
)

import oracles


def random_unitary_circuit(n, depth, rng):
    one_q = [h, sx, x, lambda q, t: rx(t, q), lambda q, t: rz(t, q)]
    two_q = [cnot, swap, lambda a, b, t: rzz(t, a, b), lambda a, b, t: rzx(t, a, b)]
    gates = []
    for _ in range(depth):
        theta = float(rng.uniform(-math.pi, math.pi))
        if n < 2 or rng.random() < 0.6:
            maker = one_q[rng.integers(len(one_q))]
            q = int(rng.integers(n))
            gates.append(maker(q, theta) if maker not in (h, sx, x) else maker(q))
        else:
            maker = two_q[rng.integers(len(two_q))]
            a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
            gates.append(maker(a, b, theta) if maker not in (cnot, swap) else maker(a, b))
    return Circuit(n, 0, tuple(gates))


class TestStatevector:
    def test_empty_circuit(self):
        psi = run_statevector(Circuit(1))
        assert np.allclose(psi.amps, [1, 0])

    def test_hadamard(self):
        psi = run_statevector(Circuit(1, 0, (h(0),)))
        assert np.allclose(psi.amps, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_bell_state(self):
        psi = run_statevector(Circuit(2, 0, (h(0), cnot(0, 1))))
        s = 1 / math.sqrt(2)
        assert np.allclose(psi.amps, [s, 0, 0, s], atol=1e-12)

    def test_qubit_zero_is_most_significant(self):
        psi = run_statevector(Circuit(2, 0, (x(0),)))
        assert np.allclose(psi.amps, [0, 0, 1, 0])

    def test_rejects_nonunitary(self):
        for bad in (measure_z(0, 0), reset(0)):
            with pytest.raises(StatevectorModeError):
                run_statevector(Circuit(1, 1, (measure_z(0, 0),) if bad.clbit is not None else (bad,)))
        with pytest.raises(StatevectorModeError):
            run_statevector(Circuit(2, 1, (measure_z(0, 0), classically_controlled(x(1), 0))))

    def test_norm_preserved_on_random_circuits(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = random_unitary_circuit(3, 12, rng)
            assert run_statevector(c).norm == pytest.approx(1.0, abs=1e-12)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            run_statevector(Circuit(5), max_qubits=4)

    def test_unitary_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            c = random_unitary_circuit(3, 8, rng)
            assert np.linalg.norm(circuit_unitary(c) - oracles.dense_unitary(c)) < 1e-10


class TestDensity:
    def test_matches_statevector_on_random_circuits(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            c = random_unitary_circuit(n, 10, rng)
            psi = run_statevector(c)
            rho = run_density(c)
            assert np.linalg.norm(rho.mat - np.outer(psi.amps, psi.amps.conj())) < 1e-10

    def test_reset_sends_one_to_zero(self):
        rho = run_density(Circuit(1, 0, (x(0), reset(0))))
        assert np.allclose(rho.mat, [[1, 0], [0, 0]], atol=1e-12)

    def test_reset_discards_entanglement(self):
        rho = run_density(Circuit(2, 0, (h(0), cnot(0, 1), reset(0))))
        # qubit 0 back to |0>, qubit 1 left maximally mixed
        expected = np.diag([0.5, 0.5, 0, 0])
        assert np.allclose(rho.mat, expected, atol=1e-12)

    def test_measurement_dephases(self):
        rho = run_density(Circuit(1, 1, (h(0), measure_z(0, 0))))
        assert np.allclose(rho.mat, [[0.5, 0], [0, 0.5]], atol=1e-12)

    def test_trace_preserved_with_instruments(self):
        c = Circuit(2, 1, (h(0), cnot(0, 1), measure_z(0, 0), reset(1), classically_controlled(x(1), 0)))
        rho = run_density(c)
        assert rho.trace == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(rho.mat - rho.mat.conj().T) < 1e-10
        assert min(np.linalg.eigvalsh(rho.mat)) > -1e-10

    def test_feedback_corrects_measured_qubit(self):
        # measure a superposition, feed the bit forward into an X on another wire
        c = Circuit(2, 1, (h(0), measure_z(0, 0), classically_controlled(x(1), 0)))
        rho = run_density(c)
        # branches: (0 measured, qubit1 stays |0>) and (1 measured, qubit1 flipped)
        expected = np.diag([0.5, 0, 0, 0.5])
        assert np.allclose(rho.mat, expected, atol=1e-12)

    def test_control_without_measurement_invalid(self):
        with pytest.raises(InvalidCircuitError):
            run_density(Circuit(2, 1, (classically_controlled(x(1), 0),)))

    def test_qubit_cap(self):
        with pytest.raises(ResourceLimitError):
            run_density(Circuit(11))

    def test_initial_state_continuation(self):
        first = run_density(Circuit(2, 0, (h(0),)))
        second = run_density(Circuit(2, 0, (cnot(0, 1),)), initial=first)
        full = run_density(Circuit(2, 0, (h(0), cnot(0, 1))))
        assert np.linalg.norm(second.mat - full.mat) < 1e-12


class TestExpectation:
    def test_z_on_zero(self):
        assert expectation(StateVector.zero(1), PauliObservable.single(1, 0, "Z")) == pytest.approx(1.0)

    def test_x_on_plus(self):
        psi = run_statevector(Circuit(1, 0, (h(0),)))
        assert expectation(psi, PauliObservable.single(1, 0, "X")) == pytest.approx(1.0, abs=1e-12)

    def test_zz_on_bell(self):
        psi = run_statevector(Circuit(2, 0, (h(0), cnot(0, 1))))
        assert expectation(psi, PauliObservable((("ZZ", 1.0),))) == pytest.approx(1.0, abs=1e-12)

    def test_y_expectation(self):
        # RX(pi/2)|0> has <Y> = -1
        psi = run_statevector(Circuit(1, 0, (rx(math.pi / 2, 0),)))
        assert expectation(psi, PauliObservable.single(1, 0, "Y")) == pytest.approx(-1.0, abs=1e-12)

    def test_density_and_vector_agree(self):
        rng = np.random.default_rng(11)
        c = random_unitary_circuit(3, 10, rng)
        psi = run_statevector(c)
        rho = run_density(c)
        for q in range(3):
            for p in "XYZ":
                obs = PauliObservable.single(3, q, p)
                assert expectation(psi, obs) == pytest.approx(expectation(rho, obs), abs=1e-10)

    def test_raw_trace_no_renormalization(self):
        rho = DensityMatrix(1, np.array([[3.0, 0], [0, 1.0]], dtype=complex))
        assert expectation(rho, PauliObservable.single(1, 0, "Z")) == pytest.approx(2.0)
        assert expectation(rho, PauliObservable((("I", 1.0),))) == pytest.approx(4.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(StateVector.zero(2), PauliObservable.single(1, 0, "Z"))

    def test_weighted_sum(self):
        psi = StateVector.zero(2)
        obs = PauliObservable((("ZI", 0.5), ("IZ", 0.25), ("ZZ", -1.0)))
        assert expectation(psi, obs) == pytest.approx(0.5 + 0.25 - 1.0)


class TestSampling:
    def test_zero_state_all_zero(self):
        out = sample_shots(Circuit(1), 200, seed=0)
        assert all(o.bits == (0,) for o in out)
        assert all(o.sign == 1 for o in out)

    def test_bell_correlations(self):
        c = Circuit(2, 0, (h(0), cnot(0, 1)))
        out = sample_shots(c, 500, seed=1)
        assert {o.bits for o in out} <= {(0, 0), (1, 1)}

    def test_plus_state_mean_within_binomial_bounds(self):
        out = sample_shots(Circuit(1, 0, (h(0),)), 100_000, seed=2)
        mean = np.mean([o.bits[0] for o in out])
        assert abs(mean - 0.5) < 5 * 0.5 / math.sqrt(100_000)

    def test_bit_identical_reproducibility(self):
        c = Circuit(2, 1, (h(0), measure_z(0, 0), classically_controlled(x(1), 0), h(1)))
        a = sample_shots(c, 300, seed=9)
        b = sample_shots(c, 300, seed=9)
        assert a == b
        assert a != sample_shots(c, 300, seed=10)

    def test_shot_prefix_stable_in_n_shots(self):
        c = Circuit(1, 0, (h(0),))
        assert sample_shots(c, 50, seed=3) == sample_shots(c, 80, seed=3)[:50]

    def test_x_basis_measurement(self):
        out = sample_shots(Circuit(1, 0, (h(0),)), 300, seed=4, basis="X")
        assert all(o.bits == (0,) for o in out)  # |+> is the X=+1 eigenstate

    def test_y_basis_measurement(self):
        # RX(-pi/2)|0> = (|0> + i|1>)/sqrt(2), the Y=+1 eigenstate
        out = sample_shots(Circuit(1, 0, (rx(-math.pi / 2, 0),)), 300, seed=5, basis="Y")
        assert all(o.bits == (0,) for o in out)

    def test_sampling_consistency_with_exact_expectations(self):
        rng = np.random.default_rng(12)
        shots = 100_000
        for _ in range(3):
            c = random_unitary_circuit(3, 8, rng)
            psi = run_statevector(c)
            for pauli in "XYZ":
                out = sample_shots(c, shots, seed=13, basis=pauli * 3)
                for q in range(3):
                    exact = expectation(psi, PauliObservable.single(3, q, pauli))
                    vals = np.array([1 - 2 * o.bits[q] for o in out], dtype=float)
                    se = max(vals.std() / math.sqrt(shots), 1e-6)
                    assert abs(vals.mean() - exact) < 4 * se

    def test_signed_measurement_accumulates_sign(self):
        c = Circuit(1, 1, (x(0), measure_z(0, 0, signed=True)))
        out = sample_shots(c, 50, seed=6)
        assert all(o.sign == -1 and o.clbits == (1,) for o in out)
        c2 = Circuit(1, 1, (measure_z(0, 0, signed=True),))
        assert all(o.sign == 1 for o in sample_shots(c2, 50, seed=7))

    def test_signed_mean_realizes_projector_difference(self):
        # E[sign * Z_after] on |+> with a signed mid-circuit measurement recovers
        # Tr[Z (P0 rho P0 - P1 rho P1)] = 1 for rho = |+><+|
        c = Circuit(1, 1, (h(0), measure_z(0, 0, signed=True)))
        out = sample_shots(c, 20_000, seed=8)
        est = np.mean([o.sign * (1 - 2 * o.bits[0]) for o in out])
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_reset_and_feedback_trajectory(self):
        # prepare |1>, measure (bit=1), reset, conditionally flip back on
        c = Circuit(1, 1, (x(0), measure_z(0, 0), reset(0), classically_controlled(x(0), 0)))
        out = sample_shots(c, 100, seed=14)
        assert all(o.bits == (1,) and o.clbits == (1,) for o in out)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            sample_shots(Circuit(1), 10, seed=-1)
        with pytest.raises(ValueError):
            sample_shots(Circuit(1), 0, seed=1)

    def test_basis_validation(self):
        with pytest.raises(ValueError):
            sample_shots(Circuit(2), 10, seed=0, basis="XQ")
        with pytest.raises(ValueError):
            sample_shots(Circuit(2), 10, seed=0, basis="X")

    def test_shots_csv(self, tmp_path):
        path = tmp_path / "shots.csv"
        out = sample_shots(Circuit(2, 0, (x(1),)), 3, seed=0)
        write_shots_csv(out, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "shot_index,bits,sign"
        assert lines[1] == "0,01,1"
        assert len(lines) == 4
