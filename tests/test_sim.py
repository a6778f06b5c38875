import hashlib
import itertools
import math
import tracemalloc

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
from vtqg import sim
from vtqg.noise import NoiseModel
from vtqg.sim import (
    _BLOCK_AMPLITUDES,
    _Branch,
    _evolve_branches,
    DensityMatrix,
    PauliObservable,
    Shots,
    StateVector,
    circuit_unitary,
    depolarize_tensor,
    expectation,
    expectations,
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

    def test_single_rejects_bad_qubit_or_letter(self):
        for qubit, pauli in ((7, "Z"), (4, "Z"), (-1, "Z"), (1, "XY"), (1, "I"), (1, "")):
            with pytest.raises(ValueError):
                PauliObservable.single(4, qubit, pauli)

    def test_batched_equals_one_at_a_time(self):
        # density values are bit-identical; statevector ones come from the Gram marginal
        rng = np.random.default_rng(5)
        c = random_unitary_circuit(4, 14, rng)
        obs = [PauliObservable.single(4, q, p) for p in "XYZ" for q in range(4)]
        obs += [PauliObservable((("IZXI", 0.5), ("IIYI", -1.0))), PauliObservable((("IIII", 2.0),))]
        rho = run_density(c)
        assert expectations(rho, obs[:12]) == [expectation(rho, o) for o in obs[:12]]
        assert expectations(rho, obs) == pytest.approx([expectation(rho, o) for o in obs], abs=1e-14)
        psi = run_statevector(c)
        assert expectations(psi, obs) == pytest.approx([expectation(psi, o) for o in obs], abs=1e-14)
        with pytest.raises(ValueError):
            expectations(rho, [PauliObservable.single(3, 0, "Z")])


def pauli_on(n, qubit, mat):
    out = np.eye(1)
    for q in range(n):
        out = np.kron(out, mat if q == qubit else np.eye(2))
    return out


class TestDepolarizeKernel:
    @pytest.mark.parametrize("qubits", [(1,), (0, 2), (2, 0)])
    def test_matches_the_textbook_channel(self, qubits):
        # I/2^k (x) Tr_q rho is the uniform Pauli twirl on the qubits q
        rng = np.random.default_rng(17)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T)
        paulis = [sim._PAULI[ch] for ch in "IXYZ"]
        twirl = np.zeros_like(rho)
        for letters in itertools.product(paulis, repeat=len(qubits)):
            op = np.eye(8)
            for q, mat in zip(qubits, letters):
                op = op @ pauli_on(3, q, mat)
            twirl += op @ rho @ op.conj().T
        p = 0.3
        textbook = (1 - p) * rho + p * twirl / 4 ** len(qubits)
        before = rho.copy()
        out = depolarize_tensor(rho.reshape([2] * 6), qubits, p, 3).reshape(8, 8)
        assert np.max(np.abs(out - textbook)) < 1e-15
        assert np.array_equal(rho, before)


def same_shots(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("bits", "clbits", "sign"))


def prefix(shots, stop):
    return Shots(shots.bits[:stop], shots.clbits[:stop], shots.sign[:stop])


class TestSampling:
    def test_zero_state_all_zero(self):
        out = sample_shots(Circuit(1), 200, seed=0)
        assert np.all(out.bits == 0)
        assert np.all(out.sign == 1)

    def test_bell_correlations(self):
        c = Circuit(2, 0, (h(0), cnot(0, 1)))
        out = sample_shots(c, 500, seed=1)
        assert {tuple(b) for b in out.bits} <= {(0, 0), (1, 1)}

    def test_plus_state_mean_within_binomial_bounds(self):
        out = sample_shots(Circuit(1, 0, (h(0),)), 100_000, seed=2)
        mean = np.mean(out.bits[:, 0])
        assert abs(mean - 0.5) < 5 * 0.5 / math.sqrt(100_000)

    def test_bit_identical_reproducibility(self):
        c = Circuit(2, 1, (h(0), measure_z(0, 0), classically_controlled(x(1), 0), h(1)))
        a = sample_shots(c, 300, seed=9)
        b = sample_shots(c, 300, seed=9)
        assert same_shots(a, b)
        assert not same_shots(a, sample_shots(c, 300, seed=10))

    def test_shot_prefix_stable_in_n_shots(self):
        c = Circuit(1, 0, (h(0),))
        assert same_shots(sample_shots(c, 50, seed=3), prefix(sample_shots(c, 80, seed=3), 50))

    def test_x_basis_measurement(self):
        out = sample_shots(Circuit(1, 0, (h(0),)), 300, seed=4, basis="X")
        assert np.all(out.bits == 0)  # |+> is the X=+1 eigenstate

    def test_y_basis_measurement(self):
        # RX(-pi/2)|0> = (|0> + i|1>)/sqrt(2), the Y=+1 eigenstate
        out = sample_shots(Circuit(1, 0, (rx(-math.pi / 2, 0),)), 300, seed=5, basis="Y")
        assert np.all(out.bits == 0)

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
                    vals = 1.0 - 2.0 * out.bits[:, q]
                    se = max(vals.std() / math.sqrt(shots), 1e-6)
                    assert abs(vals.mean() - exact) < 4 * se

    def test_signed_measurement_accumulates_sign(self):
        c = Circuit(1, 1, (x(0), measure_z(0, 0, signed=True)))
        out = sample_shots(c, 50, seed=6)
        assert np.all(out.sign == -1) and np.all(out.clbits == 1) and out.clbits.shape == (50, 1)
        c2 = Circuit(1, 1, (measure_z(0, 0, signed=True),))
        assert np.all(sample_shots(c2, 50, seed=7).sign == 1)

    def test_signed_mean_realizes_projector_difference(self):
        # E[sign * Z_after] on |+> with a signed mid-circuit measurement recovers
        # Tr[Z (P0 rho P0 - P1 rho P1)] = 1 for rho = |+><+|
        c = Circuit(1, 1, (h(0), measure_z(0, 0, signed=True)))
        out = sample_shots(c, 20_000, seed=8)
        est = np.mean(out.sign * (1 - 2 * out.bits[:, 0].astype(int)))
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_reset_and_feedback_trajectory(self):
        # prepare |1>, measure (bit=1), reset, conditionally flip back on
        c = Circuit(1, 1, (x(0), measure_z(0, 0), reset(0), classically_controlled(x(0), 0)))
        out = sample_shots(c, 100, seed=14)
        assert np.all(out.bits == 1) and np.all(out.clbits == 1)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            sample_shots(Circuit(1), 10, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            sample_shots(Circuit(1), 10, seed=True)
        with pytest.raises(ValueError):
            sample_shots(Circuit(1), 0, seed=1)
        c = Circuit(2, 1, (h(0), measure_z(0, 0), classically_controlled(x(1), 0), h(1)))
        assert same_shots(sample_shots(c, 300, seed=np.int64(3)), sample_shots(c, 300, seed=3))

    def test_statevector_cap(self):
        with pytest.raises(ResourceLimitError, match="statevector cap"):
            sample_shots(Circuit(17), 1, seed=0)

    def test_non_integer_shot_count_rejected(self):
        for bad in (2.5, 3.0, "4", True):
            with pytest.raises(ValueError, match="n_shots"):
                sample_shots(Circuit(1), bad, seed=0)
        assert sample_shots(Circuit(1), np.int64(3), seed=0).bits.shape == (3, 1)

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


# Strong enough that every noise event, reset error and readout flip shows up
# in a 2e5-shot histogram.
LAW_NOISE = NoiseModel(p1=0.05, p2=0.1, reset_error=0.08, readout_flip=0.15)


def feedback_circuit(n):
    """Signed measurement, reset and classical feedback on qubits 0..2, plus a tail on the rest."""
    gates = [h(0), rx(0.7, 1), cnot(0, 1), measure_z(0, 0, signed=True), rzz(0.9, 1, 2), reset(0),
             classically_controlled(x(2), 0), rx(1.1, 0), measure_z(1, 1, signed=True),
             classically_controlled(rzx(0.6, 1, 2), 1), sx(2)]
    gates += [g for q in range(3, n) for g in (rx(0.3 * q, q), cnot(q - 1, q))]
    return Circuit(n, 2, tuple(gates))


def exact_outcome_law(circuit, basis, noise):
    """P(clbits, sign, observed terminal bits) from the density-matrix branches."""
    n = circuit.n_qubits
    rotate = {"X": [h], "Y": [lambda q: rz(-math.pi / 2, q), h], "Z": []}
    rotations = [make(q) for q, ch in enumerate(basis) for make in rotate[ch]]
    rho0 = np.zeros([2] * (2 * n), dtype=complex)
    rho0[(0,) * (2 * n)] = 1.0
    branches = _evolve_branches([_Branch(rho0, [0] * circuit.n_clbits, 1)], circuit.gates, noise, n)
    branches = _evolve_branches(branches, rotations, None, n)
    flip = np.array([[1 - noise.readout_flip, noise.readout_flip],
                     [noise.readout_flip, 1 - noise.readout_flip]])
    law = {}
    for br in branches:
        probs = np.real(np.diagonal(br.rho.reshape(2**n, 2**n))).reshape([2] * n)
        for q in range(n):
            probs = np.moveaxis(np.tensordot(flip, probs, axes=([1], [q])), 0, q)
        key = (tuple(br.clbits), br.sign)
        law[key] = law.get(key, 0.0) + probs.reshape(-1)
    return law


class TestSamplerLaw:
    def test_joint_histogram_matches_exact_branches(self):
        from scipy.stats import chi2

        circuit, basis, shots = feedback_circuit(3), "XZY", 200_000
        law = exact_outcome_law(circuit, basis, LAW_NOISE)
        assert sum(p.sum() for p in law.values()) == pytest.approx(1.0, abs=1e-12)
        out = sample_shots(circuit, shots, seed=31, basis=basis, noise=LAW_NOISE)
        index = out.bits.astype(int) @ (1 << np.arange(2, -1, -1))
        observed, expected = [], []
        for (clbits, sign), probs in law.items():
            rows = np.all(out.clbits == clbits, axis=1) & (out.sign == sign)
            observed.extend(np.bincount(index[rows], minlength=8))
            expected.extend(shots * probs)
        observed, expected = np.array(observed), np.array(expected)
        assert observed.sum() == shots  # no shot outside the exact support of (clbits, sign)
        assert np.all(observed[expected < 1e-9] == 0)
        small = expected < 5  # pooled into one cell
        obs = np.append(observed[~small], observed[small].sum()) if small.any() else observed
        exp = np.append(expected[~small], expected[small].sum()) if small.any() else expected
        stat = float(np.sum((obs - exp) ** 2 / exp))
        assert chi2.sf(stat, len(obs) - 1) > 1e-3, (stat, len(obs))

    def test_runs_spanning_blocks_match_the_prefix_of_a_longer_run(self, monkeypatch):
        n = 10
        block = _BLOCK_AMPLITUDES >> (n + 1)  # shots per block: amplitudes plus a draw table as wide
        c = feedback_circuit(n)
        basis = "XYZ" + "Z" * (n - 3)
        short = sample_shots(c, block + 7, seed=17, basis=basis, noise=LAW_NOISE)
        longer = sample_shots(c, 3 * block + 5, seed=17, basis=basis, noise=LAW_NOISE)
        assert same_shots(short, prefix(longer, block + 7))
        assert len(set(map(tuple, short.bits))) > 100
        # a different split into blocks leaves every shot as it was
        monkeypatch.setattr(sim, "_BLOCK_AMPLITUDES", _BLOCK_AMPLITUDES // 3)
        assert same_shots(sample_shots(c, 3 * block + 5, seed=17, basis=basis, noise=LAW_NOISE), longer)


def pinned_circuit():
    """feedback_circuit(5) plus distant and descending two-qubit gates."""
    tail = (cnot(4, 2), rzx(0.4, 3, 2), swap(0, 4), rx(0.2, 4), h(3))
    return Circuit(5, 2, feedback_circuit(5).gates + tail)


def shots_digest(shots):
    digest = hashlib.sha256()
    for column in (shots.bits, shots.clbits, shots.sign):
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()[:16]


# sha256 prefixes of (bits, clbits, sign), recorded with the gate-by-gate
# sampler that drew each uniform when its gate ran: drawing them as a table
# must leave every shot as it was.
PINNED_DIGESTS = {
    ("ZZZZZ", 0): "24d6288a2bf34760",
    ("ZZZZZ", 1): "d3e90403a6fdabd7",
    ("ZZZZZ", 2): "3a0df96bcc0c24e1",
    ("XXXXX", 0): "8c7674e17eb36e93",
    ("XXXXX", 1): "8fe894701473fa53",
    ("XXXXX", 2): "727dd91428be7294",
    ("XZYXZ", 0): "0f4768a06fb6cdc2",
    ("XZYXZ", 1): "0babcf72f99fe80b",
    ("XZYXZ", 2): "d4bfeaeaac9bc764",
}


class TestSamplerPinned:
    @pytest.mark.parametrize("basis, seed", sorted(PINNED_DIGESTS))
    def test_shots_match_the_recorded_digest(self, basis, seed):
        out = sample_shots(pinned_circuit(), 500, seed=seed, basis=basis, noise=LAW_NOISE)
        assert shots_digest(out) == PINNED_DIGESTS[basis, seed]

    def test_shots_across_block_boundaries_match_the_recorded_digest(self, monkeypatch):
        monkeypatch.setattr(sim, "_BLOCK_AMPLITUDES", 1 << 10)  # blocks of a few dozen shots
        out = sample_shots(pinned_circuit(), 300, seed=5, basis="XZYXZ", noise=LAW_NOISE)
        assert shots_digest(out) == "838419063a02820c"

    def test_memory_stays_bounded_by_the_block_budget(self, monkeypatch):
        gates = [g for i in range(50) for g in (rx(0.1 * i, 0), rz(0.2, 1), cnot(0, 1), rzz(0.3, 0, 1))]
        circuit = Circuit(2, 0, tuple(gates))
        noise = NoiseModel(p1=1e-4, p2=1e-4, readout_flip=0.01)
        tracemalloc.start()
        try:
            out = sample_shots(circuit, 300_000, seed=5, basis="XY", noise=noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        # 2^2 amplitudes and a 4-column draw table per shot: 1000-shot blocks
        monkeypatch.setattr(sim, "_BLOCK_AMPLITUDES", 1000 * (4 + 4))
        assert same_shots(sample_shots(circuit, 300_000, seed=5, basis="XY", noise=noise), out)
