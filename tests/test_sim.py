import functools
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
from vtqg import pauli, sim
from vtqg.noise import NoiseModel, depolarize
from vtqg.sim import (
    _BLOCK_AMPLITUDES,
    _Branch,
    _evolve_branches,
    DensityMatrix,
    FragmentRun,
    PauliObservable,
    Shots,
    StateVector,
    apply_gates_density,
    expectation,
    expectations,
    run_density,
    run_statevector,
    sample_fragments,
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
            run_statevector(Circuit(17))


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

    def test_gates_off_the_state_raise_naming_the_gate(self):
        state = DensityMatrix.zero(2)
        for gate, named in [(rx(0.7, -1), "RX"), (x(5), "X"), (cnot(0, 7), "CNOT"),
                            (measure_z(0, -1), "MEASURE_Z"), (classically_controlled(x(1), -2), "CLASSICALLY_CONTROLLED")]:
            with pytest.raises(ValueError, match=f"^{named} on"):
                apply_gates_density(state, [h(0), gate])

    def test_a_large_classical_bit_allocates_no_register_of_that_size(self):
        # the bits a call names are renumbered from 0, so bit 10^6 costs what bit 0 does
        state, expected = DensityMatrix.zero(1), apply_gates_density(DensityMatrix.zero(1), [h(0), measure_z(0, 0)])
        tracemalloc.start()
        try:
            out = apply_gates_density(state, [h(0), measure_z(0, 10**6), classically_controlled(x(0), 10**6)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        fed_back = apply_gates_density(state, [h(0), measure_z(0, 0), classically_controlled(x(0), 0)])
        assert np.array_equal(out.mat, fed_back.mat)
        big = apply_gates_density(state, [h(0), measure_z(0, 10**6)])
        assert np.array_equal(big.mat, expected.mat)

    def test_initial_state_continuation(self):
        first = run_density(Circuit(2, 0, (h(0),)))
        second = apply_gates_density(first, [cnot(0, 1)])
        full = run_density(Circuit(2, 0, (h(0), cnot(0, 1))))
        assert np.linalg.norm(second.mat - full.mat) < 1e-12


class TestNoisyDensityOracle:
    @pytest.mark.parametrize("pair", list(itertools.permutations(range(3), 2)))
    def test_random_circuits_match_the_dense_oracle(self, pair):
        # every gate kind on each ordered pair (descending and non-adjacent ones included), noise
        # on every gate and instrument, a signed measurement, feedback and a reset, interleaved
        # with random unitaries
        rng = np.random.default_rng(sum(q << (4 * i) for i, q in enumerate(pair)))
        a, b = pair
        c = 3 - a - b

        def angle():
            return float(rng.uniform(-math.pi, math.pi))

        skeleton = [h(a), sx(b), x(c), rx(angle(), a), rz(angle(), b), cnot(a, b), swap(a, b),
                    rzz(angle(), a, b), rzx(angle(), a, b, pet=True), rzx(angle(), b, c),
                    measure_z(a, 0, signed=True), classically_controlled(rzz(angle(), b, a), 0),
                    reset(b), rx(angle(), b), measure_z(c, 1), classically_controlled(rx(angle(), a), 1),
                    classically_controlled(cnot(c, a), 0), rzx(angle(), c, a)]
        filler = random_unitary_circuit(3, len(skeleton), rng).gates
        circuit = Circuit(3, 2, tuple(itertools.chain(*zip(filler, skeleton))))
        noise = NoiseModel(p1=0.02, p2=0.05, reset_error=0.03)
        expected = oracles.noisy_density(circuit, noise.strength_for)
        assert np.max(np.abs(run_density(circuit, noise).mat - expected)) < 1e-12


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
        for qubit, pauli in ((7, "Z"), (4, "Z"), (-1, "Z"), (1, "XY"), (1, "I"), (1, ""), (True, "Z"),
                             (1.0, "Z"), (0.5, "Z")):
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

    def test_mixed_supports_match_the_dense_oracle(self):
        # weighted multi-term observables on 0-4 of 4 wires, read in one call, on densities and vectors
        rng = np.random.default_rng(29)
        obs = []
        for k in (0, 1, 2, 3, 4) * 3:
            support = sorted(rng.choice(4, size=k, replace=False))
            strings = ["".join(rng.choice(list("IXYZ")) if q in support else "I" for q in range(4))
                       for _ in range(3)]
            strings.append("".join(rng.choice(list("XYZ")) if q in support else "I" for q in range(4)))
            obs.append(PauliObservable(tuple((s, float(rng.normal())) for s in strings)))
        rng.shuffle(obs)
        for _ in range(3):
            rho = oracles.random_density(4, rng)
            psi = rng.normal(size=16) + 1j * rng.normal(size=16)
            psi /= np.linalg.norm(psi)
            for dense, state in ((rho, DensityMatrix(4, rho)), (psi, StateVector(4, psi))):
                values = expectations(state, obs)
                expected = [sum(w * oracles.pauli_expectation(dense, s) for s, w in o.terms) for o in obs]
                assert np.max(np.abs(np.array(values) - expected)) < 1e-12
                assert values == [expectation(state, o) for o in obs]  # one call and one at a time agree bit for bit

    def test_reads_match_the_oracle_at_every_width(self):
        # densities at n = 1-10 and vectors at n = 1-12; identity-only and Y-heavy strings, and strings
        # repeated within and across observables, all read in one call
        rng = np.random.default_rng(37)
        for n in range(1, 13):
            pool = ["I" * n, "Y" * n] + ["".join(rng.choice(list(letters), size=n)) for letters in ("YYYX", "YYZI")]
            pool += ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(6)]
            obs = [PauliObservable((("I" * n, 0.5),))]
            obs += [PauliObservable(tuple((pool[j], float(rng.normal())) for j in rng.choice(len(pool), size=3)))
                    for _ in range(8)]
            psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            states = [(psi / np.linalg.norm(psi), StateVector)]
            if n <= 10:
                states.append((oracles.random_density(n, rng), DensityMatrix))
            for dense, kind in states:
                values = expectations(kind(n, dense), obs)
                expected = [sum(w * oracles.pauli_expectation(dense, s) for s, w in o.terms) for o in obs]
                assert np.max(np.abs(np.subtract(values, expected))) < 1e-13, (n, kind.__name__)

    def test_an_11_qubit_string_reads_in_bounded_memory(self):
        # a string on all 11 wires reads as any other: no 2^11 x 2^11 marginal is built
        rng = np.random.default_rng(31)
        psi = rng.normal(size=2**11) + 1j * rng.normal(size=2**11)
        psi /= np.linalg.norm(psi)
        strings = ("Z" * 11, "XYZXYZXYZXY")
        obs = [PauliObservable(((s, 1.0),)) for s in strings]
        tracemalloc.start()
        try:
            values = expectations(StateVector(11, psi), obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert values == pytest.approx([oracles.pauli_expectation(psi, s) for s in strings], abs=1e-13)

    def test_a_16_qubit_bloch_read_stays_within_the_block_budget(self):
        n = 16
        rng = np.random.default_rng(41)
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi /= np.linalg.norm(psi)
        state, obs = StateVector(n, psi), sim.bloch_observables(n)
        tracemalloc.start()
        try:
            values = expectations(state, obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(obs) == 48 and peak < 16 * 2**20
        for q in (0, 7, 8, 15):
            for j, letter in enumerate("XYZ"):
                string = "".join(letter if k == q else "I" for k in range(n))
                assert values[j * n + q] == pytest.approx(oracles.pauli_expectation(psi, string), abs=1e-13)

    def test_no_cached_reader_holds_more_than_a_mebibyte(self):
        rng = np.random.default_rng(43)
        for n in (8, 10, 12, 16):
            bloch = tuple(o.terms[0][0] for o in sim.bloch_observables(n))
            wide = tuple(dict.fromkeys("".join(rng.choice(list("IXYZ"), size=n)) for _ in range(pauli._READ_BLOCK)))
            for strings in (bloch, wide):
                for start in range(0, len(strings), pauli._READ_BLOCK):  # the blocks a read compiles
                    block = strings[start:start + pauli._READ_BLOCK]
                    for density in (False, True):
                        tables = [a for chunk in pauli._reader(block, n, density) for a in chunk]
                        assert sum(a.nbytes for a in tables) < 2**20, (n, start, density)

    def test_parity_needs_no_bit_count(self):
        v = np.arange(1 << 16)
        assert pauli._parity(v).tolist() == [bin(k).count("1") % 2 for k in range(1 << 16)]


def pauli_on(n, qubit, mat):
    out = np.eye(1)
    for q in range(n):
        out = np.kron(out, mat if q == qubit else np.eye(2))
    return out


class TestApplyMatrix:
    """The one kernel against plain kron embeddings of the same matrix."""

    # (0,) and (1, 2) take the (left, 2^k, right) view; (3,), (2, 3) (left > right) and the other pairs move axes
    @pytest.mark.parametrize("axes, columns", [((0,), 2), ((3,), 2), ((1, 2), 3), ((2, 3), 1), ((2, 1), 3),
                                               ((0, 3), 2), ((3, 0), 1)])
    def test_matches_the_kron_embedding_on_a_block(self, axes, columns):
        n, k = 4, len(axes)
        rng = np.random.default_rng(sum(axes) + 10 * columns)
        mat = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        block = rng.normal(size=[2] * n + [columns]) + 1j * rng.normal(size=[2] * n + [columns])
        before = block.copy()
        dense = oracles.kron_at(mat, axes[0], n) if k == 1 else oracles.kron_two(mat, *axes, n)
        out = sim._apply_matrix(block, mat, axes)
        assert out.shape == block.shape
        assert np.max(np.abs(out.reshape(2**n, columns) - dense @ block.reshape(2**n, columns))) < 1e-13
        assert np.array_equal(block, before)

    @pytest.mark.parametrize("n, qubits", [(1, (0,)), (2, (0, 1)), (3, (1,)), (3, (0, 2)), (3, (2, 0))])
    def test_superop_conjugates_rows_and_columns(self, n, qubits):
        k = len(qubits)
        rng = np.random.default_rng(7 * n + sum(qubits))
        u = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        rho = oracles.random_density(n, rng)
        dense = oracles.kron_at(u, qubits[0], n) if k == 1 else oracles.kron_two(u, *qubits, n)
        axes, shape = [*qubits, *(n + q for q in qubits)], (2,) * (2 * n)  # the row axes, then the column axes
        out = sim._matrix_kernel(np.kron(u, u.conj()), axes, shape)(rho.reshape(shape))
        assert np.max(np.abs(out.reshape(2**n, 2**n) - dense @ rho @ dense.conj().T)) < 1e-13

    # a density tensor [2]*6 and a block [2]*4 + [3]; stacked: the (left, 2^k, right) view, else the transposes
    @pytest.mark.parametrize("shape, axes, stacked", [
        ((2,) * 6, (0,), True), ((2,) * 6, (2, 3), True), ((2,) * 6, (5,), False), ((2,) * 6, (4, 5), False),
        ((2,) * 6, (3, 1), False), ((2,) * 6, (0, 4), False),
        ((2,) * 4 + (3,), (1,), True), ((2,) * 4 + (3,), (0, 1), True), ((2,) * 4 + (3,), (3,), False),
        ((2,) * 4 + (3,), (2, 3), False), ((2,) * 4 + (3,), (2, 0), False), ((2,) * 4 + (3,), (1, 3), False)])
    def test_kernel_matches_an_einsum_and_the_one_shot_call(self, shape, axes, stacked):
        k, d = len(axes), len(shape)
        rng = np.random.default_rng(d + 10 * sum(axes) + 100 * k)
        mat = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        before = tensor.copy()
        summed = list(range(d, d + k))  # the input index of each acted-on axis
        inputs = [summed[axes.index(a)] if a in axes else a for a in range(d)]
        expected = np.einsum(mat.reshape([2] * (2 * k)), [*axes, *summed], tensor, inputs, list(range(d)))
        kernel = sim._matrix_kernel(mat, axes, shape)
        out = kernel(tensor)
        assert out.shape == shape and out.flags.c_contiguous == stacked
        assert np.max(np.abs(out - expected)) < 1e-12
        assert np.array_equal(kernel(tensor), sim._apply_matrix(tensor, mat, axes))
        assert np.array_equal(tensor, before)

    def test_a_compiled_program_runs_twice_to_the_same_bits(self):
        # signed measurements, a reset and feedback: both outcome kernels and the controlled path
        circuit = pinned_circuit()
        rng = np.random.default_rng(23)
        state = DensityMatrix(5, oracles.random_density(5, rng))
        before = state.mat.copy()
        steps = sim._compile(circuit.gates, LAW_NOISE, 5)
        first, second = sim._evolve(state, steps, None), sim._evolve(state, steps, None)
        assert first.mat.tobytes() == second.mat.tobytes()
        assert first.mat.tobytes() == sim._evolve(state, circuit.gates, LAW_NOISE).mat.tobytes()
        assert np.array_equal(state.mat, before)  # no kernel writes to its input


class TestDepolarizeKernel:
    @pytest.mark.parametrize("qubits", [(1,), (0, 2), (2, 0)])
    def test_matches_the_textbook_channel(self, qubits):
        # I/2^k (x) Tr_q rho is the uniform Pauli twirl on the qubits q
        rng = np.random.default_rng(17)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T)
        paulis = [oracles.I2, oracles.X, oracles.Y, oracles.Z]
        twirl = np.zeros_like(rho)
        for letters in itertools.product(paulis, repeat=len(qubits)):
            op = np.eye(8)
            for q, mat in zip(qubits, letters):
                op = op @ pauli_on(3, q, mat)
            twirl += op @ rho @ op.conj().T
        p = 0.3
        textbook = (1 - p) * rho + p * twirl / 4 ** len(qubits)
        before = rho.copy()
        out = depolarize(DensityMatrix(3, rho), qubits, p).mat
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

    def test_a_zero_low_seed_word_does_not_alias_the_shorter_seed(self):
        seeds = [1, 1 << 64, 5, 5 << 64, 5 << 128, 0, 1 << 63]
        assert len(np.unique(sim._seed_keys(seeds))) == len(seeds)
        c = Circuit(1, 0, (h(0),))
        assert not same_shots(sample_shots(c, 64, seed=1 << 64), sample_shots(c, 64, seed=1))

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


def random_density_circuit(n, depth, rng):
    """Random gates of every kind the density engine runs, on n qubits and two classical bits.

    At most three measurements, so a run holds at most eight branches.
    """
    unitaries = [lambda a, b, t: rx(t, a), lambda a, b, t: rz(t, a), lambda a, b, t: h(a)]
    if n > 1:
        unitaries += [lambda a, b, t: rzz(t, a, b), lambda a, b, t: rzx(t, a, b, pet=bool(rng.integers(2))),
                      lambda a, b, t: cnot(a, b), lambda a, b, t: swap(a, b)]
    gates, written = [], []
    for _ in range(depth):
        a, b = (int(v) for v in rng.permutation(n)[:2]) if n > 1 else (0, None)
        theta, clbit, roll = float(rng.uniform(-math.pi, math.pi)), int(rng.integers(2)), rng.random()
        if roll < 0.12 and len(written) < 3:
            gates.append(measure_z(a, clbit, signed=bool(rng.integers(2))))
            written.append(clbit)
        elif roll < 0.2:
            gates.append(reset(a))
        else:
            gate = unitaries[rng.integers(len(unitaries))](a, b, theta)
            controlled = roll < 0.3 and written  # feedback reads a bit measured earlier
            gates.append(classically_controlled(gate, written[clbit % len(written)]) if controlled else gate)
    return Circuit(n, 2, tuple(gates))


# sha256 prefixes of the raw bytes of run_density over 300 seeded random
# circuits (n = 1-5), recorded before the density engine ran compiled
# programs: compiling must not move a bit, not even the sign of a zero.
DENSITY_DIGESTS = {
    "none": "f85d9113a0e64abc",
    "default": "f750f37901e69b5a",
    "heavy": "d092276a3ad067d8",
}
DENSITY_NOISE = {"none": None, "default": NoiseModel(), "heavy": LAW_NOISE}


class TestDensityPinned:
    @pytest.mark.parametrize("name", sorted(DENSITY_DIGESTS))
    def test_run_density_matches_the_recorded_digest(self, name):
        rng = np.random.default_rng(2024)
        digest = hashlib.sha256()
        for i in range(300):
            circuit = random_density_circuit(1 + i % 5, int(rng.integers(1, 16)), rng)
            digest.update(run_density(circuit, DENSITY_NOISE[name]).mat.tobytes())
        assert digest.hexdigest()[:16] == DENSITY_DIGESTS[name]


def keep_rule_fragment():
    """An enumerated n = 4 fragment with a keep rule, followed by classical control and a reset."""
    from vtqg.qpd import build_enumerated_fragments
    from vtqg.tfim import TfimParams, build_trotter_circuit

    build = build_trotter_circuit(TfimParams(n_qubits=4, h=0.786, J=0.787, dt=0.5, n_steps=1), "vtqg")
    frag = next(f for f in build_enumerated_fragments(build.circuit, build.cuts) if f.keep_rules)
    tail = (classically_controlled(rx(0.4, 2), 0), reset(3), h(3), classically_controlled(x(1), 0))
    return Circuit(4, frag.circuit.n_clbits, frag.circuit.gates + tail)


def empty_plan_cache(monkeypatch):
    """An empty `sim._pass_plan` cache for one test, so a spy on what a plan builds sees every build.

    The process-wide cache comes back after the test, without the plans compiled under the spy.
    """
    monkeypatch.setattr(sim, "_pass_plan", functools.lru_cache(maxsize=64)(sim._pass_plan.__wrapped__))


def column_log(monkeypatch):
    """(gate index, columns in the block) at every unitary gate the sampler applies."""
    empty_plan_cache(monkeypatch)
    log = []
    real = sim._shot_kernels

    def watch(i, kernel):
        def run(psi):
            log.append((i, psi.shape[-1]))
            return kernel(psi)
        return None if kernel is None else run

    monkeypatch.setattr(sim, "_shot_kernels", lambda circuit: [watch(i, k) for i, k in enumerate(real(circuit))])
    return log


def sample_pairs(circuit, n_shots, seeds, bases, noise=None):
    """One `Shots` per (seed, basis) pair of one circuit, from a one-run `sample_fragments` pass."""
    return next(sample_fragments(circuit, (), [FragmentRun((), n_shots, seeds, bases)], noise))


def assert_matches_one_call_per_pair(circuit, n_shots, seeds, noise):
    n = circuit.n_qubits
    bases = ["X" * n, "Y" * n, "Z" * n, ("XZY" * n)[:n]][:len(seeds)]
    out = sample_pairs(circuit, n_shots, seeds, bases, noise)
    assert len(out) == len(seeds)
    for shots, seed, basis in zip(out, seeds, bases):
        assert same_shots(shots, sample_shots(circuit, n_shots, seed, basis=basis, noise=noise)), (seed, basis)


class TestSampleBases:
    """Several (seed, basis) pairs of one circuit, sampled in one `sample_fragments` run."""

    @pytest.mark.parametrize("noise", [None, NoiseModel(), NoiseModel(p2=0.3, reset_error=0.05, readout_flip=0.1)],
                             ids=["noiseless", "default", "heavy"])
    def test_equals_one_sample_shots_call_per_pair(self, noise):
        assert_matches_one_call_per_pair(pinned_circuit(), 400, [11, 12, 13, 11], noise)

    def test_enumerated_fragment_with_keep_rules_and_classical_control(self):
        circuit = keep_rule_fragment()
        noise = NoiseModel(p2=0.3, reset_error=0.05, readout_flip=0.1)
        assert_matches_one_call_per_pair(circuit, 300, [5, 6, 7], noise)
        out = sample_pairs(circuit, 300, [5, 6, 7], ["XXXX", "YYYY", "ZZZZ"], noise)
        assert all(len(np.unique(o.clbits[:, 0])) == 2 for o in out)  # the keep rule sees both outcomes

    def test_runs_spanning_blocks(self, monkeypatch):
        circuit, noise, seeds = pinned_circuit(), NoiseModel(p2=0.3, reset_error=0.05, readout_flip=0.1), [4, 9, 2]
        bases = ["XXXXX", "YZXZY", "ZZZZZ"]
        whole = sample_pairs(circuit, 50, seeds, bases, noise)
        monkeypatch.setattr(sim, "_BLOCK_AMPLITUDES", 1 << 10)  # 16-shot blocks, which straddle the pairs
        assert 50 % (sim._BLOCK_AMPLITUDES >> 6)
        assert_matches_one_call_per_pair(circuit, 50, seeds, noise)
        for a, b in zip(sample_pairs(circuit, 50, seeds, bases, noise), whole):
            assert same_shots(a, b)

    def test_noiseless_block_keeps_one_column_until_its_first_measurement(self, monkeypatch):
        log = column_log(monkeypatch)
        circuit = pinned_circuit()
        first = next(i for i, g in enumerate(circuit.gates) if g.kind.value == "MEASURE_Z")
        sample_pairs(circuit, 200, [1, 2, 3], ["XXXXX", "YYYYY", "ZZZZZ"])
        assert [c for i, c in log if i < first] == [1] * first
        assert max(c for i, c in log if i > first) > 1  # the measurement split the shots by outcome

    def test_block_never_holds_more_columns_than_shots(self, monkeypatch):
        log = column_log(monkeypatch)
        monkeypatch.setattr(sim, "_BLOCK_AMPLITUDES", 1 << 10)  # 16-shot blocks at n = 5
        noise = NoiseModel(p1=0.3, p2=0.3, reset_error=0.3)
        sample_pairs(pinned_circuit(), 40, [1, 2, 3], ["XXXXX", "YYYYY", "ZZZZZ"], noise)
        columns = [c for _, c in log]
        assert max(columns) <= 16
        assert max(columns) > 8  # heavy noise sends most shots down histories of their own

    def test_gate_operators_are_built_once_per_key(self, monkeypatch):
        empty_plan_cache(monkeypatch)
        built = []
        real = sim.gate_matrix
        monkeypatch.setattr(sim, "gate_matrix", lambda g: built.append(g) or real(g))
        monkeypatch.setattr(sim, "_BLOCK_AMPLITUDES", 1 << 10)
        circuit = pinned_circuit()
        sample_pairs(circuit, 100, [1, 2, 3], ["XXXXX", "YYYYY", "ZZZZZ"], LAW_NOISE)
        dense = [g for g in circuit.gates if g.kind.value not in ("MEASURE_Z", "RESET", "RZ", "RZZ")]
        assert len(built) == len(dense)

    def test_validation(self):
        c = Circuit(2)
        with pytest.raises(ValueError, match="one seed per basis"):
            sample_pairs(c, 10, [1, 2], ["XX"])
        with pytest.raises(ValueError, match="one seed per basis"):
            sample_pairs(c, 10, [], [])
        with pytest.raises(ValueError, match="seed"):
            sample_pairs(c, 10, [1, -2], ["XX", "ZZ"])
        with pytest.raises(ValueError, match="basis"):
            sample_pairs(c, 10, [1, 2], ["XX", "XQ"])
        with pytest.raises(ValueError, match="n_shots"):
            sample_pairs(c, 0, [1], ["XX"])
        with pytest.raises(ResourceLimitError):
            sample_pairs(Circuit(17), 1, [0], ["Z" * 17])


class TestPassPlan:
    """`sample_fragments` compiles each (circuit, cuts, inserted gates, noise) key once per process."""

    def runs(self, fragments, seed):
        n = fragments[0].cut_circuit.n_qubits
        bases = ["X" * n, ("ZYX" * n)[:n], "Z" * n]
        return [FragmentRun(f.inserted, 9, [seed + 3 * k + j for j in range(3)], bases)
                for k, f in enumerate(fragments)]

    def test_one_key_compiles_once_for_every_seed(self, monkeypatch):
        circuit, positions, fragments = trotter_fragments("grouped", 1)
        noise = NoiseModel(p2=0.3, reset_error=0.05, readout_flip=0.1)
        fresh = {}
        for seed in (5, 500):
            empty_plan_cache(monkeypatch)
            fresh[seed] = list(sample_fragments(circuit, positions, self.runs(fragments, seed), noise))
        empty_plan_cache(monkeypatch)
        built = []
        real = sim.gate_matrix
        monkeypatch.setattr(sim, "gate_matrix", lambda g: built.append(g) or real(g))
        for seed in (5, 500):
            out = list(sample_fragments(circuit, positions, self.runs(fragments, seed), noise))
            for per_basis, expected in zip(out, fresh[seed], strict=True):
                assert all(same_shots(a, b) for a, b in zip(per_basis, expected, strict=True))
        assert len(built) == sum(g.kind.value in ("RX", "H", "RZX", "CNOT", "SWAP") for g in circuit.gates)
        info = sim._pass_plan.cache_info()
        assert info.misses == 1 and info.hits == 1

    def test_another_noise_model_or_other_inserted_gates_compile_a_new_plan(self, monkeypatch):
        empty_plan_cache(monkeypatch)
        circuit, positions, fragments = trotter_fragments("grouped", 1)
        runs = self.runs(fragments, 5)
        for noise, used in ((NoiseModel(), runs), (NoiseModel(p1=0.01), runs), (NoiseModel(), runs[1:]),
                            (NoiseModel(), runs), (None, runs), (NoiseModel(p1=0, p2=0), runs)):
            list(sample_fragments(circuit, positions, used, noise))
        info = sim._pass_plan.cache_info()
        assert info.misses == 4 and info.hits == 2  # a zero noise model is the noiseless key

    def test_the_arrays_of_a_cached_plan_are_not_writeable(self):
        circuit, positions, fragments = trotter_fragments("grouped", 1)
        plan = sim._pass_plan(circuit, tuple(positions), tuple(f.inserted for f in fragments), NoiseModel())
        for array in (plan.labels, plan.gate_index, sim._basis_rotation("XYZ")):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1

    def test_basis_rotations_turn_at_most_four_qubits_at_once(self, monkeypatch):
        shapes = []
        real = sim._basis_rotation.__wrapped__

        def spy(letters):
            shapes.append(real(letters).shape)
            return real(letters)

        monkeypatch.setattr(sim, "_basis_rotation", functools.lru_cache(maxsize=256)(spy))
        n = sim.STATEVECTOR_QUBIT_CAP
        shots = sample_shots(Circuit(n, 0, (h(0), rx(0.3, n - 1))), 1, seed=3, basis="XY" * (n // 2))
        assert shots.bits[0, 0] == 0  # H|0> read in the X basis
        assert shapes == [(16, 16)]  # four groups of "XYXY", one table


def trotter_fragments(strategy, steps):
    """The n = 4 vtqg ring, its cut positions and its fragments: one cut per Trotter step."""
    from vtqg.qpd import build_enumerated_fragments, build_grouped_fragments
    from vtqg.tfim import TfimParams, build_trotter_circuit

    build = build_trotter_circuit(TfimParams(n_qubits=4, h=0.786, J=0.787, dt=0.5, n_steps=steps), "vtqg")
    assert len(build.cuts) == steps
    builder = build_grouped_fragments if strategy == "grouped" else build_enumerated_fragments
    return build.circuit, sorted(c.position for c in build.cuts), builder(build.circuit, build.cuts)


def feedback_fragments():
    """Enumerated fragments of two cuts on a circuit whose gates measure, reset and read the bits
    the cuts' measurements write, with the circuit and its cut positions."""
    from vtqg.qpd import CutSite, build_enumerated_fragments

    circuit = feedback_circuit(4)
    return circuit, [3, 9], build_enumerated_fragments(circuit, [CutSite(3, 0, 2, 0.8), CutSite(9, 1, 3, -0.5)])


def fragment_runs(fragments, shots):
    """One run per fragment, shots[k] shots in each of three bases, with seeds of its own."""
    n = fragments[0].circuit.n_qubits
    bases = ["X" * n, "Y" * n, ("XZY" * n)[:n]]
    return [FragmentRun(f.inserted, shots[k], [40 + 3 * k + j for j in range(3)], bases)
            for k, f in enumerate(fragments)]


def assert_matches_one_call_per_fragment(circuit, positions, runs, fragment_circuits, noise):
    out = list(sample_fragments(circuit, positions, runs, noise))
    assert len(out) == len(runs)
    for run, own, per_basis in zip(runs, fragment_circuits, out):
        expected = sample_pairs(own, run.n_shots, run.seeds, run.bases, noise)
        assert len(per_basis) == len(expected)
        for got, want in zip(per_basis, expected):
            assert same_shots(got, want), run.inserted
    return out


MERGE_NOISE = [None, NoiseModel(), NoiseModel(p2=0.3, reset_error=0.05, readout_flip=0.1)]


def controlled_insertion_runs():
    """A 3-qubit circuit, its one cut, four fragments whose inserted gates mix classically controlled and
    plain gates, and each fragment's own circuit."""
    circuit = Circuit(3, 1, (h(0), measure_z(0, 0), rx(0.3, 1), rzz(0.2, 1, 2), rx(0.7, 2), cnot(1, 2)))
    inserted = [(classically_controlled(x(1), 0), rz(0.4, 2)), (rz(0.4, 1),), (),
                (classically_controlled(rx(0.9, 2), 0),)]
    bases = [["XZY", "ZZZ"], ["YXX", "ZYZ"]]
    runs = [FragmentRun((piece,), 30 + 17 * k, [3 * k + 1, 3 * k + 2], bases[k % 2])
            for k, piece in enumerate(inserted)]
    return circuit, [3], runs, [circuit.with_inserted(3, piece) for piece in inserted]


class TestSampleFragments:
    @pytest.mark.parametrize("noise", MERGE_NOISE, ids=["noiseless", "default", "heavy"])
    @pytest.mark.parametrize("strategy, steps", [("grouped", 1), ("grouped", 2), ("enumerated", 1),
                                                 ("enumerated", 2)])
    def test_equals_one_sample_bases_call_per_fragment(self, strategy, steps, noise):
        circuit, positions, fragments = trotter_fragments(strategy, steps)
        runs = fragment_runs(fragments, [1 + (7 * k) % 19 for k in range(len(fragments))])  # unequal counts
        out = assert_matches_one_call_per_fragment(circuit, positions, runs, [f.circuit for f in fragments], noise)
        if strategy == "enumerated":  # keep rules see both outcomes of a cut's plain measurement
            clbits = np.concatenate([o.clbits[:, 0] for per_basis, f in zip(out, fragments)
                                     if f.keep_rules for o in per_basis])
            assert len(np.unique(clbits)) == 2

    @pytest.mark.parametrize("noise", MERGE_NOISE, ids=["noiseless", "default", "heavy"])
    def test_shared_measurements_resets_and_feedback_after_the_cuts(self, noise):
        circuit, positions, fragments = feedback_fragments()
        assert len(fragments) == 100
        runs = fragment_runs(fragments, [6] * len(fragments))
        assert all(len(run.inserted) == 2 for run in runs)
        assert_matches_one_call_per_fragment(circuit, positions, runs, [f.circuit for f in fragments], noise)

    @pytest.mark.parametrize("noise", [None, NoiseModel(p1=0.2, p2=0.3, reset_error=0.1, readout_flip=0.1)],
                             ids=["noiseless", "noisy"])
    def test_inserted_classically_controlled_gates(self, noise):
        # a step that is both a fragment's own and classically controlled acts on one mask of columns
        for per_basis in assert_matches_one_call_per_fragment(*controlled_insertion_runs(), noise):
            for got in per_basis:
                assert len(np.unique(got.clbits[:, 0])) == 2  # the control reads both values

    def test_blocks_straddling_fragments(self, monkeypatch):
        (circuit, positions, fragments), noise = trotter_fragments("grouped", 2), MERGE_NOISE[2]
        runs = fragment_runs(fragments, [3 + (5 * k) % 11 for k in range(len(fragments))])
        whole = list(sample_fragments(circuit, positions, runs, noise))
        monkeypatch.setattr(sim, "_BLOCK_AMPLITUDES", 1 << 10)  # 32-shot blocks at n = 4
        assert any((3 * sum(r.n_shots for r in runs[:k])) % 32 for k in range(1, len(runs)))
        out = assert_matches_one_call_per_fragment(circuit, positions, runs, [f.circuit for f in fragments], noise)
        for per_basis, expected in zip(out, whole):
            assert all(same_shots(a, b) for a, b in zip(per_basis, expected))

    def test_shared_gates_run_once_for_every_fragment(self, monkeypatch):
        log = column_log(monkeypatch)
        circuit, positions, fragments = trotter_fragments("grouped", 1)
        list(sample_fragments(circuit, positions, fragment_runs(fragments, [50] * len(fragments))))
        inserted = {f.inserted[0] for f in fragments}
        unitary = sum(g.kind.value != "MEASURE_Z" for piece in inserted for g in piece)
        assert len(inserted) == 6 and len(log) == len(circuit.gates) + unitary
        assert max(c for _, c in log) >= 6  # after the cut, one kernel call holds every fragment's columns

    def test_block_never_holds_more_columns_than_shots(self, monkeypatch):
        log = column_log(monkeypatch)
        monkeypatch.setattr(sim, "_BLOCK_AMPLITUDES", 1 << 10)  # 32-shot blocks at n = 4
        circuit, positions, fragments = trotter_fragments("enumerated", 2)
        list(sample_fragments(circuit, positions, fragment_runs(fragments, [5] * len(fragments)),
                              NoiseModel(p1=0.3, p2=0.3, reset_error=0.3)))
        columns = [c for _, c in log]
        assert max(columns) <= 32
        assert max(columns) > 16

    def test_runs_are_handed_out_as_they_finish(self, monkeypatch):
        monkeypatch.setattr(sim, "_BLOCK_AMPLITUDES", 1 << 10)  # 32-shot blocks at n = 4
        blocks = []
        real = sim._sample_block
        monkeypatch.setattr(sim, "_sample_block", lambda *args: blocks.append(1) or real(*args))
        circuit, positions, fragments = trotter_fragments("grouped", 1)
        handed = sample_fragments(circuit, positions, fragment_runs(fragments, [8] * len(fragments)))  # 24 a run
        next(handed)
        assert len(blocks) == 1  # entries 0..23 are done after the first block
        next(handed)
        assert len(blocks) == 2  # entries 24..47 after the second

    def test_validation(self):
        circuit, positions, fragments = trotter_fragments("grouped", 1)
        runs = fragment_runs(fragments, [4] * len(fragments))
        with pytest.raises(ValueError, match="at least one fragment"):
            list(sample_fragments(circuit, positions, []))
        with pytest.raises(ValueError, match="one seed per basis"):
            list(sample_fragments(circuit, positions, [runs[0]._replace(seeds=[1])]))
        two = [run._replace(inserted=run.inserted * 2) for run in runs]
        for bad in ([positions[0], positions[0] - 1], [-1, positions[0]], [positions[0], len(circuit.gates) + 1]):
            with pytest.raises(ValueError, match="cut positions must ascend"):
                list(sample_fragments(circuit, bad, two))
        with pytest.raises(ValueError, match="one inserted gate sequence per cut, got 2 for 1"):
            list(sample_fragments(circuit, positions, [runs[0], two[1]]))
        with pytest.raises(ValueError, match="one inserted gate sequence per cut, got 1 for 0"):
            list(sample_fragments(circuit, [], runs[:1]))

    def test_a_fragment_reads_only_the_bits_it_writes(self):
        # a classically controlled gate may not read a bit that only another fragment's measurement writes
        circuit = Circuit(2, 0, (h(0), rx(0.3, 1)))
        writes = FragmentRun(((measure_z(0, 0),),), 4, [1], ["ZZ"])
        reads = FragmentRun(((classically_controlled(x(1), 0),),), 4, [2], ["ZZ"])
        with pytest.raises(InvalidCircuitError, match="no earlier measurement"):
            list(sample_fragments(circuit, [1], [writes, reads]))
        with pytest.raises(InvalidCircuitError, match="no earlier measurement"):
            list(sample_fragments(circuit, [1], [reads]))
        with pytest.raises(InvalidCircuitError, match="qubit 2 out of range"):
            list(sample_fragments(circuit, [1], [writes, FragmentRun(((x(2),),), 4, [3], ["ZZ"])]))
        both = FragmentRun(((measure_z(0, 0), classically_controlled(x(1), 0)),), 4, [2], ["ZZ"])
        own = circuit.with_inserted(1, both.inserted[0], n_clbits=1)  # the register widened from 0 bits
        assert_matches_one_call_per_fragment(circuit, [1], [both], [own], None)
