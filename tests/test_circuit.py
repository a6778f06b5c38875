import math

import numpy as np
import pytest

from vtqg.circuit import (
    Circuit,
    CouplingMap,
    Gate,
    GateKind,
    Layout,
    circuit_from_text,
    circuit_to_text,
    classically_controlled,
    cnot,
    count_gates,
    decompose_rzz_cnot,
    decompose_rzz_rzx,
    gate_from_line,
    gate_to_line,
    h,
    measure_z,
    reset,
    route_ring_closure,
    rx,
    rz,
    rzz,
    rzx,
    swap,
    x,
)
from vtqg.errors import InvalidCircuitError, UnsupportedTopologyError

import oracles


class TestGateValidation:
    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            Gate(GateKind.H, (0, 1))
        with pytest.raises(ValueError):
            Gate(GateKind.CNOT, (0,))

    def test_duplicate_operands(self):
        with pytest.raises(ValueError):
            Gate(GateKind.CNOT, (1, 1))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), None])
    def test_nonfinite_angles_rejected(self, bad):
        with pytest.raises(ValueError):
            rx(bad, 0)
        with pytest.raises(ValueError):
            rzz(bad, 0, 1)

    def test_angle_on_nonparametric(self):
        with pytest.raises(ValueError):
            Gate(GateKind.H, (0,), angle=0.1)

    def test_signed_only_on_measure(self):
        with pytest.raises(ValueError):
            Gate(GateKind.H, (0,), signed=True)
        assert measure_z(0, 0, signed=True).signed

    def test_pet_only_on_rzx(self):
        with pytest.raises(ValueError):
            Gate(GateKind.RZZ, (0, 1), angle=0.1, pet=True)
        assert rzx(0.1, 0, 1, pet=True).pet

    def test_controlled_needs_unitary_inner(self):
        with pytest.raises(ValueError):
            classically_controlled(measure_z(0, 0), 0)
        g = classically_controlled(x(1), 0)
        assert g.inner.kind == GateKind.X


class TestCircuitValidation:
    def test_qubit_out_of_range(self):
        with pytest.raises(InvalidCircuitError):
            Circuit(2, 0, (h(2),))

    def test_clbit_out_of_range(self):
        with pytest.raises(InvalidCircuitError):
            Circuit(1, 1, (measure_z(0, 1),))

    def test_control_requires_earlier_measurement(self):
        with pytest.raises(InvalidCircuitError):
            Circuit(2, 1, (classically_controlled(x(1), 0),))
        ok = Circuit(2, 1, (measure_z(0, 0), classically_controlled(x(1), 0)))
        assert len(ok.gates) == 2

    def test_immutable(self):
        c = Circuit(1, 0, (h(0),))
        with pytest.raises(AttributeError):
            c.n_qubits = 3


class TestRzzDecompositions:
    def test_cnot_form_zero_angle_is_identity(self):
        u = oracles.dense_unitary(Circuit(2, 0, tuple(decompose_rzz_cnot(0.0))))
        assert oracles.phase_overlap(u, np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_cnot_form_pi_gives_parity_phase(self):
        u = oracles.dense_unitary(Circuit(2, 0, tuple(decompose_rzz_cnot(math.pi))))
        # even-parity states pick up the opposite sign from odd-parity ones
        diag = np.diag(u)
        assert np.allclose(np.abs(diag), 1.0, atol=1e-12)
        assert diag[0] / diag[1] == pytest.approx(-1.0, abs=1e-12)
        assert diag[3] / diag[2] == pytest.approx(-1.0, abs=1e-12)

    def test_cnot_form_against_matrix_exponential(self):
        theta = 0.787
        u = oracles.dense_unitary(Circuit(2, 0, tuple(decompose_rzz_cnot(theta))))
        assert oracles.phase_overlap(u, oracles.rzz_unitary(theta)) == pytest.approx(1.0, abs=1e-12)

    def test_rzx_form_zero_angle_is_identity(self):
        u = oracles.dense_unitary(Circuit(2, 0, tuple(decompose_rzz_rzx(0.0))))
        assert oracles.phase_overlap(u, np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_rzx_form_matches_cnot_form(self):
        theta = 0.787
        u1 = oracles.dense_unitary(Circuit(2, 0, tuple(decompose_rzz_cnot(theta))))
        u2 = oracles.dense_unitary(Circuit(2, 0, tuple(decompose_rzz_rzx(theta))))
        assert oracles.phase_overlap(u1, u2) == pytest.approx(1.0, abs=1e-12)

    def test_rzx_form_uses_one_two_qubit_gate(self):
        counts = count_gates(Circuit(2, 0, tuple(decompose_rzz_rzx(math.pi / 2))))
        assert counts.two_qubit_raw == 1
        assert count_gates(Circuit(2, 0, tuple(decompose_rzz_cnot(math.pi / 2)))).two_qubit_raw == 2

    def test_rzx_form_is_pet_tagged(self):
        kinds = [(g.kind, g.pet) for g in decompose_rzz_rzx(0.3)]
        assert (GateKind.RZX, True) in kinds

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            decompose_rzz_cnot(float("nan"))
        with pytest.raises(ValueError):
            decompose_rzz_rzx(float("inf"))

    def test_both_forms_agree_with_exponential_on_random_angles(self):
        rng = np.random.default_rng(42)
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=20):
            target = oracles.rzz_unitary(theta)
            for decompose in (decompose_rzz_cnot, decompose_rzz_rzx):
                u = oracles.dense_unitary(Circuit(2, 0, tuple(decompose(theta))))
                assert oracles.phase_overlap(u, target) == pytest.approx(1.0, abs=1e-12)


class TestRouting:
    @pytest.mark.parametrize("n,expected", [(2, 0), (4, 2), (6, 4), (8, 6)])
    def test_swap_counts(self, n, expected):
        fragment, _ = route_ring_closure(n, CouplingMap.path(n), 0.5)
        assert count_gates(fragment)["SWAP"] == expected

    def test_swap_count_formula(self):
        for n in range(2, 13):
            fragment, _ = route_ring_closure(n, CouplingMap.path(n), 1.0)
            assert count_gates(fragment)["SWAP"] == max(n - 2, 0)

    def test_rzz_lands_on_a_coupled_edge(self):
        for n in range(2, 9):
            coupling = CouplingMap.path(n)
            fragment, layout = route_ring_closure(n, coupling, 0.5)
            gate = fragment.gates[-1]
            assert gate.kind == GateKind.RZZ
            a, b = sorted(gate.qubits)
            assert (a, b) in coupling.edges
            assert {layout.logical(gate.qubits[0]), layout.logical(gate.qubits[1])} == {0, n - 1}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_routed_unitary_matches_permuted_ideal(self, n):
        theta = 0.787
        fragment, layout = route_ring_closure(n, CouplingMap.path(n), theta)
        ideal = Circuit(n, 0, (rzz(theta, 0, n - 1),))
        u_routed = oracles.dense_unitary(fragment)
        u_ideal = oracles.dense_unitary(ideal)
        perm = oracles.layout_permutation(layout, n)
        assert np.linalg.norm(perm.conj().T @ u_routed - u_ideal) < 1e-10

    def test_scrambled_path_labels(self):
        # same path, vertices labeled 2-0-3-1: position i holds "logical" qubit i
        edges = frozenset({(2, 0), (0, 3), (3, 1)})
        fragment, layout = route_ring_closure(4, CouplingMap(4, edges), 0.1)
        assert count_gates(fragment)["SWAP"] == 2
        order = CouplingMap(4, edges).path_order()
        assert layout.physical(0) in order

    def test_non_path_rejected(self):
        ring = CouplingMap(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0)}))
        with pytest.raises(UnsupportedTopologyError):
            route_ring_closure(4, ring, 0.1)
        star = CouplingMap(4, frozenset({(0, 1), (0, 2), (0, 3)}))
        with pytest.raises(UnsupportedTopologyError):
            route_ring_closure(4, star, 0.1)

    def test_size_mismatch_rejected(self):
        with pytest.raises(UnsupportedTopologyError):
            route_ring_closure(4, CouplingMap.path(5), 0.1)


class TestLayout:
    def test_must_be_permutation(self):
        with pytest.raises(ValueError):
            Layout((0, 0, 1))

    def test_value_relabeling(self):
        layout = Layout((2, 0, 1))
        assert layout.logical_values(["w0", "w1", "w2"]) == ["w2", "w0", "w1"]
        assert layout.logical(2) == 0 and layout.physical(0) == 2

    def test_identity(self):
        assert Layout.identity(3).is_identity


class TestCountGates:
    def test_empty(self):
        counts = count_gates(Circuit(2))
        assert counts.counts == {}
        assert counts.swap_cnot_equivalents == 0
        assert counts.two_qubit_raw == 0

    def test_routed_eight_qubit_swap_equivalents(self):
        fragment, _ = route_ring_closure(8, CouplingMap.path(8), 0.5)
        counts = count_gates(fragment)
        assert counts["SWAP"] == 6
        assert counts.swap_cnot_equivalents == 18

    def test_rzz_via_cnot_counts_two_cnots(self):
        counts = count_gates(Circuit(2, 0, tuple(decompose_rzz_cnot(0.3))))
        assert counts["CNOT"] == 2

    def test_controlled_counted_as_wrapper(self):
        c = Circuit(2, 1, (measure_z(0, 0), classically_controlled(x(1), 0)))
        assert count_gates(c)["CLASSICALLY_CONTROLLED"] == 1


class TestTextFormat:
    def test_gate_lines(self):
        assert gate_to_line(h(0)) == "H 0"
        assert gate_to_line(rzz(-0.787, 0, 7)) == "RZZ 0,7 -0.787"
        assert gate_to_line(measure_z(3, 1, signed=True)) == "MEASURE_Z 3 -> 1 signed"
        assert gate_to_line(classically_controlled(x(2), 0)) == "IF 0 X 2"
        assert gate_to_line(rzx(0.5, 0, 1, pet=True)) == "RZX 0,1 0.5 pet"

    def test_gate_line_roundtrip(self):
        gates = [h(0), x(1), rx(0.786, 2), rz(-1.5, 0), rzz(0.25, 0, 3),
                 rzx(0.5, 1, 2, pet=True), cnot(0, 1), swap(2, 3), reset(1),
                 measure_z(0, 0), measure_z(1, 1, signed=True),
                 classically_controlled(rz(0.1, 3), 0)]
        for g in gates:
            assert gate_from_line(gate_to_line(g)) == g

    def test_circuit_roundtrip(self):
        c = Circuit(4, 2, (h(0), rzz(-0.787, 0, 3), measure_z(0, 0, signed=True),
                           classically_controlled(x(1), 0)))
        assert circuit_from_text(circuit_to_text(c)) == c

    def test_headerless_text_infers_sizes(self):
        c = circuit_from_text("H 0\nCNOT 0,1\nMEASURE_Z 1 -> 0\n")
        assert c.n_qubits == 2 and c.n_clbits == 1

    def test_empty_circuit_roundtrip(self):
        c = Circuit(3, 1)
        assert circuit_from_text(circuit_to_text(c)) == c

    def test_malformed_lines_raise_value_error_naming_the_line(self):
        with pytest.raises(ValueError, match="qubits 2"):
            circuit_from_text("qubits 2\nX 0\n")
        with pytest.raises(ValueError, match="'X'"):
            circuit_from_text("X\n")
        with pytest.raises(ValueError, match="'IF 0'"):
            circuit_from_text("qubits 1 clbits 1\nMEASURE_Z 0 -> 0\nIF 0\n")
        with pytest.raises(ValueError, match="'RZZ 0,1 0.1 0.2'"):
            circuit_from_text("RZZ 0,1 0.1 0.2\n")
        with pytest.raises(ValueError, match="'RZX 0,1 0.1 pet pet'"):
            circuit_from_text("RZX 0,1 0.1 pet pet\n")
        with pytest.raises(ValueError, match="'MEASURE_Z 0 -> 0 junk'"):
            circuit_from_text("MEASURE_Z 0 -> 0 junk\n")
        with pytest.raises(ValueError, match="'MEASURE_Z 0 -> 0 signed signed'"):
            circuit_from_text("MEASURE_Z 0 -> 0 signed signed\n")
        for line in ("X 0 junk", "FOO 0", "RX a 0.5", "IF z X 0", "MEASURE_Z 0 -> q"):
            with pytest.raises(ValueError, match=f"'{line}'"):
                circuit_from_text(f"qubits 1 clbits 1\nMEASURE_Z 0 -> 0\n{line}\n")
        with pytest.raises(ValueError, match="'qubits x clbits 1'"):
            circuit_from_text("qubits x clbits 1\nX 0\n")


class TestCouplingMapJson:
    def test_roundtrip(self):
        cm = CouplingMap.path(5)
        again = CouplingMap.from_json(cm.to_json())
        assert again == cm

    def test_format_fields(self):
        import json
        obj = json.loads(CouplingMap.path(3).to_json())
        assert set(obj) == {"n", "edges"}
        assert obj["n"] == 3
        assert sorted(obj["edges"]) == [[0, 1], [1, 2]]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            CouplingMap(3, frozenset({(1, 1)}))

    def test_bad_vertex_rejected(self):
        with pytest.raises(ValueError):
            CouplingMap(2, frozenset({(0, 5)}))

    @pytest.mark.parametrize("text,field", [('{"edges": [[0, 1]]}', "'n'"), ('{"n": 2}', "'edges'"),
                                            ('{"n": 2, "edges": [[0]]}', "'edges'"),
                                            ('[[0, 1]]', "'n' and 'edges'"),
                                            ('{"n": 4.7, "edges": []}', "'n'"), ('{"n": "3", "edges": []}', "'n'"),
                                            ('{"n": true, "edges": []}', "'n'"),
                                            ('{"n": 2, "edges": [[0, 1.9]]}', "'edges'"),
                                            ('{"n": 2, "edges": [[true, 1]]}', "'edges'"),
                                            ('{"n": 2, "edges": [["0", 1]]}', "'edges'"),
                                            ('{"n": -1, "edges": []}', "'n'"), ('{"n": 0, "edges": []}', "'n'")])
    def test_malformed_json_names_the_field(self, text, field):
        with pytest.raises(ValueError, match=field):
            CouplingMap.from_json(text)
