import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtqg.circuit import GateKind, count_gates
from vtqg.errors import ResourceLimitError
from vtqg.qpd import build_enumerated_fragments, build_grouped_fragments, fragment_manifest, run_enumerated_exact
from vtqg.sim import PauliObservable, StateVector, run_density, run_statevector
from vtqg.tfim import (
    TfimParams,
    build_trotter_circuit,
    exact_reference,
    magnetization,
    pauli_components,
)

import oracles

BASE_PARAMS = dict(h=0.786, J=0.787, dt=0.5)


def params(n, steps=1):
    return TfimParams(n_qubits=n, n_steps=steps, **BASE_PARAMS)


def cut_magnetization(build, noise=None):
    n = build.circuit.n_qubits
    obs = [PauliObservable.single(n, q, p) for p in "XYZ" for q in range(n)]
    values, count = run_enumerated_exact(build.circuit, build.cuts, obs, noise)
    return magnetization(values[0:n], values[n:2 * n], values[2 * n:3 * n]), count


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TfimParams(1, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            TfimParams(4, 0.5, 0.5, -0.1)
        with pytest.raises(ValueError):
            TfimParams(4, 0.5, 0.5, 0.5, n_steps=0)
        with pytest.raises(ValueError):
            TfimParams(4, float("nan"), 0.5, 0.5)

    def test_non_integer_sizes_rejected(self):
        with pytest.raises(ValueError, match="n_qubits"):
            TfimParams(4.0, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="n_steps"):
            TfimParams(4, 0.5, 0.5, 0.5, n_steps=1.5)
        with pytest.raises(ValueError, match="n_steps"):
            TfimParams(4, 0.5, 0.5, 0.5, n_steps=True)

    def test_non_numeric_couplings_rejected(self):
        with pytest.raises(ValueError, match="h"):
            TfimParams(4, "1", 0.5, 0.5)
        with pytest.raises(ValueError, match="J"):
            TfimParams(4, 0.5, True, 0.5)
        with pytest.raises(ValueError, match="dt"):
            TfimParams(4, 0.5, 0.5, None)
        assert TfimParams(4, np.float32(0.5), 1, 0.5).J == 1

    def test_angle_wiring(self):
        p = params(8)
        assert p.theta_rx == pytest.approx(2 * 0.786 * 0.5)
        assert p.theta_zz == pytest.approx(-2 * 0.787 * 0.5)


class TestStructure:
    def test_ideal_single_step_gate_pattern(self):
        build = build_trotter_circuit(params(4), "ideal")
        counts = count_gates(build.circuit)
        assert counts["RX"] == 4 and counts["RZZ"] == 4
        assert len(build.cuts) == 0 and build.layout.is_identity

    def test_routed_eight_qubits_has_six_swaps(self):
        build = build_trotter_circuit(params(8), "routed_original")
        assert count_gates(build.circuit)["SWAP"] == 6
        assert not build.layout.is_identity

    def test_vtqg_replaces_ring_edge_with_cut(self):
        build = build_trotter_circuit(params(8), "vtqg")
        counts = count_gates(build.circuit)
        assert counts["RZZ"] == 7 and counts["RX"] == 8
        assert len(build.cuts) == 1
        cut = build.cuts[0]
        assert (cut.qubit_a, cut.qubit_b) == (0, 7)
        assert cut.theta == pytest.approx(2 * 0.787 * 0.5)

    def test_pet_compiles_physical_edges(self):
        build = build_trotter_circuit(params(8), "vtqg_pet")
        counts = count_gates(build.circuit)
        assert counts.counts.get("RZZ", 0) == 0
        assert counts["RZX"] == 7 and counts["H"] == 14
        assert all(g.pet for g in build.circuit.gates if g.kind == GateKind.RZX)

    def test_cuts_scale_with_steps(self):
        build = build_trotter_circuit(params(4, steps=2), "vtqg")
        assert len(build.cuts) == 2

    def test_cut_cap(self):
        # the fragment builders refuse more than four cuts; building the circuit does not
        build = build_trotter_circuit(params(4, steps=5), "vtqg")
        assert len(build.cuts) == 5
        for builder, per_cut in ((build_grouped_fragments, 6), (build_enumerated_fragments, 10)):
            with pytest.raises(ResourceLimitError, match=f"5 cuts would build {per_cut}\\^5"):
                builder(build.circuit, build.cuts)
        with pytest.raises(ResourceLimitError):
            fragment_manifest(build.circuit, build.cuts, mode="grouped")
        assert len(build_grouped_fragments(build.circuit, build.cuts[:4])) == 6**4

    def test_routed_multistep_unsupported(self):
        with pytest.raises(ValueError):
            build_trotter_circuit(params(4, steps=2), "routed_original")

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            build_trotter_circuit(params(4), "dynamic")


class TestNoiselessEquivalence:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_all_variants_match_reference(self, n):
        p = params(n)
        ref = exact_reference(p)
        routed = build_trotter_circuit(p, "routed_original")
        mag_routed = magnetization(*pauli_components(run_density(routed.circuit), routed.layout))
        assert mag_routed == pytest.approx(ref, abs=1e-9)
        for variant in ("vtqg", "vtqg_pet"):
            mag, count = cut_magnetization(build_trotter_circuit(p, variant))
            assert count == 10
            assert mag == pytest.approx(ref, abs=1e-9)

    def test_reference_matches_independent_oracle(self):
        for n in (4, 6, 8):
            assert exact_reference(params(n)) == pytest.approx(oracles.REF_MAG_SINGLE_STEP, abs=1e-12)

    def test_two_step_reference(self):
        _, mag = oracles.tfim_reference(4, 0.786, 0.787, 0.5, 2)
        assert exact_reference(params(4, steps=2)) == pytest.approx(mag, abs=1e-12)


class TestSymmetry:
    def test_translation_symmetry_of_components(self):
        build = build_trotter_circuit(params(8), "ideal")
        psi = run_statevector(build.circuit)
        for comp in pauli_components(psi):
            assert max(comp) - min(comp) < 1e-10

    def test_components_match_frozen_reference(self):
        build = build_trotter_circuit(params(8), "ideal")
        sx, sy, sz = pauli_components(run_statevector(build.circuit))
        for got, want in zip((np.mean(sx), np.mean(sy), np.mean(sz)),
                             oracles.REF_COMPONENTS_SINGLE_STEP):
            assert got == pytest.approx(want, abs=1e-12)


class TestMagnetization:
    def test_fully_polarized(self):
        assert magnetization([0, 0], [0, 0], [1, 1]) == 1.0

    def test_zero_vector(self):
        assert magnetization([0.0], [0.0], [0.0]) == 0.0

    def test_initial_state_is_fully_magnetized(self):
        sx, sy, sz = pauli_components(StateVector.zero(3))
        assert magnetization(sx, sy, sz) == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            magnetization([0.1], [0.2, 0.3], [0.4])
        with pytest.raises(ValueError):
            magnetization([], [], [])

    def test_reference_parameters_single_step(self):
        build = build_trotter_circuit(params(8), "ideal")
        psi = run_statevector(build.circuit)
        assert magnetization(*pauli_components(psi)) == pytest.approx(
            oracles.REF_MAG_SINGLE_STEP, abs=1e-9)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bounded_for_physical_bloch_vectors(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        unit = st.floats(min_value=-1.0, max_value=1.0)
        comps = [[], [], []]
        for _ in range(n):
            v = [data.draw(unit) for _ in range(3)]
            norm = math.sqrt(sum(x * x for x in v))
            if norm > 1.0:  # shrink outside the Bloch ball back onto it
                v = [x / norm for x in v]
            for j in range(3):
                comps[j].append(v[j])
        assert 0.0 <= magnetization(*comps) <= 1.0 + 1e-12


class TestExactReference:
    def test_h_zero_leaves_polarization(self):
        p = TfimParams(4, 0.0, 0.787, 0.5, 1)
        assert exact_reference(p) == pytest.approx(1.0, abs=1e-12)

    def test_h_zero_any_coupling_and_step(self):
        for J in (0.1, 2.0):
            for steps in (1, 3):
                p = TfimParams(4, 0.0, J, 0.25, steps)
                assert exact_reference(p) == pytest.approx(1.0, abs=1e-12)
