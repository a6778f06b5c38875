import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtqg import harness, qpd, sim
from vtqg.circuit import Circuit, circuit_from_text, classically_controlled, cnot, h, measure_z, rx, rz, rzz, x
from vtqg.errors import PreconditionError, ResourceLimitError
from vtqg.qpd import (
    CROSS_TERM_SCALE,
    CutSite,
    FAMILY_II,
    FAMILY_PROJ_ROT,
    FAMILY_ROT_PROJ,
    FAMILY_ZZ,
    KIND_MEAS_ROT,
    KIND_ROT_MEAS,
    QpdTerm,
    build_enumerated_fragments,
    build_grouped_fragments,
    decompose_vrzz,
    decomposition_angle,
    evaluate_simplified_exact,
    evaluate_term_exact,
    fragment_manifest,
    gamma,
    group_for_sampling,
    realize_simplified,
    reconstruct_channel,
    run_enumerated_exact,
    simplify_projected,
    write_fragment_manifest,
)
from vtqg.noise import NoiseModel
from vtqg.sim import (
    DensityMatrix,
    PauliObservable,
    apply_gates_density,
    expectation,
    run_density,
    run_statevector,
    sample_shots,
)
from vtqg.tfim import TfimParams, build_trotter_circuit, magnetization

import oracles

FINITE_ANGLES = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)


class TestDecomposition:
    def test_zero_angle_is_identity_channel(self):
        terms = decompose_vrzz(0.0)
        assert terms[0].coefficient == 1.0
        assert terms[1].coefficient == 0.0
        assert all(t.coefficient == 0.0 for t in terms[2:])

    def test_pi_is_pure_zz(self):
        terms = decompose_vrzz(math.pi)
        assert abs(terms[0].coefficient) < 1e-30
        assert terms[1].coefficient == pytest.approx(1.0, abs=1e-15)
        assert all(abs(t.coefficient) < 1e-16 for t in terms[2:])

    def test_half_pi_coefficients(self):
        terms = decompose_vrzz(math.pi / 2)
        assert terms[0].coefficient == pytest.approx(0.5, abs=1e-15)
        assert terms[1].coefficient == pytest.approx(0.5, abs=1e-15)
        for t in terms[2:]:
            assert abs(t.coefficient) == pytest.approx(1 / 16, abs=1e-15)

    def test_term_layout(self):
        terms = decompose_vrzz(0.7)
        assert len(terms) == 10
        assert [t.family for t in terms[:2]] == [FAMILY_II, FAMILY_ZZ]
        assert [t.family for t in terms[2:]] == [FAMILY_PROJ_ROT, FAMILY_ROT_PROJ] * 4
        signs = [(t.alpha_a, t.alpha_b) for t in terms[2::2]]
        assert signs == list(itertools.product((1, -1), repeat=2))

    @given(theta=FINITE_ANGLES)
    @settings(max_examples=100, deadline=None)
    def test_coefficient_identities(self, theta):
        terms = decompose_vrzz(theta)
        assert terms[0].coefficient + terms[1].coefficient == 1.0  # exact by construction
        assert sum(t.coefficient for t in terms[2:]) == 0.0        # exact sign cancellation
        assert terms[1].coefficient == pytest.approx(math.sin(theta / 2) ** 2, abs=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            decompose_vrzz(float("nan"))
        with pytest.raises(ValueError):
            group_for_sampling(float("nan"))

    def test_gate_angle_mapping(self):
        assert decomposition_angle(-0.787) == 0.787


class TestReconstructChannel:
    def test_maximally_mixed_is_fixed_point(self):
        rho = DensityMatrix(2, np.eye(4, dtype=complex) / 4)
        for theta in (0.3, 1.1, -2.5):
            out = reconstruct_channel(decompose_vrzz(theta), rho)
            assert np.linalg.norm(out.mat - rho.mat) < 1e-12

    def test_computational_state_is_eigenstate(self):
        rho = DensityMatrix.zero(2)
        out = reconstruct_channel(decompose_vrzz(math.pi / 2), rho)
        assert np.linalg.norm(out.mat - rho.mat) < 1e-12

    def test_against_matrix_exponential_oracle(self):
        rng = np.random.default_rng(20)
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=20):
            terms = decompose_vrzz(theta)
            for _ in range(50):
                rho = oracles.random_density(2, rng)
                out = reconstruct_channel(terms, DensityMatrix(2, rho))
                assert np.linalg.norm(out.mat - oracles.rzz_conjugation(theta, rho)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reconstruct_channel(decompose_vrzz(0.3), DensityMatrix.zero(3))


class TestOneCutModel:
    """Exact mode's cut map is built from the gates the sampler inserts, and equals the closed form."""

    @given(theta=FINITE_ANGLES)
    @settings(max_examples=50, deadline=None)
    def test_cut_map_matches_the_closed_form(self, theta):
        pairs = tuple((t.coefficient, t) for t in decompose_vrzz(theta))
        for weighted in (pairs, *((pair,) for pair in pairs)):
            assert np.max(np.abs(qpd._cut_superop(weighted) - oracles.cut_superop(weighted))) < 1e-15


def apply_term(term, rho):
    """One term's local operators applied with weight 1 to a 2-qubit density array."""
    return reconstruct_channel([term], DensityMatrix(2, rho))


class TestTermOperators:
    KET0 = np.diag([1.0, 0.0]).astype(complex)
    KET1 = np.diag([0.0, 1.0]).astype(complex)

    def test_projector_on_aligned_state_quadruples_trace(self):
        # the rotation side doubles the trace of any state, so 8 = 4 (projector) x 2
        for alpha, ket in ((1, self.KET0), (-1, self.KET1)):
            rho = np.kron(ket, self.KET0)
            out = apply_term(QpdTerm(1.0, FAMILY_PROJ_ROT, alpha, 1), rho)
            assert out.trace == pytest.approx(8.0, abs=1e-12)
            assert np.allclose(out.mat, 8 * rho)

    def test_projector_on_anti_aligned_state_annihilates(self):
        rng = np.random.default_rng(11)
        for alpha, ket in ((1, self.KET1), (-1, self.KET0)):
            rho = np.kron(oracles.random_density(1, rng), ket)
            out = apply_term(QpdTerm(1.0, FAMILY_ROT_PROJ, 1, alpha), rho)
            assert np.linalg.norm(out.mat) < 1e-14

    def test_rotation_doubles_trace_exactly(self):
        # summed over the projector signs the partner side is 4x the identity channel
        rng = np.random.default_rng(6)
        for alpha in (1, -1):
            rho = DensityMatrix(2, oracles.random_density(2, rng))
            terms = [QpdTerm(1.0, FAMILY_PROJ_ROT, sign, alpha) for sign in (1, -1)]
            assert reconstruct_channel(terms, rho).trace == pytest.approx(8.0, abs=1e-12)

    def test_rotation_matches_scaled_rz(self):
        # (I + i a Z) rho (I - i a Z) = 2 Rz(-a pi/2) rho Rz(-a pi/2)^dag
        rng = np.random.default_rng(7)
        rho = oracles.random_density(1, rng)
        for alpha in (1, -1):
            out = apply_term(QpdTerm(1.0, FAMILY_ROT_PROJ, alpha, 1), np.kron(rho, self.KET0))
            u = oracles.rz_unitary(-alpha * math.pi / 2)
            expected = np.kron(2 * u @ rho @ u.conj().T, 4 * self.KET0)
            assert np.linalg.norm(out.mat - expected) < 1e-12

    def test_pauli_z_conjugation(self):
        rng = np.random.default_rng(8)
        rho = oracles.random_density(2, rng)
        zz = np.kron(oracles.Z, oracles.Z)
        out = apply_term(QpdTerm(1.0, FAMILY_ZZ), rho)
        assert np.linalg.norm(out.mat - zz @ rho @ zz) < 1e-12

    def test_identity_is_noop(self):
        rng = np.random.default_rng(9)
        rho = oracles.random_density(2, rng)
        assert np.array_equal(apply_term(QpdTerm(1.0, FAMILY_II), rho).mat, rho)

    def test_linear_in_the_state(self):
        rng = np.random.default_rng(10)
        for term in decompose_vrzz(0.7):
            h1 = oracles.random_hermitian(2, rng)
            h2 = oracles.random_hermitian(2, rng)
            a, b = rng.normal(), rng.normal()
            lhs = apply_term(term, a * h1 + b * h2).mat
            rhs = a * apply_term(term, h1).mat + b * apply_term(term, h2).mat
            # linear map with no hidden normalization; only input rounding separates the two
            assert np.linalg.norm(lhs - rhs) < 1e-12 * max(np.linalg.norm(rhs), 1.0)

    def test_invalid_qubit(self):
        obs = [PauliObservable.single(2, 0, "Z")]
        with pytest.raises(ValueError):
            evaluate_term_exact(Circuit(2), CutSite(0, 0, 2, 0.3), decompose_vrzz(0.3)[2], obs)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            QpdTerm(0.1, FAMILY_PROJ_ROT, 0, 1)
        with pytest.raises(ValueError):
            QpdTerm(0.1, FAMILY_ROT_PROJ, 1, 2)
        with pytest.raises(ValueError):
            QpdTerm(0.1, FAMILY_ZZ, 1, None)
        with pytest.raises(ValueError):
            QpdTerm(0.1, "XX")


class TestGamma:
    def test_endpoints(self):
        assert gamma(0.0) == 1.0
        assert gamma(math.pi / 2) == 3.0

    def test_reference_angle(self):
        assert gamma(0.787) == pytest.approx(oracles.GAMMA_AT_0787, abs=1e-12)

    def test_grouped_one_norm_matches_closed_form(self):
        rng = np.random.default_rng(21)
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=20):
            weights = sum(abs(g.weight) for g in group_for_sampling(theta))
            assert weights == pytest.approx(1 + 2 * abs(math.sin(theta)), abs=1e-12)


class TestGrouping:
    def test_six_instruments(self):
        for theta in (0.0, 0.4, -2.2, math.pi):
            assert len(group_for_sampling(theta)) == 6

    def test_zero_angle_only_identity_weight(self):
        groups = group_for_sampling(0.0)
        assert groups[0].kind == FAMILY_II and groups[0].weight == 1.0
        assert all(g.weight == 0.0 for g in groups[1:])

    def test_kinds_and_rotations(self):
        groups = group_for_sampling(0.787)
        kinds = [(g.kind, g.rz_angle) for g in groups]
        assert kinds == [(FAMILY_II, None), (FAMILY_ZZ, None),
                         (KIND_MEAS_ROT, -math.pi / 2), (KIND_MEAS_ROT, math.pi / 2),
                         (KIND_ROT_MEAS, -math.pi / 2), (KIND_ROT_MEAS, math.pi / 2)]

    def test_signed_gates_come_from_the_term_table(self):
        # the terms whose projector sign is +1, each projector pair one signed measurement
        options = group_for_sampling(0.787)
        half = math.pi / 2
        assert [(o.term.family, o.term.alpha_a, o.term.alpha_b) for o in options] == [
            (FAMILY_II, None, None), (FAMILY_ZZ, None, None),
            (FAMILY_PROJ_ROT, 1, 1), (FAMILY_PROJ_ROT, 1, -1),
            (FAMILY_ROT_PROJ, 1, 1), (FAMILY_ROT_PROJ, -1, 1)]
        assert [o.realize(2, 5, 3) for o in options] == [
            ([], []),
            ([rz(math.pi, 2), rz(math.pi, 5)], []),
            ([measure_z(2, 3, signed=True), rz(-half, 5)], []),
            ([measure_z(2, 3, signed=True), rz(+half, 5)], []),
            ([rz(-half, 2), measure_z(5, 3, signed=True)], []),
            ([rz(+half, 2), measure_z(5, 3, signed=True)], []),
        ]
        assert [o.weight for o in options] == [
            o.term.coefficient * scale for o, scale in zip(options, (1.0, 1.0, 8.0, 8.0, 8.0, 8.0))]

    def test_grouped_channel_is_exact(self):
        # weight-summed signed instruments reproduce the channel on the 16 basis density matrices, and are,
        # column by column, the cut map exact mode applies: the zero-noise link between the two modes
        for theta in (-2.5, -0.787, 0.0, 0.3, 0.787, math.pi / 2, 2.9):
            columns = np.zeros((16, 16), dtype=complex)
            for index in range(16):
                basis = np.eye(16, dtype=complex)[index].reshape(4, 4)
                for g in group_for_sampling(theta):
                    gates, keeps = g.realize(0, 1, 0)
                    assert keeps == []
                    columns[:, index] += g.weight * apply_gates_density(DensityMatrix(2, basis), gates).mat.reshape(-1)
                channel = oracles.rzz_conjugation(theta, basis)
                assert np.linalg.norm(columns[:, index].reshape(4, 4) - channel) < 1e-10
            cut_map = qpd._cut_superop(tuple((t.coefficient, t) for t in decompose_vrzz(theta)))
            assert np.max(np.abs(columns - cut_map)) < 1e-15

    def test_sampled_zz_estimate_matches_exact(self):
        # product state, grouped instruments, 1e5 shots: <Z(x)Z> within 4 sigma
        theta = 0.787
        prep = [rx(0.9, 0), rx(-1.3, 1)]
        base = Circuit(2, 1, tuple(prep))
        psi = run_statevector(Circuit(2, 0, tuple(prep))).amps
        exact_rho = reconstruct_channel(decompose_vrzz(theta), DensityMatrix(2, np.outer(psi, psi.conj())))
        zz = PauliObservable((("ZZ", 1.0),))
        exact = expectation(exact_rho, zz)
        shots = 100_000
        est, var = 0.0, 0.0
        for k, g in enumerate(group_for_sampling(theta)):
            frag = base.with_inserted(len(base.gates), g.realize(0, 1, 0)[0])
            out = sample_shots(frag, shots, seed=100 + k)
            vals = out.sign * (1.0 - 2.0 * out.bits[:, 0]) * (1.0 - 2.0 * out.bits[:, 1])
            est += g.weight * vals.mean()
            var += g.weight**2 * vals.var() / shots
        assert abs(est - exact) < 4 * math.sqrt(var)


class TestSimplification:
    def _cut_setup(self):
        params = TfimParams(4, 0.786, 0.787, 0.5, 1)
        build = build_trotter_circuit(params, "vtqg")
        return build, params.h * params.dt

    def test_beta_zero_factor_one(self):
        term = decompose_vrzz(0.7)[2]
        s = simplify_projected(term, 0.0, product_form_asserted=True)
        assert s.classical_factor == 1.0 and s.projected_bit == 0

    def test_beta_half_pi_factor_zero(self):
        term = decompose_vrzz(0.7)[2]
        s = simplify_projected(term, math.pi / 2, product_form_asserted=True)
        assert abs(s.classical_factor) < 1e-30

    def test_reference_beta(self):
        term = decompose_vrzz(0.787)[2]
        s = simplify_projected(term, 0.393, product_form_asserted=True)
        assert s.classical_factor == pytest.approx(oracles.EQ_PROB_BETA_0393, abs=1e-12)

    def test_alpha_minus_uses_sine(self):
        term = decompose_vrzz(0.787)[6]  # alpha_a = -1
        s = simplify_projected(term, 0.393, product_form_asserted=True)
        assert s.classical_factor == pytest.approx(math.sin(0.393) ** 2, abs=1e-15)
        assert s.projected_bit == 1 and s.fold_sign == -1.0

    def test_refuses_without_assertion(self):
        with pytest.raises(PreconditionError):
            simplify_projected(decompose_vrzz(0.7)[2], 0.393)

    def test_rejects_diagonal_families(self):
        terms = decompose_vrzz(0.7)
        for t in terms[:2]:
            with pytest.raises(ValueError):
                simplify_projected(t, 0.1, product_form_asserted=True)

    def test_simplified_equals_full_fragment(self):
        build, beta = self._cut_setup()
        cut = build.cuts[0]
        n = build.circuit.n_qubits
        obs = [PauliObservable.single(n, q, p) for p in "XYZ" for q in range(n)]
        for term in decompose_vrzz(cut.theta)[2:]:
            s = simplify_projected(term, beta, product_form_asserted=True)
            full = evaluate_term_exact(build.circuit, cut, term, obs)
            simp = evaluate_simplified_exact(build.circuit, cut, s, obs)
            assert max(abs(a - b) for a, b in zip(full, simp)) < 1e-10

    def test_realized_circuit_folds_rzz_to_rz(self):
        build, beta = self._cut_setup()
        cut = build.cuts[0]
        term = decompose_vrzz(cut.theta)[2]  # projects qubit 0
        s = simplify_projected(term, beta, product_form_asserted=True)
        realized = realize_simplified(build.circuit, cut, s)
        # no two-qubit gate touches the projected wire after the cut anymore
        for g in realized.gates:
            if len(g.qubits) == 2:
                assert cut.qubit_a not in g.qubits
        kinds = [g.kind.value for g in realized.gates]
        assert "RESET" in kinds

    def test_scale_is_operator_norm_product(self):
        term = decompose_vrzz(0.7)[2]
        s = simplify_projected(term, 0.2, product_form_asserted=True)
        assert s.scale == CROSS_TERM_SCALE == 8.0


class TestReconstructExpectation:
    def test_ten_term_magnetization_components_match_statevector(self):
        params = TfimParams(4, 0.786, 0.787, 0.5, 1)
        build = build_trotter_circuit(params, "vtqg")
        ideal = build_trotter_circuit(params, "ideal")
        psi = run_statevector(ideal.circuit)
        cut = build.cuts[0]
        terms = decompose_vrzz(cut.theta)
        n = 4
        for pauli in "XYZ":
            for q in range(n):
                obs = [PauliObservable.single(n, q, pauli)]
                reconstructed = sum(t.coefficient * evaluate_term_exact(build.circuit, cut, t, obs)[0]
                                    for t in terms)
                assert reconstructed == pytest.approx(expectation(psi, obs[0]), abs=1e-9)


class TestFragmentPrograms:
    def test_counts_single_cut(self):
        params = TfimParams(4, 0.786, 0.787, 0.5, 1)
        build = build_trotter_circuit(params, "vtqg")
        assert len(build_enumerated_fragments(build.circuit, build.cuts)) == 10
        assert len(build_grouped_fragments(build.circuit, build.cuts)) == 6

    def test_counts_two_cuts(self):
        params = TfimParams(4, 0.786, 0.787, 0.5, 2)
        build = build_trotter_circuit(params, "vtqg")
        assert len(build.cuts) == 2
        assert len(build_enumerated_fragments(build.circuit, build.cuts)) == 100
        assert len(build_grouped_fragments(build.circuit, build.cuts)) == 36

    def test_enumerated_exact_two_cuts_matches_statevector(self):
        params = TfimParams(4, 0.786, 0.787, 0.5, 2)
        build = build_trotter_circuit(params, "vtqg")
        obs = [PauliObservable.single(4, q, p) for p in "XYZ" for q in range(4)]
        values, count = run_enumerated_exact(build.circuit, build.cuts, obs)
        assert count == 100
        mag = magnetization(values[0:4], values[4:8], values[8:12])
        assert mag == pytest.approx(oracles.REF_MAG_N4_TWO_STEPS, abs=1e-9)

    def test_grouped_weights_multiply_across_cuts(self):
        params = TfimParams(4, 0.786, 0.787, 0.5, 2)
        build = build_trotter_circuit(params, "vtqg")
        frags = build_grouped_fragments(build.circuit, build.cuts)
        total = sum(abs(f.weight) for f in frags)
        g = gamma(build.cuts[0].theta)
        assert total == pytest.approx(g * g, abs=1e-10)

    @pytest.mark.parametrize("builder", [build_grouped_fragments, build_enumerated_fragments])
    def test_insertions_name_the_gates_each_fragment_adds(self, builder):
        build = build_trotter_circuit(TfimParams(4, 0.786, 0.787, 0.5, 2), "vtqg")
        cuts = sorted(build.cuts, key=lambda c: c.position)
        for frag in builder(build.circuit, build.cuts):
            assert len(frag.inserted) == len(cuts)
            gates = list(build.circuit.gates)
            for cut, piece in reversed(list(zip(cuts, frag.inserted))):  # back to front keeps positions valid
                gates[cut.position:cut.position] = piece
            assert tuple(gates) == frag.circuit.gates

    @pytest.mark.parametrize("builder", [build_grouped_fragments, build_enumerated_fragments])
    def test_fragments_are_built_once_per_key_and_handed_out_in_new_lists(self, builder):
        qpd._build_fragments.cache_clear()
        build = build_trotter_circuit(TfimParams(4, 0.786, 0.787, 0.5, 1), "vtqg")
        first = builder(build.circuit, build.cuts)
        again = builder(build_trotter_circuit(TfimParams(4, 0.786, 0.787, 0.5, 1), "vtqg").circuit, build.cuts)
        assert again is not first and all(a is b for a, b in zip(first, again, strict=True))
        info = qpd._build_fragments.cache_info()
        assert info.hits == 1 and info.misses == 1

    def test_cut_validation(self):
        c = Circuit(2, 0, (rx(0.1, 0),))
        with pytest.raises(ValueError):
            run_enumerated_exact(c, [CutSite(5, 0, 1, 0.3)], [PauliObservable.single(2, 0, "Z")])
        with pytest.raises(ValueError):
            run_enumerated_exact(c, [CutSite(0, 0, 0, 0.3)], [PauliObservable.single(2, 0, "Z")])


def bloch_observables(n):
    return [PauliObservable.single(n, q, p) for p in "XYZ" for q in range(n)]


class TestZeroCuts:
    # an uncut circuit is the zero-cut case of every fragment builder and of exact mode
    @pytest.mark.parametrize("n", [4, 6])
    def test_builders_return_the_circuit_itself(self, n):
        build = build_trotter_circuit(TfimParams(n, 0.786, 0.787, 0.5, 1), "routed_original")
        assert build.cuts == ()
        for builder in (build_grouped_fragments, build_enumerated_fragments):
            fragments = builder(build.circuit, build.cuts)
            assert len(fragments) == 1
            assert fragments[0].circuit is build.circuit
            assert fragments[0].weight == 1.0 and fragments[0].keep_rules == ()

    @pytest.mark.parametrize("n", [4, 6])
    def test_exact_is_one_density_run(self, n):
        build = build_trotter_circuit(TfimParams(n, 0.786, 0.787, 0.5, 1), "routed_original")
        noise = NoiseModel()
        obs = bloch_observables(n)
        values, count = run_enumerated_exact(build.circuit, (), obs, noise)
        rho = run_density(build.circuit, noise)
        assert count == 1
        assert values == [expectation(rho, o) for o in obs]

    def test_density_cap_checked_for_cut_circuits(self):
        # past the cap exact mode runs light cones, and the cap holds for each cone
        params = TfimParams(11, 0.786, 0.787, 0.5, 1)
        build = build_trotter_circuit(params, "vtqg")
        obs = bloch_observables(11)
        values, count = run_enumerated_exact(build.circuit, build.cuts, obs)
        psi = run_statevector(build_trotter_circuit(params, "ideal").circuit)
        assert count == 10
        assert max(abs(v - expectation(psi, o)) for v, o in zip(values, obs)) < 1e-9
        chain = Circuit(11, 0, tuple(cnot(q, q + 1) for q in range(10)))
        with pytest.raises(ResourceLimitError, match="density cap"):
            run_enumerated_exact(chain, (), [PauliObservable.single(11, 10, "Z")])
        with pytest.raises(ResourceLimitError, match="density cap"):
            evaluate_term_exact(build.circuit, build.cuts[0], decompose_vrzz(build.cuts[0].theta)[2], obs)


class TestCollapsedExact:
    """The 10^m-term sum equals the circuit with a noiseless RZZ reinstated at each cut."""

    @pytest.mark.parametrize("variant", ["vtqg", "vtqg_pet"])
    @pytest.mark.parametrize("n,steps", [(4, 1), (4, 2), (6, 1), (6, 2)])
    def test_equals_noiseless_rzz_at_each_cut(self, n, steps, variant):
        build = build_trotter_circuit(TfimParams(n, 0.786, 0.787, 0.5, steps), variant)
        noise = NoiseModel()
        obs = bloch_observables(n)
        values, count = run_enumerated_exact(build.circuit, build.cuts, obs, noise)
        assert count == 10**steps
        rho, start = DensityMatrix.zero(n), 0
        for cut in build.cuts:
            rho = apply_gates_density(rho, build.circuit.gates[start:cut.position], noise)
            rho = apply_gates_density(rho, [rzz(-cut.theta, cut.qubit_a, cut.qubit_b)])
            start = cut.position
        rho = apply_gates_density(rho, build.circuit.gates[start:], noise)
        assert max(abs(v - expectation(rho, o)) for v, o in zip(values, obs)) < 1e-12

    @pytest.mark.parametrize("variant", ["vtqg", "vtqg_pet"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_single_cut_equals_weighted_term_values(self, n, variant):
        build = build_trotter_circuit(TfimParams(n, 0.786, 0.787, 0.5, 1), variant)
        noise = NoiseModel()
        obs = bloch_observables(n)
        values, _ = run_enumerated_exact(build.circuit, build.cuts, obs, noise)
        cut = build.cuts[0]
        summed = np.zeros(len(obs))
        for term in decompose_vrzz(cut.theta):
            summed += term.coefficient * np.array(evaluate_term_exact(build.circuit, cut, term, obs, noise))
        assert np.max(np.abs(summed - values)) < 1e-12

    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_one_density_run_per_segment(self, steps, monkeypatch):
        # the segments and the cut channels between them are one program, run by one loop
        calls = []
        real = qpd._evolve
        monkeypatch.setattr(qpd, "_evolve", lambda *a: calls.append(1) or real(*a))
        build = build_trotter_circuit(TfimParams(4, 0.786, 0.787, 0.5, steps), "vtqg")
        _, count = run_enumerated_exact(build.circuit, build.cuts, bloch_observables(4), NoiseModel())
        assert count == 10**steps
        assert len(calls) == 1


class TestFeedbackAcrossCuts:
    """A cut runs in the same branch loop as the gates, so feedback after it reads bits measured before it."""

    def test_identity_cut_keeps_the_measured_bit(self):
        before = (h(0), measure_z(0, 0), rx(0.3, 2))
        after = (classically_controlled(x(1), 0),)
        circuit = Circuit(3, 1, before + after)
        z1 = [PauliObservable.single(3, 1, "Z")]
        (value,), _ = run_enumerated_exact(circuit, [CutSite(len(before), 1, 2, 0.0)], z1)
        uncut = expectation(run_density(circuit), z1[0])
        assert uncut == pytest.approx(0.0, abs=1e-12)
        assert abs(value - uncut) < 1e-12

    def test_noisy_cut_between_measurement_and_feedback(self):
        before = (h(0), measure_z(0, 0), rx(1.1, 1), rx(0.4, 2))
        after = (classically_controlled(x(2), 0),)
        circuit = Circuit(3, 1, before + after)
        cut = CutSite(len(before), 1, 2, 0.7)
        noise = NoiseModel(p1=0.01, p2=0.0, reset_error=0.02)  # p2 = 0: the reinstated RZZ is noiseless
        obs = bloch_observables(3)
        reinstated = Circuit(3, 1, before + (rzz(-cut.theta, 1, 2),) + after)
        expected = np.array([expectation(run_density(reinstated, noise), o) for o in obs])
        values, _ = run_enumerated_exact(circuit, [cut], obs, noise)
        summed = sum(term.coefficient * np.array(evaluate_term_exact(circuit, cut, term, obs, noise))
                     for term in decompose_vrzz(cut.theta))
        assert np.max(np.abs(np.array(values) - expected)) < 1e-12
        assert np.max(np.abs(summed - expected)) < 1e-12


def sampled_estimator_mean(n, fragments, noise):
    """The exact mean of the sampling estimator, component by component: the branches of each fragment that
    pass its keep rules, summed by sign and weight, read as the 3n Bloch components, times 1 - 2f."""
    total = np.zeros((2**n, 2**n), dtype=complex)
    for frag in fragments:
        start = [sim._Branch(DensityMatrix.zero(n).tensor(), [0] * frag.circuit.n_clbits, 1)]
        for branch in sim._evolve_branches(start, frag.circuit.gates, noise, n):
            if all(branch.clbits[clbit] == required for clbit, required in frag.keep_rules):
                total += frag.weight * branch.sign * branch.rho.reshape(total.shape)
    values = [expectation(DensityMatrix(n, total), o) for o in bloch_observables(n)]
    return (1.0 - 2.0 * noise.readout_flip) * np.array(values)


ESTIMATOR_GAP = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: the sampler puts p1 on the RZ a cut inserts (and reset_error on its measurements), "
    "while exact mode applies the cut without noise"))


class TestExactIsTheSampledMean:
    """Exact mode equals the exact mean of the sampling estimator; with gate noise it does not yet (item 3)."""

    @pytest.mark.parametrize("noise", [NoiseModel(p1=0.0, p2=0.0, readout_flip=0.1),
                                       pytest.param(NoiseModel(), marks=ESTIMATOR_GAP),
                                       pytest.param(NoiseModel(reset_error=0.01, readout_flip=0.05),
                                                    marks=ESTIMATOR_GAP)],
                             ids=["readout_only", "default", "reset_and_readout"])
    @pytest.mark.parametrize("n, steps", [(4, 1), (4, 2), (6, 1)])
    @pytest.mark.parametrize("builder", [build_grouped_fragments, build_enumerated_fragments],
                             ids=["grouped", "enumerated"])
    def test_exact_mode_equals_the_mean_of_the_sampled_estimator(self, builder, n, steps, noise):
        build = build_trotter_circuit(TfimParams(n, 0.786, 0.787, 0.5, steps), "vtqg")
        comps, _ = harness._execute_exact(build, noise)
        expected = sampled_estimator_mean(n, builder(build.circuit, build.cuts), noise)
        assert np.max(np.abs(np.ravel(comps) - expected)) < 1e-12


def cut_program(build):
    """The program exact mode runs: the circuit's gates with each cut's full term sum."""
    cuts = list(build.cuts)
    return qpd._program(build.circuit, cuts, [[(t.coefficient, t) for t in decompose_vrzz(c.theta)] for c in cuts])


def forced_runs(build, obs, noise):
    """The light-cone runs of every observable support, whatever the cost estimate would choose."""
    return qpd._cone_runs(build.circuit, cut_program(build), obs, noise, None, sim.DENSITY_QUBIT_CAP)


def wire_cones(build, noise):
    """(width, ops) of each wire's own light cone, wire by wire."""
    steps = qpd._backward_steps(cut_program(build))
    return [qpd._light_cone(steps, (q,), noise) for q in range(build.circuit.n_qubits)]


def stepwise_density(params, variant, noise):
    """Full density states after each Trotter step, each cut reinstated as a noiseless RZZ."""
    build = build_trotter_circuit(params, variant)
    gates = build.circuit.gates
    step_len = len(gates) // params.n_steps
    cut_at = {c.position: c for c in build.cuts}
    rho, start, states = DensityMatrix.zero(params.n_qubits), 0, []
    for stop in sorted(set(cut_at) | {s * step_len for s in range(1, params.n_steps + 1)}):
        rho = apply_gates_density(rho, gates[start:stop], noise)
        start = stop
        if stop % step_len == 0:
            states.append(rho)
        if stop in cut_at:
            cut = cut_at[stop]
            rho = apply_gates_density(rho, [rzz(-cut.theta, cut.qubit_a, cut.qubit_b)])
    return build, states


class TestLightCones:
    @pytest.mark.parametrize("variant", ["routed_original", "vtqg", "vtqg_pet"])
    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_cones_equal_the_full_density_run(self, n, variant):
        # one full run of the longest circuit gives the reference after every step
        noise = NoiseModel()
        longest = 1 if variant == "routed_original" else 3
        full, states = stepwise_density(TfimParams(n, 0.786, 0.787, 0.5, longest), variant, noise)
        obs = bloch_observables(n)
        for steps, rho in enumerate(states, start=1):
            build = build_trotter_circuit(TfimParams(n, 0.786, 0.787, 0.5, steps), variant)
            assert build.circuit.gates == full.circuit.gates[:len(build.circuit.gates)]
            values = qpd._evaluate(forced_runs(build, obs, noise), obs)
            assert max(abs(v - expectation(rho, o)) for v, o in zip(values, obs)) < 1e-12, steps

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_widest_cone_is_two_wires_per_step_plus_one(self, n):
        for variant in ("routed_original", "vtqg", "vtqg_pet"):
            for steps in ((1,) if variant == "routed_original" else (1, 2, 3)):
                build = build_trotter_circuit(TfimParams(n, 0.786, 0.787, 0.5, steps), variant)
                cones = wire_cones(build, NoiseModel())
                assert len(cones) == n
                assert max(width for width, _ in cones) == 2 * steps + 1, (variant, steps)
                runs = forced_runs(build, bloch_observables(n), NoiseModel())
                assert sorted(i for _, _, indices, _ in runs for i in indices) == list(range(3 * n))
                assert max(width for width, *_ in runs) == 2 * steps + 1, (variant, steps)

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_distinct_cones_run_once(self, n, monkeypatch):
        runs = []
        real = qpd._evolve
        monkeypatch.setattr(qpd, "_evolve", lambda *a: runs.append(1) or real(*a))
        noise = NoiseModel()
        obs = bloch_observables(n)
        configs = [(1, "routed_original", 4), (1, "vtqg", 4), (1, "vtqg_pet", 4)]
        for steps, variant, distinct in configs + ([(2, "vtqg", 6)] if n == 8 else []):
            build = build_trotter_circuit(TfimParams(n, 0.786, 0.787, 0.5, steps), variant)
            cones = wire_cones(build, noise)
            runs.clear()
            values, _ = run_enumerated_exact(build.circuit, build.cuts, obs, noise)
            assert len(runs) == len(set(cones)) == distinct, (variant, steps)
            alone = [0.0] * len(obs)
            for q, (width, ops) in enumerate(cones):
                rho = real(DensityMatrix.zero(width), ops, noise)
                for i in (q, n + q, 2 * n + q):  # X, Y and Z of wire q
                    alone[i] = expectation(rho, PauliObservable.single(width, 0, "XYZ"[i // n]))
            assert values == alone, (variant, steps)

    def test_estimate_keeps_small_rings_on_the_full_run(self, monkeypatch):
        widths = []
        real = qpd._evaluate
        monkeypatch.setattr(qpd, "_evaluate", lambda runs, obs: widths.append([w for w, *_ in runs]) or real(runs, obs))
        variants = ("routed_original", "vtqg", "vtqg_pet")
        configs = [(n, 1, v) for n in (4, 6, 8) for v in variants] + [(6, 2, v) for v in variants[1:]]
        on_cones = []
        for n, steps, variant in configs:
            build = build_trotter_circuit(TfimParams(n, 0.786, 0.787, 0.5, steps), variant)
            widths.clear()
            run_enumerated_exact(build.circuit, build.cuts, bloch_observables(n), NoiseModel())
            (run_widths,) = widths
            if max(run_widths) < n:
                on_cones.append((n, variant))
            else:
                assert run_widths == [n]  # the full run, alone
        assert on_cones == [(8, v) for v in variants]  # the three n = 8 calls only

    def test_measurements_take_the_full_run(self):
        circuit = Circuit(11, 1, (rx(0.3, 0), measure_z(0, 0)))
        with pytest.raises(ResourceLimitError, match="11 qubits exceeds density cap"):
            run_enumerated_exact(circuit, (), [PauliObservable.single(11, 0, "Z")])


class TestExactPlan:
    """Each exact evaluation is compiled once per key; its values are computed on every call."""

    @pytest.mark.parametrize("n", [4, 8])  # the full run, then light cones
    def test_each_noise_model_gets_its_own_values(self, n):
        params = TfimParams(n, 0.786, 0.787, 0.5, 1)
        build = build_trotter_circuit(params, "vtqg")
        obs = bloch_observables(n)
        for noise in (NoiseModel(), NoiseModel(p2=0.02)):
            values, _ = run_enumerated_exact(build.circuit, build.cuts, obs, noise)
            _, states = stepwise_density(params, "vtqg", noise)
            assert max(abs(v - expectation(states[-1], o)) for v, o in zip(values, obs)) < 1e-12, noise

    @pytest.mark.parametrize("n", [6, 11])  # the full run at the default cap, then light cones
    def test_a_lower_cap_applies_after_a_call_at_the_default(self, n, monkeypatch):
        build = build_trotter_circuit(TfimParams(n, 0.786, 0.787, 0.5, 1), "vtqg")
        run_enumerated_exact(build.circuit, build.cuts, bloch_observables(n), NoiseModel())
        monkeypatch.setattr(qpd, "DENSITY_QUBIT_CAP", 2)
        with pytest.raises(ResourceLimitError, match="spans 3 qubits, which exceeds density cap 2"):
            run_enumerated_exact(build.circuit, build.cuts, bloch_observables(n), NoiseModel())

    @pytest.mark.parametrize("n", [6, 12])  # the full run at the default cap, then past it
    def test_no_observables_evolve_nothing(self, n, monkeypatch):
        runs = []
        real = qpd._evolve
        monkeypatch.setattr(qpd, "_evolve", lambda *a: runs.append(1) or real(*a))
        build = build_trotter_circuit(TfimParams(n, 0.786, 0.787, 0.5, 1), "vtqg")
        assert run_enumerated_exact(build.circuit, build.cuts, [], NoiseModel()) == ([], 10)
        assert runs == []

    @pytest.mark.parametrize("n", [4, 8])
    def test_a_repeated_call_evolves_its_densities_again(self, n, monkeypatch):
        runs = []
        real = qpd._evolve
        monkeypatch.setattr(qpd, "_evolve", lambda *a: runs.append(1) or real(*a))
        build = build_trotter_circuit(TfimParams(n, 0.786, 0.787, 0.5, 1), "vtqg_pet")
        qpd._exact_plan.cache_clear()  # the first call compiles the plan, the second finds it
        first, _ = run_enumerated_exact(build.circuit, build.cuts, bloch_observables(n), NoiseModel())
        evolved = len(runs)
        again, _ = run_enumerated_exact(build.circuit, build.cuts, bloch_observables(n), NoiseModel())
        assert again == first
        assert evolved >= 1 and len(runs) == 2 * evolved
        info = qpd._exact_plan.cache_info()
        assert info.hits == 1 and info.maxsize is not None


class TestManifest:
    def test_enumerated_manifest_fields(self):
        params = TfimParams(4, 0.786, 0.787, 0.5, 1)
        build = build_trotter_circuit(params, "vtqg")
        manifest = fragment_manifest(build.circuit, build.cuts, mode="enumerated")
        assert manifest["fragment_count"] == 10
        assert len(manifest["fragments"]) == 10
        entry = manifest["fragments"][2]
        assert set(entry) == {"index", "families", "alphas", "coefficient", "weight", "keep_rules", "circuit"}
        assert circuit_from_text(entry["circuit"]).n_qubits == 4
        total = sum(e["coefficient"] for e in manifest["fragments"])
        assert total == pytest.approx(1.0, abs=1e-12)  # diagonal 1 + vanishing cross sum

    def test_grouped_manifest(self):
        params = TfimParams(4, 0.786, 0.787, 0.5, 1)
        build = build_trotter_circuit(params, "vtqg")
        manifest = fragment_manifest(build.circuit, build.cuts, mode="grouped")
        assert manifest["fragment_count"] == 6
        weights = [e["weight"] for e in manifest["fragments"]]
        assert sum(abs(w) for w in weights) == pytest.approx(gamma(build.cuts[0].theta), abs=1e-12)

    def test_manifest_json_file(self, tmp_path):
        params = TfimParams(4, 0.786, 0.787, 0.5, 1)
        build = build_trotter_circuit(params, "vtqg")
        path = tmp_path / "fragments.json"
        write_fragment_manifest(path, build.circuit, build.cuts, mode="enumerated")
        loaded = json.loads(path.read_text())
        assert loaded["fragment_count"] == 10
        for entry in loaded["fragments"]:
            circuit_from_text(entry["circuit"])  # all circuits parse

    def test_unknown_mode(self):
        params = TfimParams(4, 0.786, 0.787, 0.5, 1)
        build = build_trotter_circuit(params, "vtqg")
        with pytest.raises(ValueError):
            fragment_manifest(build.circuit, build.cuts, mode="diagonal")
