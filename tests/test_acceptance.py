"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion report.
Tolerances are pinned in the assertions; stated runtime budgets are asserted
alongside the numerical checks.
"""

import math
import time

import numpy as np

from vtqg.circuit import Circuit, CouplingMap, count_gates, route_ring_closure, rzz
from vtqg.harness import ExperimentConfig, emit_results, run_experiment
from vtqg.noise import NoiseModel
from vtqg.qpd import (
    build_enumerated_fragments,
    build_grouped_fragments,
    decompose_vrzz,
    evaluate_simplified_exact,
    evaluate_term_exact,
    gamma,
    group_for_sampling,
    reconstruct_channel,
    run_enumerated_exact,
    simplify_projected,
)
from vtqg.sim import DensityMatrix, PauliObservable, run_density, sample_shots
from vtqg.tfim import TfimParams, build_trotter_circuit, exact_reference, magnetization, pauli_components

import oracles

BASE_PARAMS = dict(h=0.786, J=0.787, dt=0.5)
ZERO_NOISE = NoiseModel(p1=0.0, p2=0.0)


def _run(number, description, budget_s, body):
    t0 = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - t0
        if budget_s is not None:
            assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"
    except BaseException:
        print(f"ACCEPTANCE {number} [{description}]: FAIL "
              f"({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} [{description}]: PASS ({elapsed:.1f}s)")


def _theta_grid(count=20, seed=1234):
    return np.random.default_rng(seed).uniform(-2 * math.pi, 2 * math.pi, size=count)


def _cut_components(build, noise=None):
    n = build.circuit.n_qubits
    obs = [PauliObservable.single(n, q, p) for p in "XYZ" for q in range(n)]
    values, count = run_enumerated_exact(build.circuit, build.cuts, obs, noise)
    return (values[0:n], values[n:2 * n], values[2 * n:3 * n]), count


def _variant_error(n, variant, noise):
    params = TfimParams(n, n_steps=1, **BASE_PARAMS)
    ideal = exact_reference(params)
    build = build_trotter_circuit(params, variant)
    if build.cuts:
        comps, _ = _cut_components(build, noise)
        mag = magnetization(*comps)
    else:
        rho = run_density(build.circuit, noise)
        mag = magnetization(*pauli_components(rho, build.layout))
    return abs(mag - ideal)


def test_criterion_1_channel_completeness():
    def body():
        rng = np.random.default_rng(2024)
        for theta in _theta_grid():
            terms = decompose_vrzz(theta)
            for _ in range(50):
                rho = oracles.random_density(2, rng)
                out = reconstruct_channel(terms, DensityMatrix(2, rho))
                exact = oracles.rzz_conjugation(theta, rho)
                assert np.linalg.norm(out.mat - exact) < 1e-10

    _run(1, "ten-term channel completeness, 20 angles x 50 states, 1e-10", 10, body)


def test_criterion_2_sampling_overhead_identity():
    def body():
        for theta in _theta_grid():
            weights = sum(abs(g.weight) for g in group_for_sampling(theta))
            assert abs(weights - (1 + 2 * abs(math.sin(theta)))) < 1e-12
        assert gamma(0.0) == 1.0
        assert gamma(math.pi / 2) == 3.0

    _run(2, "grouped 1-norm = 1 + 2|sin theta|; gamma(0)=1, gamma(pi/2)=3", None, body)


def test_criterion_3_swap_counts_and_routed_equivalence():
    def body():
        for n, expected in ((4, 2), (6, 4), (8, 6)):
            fragment, _ = route_ring_closure(n, CouplingMap.path(n), 0.787)
            assert count_gates(fragment)["SWAP"] == expected
        for n in (2, 3, 4, 5):
            theta = 0.787
            fragment, layout = route_ring_closure(n, CouplingMap.path(n), theta)
            u_routed = oracles.dense_unitary(fragment)
            u_ideal = oracles.dense_unitary(Circuit(n, 0, (rzz(theta, 0, n - 1),)))
            perm = oracles.layout_permutation(layout, n)
            assert np.linalg.norm(perm.conj().T @ u_routed - u_ideal) < 1e-10

    _run(3, "SWAP counts 2/4/6 for N=4/6/8; dense routed equivalence N<=5", None, body)


def test_criterion_4_fragment_counts():
    def body():
        one = build_trotter_circuit(TfimParams(8, n_steps=1, **BASE_PARAMS), "vtqg")
        two = build_trotter_circuit(TfimParams(8, n_steps=2, **BASE_PARAMS), "vtqg")
        assert len(build_enumerated_fragments(one.circuit, one.cuts)) == 10
        assert len(build_enumerated_fragments(two.circuit, two.cuts)) == 100
        assert len(build_grouped_fragments(one.circuit, one.cuts)) == 6
        obs = [PauliObservable.single(8, 0, "Z")]
        _, count = run_enumerated_exact(one.circuit, one.cuts, obs)
        assert count == 10

    _run(4, "fragment counts: 10 (m=1), 100 (m=2), grouped 6", None, body)


def test_criterion_5_noiseless_end_to_end():
    def body():
        for n in (4, 6, 8):
            params = TfimParams(n, n_steps=1, **BASE_PARAMS)
            ref = exact_reference(params)
            config = ExperimentConfig(params=params, noise=ZERO_NOISE, repetitions=1, seed=0)
            for record in run_experiment(config):
                assert abs(record.mag - ref) < 1e-9, (record.variant, n)

    _run(5, "noiseless variants match statevector reference, N in {4,6,8}, 1e-9", 30, body)


def test_criterion_6_error_suppression_ordering():
    def body():
        noise = NoiseModel()  # defaults p1=0.0003, p2=0.0087
        gaps = {}
        for n in (4, 6, 8):
            err = {v: _variant_error(n, v, noise) for v in ("routed_original", "vtqg", "vtqg_pet")}
            if n == 8:
                assert err["vtqg_pet"] <= err["vtqg"] < err["routed_original"]
            gaps[n] = err["routed_original"] - err["vtqg"]
        assert gaps[4] < gaps[6] < gaps[8]

    _run(6, "default-noise ordering pet <= vtqg < original; gap grows 4->8", 60, body)


def test_criterion_6_at_paper_scale():
    # exact mode past the density cap runs light cones; the gap saturates
    # past N = 16 (0.04090 at 16, 0.04087 at 24, 0.03739 at 64), so growth is
    # asserted only up to 16
    def body():
        gaps = {}
        for n in (8, 10, 12, 16, 24, 64):
            config = ExperimentConfig(params=TfimParams(n, n_steps=1, **BASE_PARAMS), noise=NoiseModel(),
                                      repetitions=1)
            err = {r.variant: abs(r.mag - r.ideal) for r in run_experiment(config)}
            assert err["vtqg_pet"] < err["vtqg"] < err["routed_original"], n
            gaps[n] = err["routed_original"] - err["vtqg"]
        assert gaps[8] < gaps[10] < gaps[12] < gaps[16]

    _run("6b", "default-noise ordering at N = 8..64; gap grows 8->16", 30, body)


def test_criterion_7_sampling_unbiasedness():
    def body():
        params = TfimParams(4, n_steps=1, **BASE_PARAMS)
        build = build_trotter_circuit(params, "vtqg")
        n = 4
        exact_comps, _ = _cut_components(build)
        exact_mag = magnetization(*exact_comps)
        shots = 100_000
        fragments = build_grouped_fragments(build.circuit, build.cuts)
        est = np.zeros(3)
        var = np.zeros(3)
        for k, frag in enumerate(fragments):
            for j, pauli in enumerate("XYZ"):
                out = sample_shots(frag.circuit, shots, seed=4000 + 10 * k + j, basis=pauli * n)
                per_shot = out.sign * np.mean(1.0 - 2.0 * out.bits, axis=1)
                est[j] += frag.weight * per_shot.mean()
                var[j] += frag.weight**2 * per_shot.var() / shots
        mag = float(np.linalg.norm(est))
        se_mag = math.sqrt(float(np.dot((est / mag) ** 2, var)))
        assert abs(mag - exact_mag) <= 4 * se_mag, (mag, exact_mag, se_mag)

    _run(7, "grouped sampling within 4 SE of exact, N=4, 1e5 shots/instrument", 120, body)


def test_criterion_8_projected_simplification():
    def body():
        beta = BASE_PARAMS["h"] * BASE_PARAMS["dt"]  # 0.393
        params = TfimParams(4, n_steps=1, **BASE_PARAMS)
        build = build_trotter_circuit(params, "vtqg")
        cut = build.cuts[0]
        term = decompose_vrzz(cut.theta)[2]  # alpha = (+1, +1) cross term
        simplified = simplify_projected(term, beta, product_form_asserted=True)
        assert abs(simplified.classical_factor - oracles.EQ_PROB_BETA_0393) < 1e-12
        assert abs(simplified.classical_factor - 0.853) < 5e-4
        n = 4
        obs = [PauliObservable.single(n, q, p) for p in "XYZ" for q in range(n)]
        for t in decompose_vrzz(cut.theta)[2:]:
            s = simplify_projected(t, beta, product_form_asserted=True)
            full = evaluate_term_exact(build.circuit, cut, t, obs)
            simple = evaluate_simplified_exact(build.circuit, cut, s, obs)
            assert max(abs(a - b) for a, b in zip(full, simple)) < 1e-10

    _run(8, "projected factor cos^2(0.393)=0.853; simplified = full, 1e-10", None, body)


def test_criterion_9_byte_identical_determinism(tmp_path):
    def body():
        config = ExperimentConfig()  # the full default experiment
        first, second = tmp_path / "run1.csv", tmp_path / "run2.csv"
        emit_results(run_experiment(config), "csv", first, stable_timing=True)
        emit_results(run_experiment(config), "csv", second, stable_timing=True)
        b1, b2 = first.read_bytes(), second.read_bytes()
        assert b1 == b2 and len(b1) > 0

    _run(9, "default experiment twice -> byte-identical CSV", None, body)
