import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtqg.circuit import cnot, h, measure_z, reset, rx, rz, rzx, rzz, swap, x
from vtqg.noise import NoiseModel, PET_LINEAR, PET_OFF, depolarize
from vtqg.sim import DensityMatrix, PauliObservable, expectation, run_density
from vtqg.tfim import TfimParams, build_trotter_circuit, exact_reference, magnetization, pauli_components

import oracles


class TestNoiseModelValidation:
    def test_defaults_match_device_averages(self):
        model = NoiseModel()
        assert model.p1 == 0.0003
        assert model.p2 == 0.0087
        assert model.pet_scaling == PET_LINEAR

    @pytest.mark.parametrize("field,value", [("p1", -0.1), ("p2", 1.5), ("reset_error", 2.0),
                                             ("readout_flip", -1e-9), ("p1", True)])
    def test_probability_ranges(self, field, value):
        with pytest.raises(ValueError):
            NoiseModel(**{field: value})

    def test_numpy_scalars_accepted_as_floats(self):
        model = NoiseModel(p1=np.float32(0.001), p2=np.float64(0.02), readout_flip=np.int64(0))
        assert model.p1 == float(np.float32(0.001)) and type(model.p1) is float
        assert type(model.p2) is float and type(model.readout_flip) is float
        assert NoiseModel.from_json(model.to_json()) == model

    def test_pet_scaling_values(self):
        with pytest.raises(ValueError):
            NoiseModel(pet_scaling="quadratic")

    def test_is_zero(self):
        assert NoiseModel(p1=0, p2=0).is_zero
        assert not NoiseModel().is_zero
        assert not NoiseModel(p1=0, p2=0, readout_flip=0.01).is_zero


class TestJsonRoundtrip:
    def test_exact_field_names(self):
        obj = json.loads(NoiseModel().to_json())
        assert set(obj) == {"p1", "p2", "pet_scaling", "reset_error", "readout_flip"}

    def test_roundtrip(self):
        model = NoiseModel(p1=0.001, p2=0.02, pet_scaling=PET_OFF, reset_error=0.005, readout_flip=0.01)
        assert NoiseModel.from_json(model.to_json()) == model

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel.from_json('{"p1": 0.1, "t1_us": 100}')


class TestDepolarize:
    def test_zero_strength_is_identity(self):
        rng = np.random.default_rng(0)
        rho = DensityMatrix(2, oracles.random_density(2, rng))
        out = depolarize(rho, (0,), 0.0)
        assert np.array_equal(out.mat, rho.mat)

    def test_full_strength_mixes_single_qubit(self):
        out = depolarize(DensityMatrix.zero(1), (0,), 1.0)
        assert np.allclose(out.mat, np.eye(2) / 2, atol=1e-14)

    def test_full_strength_marginal_on_entangled_state(self):
        from vtqg.circuit import Circuit
        bell = run_density(Circuit(2, 0, (h(0), cnot(0, 1))))
        out = depolarize(bell, (0,), 1.0)
        # qubit 0 marginal is I/2, qubit 1 keeps its (also mixed) marginal
        assert np.allclose(out.mat, np.eye(4) / 4, atol=1e-12)

    def test_z_expectation_contracts_linearly(self):
        rng = np.random.default_rng(1)
        rho = DensityMatrix(1, oracles.random_density(1, rng))
        z = PauliObservable.single(1, 0, "Z")
        before = expectation(rho, z)
        for p in (0.1, 0.5, 0.93):
            after = expectation(depolarize(rho, (0,), p), z)
            assert after == pytest.approx((1 - p) * before, abs=1e-12)

    def test_two_qubit_channel(self):
        rng = np.random.default_rng(2)
        rho = oracles.random_density(2, rng)
        p = 0.37
        out = depolarize(DensityMatrix(2, rho), (0, 1), p)
        expected = (1 - p) * rho + p * np.eye(4) / 4
        assert np.allclose(out.mat, expected, atol=1e-12)

    @given(p=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_trace_and_positivity_preserved(self, p):
        rng = np.random.default_rng(3)
        rho = DensityMatrix(2, oracles.random_density(2, rng))
        out = depolarize(rho, (1,), p)
        assert out.trace == pytest.approx(1.0, abs=1e-10)
        assert min(np.linalg.eigvalsh(out.mat)) > -1e-10

    def test_out_of_range_strength(self):
        with pytest.raises(ValueError):
            depolarize(DensityMatrix.zero(1), (0,), 1.2)
        with pytest.raises(ValueError):
            depolarize(DensityMatrix.zero(1), (0,), -0.01)
        with pytest.raises(ValueError):
            depolarize(DensityMatrix.zero(1), (0,), True)

    def test_bad_qubits(self):
        with pytest.raises(ValueError):
            depolarize(DensityMatrix.zero(2), (0, 0), 0.1)
        with pytest.raises(ValueError):
            depolarize(DensityMatrix.zero(2), (5,), 0.1)


class TestStrengthForGate:
    def test_single_qubit_gates_get_p1(self):
        model = NoiseModel()
        for g in (x(0), h(0), rx(0.3, 0), rz(0.3, 0)):
            assert model.strength_for(g) == 0.0003

    def test_cnot_gets_p2(self):
        assert NoiseModel().strength_for(cnot(0, 1)) == 0.0087

    def test_swap_composes_three_cnots(self):
        model = NoiseModel()
        assert model.strength_for(swap(0, 1)) == pytest.approx(1 - (1 - 0.0087) ** 3)

    def test_rzz_composes_two_cnots(self):
        model = NoiseModel()
        assert model.strength_for(rzz(0.3, 0, 1)) == pytest.approx(1 - (1 - 0.0087) ** 2)

    def test_pet_rzx_scales_with_angle(self):
        model = NoiseModel()
        assert model.strength_for(rzx(math.pi / 2, 0, 1, pet=True)) == pytest.approx(0.0087 * 0.5)

    def test_pet_rzx_clamped_to_p1_floor(self):
        model = NoiseModel()
        assert model.strength_for(rzx(1e-6, 0, 1, pet=True)) == model.p1

    def test_pet_rzx_clamped_to_p2_ceiling(self):
        model = NoiseModel()
        assert model.strength_for(rzx(2.5 * math.pi, 0, 1, pet=True)) == model.p2

    def test_pet_scaling_off_falls_back_to_p2(self):
        model = NoiseModel(pet_scaling=PET_OFF)
        assert model.strength_for(rzx(math.pi / 2, 0, 1, pet=True)) == model.p2

    def test_untagged_rzx_costs_p2(self):
        assert NoiseModel().strength_for(rzx(0.3, 0, 1)) == 0.0087

    def test_measure_and_reset_get_reset_error(self):
        model = NoiseModel(reset_error=0.004)
        assert model.strength_for(measure_z(0, 0)) == 0.004
        assert model.strength_for(reset(0)) == 0.004
        assert NoiseModel().strength_for(reset(0)) == 0.0

    def test_controlled_gate_uses_inner(self):
        from vtqg.circuit import classically_controlled
        model = NoiseModel()
        assert model.strength_for(classically_controlled(x(0), 0)) == model.p1

    def test_pet_never_exceeds_two_cnot_baseline(self):
        model = NoiseModel()
        baseline = model.strength_for(rzz(0.3, 0, 1))
        for theta in np.linspace(-math.pi, math.pi, 41):
            pet = model.strength_for(rzx(float(theta), 0, 1, pet=True))
            assert pet <= baseline + 1e-15


class TestMonotonicDegradation:
    def test_error_nondecreasing_in_p2(self):
        params = TfimParams(8, 0.786, 0.787, 0.5, 1)
        ideal = exact_reference(params)
        build = build_trotter_circuit(params, "routed_original")
        errors = []
        for p2 in (0.0, 0.002, 0.0087, 0.02):
            rho = run_density(build.circuit, NoiseModel(p1=0.0003, p2=p2))
            mag = magnetization(*pauli_components(rho, build.layout))
            errors.append(abs(mag - ideal))
        assert all(a <= b + 1e-12 for a, b in zip(errors, errors[1:]))
