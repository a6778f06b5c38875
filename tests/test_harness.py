import json

import numpy as np
import pytest

from vtqg.errors import ResourceLimitError
from vtqg.harness import (
    CSV_COLUMNS,
    RUN_VARIANTS,
    ExperimentConfig,
    ResultRecord,
    default_params,
    emit_results,
    format_summary,
    read_results,
    report_summary,
    run_experiment,
)
from vtqg import qpd
from vtqg.circuit import rzz
from vtqg.noise import NoiseModel
from vtqg.sim import DensityMatrix, apply_gates_density
from vtqg.tfim import TfimParams, build_trotter_circuit, exact_reference, magnetization, pauli_components

import oracles

ZERO_NOISE = NoiseModel(p1=0.0, p2=0.0)


def small_config(**kwargs):
    defaults = dict(params=TfimParams(4, 0.786, 0.787, 0.5, 1), repetitions=2,
                    noise=ZERO_NOISE, seed=3)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def record(**kwargs):
    base = dict(variant="vtqg", n_qubits=4, repetition=0, mag=0.5, sx=0.1, sy=0.2, sz=0.3,
                ideal=0.88, fragments=10, two_qubit_gates=6, wall_ms=1.25)
    base.update(kwargs)
    return ResultRecord(**base)


class TestConfig:
    def test_defaults_mirror_reference_experiment(self):
        config = ExperimentConfig()
        assert config.params == TfimParams(8, 0.786, 0.787, 0.5, 1)
        assert config.shots == 8192
        assert config.repetitions == 20
        assert config.variants == ("routed_original", "vtqg", "vtqg_pet")
        assert config.mode == "exact"

    def test_dict_roundtrip(self):
        config = small_config(mode="sampling", shots=100, shot_allocation="proportional")
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again == config

    def test_json_file(self, tmp_path):
        path = tmp_path / "config.json"
        config = small_config()
        path.write_text(json.dumps(config.to_dict()))
        assert ExperimentConfig.from_json_file(path) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(variants=("ideal",))
        with pytest.raises(ValueError):
            small_config(variants=())
        with pytest.raises(ValueError):
            small_config(mode="approximate")
        with pytest.raises(ValueError):
            small_config(mode="sampling", shots=0)
        with pytest.raises(ValueError):
            small_config(repetitions=0)
        with pytest.raises(ValueError):
            small_config(seed=-4)
        with pytest.raises(ValueError, match="seed"):
            small_config(seed=True)
        sampled = dict(mode="sampling", shots=64, noise=NoiseModel())
        numpy_seed = small_config(seed=np.int64(3), **sampled)
        assert type(numpy_seed.seed) is int and json.dumps(numpy_seed.to_dict())
        strip = lambda r: {k: v for k, v in r.__dict__.items() if k != "wall_ms"}
        assert (list(map(strip, run_experiment(numpy_seed)))
                == list(map(strip, run_experiment(small_config(seed=3, **sampled)))))
        with pytest.raises(ValueError):
            small_config(shot_allocation="equal")
        with pytest.raises(ValueError):
            small_config(sampling_strategy="direct")

    def test_non_integer_counts_rejected(self):
        with pytest.raises(ValueError, match="repetitions"):
            small_config(repetitions=2.5)
        with pytest.raises(ValueError, match="shots"):
            small_config(mode="sampling", shots=2.5)
        with pytest.raises(ValueError, match="shots"):
            small_config(mode="sampling", shots=True)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"params": default_params().__dict__, "backend": "x"})

    def test_params_and_noise_must_be_their_types(self):
        with pytest.raises(ValueError, match="params"):
            small_config(params=default_params().__dict__)
        with pytest.raises(ValueError, match="noise"):
            small_config(noise=None)

    def test_unknown_or_missing_params_fields_rejected(self):
        params = default_params().__dict__
        with pytest.raises(ValueError, match="width"):
            ExperimentConfig.from_dict({"params": params | {"width": 3}})
        with pytest.raises(ValueError, match="dt"):
            ExperimentConfig.from_dict({"params": {k: v for k, v in params.items() if k != "dt"}})
        no_steps = {k: v for k, v in params.items() if k != "n_steps"}  # n_steps has a default
        assert ExperimentConfig.from_dict({"params": no_steps}).params.n_steps == 1


class TestRunExperiment:
    def test_noiseless_exact_matches_ideal(self):
        records = run_experiment(small_config(repetitions=1))
        assert len(records) == 3
        for r in records:
            assert r.mag == pytest.approx(r.ideal, abs=1e-9)
            assert r.ideal == pytest.approx(oracles.REF_MAG_SINGLE_STEP, abs=1e-9)

    def test_noiseless_exact_past_four_cuts(self):
        # exact mode builds no fragment circuits, so the fragment builders' cut cap does not apply
        params = TfimParams(6, 0.786, 0.787, 0.5, 5)
        records = run_experiment(small_config(params=params, repetitions=1, variants=("vtqg", "vtqg_pet")))
        assert [r.variant for r in records] == ["vtqg", "vtqg_pet"]
        for r in records:
            assert r.fragments == 10**5
            assert r.mag == pytest.approx(exact_reference(params), abs=1e-9)

    def test_fragment_accounting(self):
        records = {r.variant: r for r in run_experiment(small_config(repetitions=1))}
        assert records["routed_original"].fragments == 1
        assert records["vtqg"].fragments == 10
        assert records["vtqg_pet"].fragments == 10
        sampling = {r.variant: r for r in run_experiment(
            small_config(repetitions=1, mode="sampling", shots=64, variants=("vtqg",)))}
        assert sampling["vtqg"].fragments == 6
        enumerated = run_experiment(small_config(
            repetitions=1, mode="sampling", shots=64, variants=("vtqg",),
            sampling_strategy="enumerated"))
        assert enumerated[0].fragments == 10

    def test_two_qubit_tally(self):
        records = {r.variant: r for r in run_experiment(small_config(repetitions=1))}
        # n=4: routed = 4 RZZ * 2 + 2 SWAP * 3; vtqg = 3 RZZ * 2; pet = 3 RZX * 1
        assert records["routed_original"].two_qubit_gates == 14
        assert records["vtqg"].two_qubit_gates == 6
        assert records["vtqg_pet"].two_qubit_gates == 3

    def test_repetitions_identical_in_exact_mode(self):
        records = run_experiment(small_config(repetitions=3, variants=("vtqg",)))
        mags = {r.mag for r in records}
        assert len(mags) == 1 and [r.repetition for r in records] == [0, 1, 2]

    def test_sampling_reps_differ_but_are_seeded(self):
        config = small_config(repetitions=2, mode="sampling", shots=256, variants=("vtqg",))
        a = run_experiment(config)
        b = run_experiment(config)
        assert [r.mag for r in a] == [r.mag for r in b]
        assert a[0].mag != a[1].mag  # different repetition seeds

    def test_enumerated_sampling_executes_ten_fragments_times_three_bases(self, monkeypatch):
        import vtqg.harness as harness_mod
        calls = []
        real = harness_mod.sample_shots

        def spy(circuit, n_shots, seed, basis=None, noise=None):
            calls.append((n_shots, basis))
            return real(circuit, n_shots, seed, basis=basis, noise=noise)

        monkeypatch.setattr(harness_mod, "sample_shots", spy)
        run_experiment(small_config(repetitions=1, mode="sampling", shots=16,
                                    variants=("vtqg",), sampling_strategy="enumerated"))
        assert len(calls) == 30  # 10 fragments x 3 measurement bases
        assert {b for _, b in calls} == {"XXXX", "YYYY", "ZZZZ"}

    def test_proportional_allocation_splits_by_weight(self, monkeypatch):
        import vtqg.harness as harness_mod
        from vtqg.qpd import build_grouped_fragments
        from vtqg.tfim import build_trotter_circuit
        calls = []
        real = harness_mod.sample_shots

        def spy(circuit, n_shots, seed, basis=None, noise=None):
            calls.append(n_shots)
            return real(circuit, n_shots, seed, basis=basis, noise=noise)

        monkeypatch.setattr(harness_mod, "sample_shots", spy)
        config = small_config(repetitions=1, mode="sampling", shots=6000,
                              variants=("vtqg",), shot_allocation="proportional")
        run_experiment(config)
        build = build_trotter_circuit(config.params, "vtqg")
        weights = [f.weight for f in build_grouped_fragments(build.circuit, build.cuts)]
        total = sum(abs(w) for w in weights)
        expected = [max(1, round(6000 * abs(w) / total)) for w in weights]
        assert calls[::3] == expected  # one entry per fragment (same for each basis)
        assert max(calls) > min(calls)

    def test_exact_mode_applies_readout_flip(self):
        # the sampler flips terminal bits with probability f, so every Bloch
        # component (and the magnetization) scales by 1 - 2f
        f = 0.2
        base = run_experiment(small_config(repetitions=1, noise=NoiseModel()))
        flipped = run_experiment(small_config(repetitions=1, noise=NoiseModel(readout_flip=f)))
        assert [r.variant for r in flipped] == ["routed_original", "vtqg", "vtqg_pet"]
        for a, b in zip(base, flipped):
            for name in ("sx", "sy", "sz", "mag"):
                assert abs(getattr(b, name) - (1 - 2 * f) * getattr(a, name)) < 1e-12, (a.variant, name)

    def test_readout_flip_on_light_cones(self, monkeypatch):
        # at n = 8 exact mode runs light cones; they carry readout_flip as the full run does
        cone_runs = []
        real = qpd._evaluate_cones
        monkeypatch.setattr(qpd, "_evaluate_cones", lambda *a: cone_runs.append(1) or real(*a))
        f = 0.2
        noise = NoiseModel(readout_flip=f)
        params = TfimParams(8, 0.786, 0.787, 0.5, 1)
        for r in run_experiment(small_config(params=params, repetitions=1, noise=noise)):
            build = build_trotter_circuit(params, r.variant)
            rho, start = DensityMatrix.zero(8), 0
            for cut in build.cuts:  # the full density run, each cut a noiseless RZZ
                rho = apply_gates_density(rho, build.circuit.gates[start:cut.position], noise)
                rho = apply_gates_density(rho, [rzz(-cut.theta, cut.qubit_a, cut.qubit_b)])
                start = cut.position
            rho = apply_gates_density(rho, build.circuit.gates[start:], noise)
            comps = [[(1 - 2 * f) * v for v in c] for c in pauli_components(rho, build.layout)]
            assert max(abs(a - float(np.mean(c))) for a, c in zip((r.sx, r.sy, r.sz), comps)) < 1e-12
            assert abs(r.mag - magnetization(*comps)) < 1e-12
        assert len(cone_runs) == 3

    @pytest.mark.parametrize("variant", RUN_VARIANTS)
    def test_density_cap_applies_to_every_variant(self, variant, monkeypatch):
        # 11 qubits is past the density cap: every variant runs on light cones
        # of 3 qubits, and the cap applies to each cone
        config = small_config(params=TfimParams(11, 0.786, 0.787, 0.5, 1), variants=(variant,), repetitions=1)
        (record,) = run_experiment(config)
        assert abs(record.mag - record.ideal) < 1e-9
        monkeypatch.setattr(qpd, "DENSITY_QUBIT_CAP", 2)
        with pytest.raises(ResourceLimitError, match="spans 3 qubits, which exceeds density cap 2"):
            run_experiment(config)

    def test_sampling_keeps_the_statevector_cap(self):
        # exact mode and the reference run past 16 qubits; the sampler, which
        # holds 2^n amplitudes per shot, still refuses them
        config = small_config(params=TfimParams(17, 0.786, 0.787, 0.5, 1), mode="sampling", shots=1,
                              variants=("vtqg",), repetitions=1)
        with pytest.raises(ResourceLimitError, match="statevector cap"):
            run_experiment(config)

    def test_noise_ordering_across_sizes(self):
        gaps = []
        for n in (4, 6, 8):
            config = ExperimentConfig(params=TfimParams(n, 0.786, 0.787, 0.5, 1),
                                      repetitions=1, noise=NoiseModel(), seed=0)
            records = {r.variant: r for r in run_experiment(config)}
            err = {v: abs(r.mag - r.ideal) for v, r in records.items()}
            assert err["vtqg_pet"] <= err["vtqg"] < err["routed_original"]
            gaps.append(err["routed_original"] - err["vtqg"])
        assert gaps[0] < gaps[1] < gaps[2]


class TestEmitAndRead:
    def test_csv_columns_and_order(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results([record()], "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        assert lines[1].startswith("vtqg,4,0,0.5,")

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_results([], "csv", path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_json_roundtrip_identity(self, tmp_path):
        path = tmp_path / "out.json"
        records = [record(), record(repetition=1, mag=0.25, wall_ms=9.75)]
        emit_results(records, "json", path)
        assert read_results(path) == records

    def test_csv_roundtrip_identity(self, tmp_path):
        path = tmp_path / "out.csv"
        records = [record(), record(variant="routed_original", fragments=1, mag=1 / 3)]
        emit_results(records, "csv", path)
        assert read_results(path) == records

    def test_stable_timing_zeroes_wall(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results([record(wall_ms=123.4)], "csv", path, stable_timing=True)
        assert read_results(path)[0].wall_ms == 0.0

    def test_missing_columns_listed(self, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("variant,n_qubits,mag\nvtqg,4,0.5\n")
        with pytest.raises(ValueError, match="'repetition'") as err:
            read_results(path)
        assert "'wall_ms'" in str(err.value) and "'mag'" not in str(err.value)

    def test_bad_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], "yaml", tmp_path / "x")

    def test_io_error_reports_path(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        with pytest.raises(OSError) as err:
            emit_results([record()], "csv", missing)
        assert str(missing) in str(err.value)


class TestDeterminism:
    def test_byte_identical_csv(self, tmp_path):
        config = small_config(mode="sampling", shots=128, repetitions=2, noise=NoiseModel())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(run_experiment(config), "csv", p1, stable_timing=True)
        emit_results(run_experiment(config), "csv", p2, stable_timing=True)
        assert p1.read_bytes() == p2.read_bytes()

    def test_records_identical_except_walltime(self):
        config = small_config(repetitions=1)
        strip = lambda r: {k: v for k, v in r.__dict__.items() if k != "wall_ms"}
        assert list(map(strip, run_experiment(config))) == list(map(strip, run_experiment(config)))


class TestSummary:
    def test_identical_records_zero_std(self):
        rows = report_summary([record() for _ in range(20)])
        assert rows[0].runs == 20
        assert rows[0].std_mag == 0.0

    def test_two_value_statistics(self):
        rows = report_summary([record(mag=0.4), record(mag=0.6, repetition=1)])
        assert rows[0].mean_mag == pytest.approx(0.5)
        assert rows[0].std_mag == pytest.approx(0.1414, abs=1e-4)  # sample std, n-1

    def test_abs_error_against_ideal(self):
        rows = report_summary([record(mag=0.8, ideal=0.9)])
        assert rows[0].abs_error == pytest.approx(0.1)

    def test_groups_by_variant_and_size(self):
        rows = report_summary([record(), record(variant="routed_original"), record(n_qubits=8)])
        assert len(rows) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report_summary([])

    def test_format_contains_groups(self):
        text = format_summary(report_summary([record()]))
        assert "vtqg" in text and "abs_err" in text

    def test_error_gap_grows_with_size(self):
        # improvement of the virtual gate over routing grows with the ring
        summaries = {}
        for n in (4, 6, 8):
            config = ExperimentConfig(params=TfimParams(n, 0.786, 0.787, 0.5, 1),
                                      repetitions=1, noise=NoiseModel(), seed=0,
                                      variants=("routed_original", "vtqg"))
            rows = {s.variant: s for s in report_summary(run_experiment(config))}
            summaries[n] = rows["routed_original"].abs_error - rows["vtqg"].abs_error
        assert summaries[4] < summaries[6] < summaries[8]
