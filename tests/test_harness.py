import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
import vtqg
from vtqg import qpd, sim
from vtqg.circuit import rzz
from vtqg.harness import _stream_seed
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
        strip = lambda r: {k: v for k, v in dataclasses.asdict(r).items() if k != "wall_ms"}
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

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', "3"])
    def test_json_file_that_is_not_an_object_names_the_path(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"config\.json: a config must be a JSON object"):
            ExperimentConfig.from_json_file(path)

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
        real = harness_mod.sample_fragments

        def spy(circuit, positions, runs, noise=None):
            calls.append([(run.n_shots, tuple(run.bases)) for run in runs])
            return real(circuit, positions, runs, noise)

        monkeypatch.setattr(harness_mod, "sample_fragments", spy)
        run_experiment(small_config(repetitions=1, mode="sampling", shots=16,
                                    variants=("vtqg",), sampling_strategy="enumerated"))
        (runs,) = calls  # one pass for the variant's repetition
        assert len(runs) == 10  # 10 fragments, each sampled in its 3 measurement bases
        assert all(bases == ("XXXX", "YYYY", "ZZZZ") for _, bases in runs)

    def test_proportional_allocation_splits_by_weight(self, monkeypatch):
        import vtqg.harness as harness_mod
        from vtqg.qpd import build_grouped_fragments
        from vtqg.tfim import build_trotter_circuit
        calls = []
        real = harness_mod.sample_fragments

        def spy(circuit, positions, runs, noise=None):
            calls.append([run.n_shots for run in runs])
            return real(circuit, positions, runs, noise)

        monkeypatch.setattr(harness_mod, "sample_fragments", spy)
        config = small_config(repetitions=1, mode="sampling", shots=6000,
                              variants=("vtqg",), shot_allocation="proportional")
        run_experiment(config)
        build = build_trotter_circuit(config.params, "vtqg")
        weights = [f.weight for f in build_grouped_fragments(build.circuit, build.cuts)]
        total = sum(abs(w) for w in weights)
        expected = [max(1, round(6000 * abs(w) / total)) for w in weights]
        (shots,) = calls  # one pass, with one run per fragment for all three bases
        assert shots == expected
        assert max(shots) > min(shots)

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
        widths = []
        real = qpd._evaluate
        monkeypatch.setattr(qpd, "_evaluate", lambda runs, obs: widths.append([w for w, *_ in runs]) or real(runs, obs))
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
        assert len(widths) == 3 and max(map(max, widths)) < 8  # three calls, each on light cones

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

    @pytest.mark.parametrize("text", ['{"variant": "vtqg"}', '{\n  "records": []\n}', '[1, 2]',
                                      '[{"variant": "vtqg"}, []]'])
    def test_json_that_is_not_a_list_of_objects_names_the_path(self, tmp_path, text):
        path = tmp_path / "odd.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="odd.json"):
            read_results(path)

    @pytest.mark.parametrize("column, value", [("mag", None), ("n_qubits", 4.5), ("repetition", 1.9),
                                               ("fragments", True), ("sx", False), ("variant", 3)])
    def test_json_cell_of_the_wrong_type_names_path_row_and_column(self, tmp_path, column, value):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps([dataclasses.asdict(record()), dataclasses.asdict(record()) | {column: value}]))
        with pytest.raises(ValueError, match=rf"typed\.json: row 2, column '{column}'"):
            read_results(path)

    def test_json_int_passes_as_a_float(self, tmp_path):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps([dataclasses.asdict(record()) | {"mag": 1, "wall_ms": 0}]))
        (got,) = read_results(path)
        assert got == record(mag=1.0, wall_ms=0.0) and type(got.mag) is float

    @pytest.mark.parametrize("column, value", [("mag", "x"), ("n_qubits", "4.5"), ("repetition", ""),
                                               ("wall_ms", "1,5")])
    def test_csv_cell_that_does_not_parse_names_path_row_and_column(self, tmp_path, column, value):
        path = tmp_path / "typed.csv"
        emit_results([record(), record()], "csv", path)
        header, first, second = path.read_text().splitlines()
        cells = second.split(",")
        cells[CSV_COLUMNS.index(column)] = f'"{value}"'
        path.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
        with pytest.raises(ValueError, match=rf"typed\.csv: row 2, column '{column}'"):
            read_results(path)

    def test_csv_row_with_cells_past_the_header_names_path_and_row(self, tmp_path):
        path = tmp_path / "wide.csv"
        emit_results([record(), record()], "csv", path)
        header, first, second = path.read_text().splitlines()
        path.write_text("\n".join([header, first, second + ",99,junk"]) + "\n")
        with pytest.raises(ValueError, match=r"wide\.csv: row 2 has cells past the header \['99', 'junk'\]"):
            read_results(path)

    def test_json_record_with_an_unknown_key_names_path_row_and_key(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps([dataclasses.asdict(record()) | {"magg": 3}]))
        with pytest.raises(ValueError, match=r"extra\.json: row 1 has unknown columns \['magg'\]"):
            read_results(path)

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
        strip = lambda r: {k: v for k, v in dataclasses.asdict(r).items() if k != "wall_ms"}
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


class TestChildSeeds:
    def test_stream_seeds_and_their_keys_are_distinct(self):
        seeds = [_stream_seed(rep, v, k, j) for rep in (0, 1, 2**64 + 3) for v in range(3)
                 for k in range(10_000) for j in range(3)]
        assert len(set(seeds)) == len(seeds)
        # seed h * 2^64 + 0 would hash like seed h: the low word must never be zero
        assert len(np.unique(sim._seed_keys(seeds))) == len(seeds)

    def test_sampling_run_does_not_import_numpy_random(self):
        # numpy 1.x imports numpy.random with numpy itself, so compare before and after the run
        code = ("import sys, numpy\n"
                "before = 'numpy.random' in sys.modules\n"
                "from vtqg.harness import ExperimentConfig, run_experiment\n"
                "from vtqg.tfim import TfimParams\n"
                "run_experiment(ExperimentConfig(params=TfimParams(4, 0.786, 0.787, 0.5, 1), mode='sampling',\n"
                "                                shots=8, repetitions=1))\n"
                "print(before, 'numpy.random' in sys.modules)\n")
        src = str(Path(vtqg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        before, after = done.stdout.split()
        assert after == before


def ring(n, steps=1):
    return TfimParams(n_qubits=n, h=0.786, J=0.787, dt=0.5, n_steps=steps)


# sha256 of the --stable-timing CSV of each config.  The sampling digests were
# recorded when the stream seeds became packed (repetition seed, variant,
# fragment, basis) fields: stream seeds, fragment order and every shot must stay
# as they were.  The exact digests, and the grouped one, whose `ideal` column
# moved, were recorded when every Pauli mean became one signed sum over a
# gather of the state's x-diagonal (every cell within 1.2e-16 of the marginal
# reads before it): light cones (n = 8) and the full run with two cuts (n = 6)
# must keep every bit.
PINNED_CSVS = {
    "exact_n8": (dict(params=ring(8), repetitions=2, seed=1),
                 "34e9a32e2f1f7a0c4efba6c2c2cf47d7682cb164acbf2eb2059f54e86ca4b41d"),
    "exact_n6_two_cuts_reset_readout": (
        dict(params=ring(6, 2), variants=("vtqg", "vtqg_pet"), repetitions=1,
             noise=NoiseModel(reset_error=0.01, readout_flip=0.05)),
        "b9fe41191dfd1456c63c25f1742feeffa090a2de2951d58931a8df661a868db2"),
    "grouped_per_fragment_n6": (
        dict(params=ring(6), mode="sampling", shots=64, repetitions=2, seed=11),
        "a0912830665eb8fd87073195f0a606676954b65eda5ab2285b342a4d8b93edf9"),
    "enumerated_proportional_readout": (
        dict(params=ring(4), mode="sampling", shots=3000, repetitions=2, seed=5, sampling_strategy="enumerated",
             shot_allocation="proportional", noise=NoiseModel(readout_flip=0.05, reset_error=0.01)),
        "f7cedebbfdfcbdaa8f68a3237609059e7706a2536f461b0eb18661b92c3e17c7"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CSVS))
def test_sampling_csv_matches_the_recorded_digest(name, tmp_path):
    fields, digest = PINNED_CSVS[name]
    path = tmp_path / "out.csv"
    emit_results(run_experiment(ExperimentConfig(**fields)), "csv", path, stable_timing=True)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("strategy", ["grouped", "enumerated"])
def test_sampling_run_lands_within_four_standard_errors_of_exact_mode(strategy):
    shots = 20_000
    fields = dict(params=ring(4), variants=("vtqg",), repetitions=1, seed=1, sampling_strategy=strategy)
    exact, = run_experiment(ExperimentConfig(**fields))
    sampled, = run_experiment(ExperimentConfig(mode="sampling", shots=shots, **fields))
    build = build_trotter_circuit(ring(4), "vtqg")
    builder = qpd.build_grouped_fragments if strategy == "grouped" else qpd.build_enumerated_fragments
    # each shot's signed value lies in [-1, 1], so a component's variance is at most sum(w^2) / shots
    se = math.sqrt(sum(f.weight**2 for f in builder(build.circuit, build.cuts)) / shots)
    for component in ("sx", "sy", "sz"):
        assert abs(getattr(sampled, component) - getattr(exact, component)) < 4 * se, component
