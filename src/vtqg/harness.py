"""Experiment orchestration: build variants, execute, reconstruct, emit results.

A run sweeps the requested circuit variants for a fixed ring, repeats each one
`repetitions` times (repetition r uses seed + r), reconstructs the three Bloch
components per qubit, and reports the magnetization next to the noiseless
statevector reference.  Everything is deterministic given the config: fragment
and basis loops are ordered, and every sampling call derives its stream from
(seed + repetition, variant index, fragment index, basis index).

Results go out as CSV (columns variant,n_qubits,repetition,mag,sx,sy,sz,ideal,
fragments,two_qubit_gates,wall_ms) or as the same flat records in JSON.
`stable_timing` writes wall_ms as 0.0 so two identical runs emit byte-identical
files.
"""

from __future__ import annotations

import csv
import json
import numbers
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .circuit import count_gates
from .errors import ResourceLimitError
from .noise import NoiseModel
from .qpd import build_enumerated_fragments, build_grouped_fragments, run_enumerated_exact
from .sim import PauliObservable, sample_shots
from .tfim import TfimParams, TrotterBuild, build_trotter_circuit, exact_reference, magnetization

RUN_VARIANTS = ("routed_original", "vtqg", "vtqg_pet")
MODES = ("exact", "sampling")
ALLOCATIONS = ("per_fragment", "proportional")
STRATEGIES = ("grouped", "enumerated")

CSV_COLUMNS = ("variant", "n_qubits", "repetition", "mag", "sx", "sy", "sz",
               "ideal", "fragments", "two_qubit_gates", "wall_ms")


def default_params() -> TfimParams:
    return TfimParams(n_qubits=8, h=0.786, J=0.787, dt=0.5, n_steps=1)


@dataclass(frozen=True)
class ExperimentConfig:
    params: TfimParams = field(default_factory=default_params)
    variants: tuple[str, ...] = RUN_VARIANTS
    noise: NoiseModel = field(default_factory=NoiseModel)
    mode: str = "exact"
    shots: int = 8192
    repetitions: int = 20
    seed: int = 7
    shot_allocation: str = "per_fragment"
    sampling_strategy: str = "grouped"

    def __post_init__(self):
        if not isinstance(self.params, TfimParams):
            raise ValueError(f"params must be a TfimParams, got {self.params!r}")
        if not isinstance(self.noise, NoiseModel):
            raise ValueError(f"noise must be a NoiseModel, got {self.noise!r}")
        for name in ("shots", "repetitions"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(self, "variants", tuple(self.variants))
        if not self.variants or any(v not in RUN_VARIANTS for v in self.variants):
            raise ValueError(f"variants must be a non-empty subset of {RUN_VARIANTS}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.mode == "sampling" and self.shots < 1:
            raise ValueError("sampling mode needs shots > 0")
        if self.repetitions < 1:
            raise ValueError("at least one repetition is required")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        object.__setattr__(self, "seed", int(self.seed))  # a numpy integer would overflow the stream keys
        if self.shot_allocation not in ALLOCATIONS:
            raise ValueError(f"shot_allocation must be one of {ALLOCATIONS}")
        if self.sampling_strategy not in STRATEGIES:
            raise ValueError(f"sampling_strategy must be one of {STRATEGIES}")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["variants"] = list(self.variants)
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        obj = dict(obj)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if "params" in obj and isinstance(obj["params"], dict):
            try:
                obj["params"] = TfimParams(**obj["params"])
            except TypeError as exc:  # an unknown or missing field, named in the message
                raise ValueError(f"params: {exc}") from exc
        if "noise" in obj and isinstance(obj["noise"], dict):
            obj["noise"] = NoiseModel.from_dict(obj["noise"])
        if "variants" in obj:
            obj["variants"] = tuple(obj["variants"])
        return cls(**obj)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class ResultRecord:
    variant: str
    n_qubits: int
    repetition: int
    mag: float
    sx: float
    sy: float
    sz: float
    ideal: float
    fragments: int
    two_qubit_gates: int
    wall_ms: float


def _child_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)).generate_state(1, np.uint64)[0])


def _signed_qubit_means(shots, keep_rules) -> np.ndarray:
    """Per-qubit mean of sign * (+1/-1 eigenvalue), zeroing shots that fail keep rules."""
    factor = shots.sign.astype(float)
    for clbit, required in keep_rules:
        factor = factor * (shots.clbits[:, clbit] == required)
    return ((1.0 - 2.0 * shots.bits) * factor[:, None]).mean(axis=0)


def _execute_exact(build: TrotterBuild, noise: NoiseModel):
    n = build.circuit.n_qubits
    obs = [PauliObservable.single(n, q, p) for p in "XYZ" for q in range(n)]
    values, nfrag = run_enumerated_exact(build.circuit, build.cuts, obs, noise)
    # The sampler flips each terminal bit with probability f, which scales
    # every single-qubit Pauli mean by 1 - 2f.
    scale = 1.0 - 2.0 * noise.readout_flip
    return [[scale * v for v in values[j * n:(j + 1) * n]] for j in range(3)], nfrag


def _execute_sampling(build: TrotterBuild, config: ExperimentConfig, seed_rep: int, variant_index: int):
    n = build.circuit.n_qubits
    builder = build_grouped_fragments if config.sampling_strategy == "grouped" else build_enumerated_fragments
    fragments = builder(build.circuit, build.cuts)
    total_abs = sum(abs(f.weight) for f in fragments)
    noise = None if config.noise.is_zero else config.noise
    acc = [np.zeros(n) for _ in range(3)]
    for k, frag in enumerate(fragments):
        if config.shot_allocation == "proportional":
            shots = max(1, round(config.shots * abs(frag.weight) / total_abs))
        else:
            shots = config.shots
        for j, pauli in enumerate("XYZ"):
            outcomes = sample_shots(frag.circuit, shots, _child_seed(seed_rep, variant_index, k, j),
                                    basis=pauli * n, noise=noise)
            acc[j] += frag.weight * _signed_qubit_means(outcomes, frag.keep_rules)
    return [list(a) for a in acc], len(fragments)


def run_experiment(config: ExperimentConfig) -> list[ResultRecord]:
    """Execute every requested variant x repetition and collect flat records."""
    params = config.params
    ideal = exact_reference(params)
    records: list[ResultRecord] = []
    for variant in RUN_VARIANTS:
        if variant not in config.variants:
            continue
        vi = RUN_VARIANTS.index(variant)
        for rep in range(config.repetitions):
            t0 = time.perf_counter()
            try:
                build = build_trotter_circuit(params, variant)
                if config.mode == "exact":
                    comps, nfrag = _execute_exact(build, config.noise)
                else:
                    comps, nfrag = _execute_sampling(build, config, config.seed + rep, vi)
                comps = [build.layout.logical_values(c) for c in comps]
            except ResourceLimitError as exc:
                raise ResourceLimitError(f"variant {variant!r}, repetition {rep}: {exc}") from exc
            wall_ms = (time.perf_counter() - t0) * 1000.0
            sx, sy, sz = (float(np.mean(c)) for c in comps)
            records.append(ResultRecord(
                variant=variant,
                n_qubits=params.n_qubits,
                repetition=rep,
                mag=magnetization(*comps),
                sx=sx, sy=sy, sz=sz,
                ideal=ideal,
                fragments=nfrag,
                two_qubit_gates=count_gates(build.circuit).two_qubit_cnot_equivalents,
                wall_ms=wall_ms,
            ))
    return records


def _record_row(r: ResultRecord, stable_timing: bool) -> dict:
    row = asdict(r)
    if stable_timing:
        row["wall_ms"] = 0.0
    return row


def emit_results(records: list[ResultRecord], fmt: str, path, stable_timing: bool = False) -> None:
    """Write records as CSV or JSON; `stable_timing` zeroes wall_ms for byte-stable output."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    rows = [_record_row(r, stable_timing) for r in records]
    try:
        with open(path, "w", newline="") as fh:
            if fmt == "csv":
                writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
                writer.writeheader()
                writer.writerows(rows)
            else:
                json.dump(rows, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def read_results(path) -> list[ResultRecord]:
    """Parse a results file previously written by emit_results (either format)."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("["):
        rows = json.loads(text)
    else:
        rows = list(csv.DictReader(text.splitlines()))
    records = []
    for row in rows:
        missing = [c for c in CSV_COLUMNS if c not in row]
        if missing:
            raise ValueError(f"{path}: results are missing columns {missing}")
        records.append(ResultRecord(
            variant=str(row["variant"]),
            n_qubits=int(row["n_qubits"]),
            repetition=int(row["repetition"]),
            mag=float(row["mag"]),
            sx=float(row["sx"]),
            sy=float(row["sy"]),
            sz=float(row["sz"]),
            ideal=float(row["ideal"]),
            fragments=int(row["fragments"]),
            two_qubit_gates=int(row["two_qubit_gates"]),
            wall_ms=float(row["wall_ms"]),
        ))
    return records


@dataclass(frozen=True)
class SummaryRow:
    variant: str
    n_qubits: int
    runs: int
    mean_mag: float
    std_mag: float
    abs_error: float
    ideal: float


def report_summary(records: list[ResultRecord]) -> list[SummaryRow]:
    """Per (variant, n_qubits) group: mean magnetization, sample std, |mean - ideal|."""
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple[str, int], list[ResultRecord]] = {}
    for r in records:
        groups.setdefault((r.variant, r.n_qubits), []).append(r)
    rows = []
    for (variant, n), rs in groups.items():
        mags = [r.mag for r in rs]
        mean = float(np.mean(mags))
        std = float(np.std(mags, ddof=1)) if len(mags) > 1 else 0.0
        rows.append(SummaryRow(variant, n, len(rs), mean, std, abs(mean - rs[0].ideal), rs[0].ideal))
    return rows


def format_summary(rows: list[SummaryRow]) -> str:
    header = f"{'variant':<16} {'n':>3} {'runs':>5} {'mean_mag':>12} {'std':>10} {'abs_err':>10} {'ideal':>12}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r.variant:<16} {r.n_qubits:>3} {r.runs:>5} "
                     f"{r.mean_mag:>12.8f} {r.std_mag:>10.6f} {r.abs_error:>10.6f} {r.ideal:>12.8f}")
    return "\n".join(lines)
