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
import math
import numbers
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .circuit import count_gates
from .errors import ResourceLimitError
from .noise import NoiseModel
from .qpd import build_enumerated_fragments, build_grouped_fragments, run_enumerated_exact
from .sim import FragmentRun, bloch_observables, sample_fragments
from .tfim import TfimParams, TrotterBuild, build_trotter_circuit, exact_reference

RUN_VARIANTS = ("routed_original", "vtqg", "vtqg_pet")
MODES = ("exact", "sampling")
ALLOCATIONS = ("per_fragment", "proportional")
STRATEGIES = ("grouped", "enumerated")

CSV_COLUMNS = ("variant", "n_qubits", "repetition", "mag", "sx", "sy", "sz",
               "ideal", "fragments", "two_qubit_gates", "wall_ms")
_COLUMN_TYPES = dict(zip(CSV_COLUMNS, (str, int, int, float, float, float, float, float, int, int, float)))


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
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: a config must be a JSON object, got {type(obj).__name__}")
        return cls.from_dict(obj)


@dataclass(frozen=True, slots=True)
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


def _stream_seed(seed: int, variant: int, fragment: int, basis: int) -> int:
    """The sampler seed of one (variant, fragment, basis) stream of repetition seed `seed`.

    The indices fill disjoint bit fields of the low 64-bit word and the seed
    the words above it, which is injective while the fragment index is below
    2^32 (the builders cap fragments at 10^4).  The sampler mixes every word
    into its stream keys.  Bit 63 keeps the low word nonzero; the sampler
    tells seed h * 2^64 from h without it, but it stays because every stream
    key, and so every sampled CSV bit, depends on it.
    """
    return (seed << 64) | (1 << 63) | (variant << 48) | (fragment << 16) | basis


def _signed_qubit_means(shots, keep_rules) -> np.ndarray:
    """Per-qubit mean of sign * (+1/-1 eigenvalue), zeroing shots that fail keep rules."""
    factor = shots.sign.astype(float)
    for clbit, required in keep_rules:
        factor = factor * (shots.clbits[:, clbit] == required)
    return ((1.0 - 2.0 * shots.bits) * factor[:, None]).mean(axis=0)


def _execute_exact(build: TrotterBuild, noise: NoiseModel):
    n = build.circuit.n_qubits
    values, nfrag = run_enumerated_exact(build.circuit, build.cuts, bloch_observables(n), noise)
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
    bases = [pauli * n for pauli in "XYZ"]
    runs = []
    for k, frag in enumerate(fragments):
        if config.shot_allocation == "proportional":
            shots = max(1, round(config.shots * abs(frag.weight) / total_abs))
        else:
            shots = config.shots
        seeds = [_stream_seed(seed_rep, variant_index, k, j) for j in range(3)]
        runs.append(FragmentRun(frag.inserted, shots, seeds, bases))
    acc = [np.zeros(n) for _ in range(3)]
    positions = sorted(cut.position for cut in build.cuts)
    for frag, per_basis in zip(fragments, sample_fragments(build.circuit, positions, runs, noise)):
        for j, outcomes in enumerate(per_basis):
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
                mag=math.sqrt(sx * sx + sy * sy + sz * sz),
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


def _cell(path, row: int, column: str, value, kind: type, text: bool):
    """One results cell as `kind`: CSV text that `kind` parses, or a JSON value of that kind (an int also
    passes as a float); never a bool."""
    allowed = str if text else (int, float) if kind is float else kind
    if isinstance(value, allowed) and not isinstance(value, bool):
        try:
            return kind(value)
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"{path}: row {row}, column {column!r}: expected {kind.__name__}, got {value!r}")


def read_results(path) -> list[ResultRecord]:
    """Parse a results file previously written by emit_results (either format).

    A malformed cell raises ValueError naming the path, its row (counting records from 1) and its column;
    so does a row with a cell or key the columns do not name, which would otherwise be dropped unread.
    """
    with open(path) as fh:
        text = fh.read()
    is_json = text.lstrip().startswith(("[", "{"))
    if is_json:
        rows = json.loads(text)
        if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
            raise ValueError(f"{path}: JSON results must be a list of objects")
    else:
        rows = list(csv.DictReader(text.splitlines()))
    records = []
    for i, row in enumerate(rows, 1):
        missing = [c for c in CSV_COLUMNS if c not in row]
        if missing:
            raise ValueError(f"{path}: results are missing columns {missing}")
        unknown = set(row) - set(CSV_COLUMNS)
        if unknown:  # csv.DictReader files the cells past the header under None
            what = f"cells past the header {row[None]}" if None in unknown else f"unknown columns {sorted(unknown)}"
            raise ValueError(f"{path}: row {i} has {what}")
        records.append(ResultRecord(**{c: _cell(path, i, c, row[c], kind, not is_json)
                                       for c, kind in _COLUMN_TYPES.items()}))
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
