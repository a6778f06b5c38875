#!/usr/bin/env python3
"""vtqg benchmark: time `run_experiment` end to end and per layer.

    python3 perfbench/run.py --workload exact_ring8 --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
A run sets up (median of several fresh-process set-ups), repeats passes of the
workload until `--seconds` have elapsed, checks every result, and prints one
JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer metrics
of a traced run (see tracing.py).  One pass calls `run_experiment` once per
variant, as the CLI would with `--variant v`, then writes all records to CSV
with `emit_results`.  The workloads and the reasons for them are in DESIGN.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS/OpenMP threads, pinned before numpy is imported.  One thread keeps the
# figures steady on a shared machine and never exceeds nproc.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_SAMPLES = 9      # fresh-process set-ups per run; setup_s is their median
MIN_PASSES = 3         # timed passes per untraced run, even past --seconds
ALL_VARIANTS = ("routed_original", "vtqg", "vtqg_pet")

# Correctness tolerances.
TOL_NOISELESS = 1e-9       # zero-noise exact magnetization vs exact_reference
TOL_NOISY_EXACT = 1e-3     # noisy exact magnetization vs the independent density reference
SAMPLING_SIGMAS = 5.0      # sampled Bloch components vs the density reference, in standard errors

END_TO_END = {"setup_s": "s", "experiment_s": "s", **{f"variant_s.{v}": "s" for v in ALL_VARIANTS},
              "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Call:
    """One `run_experiment` call of a pass: a single variant on one ring."""

    variant: str
    n_qubits: int
    n_steps: int
    repetitions: int


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    mode: str = "exact"
    shots: int = 1
    ordering_check: bool = False  # |err(vtqg_pet)| < |err(vtqg)| < |err(routed_original)|


RING = dict(h=0.786, J=0.787, dt=0.5)   # the default experiment's couplings

WORKLOADS = {w.name: w for w in (
    Workload("exact_ring8", tuple(Call(v, 8, 1, 2) for v in ALL_VARIANTS), ordering_check=True),
    # build_trotter_circuit routes one Trotter step only, so this workload's
    # routed_original call is the one-step n=6 ring at the default 20
    # repetitions: a guard on the uncut path in the small-state regime.
    Workload("exact_deep_cuts", (Call("routed_original", 6, 1, 20), Call("vtqg", 6, 2, 1),
                                 Call("vtqg_pet", 6, 2, 1))),
    Workload("sampling_ring8", tuple(Call(v, 8, 1, 1) for v in ALL_VARIANTS), mode="sampling", shots=32),
)}


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_vtqg():
    """Import vtqg from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import vtqg
    if not Path(vtqg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"vtqg imported from {vtqg.__file__}, not from {SRC}")
    return vtqg


def make_config(vtqg, workload: Workload, call: Call, seed: int, **overrides):
    params = vtqg.TfimParams(n_qubits=call.n_qubits, n_steps=call.n_steps, **RING)
    fields = dict(params=params, variants=(call.variant,), mode=workload.mode, shots=workload.shots,
                  repetitions=call.repetitions, seed=seed)
    fields.update(overrides)
    return vtqg.ExperimentConfig(**fields)


def set_up(workload: Workload, seed: int):
    """Import vtqg, build the configs and make one warm-up call; returns (vtqg, configs, seconds).

    numpy is imported first, untimed: no change to vtqg can alter its import
    time, and on a shared machine it is the noisiest part of a cold start.
    """
    import numpy  # noqa: F401
    t0 = time.perf_counter()
    vtqg = import_vtqg()
    configs = [make_config(vtqg, workload, c, seed) for c in workload.calls]
    warm = Call("vtqg", 4, 1, 1)
    vtqg.harness.run_experiment(make_config(vtqg, workload, warm, seed, variants=ALL_VARIANTS,
                                            shots=min(workload.shots, 8)))
    return vtqg, configs, time.perf_counter() - t0


def setup_samples(workload: Workload, seed: int, first: float, smoke: bool) -> list[float]:
    """`first` plus set-up times from fresh interpreters running `--setup-probe`."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload.name,
           "--seed", str(seed)] + (["--smoke"] if smoke else [])
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# --- passes ------------------------------------------------------------------


@dataclass
class CallResult:
    call: Call
    seconds: float
    records: list | None
    error: str | None = None


@dataclass
class PassResult:
    calls: list[CallResult]
    emit_s: float

    @property
    def experiment_s(self) -> float:
        return sum(c.seconds for c in self.calls) + self.emit_s

    def shots(self, workload: Workload) -> int:
        """Fragment x basis x shots executed (per-fragment allocation)."""
        if workload.mode != "sampling":
            return 0
        return sum(r.fragments * 3 * workload.shots for c in self.calls for r in c.records or ())


def run_pass(vtqg, configs, workload: Workload, csv_path: Path) -> PassResult:
    harness = vtqg.harness
    results = []
    for call, config in zip(workload.calls, configs):
        t0 = time.perf_counter()
        try:
            records = harness.run_experiment(config)
            results.append(CallResult(call, time.perf_counter() - t0, records))
        except Exception:  # one failed operation must not stop the run; it is counted
            results.append(CallResult(call, time.perf_counter() - t0, None, traceback.format_exc()))
    records = [r for c in results for r in c.records or ()]
    t0 = time.perf_counter()
    harness.emit_results(records, "csv", csv_path)
    return PassResult(results, time.perf_counter() - t0)


# --- correctness ---------------------------------------------------------------


def density_reference(vtqg, config):
    """Noisy Bloch components and magnetization from public sim calls, with the
    cut RZZ gates reinstated noiselessly; the cut variants must reproduce it."""
    from vtqg.circuit import rzz
    from vtqg.sim import DensityMatrix, apply_gates_density
    from vtqg.tfim import build_trotter_circuit, magnetization, pauli_components

    build = build_trotter_circuit(config.params, config.variants[0])
    gates = build.circuit.gates
    rho = DensityMatrix.zero(build.circuit.n_qubits)
    start = 0
    for cut in build.cuts:
        rho = apply_gates_density(rho, gates[start:cut.position], config.noise)
        rho = apply_gates_density(rho, [rzz(-cut.theta, cut.qubit_a, cut.qubit_b)], None)
        start = cut.position
    rho = apply_gates_density(rho, gates[start:], config.noise)
    comps = pauli_components(rho, build.layout)
    return [float(sum(c) / len(c)) for c in comps], magnetization(*comps)


def sampling_standard_error(config) -> float:
    """Upper bound on the standard error of one sampled Bloch component.

    Every shot contributes a value in [-1, 1] times its fragment weight, so
    the variance is at most sum(w^2) / shots.  For the grouped form of one cut
    at angle t the weights are cos^2, sin^2 (of t/2) and four of +-cos*sin,
    giving sum(w^2) = 1 + sin(t)^2 / 2.
    """
    p = config.params
    cuts = p.n_steps if config.variants[0] != "routed_original" else 0
    sum_sq = (1.0 + 0.5 * math.sin(2.0 * p.J * p.dt) ** 2) ** cuts
    return math.sqrt(sum_sq / config.shots)


def call_ok(result: CallResult, reference, config) -> bool:
    if result.records is None or len(result.records) != config.repetitions:
        return False
    bloch, mag = reference
    for r in result.records:
        if r.variant != result.call.variant:
            return False
        if config.mode == "exact":
            if not abs(r.mag - mag) <= TOL_NOISY_EXACT:
                return False
        else:
            limit = SAMPLING_SIGMAS * sampling_standard_error(config)
            if not all(abs(v - ref) <= limit for v, ref in zip((r.sx, r.sy, r.sz), bloch)):
                return False
    return True


def ordering_ok(result: PassResult) -> bool:
    err = {c.call.variant: abs(c.records[0].mag - c.records[0].ideal) for c in result.calls if c.records}
    return len(err) == 3 and err["vtqg_pet"] < err["vtqg"] < err["routed_original"]


def check_passes(vtqg, workload: Workload, configs, passes: list[PassResult]) -> tuple[int, int]:
    """(attempted, failed) over the timed calls plus one zero-noise call per variant."""
    references = [density_reference(vtqg, c) for c in configs]
    attempted = failed = 0
    for result in passes:
        ok = [call_ok(c, ref, cfg) for c, ref, cfg in zip(result.calls, references, configs)]
        if workload.ordering_check and not ordering_ok(result):
            ok = [False] * len(ok)
        for c in result.calls:
            if c.error:
                print(c.error, file=sys.stderr)
        attempted += len(ok)
        failed += ok.count(False)
    zero = vtqg.NoiseModel(p1=0.0, p2=0.0, reset_error=0.0, readout_flip=0.0)
    for config in configs:
        attempted += 1
        try:
            records = vtqg.harness.run_experiment(
                vtqg.ExperimentConfig(params=config.params, variants=config.variants, noise=zero,
                                      mode="exact", repetitions=1))
            ideal = vtqg.exact_reference(config.params)
            good = len(records) == 1 and abs(records[0].mag - ideal) <= TOL_NOISELESS
        except Exception:
            print(traceback.format_exc(), file=sys.stderr)
            good = False
        failed += not good
    return attempted, failed


# --- environment -------------------------------------------------------------------


def cache_sizes() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}_{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": cache_sizes(),
        "git_commit": git_commit(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# --- the run -------------------------------------------------------------------------


def timed_passes(vtqg, configs, workload: Workload, seconds: float, tracer=None):
    """Untraced passes (and, with a tracer, alternating traced ones) for `seconds`.

    Returns (untraced passes, traced passes, per-layer metrics of each traced pass).
    """
    OUT.mkdir(exist_ok=True)
    csv_path = OUT / f"{workload.name}.csv"
    plain, traced, layer_metrics = [], [], []
    t_start = time.perf_counter()
    durations = []
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        t0 = time.perf_counter()
        if use_tracer:
            tracer.begin_pass()
            tracer.install()
            try:
                traced.append(run_pass(vtqg, configs, workload, csv_path))
            finally:
                tracer.uninstall()
            layer_metrics.append(tracer.pass_metrics())
        else:
            plain.append(run_pass(vtqg, configs, workload, csv_path))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        enough = len(plain) >= MIN_PASSES if tracer is None else len(traced) >= 1
        if enough and elapsed + statistics.median(durations) > seconds:
            break
    return plain, traced, layer_metrics


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(passes: list[PassResult], setup: list[float]) -> dict[str, float]:
    out = {"setup_s": median(setup), "experiment_s": median(p.experiment_s for p in passes)}
    for v in ALL_VARIANTS:
        out[f"variant_s.{v}"] = median(sum(c.seconds for c in p.calls if c.call.variant == v) for p in passes)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def shots_per_s(passes: list[PassResult], workload: Workload) -> float:
    if workload.mode != "sampling":
        return 0.0
    return median(p.shots(workload) / sum(c.seconds for c in p.calls) for p in passes)


def run(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    vtqg, configs, first_setup = set_up(workload, seed)
    setup = setup_samples(workload, seed, first_setup, smoke)
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    plain, traced, layer_metrics = timed_passes(vtqg, configs, workload, seconds, tracer)
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{workload.name}-seed{seed}.csv")
    attempted, failed = check_passes(vtqg, workload, configs, plain + traced)
    e2e = end_to_end_metrics(plain, setup)
    extra = {"shots_per_s": (shots_per_s(plain, workload), "1/s"),
             "failed_frac": (failed / attempted, "ratio")}
    if trace:
        metrics = {k: median(m[k] for m in layer_metrics) for k in layer_metrics[0]}
        metrics["trace.overhead"] = median(p.experiment_s for p in traced) / e2e["experiment_s"]
        metrics.update({k: v for k, (v, _) in extra.items()})
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics, units = e2e, END_TO_END
    summary = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "setup_samples_s": setup,
        "experiment_s_per_pass": [p.experiment_s for p in plain],
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "environment": environment(),
    }
    return {
        "summary": summary,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


LAYER_UNITS = {"sim.us_per_shot": "us", "sim.density_bytes_computed": "bytes",
               "harness.engine_evals": "evals/record", "trace.overhead": "ratio",
               "failed_frac": "ratio", "shots_per_s": "1/s"}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def smoke_workload(name: str) -> Workload:
    """The named workload shrunk to n=4, at most two cuts and a few shots."""
    w = WORKLOADS[name]
    calls = tuple(Call(c.variant, 4, min(c.n_steps, 2), min(c.repetitions, 2)) for c in w.calls)
    return Workload(w.name, calls, w.mode, min(w.shots, 8), w.ordering_check)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help="only time one set-up and print it")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (n=4), for smoke.py")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    pin_threads()
    workload = smoke_workload(args.workload) if args.smoke else WORKLOADS[args.workload]
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": set_up(workload, args.seed)[2]}))
            return 0
        out = run(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except ImportError as exc:
        print(f"cannot import vtqg from {SRC}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(out, fh, indent=2)
    print(json.dumps(out["summary"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
