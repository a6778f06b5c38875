"""Per-layer tracing for the benchmark's traced run.

`Tracer.install()` replaces every public module-level function of the traced
vtqg modules with a timing wrapper, in the defining module and in every vtqg
module that imported it by name (`harness` and `qpd` use `from .sim import
...`, so patching only the defining module would miss their calls).
`NoiseModel.strength_for` runs once per gate per shot, so it is counted but not
given a span.  `uninstall()` restores every binding it replaced.

Each wrapped call becomes a span (id, parent id, name, start, end) kept in
memory; its self time is its duration minus the time its child spans cover.
Work counts come from the call arguments only (gate lists, `n_shots`, cut
lists, configs), never from the return values, so they survive changes to the
program's result types.
"""

from __future__ import annotations

import bisect
import csv
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("circuit", "tfim", "qpd", "sim", "noise", "harness")
PACKAGE_MODULES = ("vtqg", "vtqg.circuit", "vtqg.cli", "vtqg.errors", "vtqg.harness",
                   "vtqg.noise", "vtqg.qpd", "vtqg.sim", "vtqg.tfim")

# Terms per cut in the exact enumeration (the ten-term decomposition) and
# executable fragments per cut in the grouped sampling form.
TERMS_PER_CUT = 10
GROUPED_PER_CUT = 6
COMPLEX_BYTES = 16

# Engine evaluations are these calls made directly by run_experiment.
ENGINE_CALLS = ("sim.run_density", "qpd.run_enumerated_exact", "sim.sample_shots")

GATE_CLASSES = ("dense1q", "dense2q", "diag", "measure")


class _Frame:
    __slots__ = ("span_id", "parent_id", "key", "child_s")

    def __init__(self, span_id: int, parent_id: int, key: str):
        self.span_id = span_id
        self.parent_id = parent_id
        self.key = key
        self.child_s = 0.0


class Tracer:
    """Spans of every traced pass, and counters of the current one."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._strength_for = None
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.pass_starts: list[int] = []
        self._zero_counters()

    def begin_pass(self) -> None:
        """Zero the counters; spans recorded from now on belong to the next pass."""
        self.pass_starts.append(len(self.spans))
        self._zero_counters()

    def _zero_counters(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.child_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[_Frame] = []

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"vtqg.{layer}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._span_wrapper(layer, name, obj)
        for module in map(importlib.import_module, PACKAGE_MODULES):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, name, wrappers[obj])
        noise_model = importlib.import_module("vtqg.noise").NoiseModel
        self._strength_for = noise_model.strength_for
        self._patch(noise_model, "strength_for", self._count_wrapper("noise", "strength_for", self._strength_for))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # --- wrappers ---------------------------------------------------------

    def _count_wrapper(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.calls[key] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise

        return counted

    def _span_wrapper(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        on_call = _ARGUMENT_COUNTS.get(key)
        signature = inspect.signature(fn) if on_call is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_call(tracer, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            tracer.calls[key] += 1
            parent = tracer._stack[-1] if tracer._stack else None
            frame = _Frame(len(tracer.spans), -1 if parent is None else parent.span_id, key)
            tracer.spans.append(None)  # filled in on return, so spans stay in start order
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                duration = t1 - t0
                tracer.total_s[key] += duration
                tracer.self_s[key] += duration - frame.child_s
                tracer.spans[frame.span_id] = (frame.span_id, frame.parent_id, key, t0, t1)
                if parent is not None:
                    parent.child_s += duration
                    tracer.child_calls[(parent.key, key)] += 1

        return traced

    # --- results ----------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass traced since the last `begin_pass()`."""
        c, t, s, n = self.calls, self.total_s, self.self_s, self.counts
        shots = n["sim.shots"]
        records = n["harness.records"]
        engine = sum(self.child_calls[("harness.run_experiment", k)] for k in ENGINE_CALLS)
        out = {
            "sim.density_calls": c["sim.apply_gates_density"],
            "sim.density_s": t["sim.apply_gates_density"],
            "sim.density_gates": sum(n[f"sim.density_gates.{g}"] for g in GATE_CLASSES),
            **{f"sim.density_gates.{g}": n[f"sim.density_gates.{g}"] for g in GATE_CLASSES},
            "sim.density_bytes_computed": n["sim.density_bytes_computed"],
            "sim.depolarize_calls": c["sim.depolarize_tensor"],
            "sim.depolarize_s": t["sim.depolarize_tensor"],
            "sim.fragment_op_calls": c["sim.apply_fragment_operator"],
            "sim.fragment_op_s": t["sim.apply_fragment_operator"],
            "sim.expectation_calls": c["sim.expectation"],
            "sim.expectation_s": t["sim.expectation"],
            "sim.sample_calls": c["sim.sample_shots"],
            "sim.shots": shots,
            "sim.sample_s": t["sim.sample_shots"],
            "sim.us_per_shot": t["sim.sample_shots"] / shots * 1e6 if shots else 0.0,
            "qpd.exact_calls": c["qpd.run_enumerated_exact"],
            "qpd.fragments_evaluated": n["qpd.fragments_evaluated"],
            "qpd.exact_self_s": s["qpd.run_enumerated_exact"],
            "qpd.build_fragments_s": t["qpd.build_grouped_fragments"] + t["qpd.build_enumerated_fragments"],
            "qpd.sampling_fragments": n["qpd.sampling_fragments"],
            "harness.engine_evals": engine / records if records else 0.0,
            "harness.self_s": s["harness.run_experiment"],
            "harness.emit_s": t["harness.emit_results"],
            "noise.strength_calls": c["noise.strength_for"],
            "tfim.build_s": t["tfim.build_trotter_circuit"],
            "tfim.reference_s": t["tfim.exact_reference"],
            "tfim.pauli_components_s": t["tfim.pauli_components"],
            "circuit.self_s": sum(v for k, v in s.items() if k.startswith("circuit.")),
        }
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out

    def write_spans(self, path) -> None:
        """Write every span kept so far as CSV, numbering traced passes from 0."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["pass", "span_id", "parent_id", "name", "start_s", "end_s"])
            for span in self.spans:
                traced_pass = bisect.bisect_right(self.pass_starts, span[0]) - 1
                writer.writerow([traced_pass, *span[:3], f"{span[3]:.9f}", f"{span[4]:.9f}"])


# --- work counts derived from call arguments ---------------------------------


def _gate_class(gate) -> str:
    kind = gate.kind.value
    if kind == "CLASSICALLY_CONTROLLED":
        return _gate_class(gate.inner)
    if kind in ("MEASURE_Z", "RESET"):
        return "measure"
    if kind in ("RZ", "RZZ"):
        return "diag"
    return "dense1q" if len(gate.qubits) == 1 else "dense2q"


def _count_density(tracer: Tracer, args: dict) -> None:
    """Gate mix and computed bytes of one apply_gates_density call.

    Bytes model (computed, not measured): each kernel pass reads and writes the
    whole density tensor once.  A gate costs two passes (row and column side,
    or one projection per outcome for a measurement), depolarizing noise three
    more, all times the number of live measurement branches; the final branch
    sum costs one pass per branch.
    """
    gates = args["gates"]
    if not isinstance(gates, (list, tuple)):
        gates = args["gates"] = list(gates)
    noise = args["noise"]
    state_pass = 2 * COMPLEX_BYTES * 4 ** args["state"].n_qubits
    branches, passes = 1, 0
    for g in gates:
        cls = _gate_class(g)
        tracer.counts[f"sim.density_gates.{cls}"] += 1
        gate_passes = 2
        if noise is not None and tracer._strength_for(noise, g) > 0.0:
            gate_passes += 3
        passes += branches * gate_passes
        if g.kind.value == "MEASURE_Z":
            branches *= 2
    tracer.counts["sim.density_bytes_computed"] += (passes + branches) * state_pass


def _count_shots(tracer: Tracer, args: dict) -> None:
    tracer.counts["sim.shots"] += int(args["n_shots"])


def _cut_count(args: dict) -> int:
    cuts = args["cuts"]
    if not isinstance(cuts, (list, tuple)):
        cuts = args["cuts"] = list(cuts)
    return len(cuts)


def _count_exact(tracer: Tracer, args: dict) -> None:
    tracer.counts["qpd.fragments_evaluated"] += TERMS_PER_CUT ** _cut_count(args)


def _count_grouped(tracer: Tracer, args: dict) -> None:
    tracer.counts["qpd.sampling_fragments"] += GROUPED_PER_CUT ** _cut_count(args)


def _count_enumerated(tracer: Tracer, args: dict) -> None:
    tracer.counts["qpd.sampling_fragments"] += TERMS_PER_CUT ** _cut_count(args)


def _count_records(tracer: Tracer, args: dict) -> None:
    config = args["config"]
    tracer.counts["harness.records"] += len(config.variants) * config.repetitions


_ARGUMENT_COUNTS = {
    "sim.apply_gates_density": _count_density,
    "sim.sample_shots": _count_shots,
    "qpd.run_enumerated_exact": _count_exact,
    "qpd.build_grouped_fragments": _count_grouped,
    "qpd.build_enumerated_fragments": _count_enumerated,
    "harness.run_experiment": _count_records,
}
