"""Command-line front end.

    vtqg experiment  --config cfg.json --qubits 8 --mode exact --out results.csv
    vtqg decompose   --theta 0.787
    vtqg route       --qubits 8 [--coupling map.json]
    vtqg report      results.csv

Exit code 0 on success; any error prints a one-line diagnostic to stderr and
returns 1.
"""

from __future__ import annotations

import argparse
import sys

from .circuit import CouplingMap, count_gates, route_ring_closure
from .harness import (
    ExperimentConfig,
    RUN_VARIANTS,
    emit_results,
    format_summary,
    read_results,
    report_summary,
    run_experiment,
)
from .qpd import decompose_vrzz, gamma, group_for_sampling, op_pair_label


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vtqg", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run the Ising experiment and emit results")
    exp.add_argument("--config", help="JSON config file (flags override file values)")
    exp.add_argument("--variant", action="append", choices=RUN_VARIANTS,
                     help="restrict to this variant (repeatable)")
    exp.add_argument("--qubits", type=int, help="ring size")
    exp.add_argument("--mode", choices=("exact", "sampling"))
    exp.add_argument("--shots", type=int)
    exp.add_argument("--reps", type=int, help="repetitions per variant")
    exp.add_argument("--seed", type=int)
    exp.add_argument("--out", default="results.csv", help="output path (default results.csv)")
    exp.add_argument("--format", choices=("csv", "json"), default=None,
                     help="output format (default: from --out extension)")
    exp.add_argument("--stable-timing", action="store_true",
                     help="write wall_ms as 0.0 so identical runs emit identical bytes")

    dec = sub.add_parser("decompose", help="print the quasi-probability terms for an angle")
    dec.add_argument("--theta", type=float, required=True,
                     help="decomposition angle of exp(+i theta/2 ZZ); equals minus the RZZ gate angle")

    rt = sub.add_parser("route", help="show SWAP routing of the ring-closing gate")
    rt.add_argument("--qubits", type=int, required=True)
    rt.add_argument("--coupling", help="coupling map JSON ({\"n\": int, \"edges\": [[a,b],...]})")

    rep = sub.add_parser("report", help="summarize a results file")
    rep.add_argument("results", help="CSV or JSON file written by `vtqg experiment`")
    return parser


def _cmd_experiment(args) -> int:
    if args.config:
        config = ExperimentConfig.from_json_file(args.config)
    else:
        config = ExperimentConfig()
    overrides = {}
    if args.variant:
        overrides["variants"] = tuple(dict.fromkeys(args.variant))
    if args.qubits is not None:
        obj = config.params.__dict__ | {"n_qubits": args.qubits}
        overrides["params"] = type(config.params)(**obj)
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.shots is not None:
        overrides["shots"] = args.shots
    if args.reps is not None:
        overrides["repetitions"] = args.reps
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = ExperimentConfig.from_dict(config.to_dict() | overrides)
    fmt = args.format or ("json" if str(args.out).lower().endswith(".json") else "csv")
    records = run_experiment(config)
    emit_results(records, fmt, args.out, stable_timing=args.stable_timing)
    print(f"mode={config.mode} sampling_strategy={config.sampling_strategy} "
          f"shot_allocation={config.shot_allocation} seed={config.seed}")
    print(format_summary(report_summary(records)))
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_decompose(args) -> int:
    terms = decompose_vrzz(args.theta)
    print(f"theta = {args.theta}  (RZZ gate angle {-args.theta})")
    print(f"{'idx':>3} {'family':<10} {'alpha_a':>7} {'alpha_b':>7} {'coefficient':>14}   operators")
    for i, t in enumerate(terms):
        aa = "" if t.alpha_a is None else f"{t.alpha_a:+d}"
        ab = "" if t.alpha_b is None else f"{t.alpha_b:+d}"
        print(f"{i:>3} {t.family:<10} {aa:>7} {ab:>7} {t.coefficient:>14.10f}   {op_pair_label(t)}")
    print(f"\ngrouped instruments (sum |weight| = gamma = {gamma(args.theta):.10f}):")
    for g in group_for_sampling(args.theta):
        rz = "" if g.rz_angle is None else f"  rz={g.rz_angle:+.6f}"
        print(f"  {g.kind:<10} weight={g.weight:+.10f}{rz}")
    return 0


def _cmd_route(args) -> int:
    if args.coupling:
        with open(args.coupling) as fh:
            coupling = CouplingMap.from_json(fh.read())
    else:
        coupling = CouplingMap.path(args.qubits)
    fragment, layout = route_ring_closure(args.qubits, coupling, 1.0)
    counts = count_gates(fragment)
    print(f"ring-closure routing on a {args.qubits}-qubit path:")
    print(f"  SWAP gates            : {counts['SWAP']}")
    print(f"  CNOT-equivalents      : {counts.swap_cnot_equivalents} from SWAPs, "
          f"{counts.two_qubit_cnot_equivalents} total with the RZZ")
    print(f"  final layout (l->p)   : {list(layout.log_to_phys)}")
    return 0


def _cmd_report(args) -> int:
    print(format_summary(report_summary(read_results(args.results))))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "experiment": _cmd_experiment,
        "decompose": _cmd_decompose,
        "route": _cmd_route,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
