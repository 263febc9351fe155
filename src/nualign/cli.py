"""Command-line interface.

Subcommands: ``validate`` (structural checks on a net file), ``align``
(exact or approximated log alignment with a JSON report), ``simulate``
(seeded log generation with optional deviations), ``dot`` (GraphViz
export of a net, log, or report).

Exit codes: 0 success, 1 deviations found (``align --fail-on-deviation``)
or validation violations (``validate``), 2 input/parse errors and broken
soundness conditions (for example a cost table whose visible cost no
longer outweighs the tau moves), 3 search or solver budget exhausted,
4 approximated alignment failed its validity check.
All randomness flows through ``--seed``; repeated runs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .align import (
    CostTable,
    SearchBudgetError,
    SoundnessError,
    build_sync_product,
    optimal_alignment,
)
from .approx import approximate_alignment
from .dot import log_to_dot, net_to_dot, report_to_dot
from .eventlog import LogParseError, parse_log, serialize_log
from .ilp import IlpBudgetError
from .lognet import build_log_net
from .netfile import NetFileError, load_net
from .report import build_report, dumps_report, violation_entry
from .rcnu import (
    DeviationConfig,
    scale_cases,
    simulate,
    undeclared_log_resources,
    validate_structure,
)

EXIT_OK = 0
EXIT_DEVIATIONS = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INVALID = 4


def _parse_costs(text: str) -> CostTable:
    values = {"sync": 0, "tau": 1, "visible": 10_000}
    if text:
        for part in text.split(","):
            if "=" not in part:
                raise ValueError(f"bad cost entry {part!r}")
            key, raw = part.split("=", 1)
            key = key.strip()
            if key not in values:
                raise ValueError(f"unknown cost kind {key!r}")
            values[key] = int(raw)
    return CostTable(**values)


def _write(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_validate(args) -> int:
    try:
        net = load_net(args.net, validate=False)
    except (NetFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    violations = validate_structure(net)
    if not violations:
        print(f"{args.net}: ok ({len(net.places)} places, "
              f"{len(net.transitions)} transitions, {len(net.roles)} roles)")
        return EXIT_OK
    for v in violations:
        print(str(v))
    return EXIT_DEVIATIONS


def _load_inputs(args):
    net = load_net(args.net)
    with open(args.log, encoding="utf-8") as handle:
        log = parse_log(handle)
    problems = undeclared_log_resources(net, log)
    if problems:
        raise NetFileError(
            "log references resources the net does not declare:\n"
            + "\n".join(problems)
        )
    return net, log


def cmd_align(args) -> int:
    try:
        costs = _parse_costs(args.costs)
        net, log = _load_inputs(args)
    except (NetFileError, LogParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    scaled = scale_cases(net, log.cases())
    try:
        if args.mode == "exact":
            prod = build_sync_product(scaled, build_log_net(log),
                                      spare_count=args.fresh_pool)
            alignment = optimal_alignment(prod, costs, args.node_budget)
            report = build_report(alignment, "exact", costs, scaled,
                                  warnings=prod.warnings)
        else:
            result = approximate_alignment(net, log, costs, args.node_budget,
                                           args.ilp_budget, args.fresh_pool)
            if not result.valid:
                print(f"error: approximated alignment failed validation: "
                      f"{result.witness}", file=sys.stderr)
                return EXIT_INVALID
            violations = [
                violation_entry(r, result.composed) for r in result.realignments
            ]
            report = build_report(result.alignment, "approx", costs, scaled,
                                  warnings=result.warnings, violations=violations)
    except (SearchBudgetError, IlpBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SoundnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    _write(args.out, dumps_report(report))
    if args.dot:
        _write(args.dot, report_to_dot(report))
    if args.fail_on_deviation and report["deviation_moves"] > 0:
        return EXIT_DEVIATIONS
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        net = load_net(args.net)
    except (NetFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    deviations = DeviationConfig(
        drop_events=args.drop_events,
        swap_resources=args.swap_resources,
        relax_capacity=args.relax_capacity,
    )
    try:
        log = simulate(net, args.cases, args.seed, deviations)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _write(args.out, serialize_log(log))
    return EXIT_OK


def cmd_dot(args) -> int:
    try:
        if args.input.endswith(".csv"):
            with open(args.input, encoding="utf-8") as handle:
                text = log_to_dot(parse_log(handle))
        else:
            with open(args.input, encoding="utf-8") as handle:
                doc = json.load(handle)
            if isinstance(doc, dict) and doc.get("schema") == "nualign-report":
                text = report_to_dot(doc)
            else:
                from .netfile import net_from_dict
                text = net_to_dot(net_from_dict(doc, validate=False))
        _write(args.out, text)
        return EXIT_OK
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nualign",
        description="Conformance checking with shared-resource awareness: "
                    "align complete event logs against resource-constrained nets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a net file's structure")
    p_validate.add_argument("net")
    p_validate.set_defaults(func=cmd_validate)

    p_align = sub.add_parser("align", help="align a log against a net")
    p_align.add_argument("net")
    p_align.add_argument("log")
    p_align.add_argument("--mode", choices=("exact", "approx"), default="exact")
    p_align.add_argument("--out", default="-", help="report path (default stdout)")
    p_align.add_argument("--dot", default=None, help="also write a DOT rendering")
    p_align.add_argument("--node-budget", type=int, default=2_000_000)
    p_align.add_argument("--ilp-budget", type=int, default=2_000_000)
    p_align.add_argument("--fresh-pool", type=int, default=None,
                         help="synthetic fresh-identifier pool size")
    p_align.add_argument("--costs", default="",
                         help="e.g. sync=0,tau=1,visible=10000")
    p_align.add_argument("--fail-on-deviation", action="store_true",
                         help="exit 1 when any visible log/model move remains")
    p_align.set_defaults(func=cmd_align)

    p_sim = sub.add_parser("simulate", help="generate a log by random firing")
    p_sim.add_argument("net")
    p_sim.add_argument("--cases", type=int, default=2)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default="-")
    p_sim.add_argument("--drop-events", type=int, default=0)
    p_sim.add_argument("--swap-resources", type=int, default=0)
    p_sim.add_argument("--relax-capacity", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_dot = sub.add_parser("dot", help="render a net, log or report as DOT")
    p_dot.add_argument("input")
    p_dot.add_argument("--out", default="-")
    p_dot.set_defaults(func=cmd_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
