"""Command-line interface.

Subcommands: ``validate`` (structural checks on a net file), ``align``
(exact or approximated log alignment with a JSON report), ``simulate``
(seeded log generation with optional deviations), ``dot`` (GraphViz
export of a net, log, or report).

Exit codes: 0 success, 1 deviations found (``align --fail-on-deviation``)
or validation violations (``validate``), 2 input/parse errors, unwritable
outputs and broken soundness conditions (for example a cost table whose
visible cost no longer outweighs the tau moves), 3 search or solver budget
exhausted, 4 approximated alignment failed its validity check.
All randomness flows through ``--seed``; repeated runs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict

from .align import (
    DEFAULT_COSTS,
    DEFAULT_NODE_BUDGET,
    CaseHeuristic,
    CostTable,
    SearchBudgetError,
    SoundnessError,
    build_sync_product,
    optimal_alignment,
    sync_warnings,
)
from .approx import DEFAULT_ILP_BUDGET, approximate_alignment
from .dot import log_to_dot, net_to_dot, report_to_dot
from .eventlog import LogParseError, parse_log, serialize_log
from .ilp import IlpBudgetError
from .lognet import build_log_net
from .netfile import NetFileError, load_net, net_from_dict
from .report import build_report, dumps_report, load_report, violation_entry
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
    """The default costs with the ``kind=n`` entries of ``text`` applied;
    ``CostTable`` rejects a negative entry or a visible cost below 1."""
    values = asdict(DEFAULT_COSTS)
    if text:
        for part in text.split(","):
            if "=" not in part:
                raise ValueError(f"bad cost entry {part!r}")
            key, raw = part.split("=", 1)
            key = key.strip()
            if key not in values:
                raise ValueError(f"unknown cost kind {key!r}")
            try:
                values[key] = int(raw)
            except ValueError:
                raise ValueError(f"--costs: entry {part!r} is not an integer cost") from None
    return CostTable(**values)


def nonnegative(text: str) -> int:
    """A count or budget option's value: an integer that is not negative."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text}")
    return int(text)


def _write(path, text: str) -> int:
    """Write ``text`` to ``path`` (stdout for None or ``-``): EXIT_OK, or
    EXIT_INPUT with an ``error:`` line when it cannot be written."""
    try:
        if path in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


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


def _read_log(path):
    """The log at ``path``; a file that is not a UTF-8 log raises
    ValueError naming the path, as ``load_net`` does for a net."""
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_log(handle)
    except (LogParseError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_inputs(args):
    net = load_net(args.net)
    log = _read_log(args.log)
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
        scaled = scale_cases(net, log.cases())
    except (NetFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        if args.mode == "exact":
            prod = build_sync_product(scaled, build_log_net(log))
            alignment = optimal_alignment(
                prod, costs, args.node_budget,
                heuristic=CaseHeuristic(prod, costs, args.node_budget))
            report = build_report(alignment, "exact", costs, net=scaled,
                                  warnings=sync_warnings(net, log))
        else:
            result = approximate_alignment(net, log, costs, args.node_budget,
                                           args.ilp_budget)
            if not result.valid:
                print(f"error: approximated alignment failed validation: "
                      f"{result.witness}", file=sys.stderr)
                return EXIT_INVALID
            violations = [
                violation_entry(r, result.composed, costs)
                for r in result.realignments
            ]
            report = build_report(result.alignment, "approx", costs, net=scaled,
                                  warnings=result.warnings, violations=violations)
    except (SearchBudgetError, IlpBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SoundnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    status = _write(args.out, dumps_report(report))
    if not status and args.dot:
        status = _write(args.dot, report_to_dot(report))
    if status:
        return status
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
    return _write(args.out, serialize_log(log))


def cmd_dot(args) -> int:
    try:
        if args.input.endswith(".csv"):
            text = log_to_dot(_read_log(args.input))
        else:
            doc = load_report(args.input)
            if isinstance(doc, dict) and doc.get("schema") == "nualign-report":
                text = report_to_dot(doc)
            else:
                text = net_to_dot(net_from_dict(doc, validate=False))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return _write(args.out, text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by later calls."""
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
    p_align.add_argument("--node-budget", type=nonnegative, default=DEFAULT_NODE_BUDGET)
    p_align.add_argument("--ilp-budget", type=nonnegative, default=DEFAULT_ILP_BUDGET)
    p_align.add_argument("--costs", default="",
                         help="e.g. sync=0,tau=1,visible=10000")
    p_align.add_argument("--fail-on-deviation", action="store_true",
                         help="exit 1 when any visible log/model move remains")
    p_align.set_defaults(func=cmd_align)

    p_sim = sub.add_parser("simulate", help="generate a log by random firing")
    p_sim.add_argument("net")
    p_sim.add_argument("--cases", type=nonnegative, default=2)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default="-")
    p_sim.add_argument("--drop-events", type=nonnegative, default=0)
    p_sim.add_argument("--swap-resources", type=nonnegative, default=0)
    p_sim.add_argument("--relax-capacity", type=nonnegative, default=0)
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
