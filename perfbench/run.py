"""Benchmark of ``nualign align``: one workload per process.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload contention --seed 1 --seconds 18 --trace 0

The run writes the workload's nets and logs under ``perfbench/out/``,
then calls ``nualign.cli.main(["align", ...])`` in this process, in whole
rounds of the workload's operations, until the next round would pass
``--seconds``.  It checks every report and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced warm-up round, then pairs of a traced and an untraced round, and
reports the per-layer metrics together with the tracing overhead; it
writes the spans to ``perfbench/out/<workload>/spans.json``.

Exit code 2 (no result printed) when ``src/nualign`` is not next to the
benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import nets  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, csv_text  # noqa: E402

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 9

#: string hashing seed of the measured process (see README)
HASH_SEED = "0"

END_TO_END = {
    "align_s": "s",
    "alignment_cost": "cost",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = dict(
    [(f"{name}{suffix}", "s")
     for name in (tracing.ROOT,) + tuple(tracing.TIMED)
     for suffix in (".s", ".self_s")]
    + [(name, "count") for name in tracing.COUNTS if name != "report.bytes"]
    + [("report.bytes", "bytes"), ("nualign.src_lines", "lines"),
       ("trace.overhead_s", "s"), ("trace.missing", "count")]
)


def fresh_cli():
    """Import ``nualign.cli`` anew, as a new process would."""
    for name in [m for m in sys.modules if m == "nualign" or m.startswith("nualign.")]:
        del sys.modules[name]
    cli = importlib.import_module("nualign.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported nualign from {cli.__file__}, not {SRC}")
    return cli


def write_inputs(workload, seed, work):
    """Generate the workload's operations and write their nets and logs."""
    ops = WORKLOADS[workload](seed)
    for sub in ("inputs", "reports"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    for net in sorted({op.net for op in ops}):
        (work / "inputs" / f"{net}.json").write_text(
            json.dumps(nets.NETS[net](), indent=2, sort_keys=True) + "\n")
    for op in ops:
        (work / "inputs" / f"{op.name}.csv").write_text(csv_text(op.rows))
    return ops


class Runner:
    """Runs the workload's operations in rounds and checks what they wrote."""

    def __init__(self, cli, ops, work):
        self.cli = cli
        self.ops = ops
        self.work = work
        self.events = {op.name: checks.read_log(self.log(op)) for op in ops}
        self.digests = None       # report digests of the first round
        self.problems = []
        self.results = []         # (align seconds, failed, summed cost) per round

    def log(self, op):
        return self.work / "inputs" / f"{op.name}.csv"

    def report(self, op, mode=None):
        return self.work / "reports" / f"{op.name}.{mode or op.mode}.json"

    def call(self, argv, tracer=None):
        """Exit code of one in-process ``align`` call; a crash counts as 99."""
        try:
            if tracer is None:
                return self.cli.main(argv)
            return tracer.span(tracing.ROOT, self.cli.main, argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            return 99

    def run(self, tracer=None):
        """(align seconds, failed operations, summed report cost) of one
        more round, which is also kept in ``results``."""
        seconds = 0.0
        failed = 0
        cost = 0
        codes = {}
        for op in self.ops:
            path = self.report(op)
            path.unlink(missing_ok=True)
            argv = op.argv(self.work / "inputs" / f"{op.net}.json", self.log(op), path)
            start = perf_counter()
            codes[op.name] = self.call(argv, tracer)
            seconds += perf_counter() - start
        digests = {}
        for op in self.ops:
            code = codes[op.name]
            if code != 0:
                failed += 1
                if not (op.expect_failure and code == 3):
                    self.problems.append(f"{op.name}: exit code {code}")
                continue
            data = self.report(op).read_bytes()
            digests[op.name] = hashlib.sha256(data).hexdigest()
            if self.digests is None:
                report = json.loads(data)
                for problem in checks.check_report(
                        report, self.events[op.name], op.mode, op.optimum):
                    self.problems.append(f"{op.name}: {problem}")
            cost += json.loads(data)["total_cost"]
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.problems.append("reports differ from the first round's")
        self.results.append((seconds, failed, cost))
        print(f"round {len(self.results)}{' traced' if tracer else ''}: "
              f"{seconds:.3f} s", file=sys.stderr)
        return self.results[-1]

    def compare_exact(self):
        """Approx reports against the exact engine, outside the timed part."""
        for op in self.ops:
            if not op.compare_exact or op.name not in self.digests:
                continue
            path = self.report(op, "exact")
            argv = op.argv(self.work / "inputs" / f"{op.net}.json", self.log(op),
                           path, mode="exact")
            if self.call(argv) != 0:
                continue          # the exact search ran out of budget
            exact = json.loads(path.read_text())
            approx = json.loads(self.report(op).read_text())
            problems = checks.check_report(exact, self.events[op.name], "exact")
            problems += checks.check_against(approx, exact["total_cost"],
                                             "the exact engine's cost")
            self.problems += [f"{op.name}: {p}" for p in problems]


def repeat(step, seconds):
    """Call ``step``, which returns the align seconds it took, until the
    next call would end past ``seconds``."""
    spent = 0.0
    while True:
        took = step()
        spent += took
        if spent + took > seconds:
            return


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "nualign").glob("*.py")))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nualign" / "__init__.py").is_file():
        print(f"error: no nualign package under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # set iteration order moves the aligner's run time by several
        # percent; the same process restarts with one fixed order
        os.execve(sys.executable, [sys.executable, __file__, *(argv or sys.argv[1:])],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.path.insert(0, str(SRC))
    work = HERE / "out" / args.workload

    setups = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        cli = fresh_cli()
        ops = write_inputs(args.workload, args.seed, work)
        setups.append(perf_counter() - started)

    runner = Runner(cli, ops, work)
    if args.trace:
        # a process's first round runs slower than its later ones, so the
        # overhead compares traced rounds with untraced rounds after it
        runner.run()
        tracer = tracing.Tracer()
        traced, untraced = [], []

        def pair():
            tracer.begin_round(len(traced))
            tracer.install()
            try:
                traced.append(runner.run(tracer)[0])
            finally:
                tracer.uninstall()
            untraced.append(runner.run()[0])
            return traced[-1] + untraced[-1]

        repeat(pair, args.seconds)
        counts = [tracer.round_counts(r) for r in range(len(traced))]
        if any(c != counts[0] for c in counts):
            runner.problems.append("traced counts differ between rounds")
        times = [tracer.layer_times(r) for r in range(len(traced))]
        metrics = {name: statistics.median(t[name] for t in times) for name in times[0]}
        metrics.update(counts[0])
        metrics["nualign.src_lines"] = src_lines()
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics["trace.missing"] = len(tracer.missing)
        for what in tracer.missing:
            print(f"trace: missing {what}", file=sys.stderr)
        (work / "spans.json").write_text(json.dumps(tracer.dump()) + "\n")
        units = PER_LAYER
    else:
        repeat(lambda: runner.run()[0], args.seconds)
        metrics = {
            "align_s": statistics.median(r[0] for r in runner.results),
            "alignment_cost": runner.results[0][2],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END
    runner.compare_exact()
    if len({r[2] for r in runner.results}) != 1:
        runner.problems.append("alignment cost differs between rounds")

    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": len(ops) * len(runner.results),
        "failed": sum(r[1] for r in runner.results),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
