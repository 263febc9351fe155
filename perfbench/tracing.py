"""Per-layer tracing from outside the package.

The tracer replaces public functions where the package looks them up (for
example ``nualign.approx.solve`` and ``nualign.cli.parse_log``) with
wrappers that record a span (name, start, end, parent) or count calls.
Spans stay in memory until the run writes them out.  A name that no
longer exists is recorded as missing and does not stop the run.
"""

from __future__ import annotations

import importlib
from time import perf_counter

#: timed layer -> the lookups to wrap, "module:attribute[.attribute]"
TIMED = {
    "eventlog.parse_log": ["nualign.cli:parse_log"],
    "eventlog.project_case": ["nualign.eventlog:EventLog.project_case"],
    "netfile.load_net": ["nualign.cli:load_net"],
    "lognet.build_log_net": ["nualign.cli:build_log_net",
                             "nualign.approx:build_log_net"],
    "align.build_sync_product": ["nualign.cli:build_sync_product",
                                 "nualign.approx:build_sync_product"],
    "align.optimal_alignment": ["nualign.cli:optimal_alignment",
                                "nualign.approx:optimal_alignment"],
    "align.is_valid_alignment": ["nualign.approx:is_valid_alignment"],
    "approx.approximate_alignment": ["nualign.cli:approximate_alignment"],
    "approx.align_cases": ["nualign.approx:align_cases"],
    "approx.compose": ["nualign.approx:compose"],
    "approx.build_ilp": ["nualign.approx:build_ilp"],
    "approx.solve_and_extract": ["nualign.approx:solve_and_extract"],
    "approx.realign_interval": ["nualign.approx:realign_interval"],
    "ilp.solve": ["nualign.approx:solve"],
    "report.build_report": ["nualign.cli:build_report"],
    "report.dumps_report": ["nualign.cli:dumps_report"],
}

#: the span the benchmark opens around each ``cli.main`` call
ROOT = "cli.main"

#: call counts of timed layers
CALLS = ("eventlog.project_case", "align.optimal_alignment", "ilp.solve")

#: counted-only functions -> (lookup, the span they are counted inside)
COUNTED = {
    "rcnu.enabled_modes.calls": ("nualign.align:enabled_modes", "align.optimal_alignment"),
    "rcnu.fire_mode.calls": ("nualign.align:fire_mode", "align.optimal_alignment"),
}


def _read_results(counts, name, result):
    """Counts read from a layer's return value."""
    if name == "approx.build_ilp":
        program = result.program
        counts["ilp.rows"] += len(program.constraints)
        counts["ilp.free_vars"] += program.n_vars - len(program.fixings)
        counts["approx.moves"] += result.n
    elif name == "approx.realign_interval":
        counts["approx.regions"] += 1
        counts["approx.region_moves"] += len(result.region)
        counts["approx.fallbacks"] += int(bool(result.fallback))
    elif name == "report.dumps_report":
        counts["report.bytes"] += len(result.encode("utf-8"))


#: every count the tracer reports
COUNTS = tuple(f"{n}.calls" for n in CALLS) + tuple(COUNTED) + (
    "ilp.rows", "ilp.free_vars", "approx.moves",
    "approx.regions", "approx.region_moves", "approx.fallbacks",
    "report.bytes",
)


def _resolve(lookup):
    """(owner object, attribute name) of a "module:attr.attr" lookup."""
    module, _, path = lookup.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise AttributeError(f"{lookup} does not exist")
    return owner, attr


class Tracer:
    """Spans and counts of one process, tagged by the round they fall in."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, round]
        self.stack = []          # indices of open spans
        self.open = {}           # name -> number of open spans
        self.counts = {}         # round -> {count name -> value}
        self.missing = []
        self._patched = []
        self.begin_round(0)

    def begin_round(self, round_):
        self.round = round_
        self.bucket = self.counts.setdefault(round_, dict.fromkeys(COUNTS, 0))

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        record = [name, perf_counter(), None, parent, self.round]
        self.spans.append(record)
        self.stack.append(index)
        self.open[name] = self.open.get(name, 0) + 1
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self.stack.pop()
            self.open[name] -= 1

    def _timed(self, name, fn):
        tracer = self
        counted = name in CALLS

        def wrapper(*args, **kwargs):
            if counted:
                tracer.bucket[f"{name}.calls"] += 1
            result = tracer.span(name, fn, *args, **kwargs)
            try:
                _read_results(tracer.bucket, name, result)
            except AttributeError as exc:
                tracer._missing(f"{name} result: {exc}")
            return result

        return wrapper

    def _counter(self, name, fn, inside):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.open.get(inside):
                tracer.bucket[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _missing(self, what):
        if what not in self.missing:
            self.missing.append(what)

    def _patch(self, lookup, make):
        try:
            owner, attr = _resolve(lookup)
        except (ImportError, AttributeError) as exc:
            self._missing(f"{lookup}: {exc}")
            return
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        for name, lookups in TIMED.items():
            for lookup in lookups:
                self._patch(lookup, lambda fn, name=name: self._timed(name, fn))
        for name, (lookup, inside) in COUNTED.items():
            self._patch(lookup, lambda fn, name=name, inside=inside:
                        self._counter(name, fn, inside))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_times(self, round_) -> dict:
        """Inclusive and self seconds per timed name within one round.

        Inclusive time counts only the outermost span of a name; self
        time is a span's duration minus its direct children's.
        """
        names = (ROOT,) + tuple(TIMED)
        out = {}
        for name in names:
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        children = [0.0] * len(self.spans)
        for name, start, end, parent, r in self.spans:
            if r == round_ and parent is not None:
                children[parent] += end - start
        for k, (name, start, end, parent, r) in enumerate(self.spans):
            if r != round_:
                continue
            duration = end - start
            out[f"{name}.self_s"] += duration - children[k]
            outer = parent
            while outer is not None and self.spans[outer][0] != name:
                outer = self.spans[outer][3]
            if outer is None:
                out[f"{name}.s"] += duration
        return out

    def round_counts(self, round_) -> dict:
        return dict(self.counts[round_])

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "round"],
            "spans": self.spans,
            "missing": self.missing,
        }
