"""Events and partially ordered event logs.

An event records an activity occurrence: activity name, timestamp, case
id, and the multiset of resource instances that executed it.  A log is a
set of events ordered by a fixed chronology rule:

- within one case, events are totally ordered by (timestamp, input
  position) -- traces must be replayable sequences, and the file position
  tie-break is the least-surprise rule for equal timestamps;
- across cases, ``e1`` precedes ``e2`` iff ``time(e1) < time(e2)``
  strictly; equal-timestamp events of different cases stay incomparable,
  which is what lets the aligner reorder concurrent events.

The rule is transitive, so the log stores no pairs.  For ``a < b < c``:
if ``a, b`` share a case and ``c`` does not, ``ts(a) <= ts(b) < ts(c)``;
if ``b, c`` share a case and ``a`` does not, ``ts(a) < ts(b) <= ts(c)``;
the other mixes work the same way.  The *covering pairs* (the transitive
reduction) are the consecutive trace events on equal or consecutive
distinct log timestamps, and, for consecutive distinct timestamps
``s < t``, each case's last event at ``s`` paired with every other case's
first event at ``t``.  Timestamps only induce the order; alignment costs
never read them.

CSV format (one event per row, optional header)::

    case,activity,timestamp,resources

with ``timestamp`` an ISO-8601 datetime (UTC when it names no zone) or a
number, and ``resources`` a semicolon-separated list of ``role:instance``
entries, each with an optional ``*count`` multiplicity suffix.  A leading
byte-order mark is ignored.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .poset import Multiset

LOG_HEADER = ["case", "activity", "timestamp", "resources"]


class LogParseError(ValueError):
    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Event:
    """One recorded activity execution.

    ``index`` is the position in the source log and makes events with
    identical payloads distinct objects; it is the hash, while equality
    compares every field.  ``roles`` records the role each resource
    instance was logged under, for validation and round-trips.
    """

    index: int
    activity: str
    timestamp: float
    case: str
    resources: Multiset = field(default_factory=Multiset)
    roles: tuple = ()

    def role_of(self, instance):
        return dict(self.roles).get(instance)

    def __hash__(self):
        return hash(self.index)

    def __repr__(self):
        stamp = _format_timestamp(self.timestamp)
        return f"<e{self.index} {self.activity}@{stamp} case={self.case}>"


class EventLog:
    """Events under the chronology rule; per-case projections are traces."""

    def __init__(self, events):
        self.events = tuple(events)
        self._traces = {}
        for e in self.events:
            self._traces.setdefault(e.case, []).append(e)
        self._position = {}
        for trace in self._traces.values():
            trace.sort(key=lambda e: (e.timestamp, e.index))
            self._position.update((e, i) for i, e in enumerate(trace))
        if len(self._position) != len(self.events):
            raise ValueError("duplicate events")

    def cases(self):
        return sorted(self._traces)

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def trace(self, case):
        """The case's events in trace order (chronology + input position)."""
        return list(self._traces.get(case, ()))

    def precedes(self, e1, e2):
        """Strict precedence under the chronology rule."""
        if e1.case == e2.case:
            return self._position[e1] < self._position[e2]
        return e1.timestamp < e2.timestamp

    def covering_pairs(self):
        """The order's transitive reduction, sorted by (index, index)."""
        times = sorted({e.timestamp for e in self.events})
        following = dict(zip(times, times[1:]))
        first, last, pairs = {}, {}, []    # {timestamp: {case: event}}
        for case, trace in self._traces.items():
            for a, b in zip(trace, trace[1:]):
                if b.timestamp in (a.timestamp, following.get(a.timestamp)):
                    pairs.append((a, b))
            for e in trace:
                first.setdefault(e.timestamp, {}).setdefault(case, e)
                last.setdefault(e.timestamp, {})[case] = e
        for s, t in following.items():
            pairs.extend((a, b) for ca, a in last[s].items()
                         for cb, b in first[t].items() if ca != cb)
        return sorted(pairs, key=lambda p: (p[0].index, p[1].index))

    def project_case(self, case) -> "EventLog":
        """Subposet of one case's events; unknown cases give an empty trace."""
        return EventLog(self.trace(case))

    def restrict(self, events) -> "EventLog":
        """Subposet on an arbitrary event subset, in the log's event order."""
        keep = set(events)
        return EventLog(e for e in self.events if e in keep)


# ---------------------------------------------------------------------------
# CSV parsing / serialization
# ---------------------------------------------------------------------------

def _parse_timestamp(text, line):
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        try:
            stamp = datetime.fromisoformat(text)
        except ValueError:
            raise LogParseError(line, f"bad timestamp {text!r}") from None
        # a naive time is UTC, so the order does not depend on the machine's zone
        value = (stamp if stamp.tzinfo else stamp.replace(tzinfo=timezone.utc)).timestamp()
    if not math.isfinite(value):     # nan orders nothing, inf cannot be written back
        raise LogParseError(line, f"non-finite timestamp {text!r}")
    return value


def _parse_resources(text, line):
    counts = {}
    roles = {}
    text = text.strip()
    if not text:
        return Multiset(), ()
    for entry in text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        if ":" not in entry:
            raise LogParseError(line, f"resource entry {entry!r} lacks role prefix")
        role, rest = entry.split(":", 1)
        if "*" in rest:
            instance, count = rest.split("*", 1)
            try:
                n = int(count)
            except ValueError:
                raise LogParseError(line, f"bad multiplicity in {entry!r}") from None
        else:
            instance, n = rest, 1
        role, instance = role.strip(), instance.strip()
        if not role or not instance or n < 1:
            raise LogParseError(line, f"bad resource entry {entry!r}")
        if roles.get(instance, role) != role:
            raise LogParseError(line, f"instance {instance!r} listed under two roles")
        counts[instance] = counts.get(instance, 0) + n
        roles[instance] = role
    return Multiset(counts), tuple(sorted(roles.items()))


def parse_log(source) -> EventLog:
    """Parse a log from a string or text stream; see module docstring for format."""
    if isinstance(source, str):
        source = io.StringIO(source)
    events = []
    seen = {}
    for line, row in enumerate(csv.reader(source), start=1):
        if line == 1 and row and row[0].startswith("\ufeff"):
            row[0] = row[0][1:]     # the byte-order mark of a "CSV UTF-8" export
        if not row or all(not cell.strip() for cell in row):
            continue
        if line == 1 and [c.strip().lower() for c in row] == LOG_HEADER:
            continue
        if len(row) != 4:
            raise LogParseError(line, f"expected 4 columns, got {len(row)}")
        case, activity = row[0].strip(), row[1].strip()
        if not case or not activity:
            raise LogParseError(line, "empty case or activity")
        timestamp = _parse_timestamp(row[2], line)
        resources, roles = _parse_resources(row[3], line)
        key = (case, activity, timestamp)
        if key in seen:
            warnings.warn(
                f"line {line}: duplicate of line {seen[key]} "
                f"({case}, {activity}, {_format_timestamp(timestamp)}); keeping both"
            )
        seen.setdefault(key, line)
        events.append(
            Event(len(events), activity, timestamp, case, resources, roles)
        )
    return EventLog(events)


def _format_timestamp(value: float) -> str:
    return repr(value) if value != int(value) else str(int(value))


def _format_resources(event: Event) -> str:
    roles = dict(event.roles)
    parts = []
    for instance in sorted(event.resources.support()):
        n = event.resources.count(instance)
        entry = f"{roles.get(instance, '?')}:{instance}"
        if n > 1:
            entry += f"*{n}"
        parts.append(entry)
    return ";".join(parts)


def serialize_log(log: EventLog) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LOG_HEADER)
    for e in sorted(log.events, key=lambda e: (e.timestamp, e.index)):
        writer.writerow(
            [e.case, e.activity, _format_timestamp(e.timestamp), _format_resources(e)]
        )
    return out.getvalue()
