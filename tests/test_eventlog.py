"""Event log model: ordering rules, projections, CSV round-trips."""

import os
import random
import time
from itertools import permutations

import pytest

from nualign.eventlog import (
    Event,
    EventLog,
    LogParseError,
    parse_log,
    serialize_log,
)
from nualign.lognet import build_log_net
from nualign.poset import Multiset, Poset
from support.fixtures import clinic_log
from support.orders import maximal, minimal


def ev(index, activity, t, case, res=None, roles=()):
    return Event(index, activity, t, case, Multiset(res or {}), roles)


def reference_order(events) -> Poset:
    """The log order built pair by pair and closed: per-case chains by
    (timestamp, index) plus every strictly-earlier cross-case pair.  The
    independent reference for ``EventLog``'s implicit order."""
    events = list(events)
    pairs = []
    by_case = {}
    for e in events:
        by_case.setdefault(e.case, []).append(e)
    for trace in by_case.values():
        trace.sort(key=lambda e: (e.timestamp, e.index))
        pairs.extend(zip(trace, trace[1:]))
    for e1 in events:
        for e2 in events:
            if e1.case != e2.case and e1.timestamp < e2.timestamp:
                pairs.append((e1, e2))
    return Poset(events, pairs)


def assert_matches_reference(log, ref):
    """``log``'s order, covering pairs and extremes equal the closed ``ref``."""
    assert set(log.events) == set(ref.elements)
    for a, b in permutations(log.events, 2):
        assert log.precedes(a, b) == ref.precedes(a, b), (a, b)
    covering = log.covering_pairs()
    assert covering == sorted(
        ref.covering_pairs(), key=lambda p: (p[0].index, p[1].index)
    )
    entered = {b for _, b in covering}
    left = {a for a, _ in covering}
    assert {e for e in log.events if e not in entered} == minimal(ref)
    assert {e for e in log.events if e not in left} == maximal(ref)


# -- the chronology rule ----------------------------------------------------

def test_two_rows_one_case_chain():
    log = parse_log("c1,a,1,\nc1,b,2,\n")
    assert len(log) == 2
    e1, e2 = log.events
    assert log.precedes(e1, e2)


def test_same_timestamp_across_cases_incomparable():
    log = EventLog([ev(0, "a", 5, "c1"), ev(1, "b", 5, "c2")])
    e1, e2 = log.events
    assert not log.precedes(e1, e2) and not log.precedes(e2, e1)


def test_same_timestamp_same_case_ordered_by_position():
    log = EventLog([ev(0, "a", 5, "c1"), ev(1, "b", 5, "c1")])
    e1, e2 = log.events
    assert log.precedes(e1, e2)
    # stable under re-parse of the serialized form
    again = parse_log(serialize_log(log))
    f1, f2 = again.trace("c1")
    assert (f1.activity, f2.activity) == ("a", "b")
    assert again.precedes(f1, f2)


def test_strictly_increasing_timestamps_total_order():
    log = EventLog([ev(i, "x", i, f"c{i % 2}") for i in range(5)])
    for a, b in permutations(log.events, 2):
        assert log.precedes(a, b) or log.precedes(b, a)
    assert len(log.covering_pairs()) == 4


def test_chronology_invariant():
    rng = random.Random(21)
    for _ in range(30):
        events = [
            ev(i, "a", rng.randrange(5), f"c{rng.randrange(3)}")
            for i in range(6)
        ]
        log = EventLog(events)
        for e1, e2 in permutations(log.events, 2):
            if log.precedes(e1, e2):
                assert not e1.timestamp > e2.timestamp
        for c in log.cases():
            trace = log.trace(c)
            for a, b in zip(trace, trace[1:]):
                assert log.precedes(a, b)


def test_duplicate_events_rejected():
    e = ev(0, "a", 1, "c")
    with pytest.raises(ValueError, match="duplicate"):
        EventLog([e, e])


def test_order_matches_closed_reference_on_random_logs():
    """Implicit order against the pairwise-built closure: 2 000 seeded logs
    with timestamp ties (0-14 events, 1-4 cases, at most 7 timestamps),
    passed in shuffled input order; projections and random restrictions
    against the restricted reference."""
    rng = random.Random(8)
    for _ in range(2000):
        n_cases = rng.randint(1, 4)
        n_times = rng.randint(1, 7)
        events = [
            ev(i, "a", rng.randrange(n_times) * 1.5, f"c{rng.randrange(n_cases)}")
            for i in range(rng.randint(0, 14))
        ]
        rng.shuffle(events)
        log = EventLog(events)
        ref = reference_order(events)
        assert_matches_reference(log, ref)
        for c in log.cases():
            proj = log.project_case(c)
            assert list(proj.events) == log.trace(c)
            assert_matches_reference(proj, ref.restrict(log.trace(c)))
        subset = [e for e in events if rng.random() < 0.5]
        sub = log.restrict(subset)
        assert list(sub.events) == subset
        assert_matches_reference(sub, ref.restrict(subset))


# -- projections ------------------------------------------------------------

def test_project_case_partitions_log():
    events = [
        ev(0, "a", 1, "c1"), ev(1, "b", 2, "c2"),
        ev(2, "c", 3, "c1"), ev(3, "d", 4, "c2"),
    ]
    log = EventLog(events)
    seen = []
    for c in log.cases():
        proj = log.project_case(c)
        assert all(e.case == c for e in proj.events)
        # order restricted to same-case pairs only
        for e1, e2 in proj.covering_pairs():
            assert e1.case == e2.case == c
        seen.extend(proj.events)
    assert sorted(seen, key=lambda e: e.index) == list(log.events)


def test_project_single_case_log_is_identity():
    log = EventLog([ev(0, "a", 1, "c"), ev(1, "b", 2, "c")])
    proj = log.project_case("c")
    assert list(proj.events) == list(log.events)
    assert proj.covering_pairs() == log.covering_pairs()
    for a, b in permutations(log.events, 2):
        assert proj.precedes(a, b) == log.precedes(a, b)


def test_project_unknown_case_empty():
    log = EventLog([ev(0, "a", 1, "c")])
    assert len(log.project_case("zzz")) == 0


# -- parsing ----------------------------------------------------------------

def test_parse_resources_multiplicity():
    log = parse_log("c1,a,1,s:x*2\n")
    (e,) = log.events
    assert e.resources == Multiset({"x": 2})
    assert e.role_of("x") == "s"


def test_parse_multiple_roles():
    log = parse_log("c1,a,1,g:g1;s:s1\n")
    (e,) = log.events
    assert e.resources == Multiset(["g1", "s1"])
    assert e.role_of("g1") == "g" and e.role_of("s1") == "s"


def test_parse_iso_timestamp():
    log = parse_log("c1,a,2024-01-01T10:00:00,\nc1,b,2024-01-01T10:05:00,\n")
    e1, e2 = log.trace("c1")
    assert e2.timestamp - e1.timestamp == 300.0


def test_parse_naive_iso_timestamps_as_utc_in_any_zone():
    # 02:30 on 2024-03-10 does not exist in New York (clocks skip to 03:00),
    # so a local reading puts c1's b before its a; UTC keeps the file's order
    text = ("c1,a,2024-03-10T02:30:00,\nc1,b,2024-03-10T03:10:00,\n"
            "c2,a,2024-03-10T01:50:00,\n")
    saved = os.environ.get("TZ")
    try:
        for zone in ("UTC", "EST5EDT,M3.2.0,M11.1.0"):
            os.environ["TZ"] = zone
            time.tzset()
            log = parse_log(text)
            assert [e.timestamp for e in log.events] == [1710037800, 1710040200, 1710035400]
            assert [e.activity for e in log.trace("c1")] == ["a", "b"]
            assert [(a.index, b.index) for a, b in log.covering_pairs()] == [(0, 1), (2, 0)]
            aware = parse_log("c1,a,2024-03-10T02:30:00-05:00,\n")
            assert aware.events[0].timestamp == 1710055800
    finally:
        if saved is None:
            os.environ.pop("TZ", None)
        else:
            os.environ["TZ"] = saved
        time.tzset()


def test_parse_strips_a_byte_order_mark():
    # Excel's "CSV UTF-8" starts the file with U+FEFF, with or without a header
    for text in ("\ufeffcase,activity,timestamp,resources\nc1,a,1,\n", "\ufeffc1,a,1,\n"):
        (e,) = parse_log(text).events
        assert (e.case, e.activity, e.timestamp) == ("c1", "a", 1)


def test_parse_malformed_row_line_number():
    with pytest.raises(LogParseError, match="line 2"):
        parse_log("c1,a,1,\nc1,b,not-a-time,\n")
    with pytest.raises(LogParseError, match="line 1"):
        parse_log("c1,a,1\n")


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
def test_parse_rejects_a_non_finite_timestamp(stamp):
    # nan would order nothing across cases, and inf cannot be written back
    with pytest.raises(LogParseError, match=f"line 2: non-finite timestamp '{stamp}'"):
        parse_log(f"c1,a,0,\nc1,b,{stamp},\n")
    with pytest.raises(LogParseError, match="line 1"):
        parse_log(f"c1,a,{stamp},\nc1,b,1,\n")


def test_parse_duplicate_triple_warns_keeps_both():
    with pytest.warns(UserWarning, match="duplicate"):
        log = parse_log("c1,a,1,\nc1,a,1,\n")
    assert len(log) == 2


def test_parse_header_accepted():
    log = parse_log("case,activity,timestamp,resources\nc1,a,1,\n")
    assert len(log) == 1


def test_roundtrip_identity_on_model():
    src = (
        "c1,start,1,g:g1\n"
        "c2,start,2,g:g1\n"
        "c1,work,3,s:s1*2\n"
        "c2,work,4,s:s1\n"
        "c1,stop,5,\n"
        "c2,stop,5,\n"
    )
    log1 = parse_log(src)
    log2 = parse_log(serialize_log(log1))
    assert len(log1) == len(log2)
    for e1, e2 in zip(log1.events, log2.events):
        assert (e1.activity, e1.timestamp, e1.case, e1.resources, e1.roles) == (
            e2.activity, e2.timestamp, e2.case, e2.resources, e2.roles,
        )
    assert serialize_log(log1) == serialize_log(log2)


def test_roundtrip_keeps_fractional_timestamps():
    # six significant digits would write all three as 1.6978e+09, and the
    # re-parsed log would order only c1's two events
    log1 = parse_log("c1,a,1697801234.25,\nc2,b,1697801234.5,\nc1,c,1697801234.75,\n")
    log2 = parse_log(serialize_log(log1))
    assert [e.timestamp for e in log2.events] == [e.timestamp for e in log1.events]
    pairs = [[(a.index, b.index) for a, b in log.covering_pairs()] for log in (log1, log2)]
    assert pairs[0] == pairs[1] == [(0, 1), (1, 2)]


def test_quoting_rfc4180():
    log = EventLog([ev(0, 'say "hi"', 1, "c,1")])
    text = serialize_log(log)
    reparsed = parse_log(text)
    assert reparsed.events[0].case == "c,1"
    assert reparsed.events[0].activity == 'say "hi"'


# -- scale ------------------------------------------------------------------

def test_clinic_log_of_6000_events_stays_linear():
    """A guard against a quadratic log order (no timing assertion): 1 000
    clinic cases with every timestamp distinct form one chain."""
    log = clinic_log(1000, overlap_at=500)
    assert len(log) == 6000
    assert len(log.covering_pairs()) == 5999
    for c in log.cases():
        proj = log.project_case(c)
        assert list(proj.events) == log.trace(c) and len(proj) == 6
        assert len(proj.covering_pairs()) == 5
        net = build_log_net(proj)
        assert sum(p.startswith("ord_") for p in net.places) == 5
