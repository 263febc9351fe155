"""Log net construction: executions must be exactly the log linearizations."""

import random

from nualign.eventlog import Event, EventLog, parse_log
from nualign.lognet import build_log_net, transition_id
from nualign.poset import Multiset
from nualign.rcnu import EPS
from support.fixtures import hospital_log
from support.orders import linearizations
from support.runs import enumerate_executions

from test_eventlog import reference_order


def ev(index, activity, t, case, res=None):
    return Event(index, activity, t, case, Multiset(res or {}))


def executions_as_events(net, max_len):
    runs = enumerate_executions(net, max_len)
    return {tuple(net.event_of[t] for t, _ in run) for run in runs}


def test_single_event_no_resources():
    log = EventLog([ev(0, "a", 1, "c1")])
    net = build_log_net(log)
    assert len(net.transitions) == 1
    assert set(net.places) == {"src_c1", "snk_c1"}
    assert net.initial.get("src_c1") == Multiset({("c1", EPS): 1})
    assert net.final.get("snk_c1") == Multiset({("c1", EPS): 1})


def test_resource_multiplicity():
    log = EventLog([ev(0, "a", 1, "c1", {"x": 2})])
    net = build_log_net(log)
    p = "res_e0_x"
    assert net.initial.get(p) == Multiset({(EPS, "x"): 2})
    assert net.arc(p, transition_id(log.events[0])) == Multiset({(EPS, "x"): 2})


def test_order_place_inscriptions():
    log = EventLog([ev(0, "a", 1, "c1"), ev(1, "b", 2, "c1"), ev(2, "c", 3, "c2")])
    net = build_log_net(log)
    e0, e1, e2 = log.events
    # same case: token carries the case id
    assert net.arc(transition_id(e0), "ord_e0_e1") == Multiset([("c1", EPS)])
    # cross-case: plain token
    assert net.arc(transition_id(e1), "ord_e1_e2") == Multiset([(EPS, EPS)])


def test_uses_transitive_reduction():
    log = EventLog([ev(i, "a", i, "c1") for i in range(4)])
    net = build_log_net(log)
    order_places = [p for p in net.places if p.startswith("ord_")]
    assert sorted(order_places) == ["ord_e0_e1", "ord_e1_e2", "ord_e2_e3"]


def test_executions_are_linearizations_two_cases():
    log = EventLog([
        ev(0, "a", 1, "c1"), ev(1, "b", 1, "c2"),
        ev(2, "c", 2, "c1"), ev(3, "d", 2, "c2"),
    ])
    net = build_log_net(log)
    got = executions_as_events(net, len(log))
    assert got == set(linearizations(reference_order(log.events)))


def test_executions_are_linearizations_random():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randrange(2, 7)
        events = [
            ev(i, f"a{i}", rng.randrange(4), f"c{rng.randrange(2) + 1}",
               {"x": 1} if rng.random() < 0.3 else None)
            for i in range(n)
        ]
        log = EventLog(events)
        net = build_log_net(log)
        got = executions_as_events(net, n)
        assert got == set(linearizations(reference_order(log.events)))


def test_every_transition_fires_exactly_once():
    log = hospital_log()
    net = build_log_net(log)
    runs = enumerate_executions(net, len(log), cap=500_000)
    assert runs
    for run in runs:
        fired = [t for t, _ in run]
        assert sorted(fired) == sorted(net.transitions)


def test_resource_demand_totals():
    log = parse_log("c1,a,1,s:x*2\nc2,b,2,s:x\nc1,c,3,g:g1\n")
    net = build_log_net(log)
    consumed = Multiset()
    for (src, tgt), ms in net.flow.items():
        if src.startswith("res_"):
            for (c, r), n in ms.items():
                consumed = consumed + Multiset({r: n})
    assert consumed == Multiset({"x": 3, "g1": 1})
