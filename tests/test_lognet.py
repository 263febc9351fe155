"""Log net construction: executions must be exactly the log linearizations."""

import random

from nualign.eventlog import Event, EventLog
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


def _random_resource_logs():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randrange(2, 7)
        yield EventLog([
            ev(i, f"a{i}", rng.randrange(4), f"c{rng.randrange(2) + 1}",
               {"x": 1} if rng.random() < 0.3 else None)
            for i in range(n)
        ])


def test_executions_are_linearizations_random():
    for log in _random_resource_logs():
        net = build_log_net(log)
        got = executions_as_events(net, len(log))
        assert got == set(linearizations(reference_order(log.events)))


def test_places_are_the_log_order():
    # recorded resources make no place: the sync transitions pin them
    logs = [hospital_log(), *_random_resource_logs()]
    assert sum(any(e.resources for e in log.events) for log in logs) >= 5
    for log in logs:
        covering = log.covering_pairs()
        entered = {e2 for _, e2 in covering}
        left = {e1 for e1, _ in covering}
        assert sorted(build_log_net(log).places) == sorted(
            [f"ord_e{e1.index}_e{e2.index}" for e1, e2 in covering]
            + [f"src_{e.case}" for e in log.events if e not in entered]
            + [f"snk_{e.case}" for e in log.events if e not in left])


def test_every_transition_fires_exactly_once():
    log = hospital_log()
    net = build_log_net(log)
    runs = enumerate_executions(net, len(log), cap=500_000)
    assert runs
    for run in runs:
        fired = [t for t, _ in run]
        assert sorted(fired) == sorted(net.transitions)
