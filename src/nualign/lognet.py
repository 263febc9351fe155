"""Build the colored net representation of an event log.

The log net is the log order.  One transition per event, labeled with the
event's activity, and two kinds of places wire the observed behavior
together:

- ``ord_<e1>_<e2>``: per covering pair of the log order (its transitive
  reduction, ``EventLog.covering_pairs``), a connecting place whose token
  carries the case id when both events belong to one case and is plain
  otherwise.  These give the full order's firing constraints;
- ``src_<case>`` / ``snk_<case>``: a source place per event no covering
  pair enters (marked initially) and a sink place per event none leaves
  (required finally), carrying the event's case id.

The recorded resource demand has no place: the synchronous product makes
each event's observed instances the mode of its sync transitions' move
records (``align._resource_assignments``).  So the log net's tokens name only case
ids.  A search draws fresh names outside the marking's identifiers; it
still avoids every recorded instance when each is a declared instance of
a durable resource (as the CLI requires), since such an instance always
sits on a model place.

Inscriptions use concrete identifiers, so log transitions have no
variables and fire with the empty mode.  Complete executions of the log
net are exactly the linearizations of the log.
"""

from __future__ import annotations

from .eventlog import EventLog
from .rcnu import EPS, ColoredMarking, ColoredNet
from .poset import Multiset


class LogNet(ColoredNet):
    """Colored net of an event log, with the transition -> event mapping."""

    def __init__(self, places, transitions, labels, flow, initial, final,
                 event_of):
        super().__init__(places, transitions, labels, flow, initial, final)
        self.event_of = dict(event_of)


def transition_id(event) -> str:
    return f"t_e{event.index}"


def build_log_net(log: EventLog) -> LogNet:
    places = []
    transitions = []
    labels = {}
    flow = {}
    event_of = {}
    initial_tokens = {}
    final_tokens = {}

    for e in log.events:
        t = transition_id(e)
        transitions.append(t)
        labels[t] = e.activity
        event_of[t] = e

    covering = log.covering_pairs()
    for e1, e2 in covering:
        p = f"ord_e{e1.index}_e{e2.index}"
        places.append(p)
        token = (e1.case, EPS) if e1.case == e2.case else (EPS, EPS)
        flow[(transition_id(e1), p)] = Multiset([token])
        flow[(p, transition_id(e2))] = Multiset([token])

    entered = {e2 for _, e2 in covering}
    left = {e1 for e1, _ in covering}
    for e in sorted(set(log.events) - entered, key=lambda e: e.index):
        p = f"src_{e.case}"
        places.append(p)
        flow[(p, transition_id(e))] = Multiset([(e.case, EPS)])
        initial_tokens[p] = Multiset({(e.case, EPS): 1})
    for e in sorted(set(log.events) - left, key=lambda e: e.index):
        p = f"snk_{e.case}"
        places.append(p)
        flow[(transition_id(e), p)] = Multiset([(e.case, EPS)])
        final_tokens[p] = Multiset({(e.case, EPS): 1})

    return LogNet(
        places, transitions, labels, flow,
        ColoredMarking(initial_tokens), ColoredMarking(final_tokens),
        event_of,
    )
