"""Synchronous product and exact alignment search.

The optimality tests compare the Dijkstra result against the exhaustive
DFS oracle, which explores the product with no search-order assumptions,
and the A* search on the case heuristic against Dijkstra.
"""

import heapq
import itertools
import random
from dataclasses import replace

import pytest

import nualign.align as align_module
import nualign.approx as approx

from nualign.align import (
    DEFAULT_COSTS,
    Alignment,
    CaseHeuristic,
    CostTable,
    Move,
    SearchBudgetError,
    SoundnessError,
    align_case,
    align_log,
    build_sync_product,
    case_spaces,
    is_valid_alignment,
    move_cost,
    optimal_alignment,
    sync_warnings,
    token_counts,
)
from nualign.approx import align_cases, approximate_alignment, compose
from nualign.eventlog import Event, EventLog, parse_log
from nualign.lognet import build_log_net, transition_id
from nualign.poset import Multiset, Poset
from nualign.rcnu import (EPS, ColoredMarking, DeviationConfig, FiringError, Nu, RcNuNet, Role,
                          Var, enabled_modes, fire_mode, firing_effect, resource_marking,
                          scale_cases, simulate)
from support.fixtures import (claim_release_net, clinic_log, clinic_net, clinic_two_overlaps_log,
                               hospital_log, hospital_net, operation_rcnu)
from support.oracles import (ReferenceCaseHeuristic, case_product, demand_log_net,
                             min_cost_exhaustive, reference_astar, reference_cost_to_go,
                             reference_enabled_modes, reference_resource_assignments)
from support.orders import closed_pairs, incomparable, linearizations, maximal, minimal
from support.runs import (antichain_marking, edge_children, heuristic_values, loosened,
                          pseudo_count, pseudo_fire, replay)

from test_acceptance import OPTIMALITY_LOGS, generate_pipeline_fixtures
from test_approx import _differential_fixtures, _spare_name_fixture


def product_for(log, cases=None):
    net = scale_cases(hospital_net(), cases or log.cases())
    return net, build_sync_product(net, build_log_net(log))


# -- costs -------------------------------------------------------------------

def test_move_costs():
    e = Event(0, "a", 1.0, "c1")
    assert move_cost(Move("sync", event=e, transition="t", label="a")) == 0
    assert move_cost(Move("model", transition="t", label="a")) == 10_000
    assert move_cost(Move("model", transition="t", label=None)) == 1
    assert move_cost(Move("log", event=e, label="a")) == 10_000


@pytest.mark.parametrize("entries, message", [
    ({"tau": -1}, "negative cost entry 'tau=-1'"),
    ({"sync": -5, "visible": 0}, "negative cost entry 'sync=-5'"),
    ({"visible": 0}, "the visible-move cost must be at least 1, got 0"),
])
def test_cost_table_rejects_costs_a_search_cannot_use(entries, message):
    # a negative edge cost breaks Dijkstra, and tau moves must stay below visible
    with pytest.raises(ValueError, match=f"^{message}$"):
        CostTable(**entries)
    assert CostTable(sync=0, tau=0, visible=1).visible == 1


# -- product construction ------------------------------------------------------

def test_empty_log_product_is_model():
    log = EventLog([])
    net, prod = product_for(log, cases=["c1"])
    kinds = {m.kind for m in prod.moves.values()}
    assert kinds == {"model"}
    assert len(prod.transitions) == len(net.transitions)


def test_single_event_single_sync_transition():
    log = parse_log("c1,o_p,1,\n")
    _, prod = product_for(log)
    syncs = [t for t in prod.transitions if prod.moves[t].kind == "sync"]
    assert len(syncs) == 1


def test_sync_transition_count_hospital():
    log = hospital_log()
    net, prod = product_for(log)
    syncs = [t for t in prod.transitions if prod.moves[t].kind == "sync"]
    per_label = {}
    for t in net.transitions:
        if net.labels[t]:
            per_label[net.labels[t]] = per_label.get(net.labels[t], 0) + 1
    assert len(syncs) == sum(per_label[e.activity] for e in log.events)


def test_unknown_activity_warns_and_stays_log_move():
    log = parse_log("c1,mystery,1,\n")
    net, prod = product_for(log)
    assert any("mystery" in w for w in sync_warnings(net, log))
    assert all(prod.moves[t].kind != "sync" for t in prod.transitions)


def test_sync_requires_matching_resources():
    # observed GP instance does not exist: no sync transition for the event
    log = parse_log("c1,i_s,1,g:g9\n")
    _, prod = product_for(log)
    assert all(prod.moves[t].kind != "sync" for t in prod.transitions)


def test_product_records_the_move_of_each_transition():
    log = hospital_log()
    net, prod = product_for(log)
    for name in ("move_kind", "model_transition", "event", "meta", "forced"):
        assert not hasattr(prod, name)
    assert list(prod.moves) == list(prod.transitions)
    for t in prod.transitions:
        move = prod.moves[t]
        assert prod.labels[t] == move.label
        if move.kind == "log":
            assert t == f"l::{transition_id(move.event)}" and move.mode == ()
        elif move.kind == "model":
            assert t == f"m::{move.transition}" and move.mode == ()
            assert move.label == net.labels[move.transition]
        else:
            assert t.startswith(f"s::{move.transition}::e{move.event.index}")
            assert move.label == move.event.activity == net.labels[move.transition]
            assert move.mode == tuple(sorted(move.mode))
            assert move.event.case in move.binding().values()


def _random_role_transition(rng):
    """A net whose one transition claims, from each of one or two roles,
    1-3 resource variables of multiplicity 1-2 (names in random order),
    and an event observing as many instances of the role, with the
    variables' multiplicities shuffled, one of them changed at random."""
    roles, flow, observed = [], {}, {}
    for r in range(rng.randint(1, 2)):
        role = Role(f"r{r}", Multiset({f"i{r}{k}": 2 for k in range(4)}),
                    f"avail{r}", f"busy{r}")
        roles.append(role)
        mults = {Var(f"{v}{r}"): rng.randint(1, 2) for v in rng.sample("wxyz", rng.randint(1, 3))}
        flow[(role.available_place, "t")] = Multiset({(EPS, v): n for v, n in mults.items()})
        counts = rng.sample(list(mults.values()), len(mults))
        counts[0] = rng.choice([counts[0], counts[0], 1, 2])
        observed.update(zip(rng.sample(sorted(role.instances.support()), len(counts)), counts))
    net = RcNuNet(["p"], roles, ["t"], {"t": "a"}, flow, ColoredMarking(), ColoredMarking())
    return net, Event(0, "a", 1.0, "c1", Multiset(observed))


def test_resource_assignments_match_the_recursive_reference():
    # the product's resource bindings, in order, are the recursive
    # enumeration's on every (transition, event) pair of the fixtures and
    # on random roles; enough of them have several to check the order
    several = 0
    for net, log in _differential_fixtures():
        for t in net.transitions:
            for event in log.events:
                got = align_module._resource_assignments(net, t, event)
                assert got == reference_resource_assignments(net, t, event)
                several += len(got) > 1
    rng = random.Random(11)
    for _ in range(600):
        net, event = _random_role_transition(rng)
        got = align_module._resource_assignments(net, "t", event)
        assert got == reference_resource_assignments(net, "t", event)
        several += len(got) > 1
    assert several >= 100


def _settled_markings(prod, monkeypatch):
    """The markings ``optimal_alignment`` settles on ``prod`` before its goal,
    or all reachable ones where the goal is unreachable."""
    settled = []
    successors = align_module._StateSpace.successors

    def recording(space, state):
        settled.append(ColoredMarking(space.decode(state)))
        return successors(space, state)

    with monkeypatch.context() as patch:
        patch.setattr(align_module._StateSpace, "successors", recording)
        try:
            optimal_alignment(prod)
        except SearchBudgetError:
            pass
    return settled


def test_enabled_modes_match_the_brute_force_on_settled_markings(monkeypatch):
    # on every marking the search settles for the fixtures' logs of at most
    # 10 events, each product transition's modes, with the product's fresh
    # pool and pinned bindings, are the brute force's over whole bindings
    compared = enabled = 0
    for net, log in _differential_fixtures():
        if len(log) > 10:
            continue
        prod = build_sync_product(scale_cases(net, log.cases()), build_log_net(log))
        for marking in _settled_markings(prod, monkeypatch):
            fresh = prod.fresh_candidates(marking)
            for t in prod.transitions:
                forced = prod.moves[t].binding()
                got = enabled_modes(prod, marking, t, fresh_pool=fresh, forced=forced)
                assert got == reference_enabled_modes(prod, marking, t, fresh, forced), t
                compared += 1
                enabled += len(got)
    assert compared >= 100_000 and enabled >= 30_000, (compared, enabled)


# -- exact alignment -----------------------------------------------------------

def test_perfect_log_aligns_all_sync_cost_zero():
    log = hospital_log()
    net, prod = product_for(log)
    al = optimal_alignment(prod)
    assert al.cost() == 0
    assert all(m.kind == "sync" for m in al.moves)
    assert len(al) == len(log)
    ok, why = is_valid_alignment(net, log, al)
    assert ok, why


def test_missing_event_costs_one_model_move():
    rows = [r for r in hospital_log().events if not (r.case == "c2" and r.activity == "o_p")]
    log = EventLog([
        Event(i, e.activity, e.timestamp, e.case, e.resources, e.roles)
        for i, e in enumerate(rows)
    ])
    net, prod = product_for(log)
    al = optimal_alignment(prod)
    assert al.cost() == 10_000
    model_moves = [m for m in al.moves if m.kind == "model"]
    assert [m.label for m in model_moves] == ["o_p"]
    assert min_cost_exhaustive(prod) == 10_000
    ok, why = is_valid_alignment(net, log, al)
    assert ok, why


def test_prefix_log_completed_by_model_moves():
    log = parse_log("c1,i_s,1,g:g1\n")
    net, prod = product_for(log)
    al = optimal_alignment(prod)
    kinds = [(m.kind, m.label) for m in al.moves]
    assert kinds[0] == ("sync", "i_s")
    assert ("model", "i_p") in kinds
    # cheapest completion: release the GP, then silently skip the operation
    assert al.cost() == 10_001
    assert al.cost() == min_cost_exhaustive(prod)


def test_swapped_resource_costs_log_and_model_move():
    # observed i_s with the declared-but-wrong instance is unexplainable:
    # there is only one GP, so claiming g1 under a different recorded id
    # cannot synchronize
    log = parse_log("c1,i_s,1,g:g1\nc1,i_p,2,g:g9\n")
    net, prod = product_for(log)
    al = optimal_alignment(prod)
    assert al.cost() == min_cost_exhaustive(prod) > 0


def test_search_deterministic():
    log = hospital_log()
    _, prod1 = product_for(log)
    _, prod2 = product_for(log)
    a1 = optimal_alignment(prod1)
    a2 = optimal_alignment(prod2)
    assert [repr(m) for m in a1.moves] == [repr(m) for m in a2.moves]


def test_tau_count_reaching_visible_cost_raises():
    # skipping the intake silently is the only cost-1 completion, and with
    # visible moves at cost 1 that one tau move already weighs as much
    log = parse_log("c1,o_p,1,\nc1,o_sc,2,s:s1\n")
    _, prod = product_for(log)
    with pytest.raises(SoundnessError):
        optimal_alignment(prod, CostTable(visible=1))


def test_budget_error_carries_stats():
    log = hospital_log()
    _, prod = product_for(log)
    with pytest.raises(SearchBudgetError) as info:
        optimal_alignment(prod, node_budget=3)
    exc = info.value
    assert (exc.visited, exc.frontier, exc.best_cost) == (4, 13, 0)
    assert "search exhausted after 4 settled markings" in str(exc)


def test_search_records_its_effort():
    # settled counts as the budget does: the goal settles within a budget
    # one below it (the goal is tested before the budget), not two below
    _, prod = product_for(hospital_log())
    al = optimal_alignment(prod)
    assert al.pushed >= al.settled > 2
    assert optimal_alignment(prod, node_budget=al.settled - 1).moves == al.moves
    with pytest.raises(SearchBudgetError) as info:
        optimal_alignment(prod, node_budget=al.settled - 2)
    assert info.value.visited == al.settled - 1


def test_unreachable_goal_says_so():
    # a final token no firing produces: the frontier empties with the
    # budget unspent
    log = hospital_log()
    net = scale_cases(hospital_net(), log.cases())
    net = net.with_markings(net.initial,
                            net.final | ColoredMarking({"q5": Multiset({("zz", EPS): 1})}))
    prod = build_sync_product(net, build_log_net(log))
    with pytest.raises(SearchBudgetError) as info:
        optimal_alignment(prod)
    exc = info.value
    assert (exc.visited, exc.frontier, exc.best_cost) == (374, 0, None)
    assert str(exc) == ("goal unreachable from the start: all 374 reachable "
                        "markings settled without reaching it")


def test_align_log_wrapper():
    al = align_log(hospital_net(), hospital_log())
    assert al.cost() == 0


# -- oracle agreement on assorted small fixtures ---------------------------------

SMALL_LOGS = [
    "c1,i_s,1,g:g1\nc1,i_p,2,g:g1\n",
    "c1,o_p,1,\nc1,o_sc,2,s:s1\n",
    "c1,o_p,1,\nc1,o_so,2,s:s1\nc1,o_c,3,s:s1\n",
    "c1,i_s,1,g:g1\nc1,i_p,2,g:g1\nc1,o_p,3,\nc1,o_sc,4,s:s1\n",
    "c1,o_sc,1,s:s1\n",
    "c1,i_p,1,g:g1\n",
    "c1,o_p,1,\nc2,o_p,2,\nc1,o_sc,3,s:s1\nc2,o_sc,4,s:s1\n",
    "c1,i_s,1,g:g1\nc2,i_s,2,g:g1\n",
]


@pytest.mark.parametrize("csv", SMALL_LOGS)
def test_exact_matches_exhaustive_oracle(csv):
    log = parse_log(csv)
    _, prod = product_for(log)
    al = optimal_alignment(prod)
    assert al.cost() == min_cost_exhaustive(prod, node_cap=300_000)


# -- interned-state search against the marking-keyed reference ------------------

def reference_optimal_alignment(prod, costs=align_module.DEFAULT_COSTS,
                                node_budget=align_module.DEFAULT_NODE_BUDGET):
    """The search with markings as states: every transition is tried at every
    settled marking, and each push binds its arcs anew through
    ``fire_mode``.  The reference for ``optimal_alignment``."""
    start, goal = prod.initial, prod.final
    best = {start: 0}
    parent = {start: None}
    pushes = itertools.count(1)
    heap = [(0, 0, start)]
    settled = set()
    while heap:
        cost, _, m = heapq.heappop(heap)
        if m in settled or cost > best[m]:
            continue
        settled.add(m)
        if m == goal:
            moves = []
            while parent[m] is not None:
                m, t, mode = parent[m]
                moves.append(replace(prod.moves[t], mode=tuple(sorted(mode.items()))))
            return Alignment.chain(reversed(moves))
        if len(settled) > node_budget:
            raise SearchBudgetError(len(settled), len(heap), cost)
        fresh = prod.fresh_candidates(m)
        for t in prod.transitions:
            for mode in enabled_modes(prod, m, t, fresh_pool=fresh,
                                      forced=prod.moves[t].binding()):
                m2 = fire_mode(prod, m, t, mode)
                cost2 = cost + move_cost(prod.moves[t], costs)
                if cost2 < best.get(m2, float("inf")):
                    best[m2] = cost2
                    parent[m2] = (m, t, mode)
                    heapq.heappush(heap, (cost2, next(pushes), m2))
    raise SearchBudgetError(len(settled), 0, None)


def _search_outcome(search, prod, node_budget):
    try:
        al = search(prod, node_budget=node_budget)
    except SearchBudgetError as exc:
        return "budget", exc.visited, exc.frontier, exc.best_cost
    return al.moves, al.cost()


def product_for_net(net, log):
    return build_sync_product(scale_cases(net, log.cases()), build_log_net(log))


def _differential_searches(monkeypatch):
    """(product, realigned) of every search the differential fixtures give:
    the whole-log product of logs with at most ten events, each case's own
    product, and each realignment region's product between its projected
    boundary markings as ``realign_interval`` builds it (``realigned``)."""
    searches = []
    realigning = []         # non-empty while ``realign_interval`` runs
    search, realign = approx.optimal_alignment, approx.realign_interval

    def record(prod, *args, **kwargs):
        if realigning:
            searches.append((prod, True))
        return search(prod, *args, **kwargs)

    def realign_recorded(*args, **kwargs):
        realigning.append(True)
        try:
            return realign(*args, **kwargs)
        finally:
            realigning.pop()

    monkeypatch.setattr(approx, "optimal_alignment", record)
    monkeypatch.setattr(approx, "realign_interval", realign_recorded)
    for net, log in _differential_fixtures():
        if len(log) <= 10:
            searches.append((product_for_net(net, log), False))
        for c in log.cases():
            searches.append((product_for_net(net, log.project_case(c)), False))
        approximate_alignment(net, log, node_budget=20_000)
    return searches


def test_interned_search_matches_marking_reference(monkeypatch):
    """Same moves and cost as the marking-keyed search on every whole-log,
    per-case and realignment search of the differential fixtures, and the
    same budget-error fields where a small budget runs out."""
    searches = _differential_searches(monkeypatch)
    solved = exhausted = 0
    for prod, _ in searches:
        for budget in (20_000, 50):
            new = _search_outcome(optimal_alignment, prod, budget)
            ref = _search_outcome(reference_optimal_alignment, prod, budget)
            assert new == ref
            if new[0] == "budget":
                exhausted += 1
            else:
                solved += 1
    realignments = sum(realigned for _, realigned in searches)
    assert realignments >= 10 and exhausted >= 50 and solved >= 500


def _direct_successors(space, state):
    """The firings enabled at ``state`` without the memo: ``enabled_modes``
    over every transition whose input places are all marked, in net order,
    each firing applied by ``fire_mode``."""
    prod = space.prod
    marking = ColoredMarking(space.decode(state))
    fresh = prod.fresh_candidates(marking)
    out = []
    for t in prod.transitions:
        if all(marking.get(p) for p in prod.input_places(t)):
            for mode in enabled_modes(prod, marking, t, fresh_pool=fresh,
                                      forced=prod.moves[t].binding()):
                out.append((t, (t, tuple(sorted(mode.items()))),
                            fire_mode(prod, marking, t, mode)))
    return out


def _fresh_name_fixture():
    # ``s`` creates a case by a fresh name, so its firings are not memoised
    net = RcNuNet(["q0", "q1"], [], ["s", "a"], {"s": "s", "a": "a"},
                  {("s", "q0"): Multiset([(Nu("n"), EPS)]),
                   ("q0", "a"): Multiset([(Var("c"), EPS)]),
                   ("a", "q1"): Multiset([(Var("c"), EPS)])},
                  ColoredMarking(), ColoredMarking({"q1": Multiset({("c1", EPS): 1})}))
    return net, parse_log("c1,a,1,\nc2,a,2,\nc3,s,3,\n")


def _two_token_fixture():
    # ``pair`` needs two of one token, so a count on p (not only which
    # tokens are there) decides whether it is enabled
    net = RcNuNet(["p", "q"], [], ["dup", "pair"], {"dup": "dup", "pair": "pair"},
                  {("p", "dup"): Multiset([(Var("c"), EPS)]),
                   ("dup", "p"): Multiset({(Var("c"), EPS): 2}),
                   ("p", "pair"): Multiset({(Var("c"), EPS): 2}),
                   ("pair", "q"): Multiset([(Var("c"), EPS)])},
                  ColoredMarking({"p": Multiset([("c1", EPS)])}),
                  ColoredMarking({"q": Multiset([("c1", EPS)])}))
    return net, parse_log("c1,pair,1,\n")


def test_memoised_successors_match_direct_enumeration(monkeypatch):
    """At every state the differential searches, a fresh-name search and a
    two-token search settle, the memoised successors are the direct
    enumeration's, in the same order and with the same next markings."""
    searches = _differential_searches(monkeypatch)
    searches += [(product_for_net(*_fresh_name_fixture()), False),
                 (product_for_net(*_two_token_fixture()), False)]
    memoised = align_module._StateSpace.successors
    checked = []
    ground = []             # per state, its firings of ground transitions

    def compare(space, state):
        out = list(memoised(space, state))
        assert [(t, key, ColoredMarking(space.decode(state2))) for t, key, state2 in out] \
            == _direct_successors(space, state)
        checked.append(space.prod)
        ground.append(sum(key in space.ground.values() for _, key, _ in out))
        return iter(out)

    monkeypatch.setattr(align_module._StateSpace, "successors", compare)
    for prod, _ in searches:
        _search_outcome(optimal_alignment, prod, 20_000)
    assert len(checked) >= 10_000
    assert {prod for prod, _ in searches[-2:]} <= set(checked)
    assert sum(ground) > 0


def test_memo_spares_enabled_modes_calls(monkeypatch):
    # whole-log Dijkstra, where the memo runs, makes the same moves through
    # ``_direct_successors``, which calls ``enabled_modes`` at every marked
    # transition of every state it expands, with more calls; the case
    # heuristic's tables, explored on a case space that enumerates each
    # model marking's modes once, are the same and call it as often
    calls = []
    real = enabled_modes

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    def direct(space, state):
        for t, key, _ in _direct_successors(space, state):
            yield t, key, space.fire(state, key)

    def run():
        calls.clear()
        al = optimal_alignment(prod, node_budget=10_000)
        searched = len(calls)
        heuristic = CaseHeuristic(prod, node_budget=10_000)
        return (al.moves, al.settled, al.pushed, heuristic.tables), (searched, len(calls) - searched)

    monkeypatch.setattr(align_module, "enabled_modes", counting)
    monkeypatch.setitem(globals(), "enabled_modes", counting)
    prod = product_for_net(clinic_net(), clinic_log(3, overlap_at=1))
    memoised, memoised_calls = run()
    monkeypatch.setattr(align_module._StateSpace, "successors", direct)
    unmemoised, direct_calls = run()
    assert memoised == unmemoised
    assert 0 < memoised_calls[0] < direct_calls[0]
    log = EventLog(prod.log_net.event_of.values())
    (space,) = [space for _, _, space in align_module.case_spaces(prod.model, log) if space]
    align_module._cost_to_go(space, align_module.DEFAULT_COSTS, 10_000)
    markings = len(space.graph.markings)
    assert memoised_calls[1] == direct_calls[1] == markings * len(clinic_net().transitions)


def test_ground_sync_firing_waits_for_its_busy_instance():
    # after c1's synchronous claim of x, c2's claim of x is next in the log:
    # every input place of its synchronous transition is marked, but x is busy
    net = scale_cases(claim_release_net({"x": 1, "y": 1}), ["c1", "c2"])
    prod = build_sync_product(net, build_log_net(parse_log(
        "c1,claim,1,r:x\nc2,claim,2,r:x\nc1,release,3,r:x\nc2,release,4,r:x\n")))
    space = align_module._StateSpace(prod)
    k = prod.transitions.index("s::claim::e1")
    state = space.fire(space.encode(prod.initial),
                       space.ground[prod.transitions.index("s::claim::e0")])
    assert k in space.ground and all(space.decode(state).get(p) for p in space.inputs[k])
    out = list(space.successors(state))
    assert "l::t_e1" in [t for t, _, _ in out]
    assert "s::claim::e1" not in [t for t, _, _ in out]
    assert [(t, key, ColoredMarking(space.decode(state2))) for t, key, state2 in out] \
        == _direct_successors(space, state)


def test_whole_log_search_enumerates_model_transitions_only(monkeypatch):
    # log and synchronous transitions bind every variable by their forced
    # bindings, so their one firing is checked by counts, never enumerated:
    # A* makes its children from the case tables' edges, and the tables
    # enumerate only the model's own transitions, unforced
    calls = []

    def counting(*args, **kwargs):
        calls.append((args[0], args[2], kwargs.get("forced")))
        return enabled_modes(*args, **kwargs)

    monkeypatch.setattr(align_module, "enabled_modes", counting)
    al = align_log(clinic_net(), clinic_log(10, overlap_at=5))
    assert (al.cost(), al.settled, al.pushed) == (20_000, 65, 131)
    assert calls and all(not isinstance(net, align_module.SyncProduct)
                         and t in clinic_net().transitions and forced is None
                         for net, t, forced in calls)


def _grow_and_shrink_product():
    # ``add`` puts a 256th token on p and ``drop`` takes one back
    case = Multiset([(Var("c"), EPS)])
    net = RcNuNet(["q0", "q1", "q2", "p"], [], ["add", "drop"], {"add": "add", "drop": "drop"},
                  {("q0", "add"): case, ("add", "q1"): case, ("add", "p"): case,
                   ("q1", "drop"): case, ("p", "drop"): case, ("drop", "q2"): case},
                  ColoredMarking({"q0": Multiset([("c1", EPS)]),
                                  "p": Multiset({("c1", EPS): 255})}),
                  ColoredMarking({"q2": Multiset([("c1", EPS)]),
                                  "p": Multiset({("c1", EPS): 255})}))
    return product_for_net(net, parse_log("c1,add,1,\nc1,drop,2,\n"))


def test_states_past_255_tokens_keep_one_form():
    prod = _grow_and_shrink_product()
    space = align_module._StateSpace(prod)
    mode = {"c": "c1"}
    start = space.encode(prod.initial)
    up = space.fire(start, ("m::add", tuple(mode.items())))
    back = space.fire(up, ("m::drop", tuple(mode.items())))
    grown = fire_mode(prod, prod.initial, "m::add", mode)
    shrunk = fire_mode(prod, grown, "m::drop", mode)
    assert (type(start), type(up), type(back)) == (bytes, tuple, bytes)
    for state, marking in ((start, prod.initial), (up, grown), (back, shrunk)):
        assert state == align_module._packed(list(state))
        assert {space.encode(marking): marking}[state] == marking
        assert ColoredMarking(space.decode(state)) == marking
    assert _search_outcome(optimal_alignment, prod, 1_000) \
        == _search_outcome(reference_optimal_alignment, prod, 1_000)


@pytest.mark.parametrize("capacity", [2, 255, 256, 300])
def test_search_alike_below_and_past_255_tokens(capacity):
    # c1 and c2 hold x together and c3 never releases y: from capacity 256
    # on, the states where x's availability count passes 255 are tuples
    net = claim_release_net({"x": capacity, "y": 1})
    log = parse_log("c3,claim,1,r:y\nc1,claim,2,r:x\nc2,claim,2,r:x\n"
                    "c1,release,3,r:x\nc2,release,3,r:x\n")
    al = align_log(net, log, node_budget=10_000)
    valid = is_valid_alignment(scale_cases(net, log.cases()), log, al)[0]
    assert (al.cost(), al.settled, al.pushed, valid) == (10_000, 7, 17, True)
    result = approximate_alignment(net, log, node_budget=10_000)
    assert (result.cost(), result.valid) == (10_000, True)


def test_astar_clinic_twenty_cases_effort():
    # each settled state pushes about one child and one re-entry
    al = align_log(clinic_net(), clinic_log(20, overlap_at=10), node_budget=10_000)
    assert (al.cost(), al.settled, al.pushed) == (20_000, 130, 261)


def test_astar_clinic_fifty_cases_effort():
    # frontier ties go to the longer path, so A* follows one interleaving
    # of the cases' free moves instead of settling all of them (5 412
    # states when ties went in push order); full expansion pushed 15 104
    al = align_log(clinic_net(), clinic_log(50, overlap_at=25), node_budget=10_000)
    assert (al.cost(), al.settled, al.pushed) == (20_000, 325, 651)


def test_astar_clinic_two_hundred_cases_effort():
    # the children A* makes are the ones it pops: settled grows with the
    # path, and pushed stays about twice that
    al = align_log(clinic_net(), clinic_log(200, overlap_at=100), node_budget=10_000)
    assert (al.cost(), al.settled, al.pushed) == (20_000, 1_300, 2_601)


def _searches_on(monkeypatch, build, net, log, budget=20_000):
    """Whole-log A* on the case heuristic, whole-log Dijkstra and each
    case's search of ``log``, every product's log side made by ``build``:
    per search its moves, order, cost, settled and pushed counts, or the
    budget error's fields."""
    monkeypatch.setattr(align_module, "build_log_net", build)

    def outcome(search, *args):
        try:
            al = search(*args, node_budget=budget)
        except SearchBudgetError as exc:
            return "budget", exc.visited, exc.frontier, exc.best_cost
        return al.moves, al.order.rows(), al.cost(), al.settled, al.pushed

    out = [outcome(align_log, net, log),
           outcome(optimal_alignment,
                   build_sync_product(scale_cases(net, log.cases()), build(log)))]
    for c in log.cases():
        single = build_sync_product(scale_cases(net, [c]), build(log.project_case(c)))
        out.append(outcome(optimal_alignment, single))
    return out


def test_searches_match_the_log_net_with_demand_places(monkeypatch):
    """Dropping the log net's resource-demand places changes no search: on
    every differential fixture of at most ten events, whole-log A* (its
    heuristic's tables included), whole-log Dijkstra and each case's
    search give the same moves, order, cost, settled and pushed counts as
    on the products of ``demand_log_net``."""
    compared = with_demand = 0
    for net, log in _differential_fixtures():
        if len(log) > 10:
            continue
        assert (_searches_on(monkeypatch, build_log_net, net, log)
                == _searches_on(monkeypatch, demand_log_net, net, log))
        compared += 1
        with_demand += any(e.resources for e in log.events)
    assert compared >= 150 and with_demand == compared


def _two_surgeon_net():
    # ``op`` holds two surgeons at once, so an event naming two has two
    # resource assignments, ``s::op::e<i>`` and ``s::op::e<i>::1``; ``check``
    # holds one, which a swapped instance can replace
    role = Role("s", Multiset({"x": 1, "y": 1, "z": 1}), "p_s", "p_busy")
    case, pair = Multiset([(Var("c"), EPS)]), Multiset([(EPS, Var("v")), (EPS, Var("w"))])
    return RcNuNet(["q0", "q1", "q2"], [role], ["op", "check"], {"op": "op", "check": "check"},
                   {("q0", "op"): case, ("p_s", "op"): pair, ("op", "p_s"): pair,
                    ("op", "q1"): case, ("q1", "check"): case,
                    ("p_s", "check"): Multiset([(EPS, Var("v"))]),
                    ("check", "q2"): case, ("check", "p_s"): Multiset([(EPS, Var("v"))])},
                   ColoredMarking({"q0": Multiset([("c1", EPS)])}) | resource_marking([role]),
                   ColoredMarking({"q2": Multiset([("c1", EPS)])}) | resource_marking([role]))


def _search_effort(search, space, budget):
    """Moves, settled and pushed counts of a search, or its budget error's
    fields."""
    try:
        al = search(space, node_budget=budget)
    except SearchBudgetError as exc:
        return "budget", exc.visited, exc.frontier, exc.best_cost
    return al.moves, al.settled, al.pushed


def _case_space_fixtures():
    """(net, log) of the case-space differential: the differential
    fixtures, clinic n = 3..12 and a two-overlap log, the spare-name,
    fresh-name and two-token nets, and seeded simulated logs with a dropped
    event and a swapped instance on four nets."""
    fixtures = list(_differential_fixtures())
    fixtures += [(clinic_net(), clinic_log(n, overlap_at=n // 2)) for n in range(3, 13)]
    fixtures += [(clinic_net(), clinic_two_overlaps_log(12, 3, 8)), _spare_name_fixture(),
                 _fresh_name_fixture(), _two_token_fixture()]
    for builder in (hospital_net, claim_release_net, operation_rcnu, _two_surgeon_net):
        for seed in range(4):
            fixtures.append((builder(), simulate(builder(), 3, seed,
                                                 DeviationConfig(drop_events=1, swap_resources=1))))
    return fixtures


def test_case_spaces_match_single_case_products():
    """A case's search on its case space makes the moves, settled and pushed
    counts of Dijkstra on its single-case product, raises the same budget
    error fields at a budget two below its settled count, and tabulates the
    same cost-to-go table, state numbering included, on every case of the
    case-space fixtures: alone, and as ``case_spaces`` shares model graphs
    between the variants of a log."""
    cases = shared = pinned = forced = 0
    for net, log in _case_space_fixtures():
        spaces = [(c, space) for c, _, space in case_spaces(net, log) if space is not None]
        for c in log.cases():
            ((_, _, alone),) = case_spaces(net, log.project_case(c))
            spaces.append((c, alone))
        references = {}
        for c, space in spaces:
            if c not in references:
                single = case_product(net, log, c)
                found = _search_effort(optimal_alignment, single, 20_000)
                short = found[0] != "budget" and max(found[1] - 2, 0)
                references[c] = (found, short, short is not False and _search_effort(
                    optimal_alignment, single, short), reference_cost_to_go(
                    single, DEFAULT_COSTS, 2_000))
                pinned += any(name.count("::") == 3 for name in single.moves)
            found, short, exhausted, table = references[c]
            assert _search_effort(align_case, space, 20_000) == found
            if short is not False:
                assert _search_effort(align_case, space, short) == exhausted
            assert align_module._cost_to_go(space, DEFAULT_COSTS, 2_000) == table
            if table is not None:
                assert align_module._cost_to_go(space, DEFAULT_COSTS, len(table[0]) - 1) is None
            cases += 1
            shared += space.graph.case != c
            forced += any(not exact for _, syncs in space.steps for *_, exact in syncs)
    assert cases >= 1_000 and shared >= 100 and pinned >= 10 and forced >= 2, (
        cases, shared, pinned, forced)


def _product_keys(prod, alignment):
    """The product's firing keys of the alignment's moves, checked to run
    from the product's initial to its final marking."""
    marking, keys = prod.initial, []
    for move in alignment.moves:
        if move.kind == "log":
            t = f"l::{transition_id(move.event)}"
        elif move.kind == "model":
            t = f"m::{move.transition}"
        else:
            t = next(t for t in prod.transitions
                     if prod.moves[t] == replace(move, mode=prod.moves[t].mode)
                     and set(prod.moves[t].mode) <= set(move.mode))
        marking = fire_mode(prod, marking, t, move.binding())
        keys.append((t, move.mode))
    assert marking == prod.final
    return keys


def _whole_log_searches():
    """(net, log) of every whole-log search the A* test covers: the
    differential fixtures with at most ten events (criterion 9's logs among
    them), the oracle logs and criterion 3's logs."""
    logs = [(net, log) for net, log in _differential_fixtures() if len(log) <= 10]
    logs += [(hospital_net(), parse_log(csv)) for csv in SMALL_LOGS]
    logs += [(builder(), parse_log(csv)) for builder, csv in OPTIMALITY_LOGS]
    return logs


def test_astar_matches_dijkstra():
    """A* on the case heuristic against Dijkstra at the same budget: it
    finishes wherever Dijkstra does, at the same cost and settling no more
    states, with a valid alignment, h(start) at most that cost and h
    consistent along the returned path, ending at 0 on the goal."""
    budget = 20_000
    solved = informed = fewer = 0
    for net, log in _whole_log_searches():
        prod = product_for_net(net, log)
        heuristic = CaseHeuristic(prod, node_budget=budget)
        try:
            dijkstra = optimal_alignment(prod, node_budget=budget)
        except SearchBudgetError:
            dijkstra = None
        try:
            astar = optimal_alignment(prod, node_budget=budget, heuristic=heuristic)
        except SearchBudgetError:
            assert dijkstra is None
            continue
        solved += 1
        informed += heuristic.reason is None
        if dijkstra is not None:
            assert astar.cost() == dijkstra.cost()
            assert astar.settled <= dijkstra.settled
            fewer += astar.settled < dijkstra.settled
        assert is_valid_alignment(prod.model, log, astar) == (True, None)
        values = heuristic_values(heuristic, _product_keys(prod, astar))
        assert values[-1] == 0
        assert values[0] <= astar.cost()
        for move, h, h_next in zip(astar.moves, values, values[1:]):
            assert h <= move_cost(move) + h_next
    assert solved >= 210 and informed == solved and fewer >= 150


def _astar_outcome(search, prod, heuristic, budget):
    """Moves, cost and settled count of an A* search, or its budget error's
    settled count and cheapest open cost."""
    try:
        al = search(prod, node_budget=budget, heuristic=heuristic)
    except SearchBudgetError as exc:
        return "budget", exc.visited, exc.best_cost
    return al.moves, al.cost(), al.settled


def test_edge_expansion_matches_full_expansion(monkeypatch):
    """At every state whole-log A* expands, the children the case tables'
    edges make over all offsets are the generic successors whose h is
    finite, as (key, next state), with the full expansion's h; and the
    search returns the full-expansion reference's moves, cost and settled
    count, on the A* test's logs, clinic n = 3..12 and a two-overlap log."""
    budget = 20_000
    logs = _whole_log_searches()
    logs += [(clinic_net(), clinic_log(n, overlap_at=n // 2)) for n in range(3, 13)]
    logs += [(clinic_net(), clinic_two_overlaps_log(12, 3, 8))]
    expand = CaseHeuristic.expand
    expanded = []          # states in the order of their first expansion

    def recording(self, state, offset, info):
        if not offset:
            expanded.append(state)
        return expand(self, state, offset, info)

    states = children = 0
    for net, log in logs:
        prod = product_for_net(net, log)
        heuristic = CaseHeuristic(prod, node_budget=budget)
        reference = ReferenceCaseHeuristic(prod, heuristic.space, node_budget=budget)
        assert heuristic.priced == reference.priced
        expanded.clear()
        with monkeypatch.context() as patch:
            patch.setattr(CaseHeuristic, "expand", recording)
            got = _astar_outcome(optimal_alignment, prod, heuristic, budget)
        assert got == _astar_outcome(reference_astar, prod, reference, budget)
        if not heuristic.priced:
            continue
        space = heuristic.space
        start = space.encode(prod.initial)
        info, ref = {start: heuristic.start()}, {start: reference.start(start)}
        assert info[start][0] == ref[start][0]
        for state in expanded:
            finite = set()
            for _, key, state2 in space.successors(state):
                ref[state2] = reference.step(ref[state], key, state2)
                if ref[state2][0] < align_module.INF:
                    finite.add((key, state2))
            made = edge_children(heuristic, state, info)
            assert set(made.items()) == finite
            assert all(info[state2][0] == ref[state2][0] for state2 in made.values())
            states += 1
            children += len(made)
    assert states >= 2_500 and children >= 20_000, (states, children)


def test_only_a_first_expansion_counts_as_settled():
    # A* re-expands states at larger offsets, but only first expansions are
    # settled and count against the node budget: the goal settles within a
    # budget one below the settled count, not two below
    prod = product_for_net(clinic_net(), clinic_log(10, overlap_at=5))
    heuristic = CaseHeuristic(prod, node_budget=10_000)
    al = optimal_alignment(prod, node_budget=10_000, heuristic=heuristic)
    assert (al.settled, al.pushed) == (65, 131)
    expansions = []
    expand = CaseHeuristic.expand

    def counting(self, state, offset, info):
        expansions.append(offset)
        return expand(self, state, offset, info)

    heuristic.expand = counting.__get__(heuristic)
    again = optimal_alignment(prod, node_budget=al.settled - 1, heuristic=heuristic)
    assert again.moves == al.moves and again.settled == al.settled
    assert expansions.count(0) == al.settled - 1 < len(expansions)
    with pytest.raises(SearchBudgetError) as info:
        optimal_alignment(prod, node_budget=al.settled - 2, heuristic=heuristic)
    assert info.value.visited == al.settled - 1


def test_budget_frontier_counts_requeued_states(monkeypatch):
    # the frontier a budget error reports is every open entry, states
    # waiting to be expanded again at a larger offset included: here A*
    # dives along one interleaving of free moves at f = 0, and each state
    # on it waits to make its children at f = 20 000
    class Recording:
        heap = None

        def heappush(self, heap, entry):
            self.heap = heap
            heapq.heappush(heap, entry)

        def heappop(self, heap):
            self.heap = heap
            return heapq.heappop(heap)

    frontier, expanded = Recording(), set()
    expand = CaseHeuristic.expand

    def recording(self, state, offset, info):
        expanded.add(state)
        return expand(self, state, offset, info)

    monkeypatch.setattr(align_module, "heapq", frontier)
    monkeypatch.setattr(CaseHeuristic, "expand", recording)
    prod = product_for_net(clinic_net(), clinic_log(10, overlap_at=5))
    with pytest.raises(SearchBudgetError) as info:
        optimal_alignment(prod, node_budget=30,
                          heuristic=CaseHeuristic(prod, node_budget=10_000))
    assert (info.value.visited, info.value.frontier, info.value.best_cost) == (31, 30, 0)
    assert len(frontier.heap) == 30 and {entry[4] for entry in frontier.heap} <= expanded


def test_astar_finishes_clinic_ten_cases():
    # Dijkstra runs out of these 10 000 nodes at open cost 10 001
    log = clinic_log(10, overlap_at=5)
    prod = product_for_net(clinic_net(), log)
    heuristic = CaseHeuristic(prod, node_budget=10_000)
    assert heuristic.reason is None and set(heuristic.rep.values()) == {"c1"}
    al = optimal_alignment(prod, node_budget=10_000, heuristic=heuristic)
    assert al.cost() == 20_000 and al.settled <= 500
    assert is_valid_alignment(prod.model, log, al) == (True, None)


def test_heuristic_ignores_caseless_production_tokens():
    # a token no transition touches sits in every state, alone or not
    base = hospital_net()
    lobby = ColoredMarking({"lobby": Multiset({(EPS, EPS): 1})})
    net = RcNuNet(base.production_places + ("lobby",), base.roles, base.transitions,
                  base.labels, base.flow, base.initial | lobby, base.final | lobby)
    prod = product_for_net(net, parse_log("c1,i_s,1,g:g1\nc2,o_p,2,\nc1,o_sc,3,s:s1\n"))
    heuristic = CaseHeuristic(prod)
    assert heuristic.reason is None and heuristic.priced
    assert heuristic.start()[0] == 30_001
    assert optimal_alignment(prod, heuristic=heuristic).cost() == 30_001


def test_heuristic_tables_explore_at_most_the_node_budget():
    # every clinic case is one variant, whose single-case product has 49
    # states; one state less and no case is priced
    prod = product_for_net(clinic_net(), clinic_log(3, overlap_at=1))
    fits = CaseHeuristic(prod, node_budget=49)
    short = CaseHeuristic(prod, node_budget=48)
    assert fits.priced and len(fits.tables["c1"][0]) == 49
    assert not short.priced and short.tables == {}
    assert short.reason == "the case tables explore more than 48 states"
    dijkstra = optimal_alignment(prod)
    assert optimal_alignment(prod, heuristic=fits).settled < dijkstra.settled
    uninformed = optimal_alignment(prod, heuristic=short)
    assert (uninformed.moves, uninformed.settled, uninformed.pushed) == (
        dijkstra.moves, dijkstra.settled, dijkstra.pushed)


def test_heuristic_prices_every_case_or_none():
    # c1 and c2 are one variant (49 states); c3 lacks its discharge, a
    # second variant.  A budget that fits c1's table but not c3's as well
    # prices no case: the search is Dijkstra, move for move
    log = clinic_log(3, overlap_at=1)
    log = log.restrict(e for e in log.events if (e.case, e.activity) != ("c3", "d_c"))
    prod = product_for_net(clinic_net(), log)
    whole = CaseHeuristic(prod, node_budget=10_000)
    assert whole.priced and set(whole.rep.values()) == {"c1", "c3"}
    both = len(whole.tables["c1"][0]) + len(whole.tables["c3"][0])
    fits = CaseHeuristic(prod, node_budget=both)
    short = CaseHeuristic(prod, node_budget=both - 1)
    assert fits.priced and not short.priced and list(short.tables) == ["c1"]
    dijkstra = optimal_alignment(prod, node_budget=10_000)
    informed = optimal_alignment(prod, node_budget=10_000, heuristic=fits)
    uninformed = optimal_alignment(prod, node_budget=10_000, heuristic=short)
    assert informed.cost() == dijkstra.cost() and informed.settled < dijkstra.settled
    assert (uninformed.moves, uninformed.settled, uninformed.pushed) == (
        dijkstra.moves, dijkstra.settled, dijkstra.pushed)


def test_heuristic_is_zero_where_the_projection_breaks():
    # ``gen`` binds no case variable: h is 0 and A* is Dijkstra, move for move
    net = RcNuNet(["p"], [], ["gen"], {"gen": "a"},
                  {("gen", "p"): Multiset({("c1", EPS): 1})},
                  ColoredMarking(), ColoredMarking({"p": Multiset({("c1", EPS): 1})}))
    prod = build_sync_product(net, build_log_net(parse_log("c1,b,1,\n")))
    heuristic = CaseHeuristic(prod)
    assert heuristic.reason == "transition gen has no unambiguous case variable"
    assert not heuristic.priced and heuristic.start()[0] == 0
    astar = optimal_alignment(prod, heuristic=heuristic)
    dijkstra = optimal_alignment(prod)
    assert (astar.moves, astar.settled, astar.pushed) == (
        dijkstra.moves, dijkstra.settled, dijkstra.pushed)
    # a heuristic prices its own product only
    other = build_sync_product(net, build_log_net(parse_log("c1,b,1,\n")))
    with pytest.raises(ValueError):
        optimal_alignment(other, heuristic=heuristic)


def test_heuristic_is_zero_where_cases_are_created_by_fresh_names():
    # c1's id leaves the marking when its only event fires (its log token
    # moves to a place between cases), so ``s`` can then create c1; alone,
    # c1's own log places keep the id and c1 could never start, which
    # would price the reachable goal as unreachable
    prod = product_for_net(*_fresh_name_fixture())
    heuristic = CaseHeuristic(prod)
    assert heuristic.reason == "transition s creates its case by a fresh name"
    astar = optimal_alignment(prod, heuristic=heuristic)
    assert astar.cost() == optimal_alignment(prod).cost() == 50_000
    assert "model(s[n=c1])" in [repr(m) for m in astar.moves]


def test_transition_without_input_place_is_always_tried():
    # no marked place indexes ``gen``; only its model move explains the
    # final token on p
    net = RcNuNet(["p"], [], ["gen"], {"gen": "a"},
                  {("gen", "p"): Multiset({("c1", EPS): 1})},
                  ColoredMarking(), ColoredMarking({"p": Multiset({("c1", EPS): 1})}))
    prod = build_sync_product(net, build_log_net(parse_log("c1,b,1,\n")))
    al = optimal_alignment(prod)
    assert [repr(m) for m in al.moves] == ["model(gen[])", "log(b@0)"]
    assert al.moves == reference_optimal_alignment(prod).moves


# -- pseudo-markings -------------------------------------------------------------

def test_pseudo_fire_empty_is_initial():
    net = scale_cases(hospital_net(), ["c1"])
    assert pseudo_fire(net, []) == token_counts(net.initial)


def test_pseudo_fire_full_alignment_reaches_final():
    log = hospital_log()
    net, prod = product_for(log)
    al = optimal_alignment(prod)
    assert pseudo_fire(net, al.moves) == token_counts(net.final)


def test_pseudo_fire_release_before_claim_goes_negative():
    net = scale_cases(hospital_net(), ["c1"])
    release = Move("model", transition="i_p", mode=(("c", "c1"), ("w", "g1")), label="i_p")
    pm = pseudo_fire(net, [release])
    assert pseudo_count(pm, "p_g_busy", ("c1", "g1")) == -1
    assert (("p_g_busy", ("c1", "g1")), -1) in pm.items()


@pytest.mark.parametrize("cases", [["c1"], ["c1", "c2"], ["c1", "c2", "c3"]])
def test_fire_mode_agrees_with_pseudo_fire_on_random_walks(cases):
    net = scale_cases(hospital_net(), cases)
    rng = random.Random(len(cases))
    for _ in range(40):
        m, moves = net.initial, []
        for _ in range(rng.randrange(16)):
            options = [(t, mode) for t in net.transitions
                       for mode in enabled_modes(net, m, t)]
            if not options:
                break
            t, mode = options[rng.randrange(len(options))]
            m = fire_mode(net, m, t, mode)
            moves.append(Move("model", transition=t, mode=tuple(sorted(mode.items())),
                              label=net.labels[t]))
            assert token_counts(m) == pseudo_fire(net, moves)


def test_antichain_marking_boundaries():
    log = hospital_log()
    net, prod = product_for(log)
    al = optimal_alignment(prod)
    first = minimal(al.order)
    last = maximal(al.order)
    assert antichain_marking(net, al, first, "pre") == token_counts(net.initial)
    assert antichain_marking(net, al, last, "post") == token_counts(net.final)


def test_antichain_marking_matches_prefix_replay():
    log = hospital_log()
    net, prod = product_for(log)
    al = optimal_alignment(prod)
    mid = frozenset([4])
    pm = antichain_marking(net, al, mid, "pre")
    prefix_moves = [al.moves[i] for i in range(4)]
    assert pm == token_counts(replay(net, prefix_moves))


def test_antichain_marking_rejects_non_antichain():
    log = hospital_log()
    net, prod = product_for(log)
    al = optimal_alignment(prod)
    with pytest.raises(ValueError):
        antichain_marking(net, al, {0, 1}, "pre")


# -- validity ---------------------------------------------------------------------

def test_validity_rejects_dropped_log_event():
    log = hospital_log()
    net, prod = product_for(log)
    al = optimal_alignment(prod)
    broken = Alignment.chain(al.moves[1:])
    ok, why = is_valid_alignment(net, log, broken)
    assert not ok and "not in alignment" in why


def test_validity_rejects_claim_before_availability():
    # c1's release and c2's claim share a timestamp: the log leaves them
    # unordered, only the alignment's own order serializes the GP claims
    log = parse_log(
        "c1,i_s,1,g:g1\nc1,i_p,2,g:g1\nc2,i_s,2,g:g1\nc2,i_p,3,g:g1\n"
    )
    net, prod = product_for(log)
    al = optimal_alignment(prod)
    # four syncs plus one silent operation-skip per case
    assert al.cost() == 2
    ok, why = is_valid_alignment(net, log, al)
    assert ok, why
    # drop the pairs ordering one case's release before the other's claim:
    # the two intakes can now interleave claims on the single GP
    moves = al.moves
    keep = [
        (i, j) for i, j in closed_pairs(al.order)
        if not (
            moves[i].label == "i_p" and moves[j].label == "i_s"
            and moves[i].event.case != moves[j].event.case
        )
    ]
    loosened = Alignment(moves, Poset(range(len(moves)), keep))
    ok, why = is_valid_alignment(net, log, loosened)
    assert not ok
    assert "not firable" in why or "available" in why


def test_validity_rejects_foreign_event():
    log = hospital_log()
    net, prod = product_for(log)
    al = optimal_alignment(prod)
    stranger = Event(99, "i_s", 50.0, "c9")
    padded = Alignment.chain(list(al.moves) + [Move("log", event=stranger, label="i_s")])
    ok, why = is_valid_alignment(net, log, padded)
    assert not ok and "foreign" in why


def test_validity_rejects_dropped_log_order_pair():
    """Property 1's log-order branch: a composed hospital alignment loses
    one cross-case covering pair of the log, together with every pair from
    the same move into the interval it spans (so each pair implying it loses
    a part), and the remaining relation stays closed."""
    log = hospital_log()
    net = scale_cases(hospital_net(), log.cases())
    comp = compose(align_cases(hospital_net(), log), log)
    ok, why = is_valid_alignment(net, log, Alignment(comp.moves, comp.order))
    assert ok, why
    carrying = {m.event: i for i, m in enumerate(comp.moves) if m.kind != "model"}
    cross = [(a, b) for a, b in log.covering_pairs() if a.case != b.case]
    assert cross
    e1, e2 = cross[0]
    i, j = carrying[e1], carrying[e2]
    dropped = {(i, j)} | {
        (i, k) for k in range(len(comp.moves))
        if comp.order.precedes(i, k) and comp.order.precedes(k, j)
    }
    kept = [p for p in closed_pairs(comp.order) if p not in dropped]
    order = Poset(range(len(comp.moves)), kept)
    assert closed_pairs(order) == kept and not order.precedes(i, j)
    ok, why = is_valid_alignment(net, log, Alignment(comp.moves, order))
    assert not ok
    assert why.startswith(f"log order {e1!r} < ") and why.endswith("not preserved")


def transition_indices(alignment):
    """The indices of the alignment's non-log moves."""
    return [i for i, m in enumerate(alignment.moves) if m.kind != "log"]


def exhaustive_verdict(net, alignment):
    """Reference for validity property 2: replay every linearization of the
    transition moves and require each to fire and end at the final marking."""
    sub = alignment.order.restrict(transition_indices(alignment))
    for lin in linearizations(sub):
        try:
            if replay(net, [alignment.moves[i] for i in lin]) != net.final:
                return False
        except FiringError:
            return False
    return True


def pairwise_verdict(net, log, alignment):
    """``is_valid_alignment`` with incomparability tested pair by pair
    through ``Poset.incomparable`` and ``precedes``, on its own binding of
    every move by ``firing_effect``: the reference for its bitmask loop and
    its token table, witness included."""
    ok, why = is_valid_alignment(net, log, alignment)
    if not ok and not why.startswith("move "):
        return ok, why          # property 1 or the summed effects
    moves, order = alignment.moves, alignment.order
    use = {}                    # (place, token) -> {move: [taken, net effect]}
    for i in transition_indices(alignment):
        taken, given = firing_effect(net, moves[i].transition, moves[i].binding())
        for p, tok, delta in [(p, tok, -n) for p, tok, n in taken] + given:
            entry = use.setdefault((p, tok), {}).setdefault(i, [0, 0])
            entry[0] += max(0, -delta)
            entry[1] += delta
    for (p, tok), moved in use.items():
        for t, (taken, _) in moved.items():
            free = {s: d for s, (_, d) in moved.items() if d and incomparable(order, s, t)}
            least = (net.initial.get(p).count(tok) + sum(min(d, 0) for d in free.values())
                     + sum(d for s, (_, d) in moved.items() if order.precedes(s, t)))
            if taken and least < taken:
                supply = {c: -d for c, d in free.items() if d < 0}
                capacity = {x: d for x, d in free.items() if d > 0}
                arcs = {c: [x for x in capacity if order.precedes(x, c)] for c in supply}
                least += align_module._max_flow(supply, capacity, arcs, taken - least)
                if least < taken:
                    return False, (
                        f"move {t} takes {taken} of token {tok!r} on {p}, but a "
                        f"linearization leaves only {least} available before it")
    return True, None


def test_validity_binds_each_transition_move_once(monkeypatch):
    # one token table serves the summed-effects check and the per-token
    # sums: ``is_valid_alignment`` binds every transition move by exactly
    # one ``firing_effect`` call, valid verdicts and failing ones alike
    calls = []
    bind = align_module.firing_effect
    monkeypatch.setattr(align_module, "firing_effect",
                        lambda net, t, mode: calls.append(t) or bind(net, t, mode))
    verdicts = []
    for net, log in _differential_fixtures()[:40]:
        scaled = scale_cases(net, log.cases())
        result = approximate_alignment(net, log, node_budget=20_000)
        for al in (result.alignment, Alignment(result.composed.moves, result.composed.order)):
            calls.clear()
            verdicts.append(is_valid_alignment(scaled, log, al)[0])
            assert sorted(calls) == sorted(m.transition for m in al.moves if m.kind != "log")
    assert verdicts.count(True) > 20 and verdicts.count(False) > 5


def _concurrent_self_loops(n):
    """``n`` hospital cases, each logging ``o_p`` at t=1 and a surgeon
    closing-up (``o_sc``, which takes and returns ``s1``) at t=2."""
    log = parse_log(
        "".join(f"c{k},o_p,1,\n" for k in range(1, n + 1))
        + "".join(f"c{k},o_sc,2,s:s1\n" for k in range(1, n + 1))
    )
    comp = compose(align_cases(hospital_net(), log), log)
    net = scale_cases(hospital_net(), log.cases())
    return net, log, Alignment(comp.moves, comp.order)


@pytest.mark.parametrize("n", [2, 3])
def test_validity_accepts_concurrent_self_loops(n):
    # the o_sc moves of different cases are mutually unordered, and one
    # surgeon serves them all because each returns s1 as it takes it;
    # summing their claims (step semantics) wrongly rejected three cases
    net, log, al = _concurrent_self_loops(n)
    assert len(transition_indices(al)) == 3 * n
    sc = [i for i, m in enumerate(al.moves) if m.label == "o_sc"]
    assert all(incomparable(al.order, a, b) for a in sc for b in sc if a != b)
    assert is_valid_alignment(net, log, al) == (True, None)
    assert exhaustive_verdict(net, al)


def test_validity_matches_exhaustive_replay(monkeypatch):
    # verdicts of the exact check against replaying every linearization, on
    # random loosenings of composed and approximated alignments with at most
    # eight transition moves and of the concurrent self-loop logs
    decided_by_cut = []
    max_flow = align_module._max_flow

    def spy(supply, capacity, arcs, enough):
        flow = max_flow(supply, capacity, arcs, enough)
        decided_by_cut.append(flow >= enough)
        return flow

    monkeypatch.setattr(align_module, "_max_flow", spy)
    rng = random.Random(7)
    cases = []
    for net, log in generate_pipeline_fixtures(200):
        comp = compose(align_cases(net, log), log)
        scaled = scale_cases(net, log.cases())
        for base in (Alignment(comp.moves, comp.order),
                     approximate_alignment(net, log).alignment):
            if len(transition_indices(base)) <= 8:
                cases += [(scaled, log, base)] + [
                    (scaled, log, loosened(log, base, rng)) for _ in range(3)]
    for n in (2, 3):
        net, log, al = _concurrent_self_loops(n)
        cases.append((net, log, al))
    net, log, al = _concurrent_self_loops(2)
    cases += [(net, log, loosened(log, al, rng)) for _ in range(20)]
    verdicts = []
    for net, log, al in cases:
        ok, why = is_valid_alignment(net, log, al)
        assert ok == exhaustive_verdict(net, al), why
        assert (ok, why) == pairwise_verdict(net, log, al)
        assert ok or "available" in why or "summed effects" in why
        verdicts.append(ok)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100
    # some valid verdicts need producers ordered before incomparable
    # consumers, not just the floor of every consumer firing first
    assert any(decided_by_cut)


def _brute_force_flow(supply, capacity, arcs):
    """The maximum flow of ``_max_flow``'s network, by trying every split
    of each consumer's supply over its producers' remaining capacity."""
    consumers = list(supply)

    def best(k, left):
        if k == len(consumers):
            return 0
        c, top = consumers[k], 0
        for split in itertools.product(*(range(min(supply[c], left[x]) + 1) for x in arcs[c])):
            if sum(split) <= supply[c]:
                rest = dict(left)
                for x, f in zip(arcs[c], split):
                    rest[x] -= f
                top = max(top, sum(split) + best(k + 1, rest))
        return top

    return best(0, dict(capacity))


def test_max_flow_matches_brute_force():
    # c1 first takes x1, the only producer c2 reaches, and the residual
    # path through the reverse edge moves it to x2
    supply, capacity = {"c1": 1, "c2": 1}, {"x1": 1, "x2": 1}
    arcs = {"c1": ["x1", "x2"], "c2": ["x1"]}
    assert align_module._max_flow(supply, capacity, arcs, 2) == 2
    rng = random.Random(31)
    flows = []
    for _ in range(300):
        consumers = [f"c{k}" for k in range(rng.randrange(1, 4))]
        producers = [f"x{k}" for k in range(rng.randrange(1, 4))]
        supply = {c: rng.randrange(1, 3) for c in consumers}
        capacity = {x: rng.randrange(1, 3) for x in producers}
        arcs = {c: [x for x in producers if rng.random() < 0.6] for c in consumers}
        flow = _brute_force_flow(supply, capacity, arcs)
        # ``enough`` stops the search early: at it, below it and past it
        for enough in range(max(flow, 1) + 2):
            assert align_module._max_flow(supply, capacity, arcs, enough) == min(flow, enough)
        flows.append(flow)
    assert min(flows) == 0 and max(flows) >= 4


def test_pseudo_fire_linearity():
    # effects add up: firing A then B equals firing A plus firing B minus
    # the initial marking, for disjoint move sets
    log = hospital_log()
    net, prod = product_for(log)
    al = optimal_alignment(prod)
    half_a = [al.moves[i] for i in range(0, len(al.moves), 2)]
    half_b = [al.moves[i] for i in range(1, len(al.moves), 2)]
    base = token_counts(net.initial)
    union = pseudo_fire(net, half_a + half_b)
    pa, pb = pseudo_fire(net, half_a), pseudo_fire(net, half_b)
    keys = {k for pm in (union, pa, pb, base) for k in pm}
    for place, tok in keys:
        assert pseudo_count(union, place, tok) + pseudo_count(base, place, tok) == (
            pseudo_count(pa, place, tok) + pseudo_count(pb, place, tok)
        )
