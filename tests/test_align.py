"""Synchronous product and exact alignment search.

The optimality tests compare the Dijkstra result against the exhaustive
DFS oracle, which explores the product with no search-order assumptions.
"""

import random

import pytest

from nualign.align import (
    Alignment,
    CostTable,
    Move,
    PseudoMarking,
    SearchBudgetError,
    SoundnessError,
    align_log,
    antichain_marking,
    build_sync_product,
    is_valid_alignment,
    move_cost,
    optimal_alignment,
    pseudo_fire,
)
from nualign.eventlog import Event, build_order, parse_log
from nualign.fixtures import hospital_log, hospital_net
from nualign.lognet import build_log_net
from nualign.oracles import min_cost_exhaustive
from nualign.poset import Multiset, Poset
from nualign.rcnu import EPS, enabled_modes, fire_mode, scale_cases


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


# -- product construction ------------------------------------------------------

def test_empty_log_product_is_model():
    log = build_order([])
    net, prod = product_for(log, cases=["c1"])
    kinds = set(prod.move_kind.values())
    assert kinds == {"model"}
    assert len(prod.transitions) == len(net.transitions)


def test_single_event_single_sync_transition():
    log = parse_log("c1,o_p,1,\n")
    _, prod = product_for(log)
    syncs = [t for t in prod.transitions if prod.move_kind[t] == "sync"]
    assert len(syncs) == 1


def test_sync_transition_count_hospital():
    log = hospital_log()
    net, prod = product_for(log)
    syncs = [t for t in prod.transitions if prod.move_kind[t] == "sync"]
    per_label = {}
    for t in net.transitions:
        if net.labels[t]:
            per_label[net.labels[t]] = per_label.get(net.labels[t], 0) + 1
    assert len(syncs) == sum(per_label[e.activity] for e in log.events)


def test_unknown_activity_warns_and_stays_log_move():
    log = parse_log("c1,mystery,1,\n")
    _, prod = product_for(log)
    assert any("mystery" in w for w in prod.warnings)
    assert all(prod.move_kind[t] != "sync" for t in prod.transitions)


def test_sync_requires_matching_resources():
    # observed GP instance does not exist: no sync transition for the event
    log = parse_log("c1,i_s,1,g:g9\n")
    _, prod = product_for(log)
    assert all(prod.move_kind[t] != "sync" for t in prod.transitions)


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
    log = build_order([
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
    assert info.value.visited >= 3
    assert info.value.frontier >= 0


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


# -- pseudo-markings -------------------------------------------------------------

def test_pseudo_fire_empty_is_initial():
    net = scale_cases(hospital_net(), ["c1"])
    from nualign.align import PseudoMarking
    assert pseudo_fire(net, []) == PseudoMarking.from_marking(net.initial)


def test_pseudo_fire_full_alignment_reaches_final():
    log = hospital_log()
    net, prod = product_for(log)
    al = optimal_alignment(prod)
    from nualign.align import PseudoMarking
    pm = pseudo_fire(net, al.moves)
    assert pm == PseudoMarking.from_marking(net.final)


def test_pseudo_fire_release_before_claim_goes_negative():
    net = scale_cases(hospital_net(), ["c1"])
    release = Move("model", transition="i_p", mode=(("c", "c1"), ("w", "g1")), label="i_p")
    pm = pseudo_fire(net, [release])
    assert pm.value("p_g_busy", ("c1", "g1")) == -1
    assert not pm.is_nonnegative()
    assert ("p_g_busy", ("c1", "g1"), -1) in pm.negatives()


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
            assert PseudoMarking.from_marking(m) == pseudo_fire(net, moves)


def test_antichain_marking_boundaries():
    log = hospital_log()
    net, prod = product_for(log)
    al = optimal_alignment(prod)
    from nualign.align import PseudoMarking
    first = al.order.minimum()
    last = al.order.maximum()
    assert antichain_marking(net, al, first, "pre") == PseudoMarking.from_marking(net.initial)
    assert antichain_marking(net, al, last, "post") == PseudoMarking.from_marking(net.final)


def test_antichain_marking_matches_prefix_replay():
    log = hospital_log()
    net, prod = product_for(log)
    al = optimal_alignment(prod)
    from nualign.align import replay, PseudoMarking
    mid = frozenset([4])
    pm = antichain_marking(net, al, mid, "pre")
    prefix_moves = [al.moves[i] for i in range(4)]
    assert pm == PseudoMarking.from_marking(replay(net, prefix_moves))


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
        (i, j) for i, j in al.order.closed_pairs()
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


def test_validity_large_path_uses_availability_criterion():
    log = hospital_log()
    net, prod = product_for(log)
    al = optimal_alignment(prod)
    ok, why = is_valid_alignment(net, log, al, exhaustive_limit=2)
    assert ok, why


def test_pseudo_fire_linearity():
    # effects add up: firing A then B equals firing A plus firing B minus
    # the initial marking, for disjoint move sets
    from nualign.align import PseudoMarking
    log = hospital_log()
    net, prod = product_for(log)
    al = optimal_alignment(prod)
    half_a = [al.moves[i] for i in range(0, len(al.moves), 2)]
    half_b = [al.moves[i] for i in range(1, len(al.moves), 2)]
    base = PseudoMarking.from_marking(net.initial)
    union = pseudo_fire(net, half_a + half_b)
    pa, pb = pseudo_fire(net, half_a), pseudo_fire(net, half_b)
    keys = {k for pm in (union, pa, pb, base) for k, _ in pm.items()}
    for place, tok in keys:
        assert union.value(place, tok) + base.value(place, tok) == (
            pa.value(place, tok) + pb.value(place, tok)
        )
