"""Composition + order-program pipeline, checked against the permutation
oracles and the exact aligner."""

import pytest

from nualign.align import (
    Alignment,
    Move,
    SearchBudgetError,
    _prefix_marking,
    is_valid_alignment,
    pseudo_fire,
    replay,
)
from nualign.approx import (
    FULL_TRANSITIVITY_LIMIT,
    ComposedAlignment,
    IntervalRealignment,
    _claims_and_releases,
    _pseudo_to_marking,
    _substitute,
    align_cases,
    approximate_alignment,
    block_triangular_assignment,
    build_ilp,
    compose,
    is_violating,
    realign_interval,
    solve_and_extract,
    violating_antichain,
)
from nualign.eventlog import parse_log
from nualign.fixtures import (
    claim_release_net,
    clinic_log,
    clinic_net,
    hospital_concurrent_log,
    hospital_forced_overlap_log,
    hospital_log,
    hospital_net,
)
from nualign.ilp import check_feasible, constraint
from nualign.petri import FiringError
from nualign.oracles import _claims_and_releases as oracle_claims_and_releases
from nualign.oracles import (
    is_violating_by_extension_enumeration,
    is_violating_by_linearizations,
    min_cost_exhaustive,
)
from nualign.align import build_sync_product, optimal_alignment
from nualign.lognet import build_log_net
from nualign.poset import Poset
from nualign.rcnu import scale_cases

from test_acceptance import claim_release_fixtures, generate_pipeline_fixtures


def hand_composed(overlap_forced, instances=None):
    """Two claim/release spans on one role; optionally force the overlap
    (c1 claim < c2 claim < c1 release in the composed order)."""
    net = scale_cases(claim_release_net(instances or {"x": 1}), ["c1", "c2"])
    moves = [
        Move("model", transition="claim", mode=(("c", "c1"), ("v", "x")), label="claim"),
        Move("model", transition="release", mode=(("c", "c1"), ("v", "x")), label="release"),
        Move("model", transition="claim", mode=(("c", "c2"), ("v", "x")), label="claim"),
        Move("model", transition="release", mode=(("c", "c2"), ("v", "x")), label="release"),
    ]
    pairs = [(0, 1), (2, 3)]
    if overlap_forced:
        pairs += [(0, 2), (2, 1), (1, 3)]
    order = Poset(range(4), pairs).transitive_closure()
    comp = ComposedAlignment(tuple(moves), order, ("c1", "c1", "c2", "c2"), {})
    return net, comp


# -- compose ------------------------------------------------------------------

def test_compose_single_case_unchanged():
    net = hospital_net()
    log = hospital_log().project_case("c1")
    per_case = align_cases(net, log)
    comp = compose(per_case, log)
    assert len(comp) == len(per_case["c1"].moves)
    assert set(comp.order.closed_pairs()) == set(per_case["c1"].order.closed_pairs())


def test_compose_hospital_structure():
    net = hospital_net()
    log = hospital_log()
    comp = compose(align_cases(net, log), log)
    assert len(comp) == 10
    by_case = comp.case_indices()
    assert sorted(by_case) == ["c1", "c2"]
    # within a case the order is the individual chain
    for c, idxs in by_case.items():
        for i, j in zip(idxs, idxs[1:]):
            assert comp.order.precedes(i, j)
    # chronology pairs cross the cases: c1's intake precedes c2's
    i_c1_is = by_case["c1"][0]
    i_c2_is = by_case["c2"][0]
    assert comp.order.precedes(i_c1_is, i_c2_is)


def test_compose_no_cross_order_without_chronology():
    # both cases at identical timestamps: only within-case order remains
    log = parse_log("c1,i_s,1,g:g1\nc1,i_p,2,g:g1\nc2,i_s,1,g:g1\nc2,i_p,2,g:g1\n")
    net = hospital_net()
    comp = compose(align_cases(net, log), log)
    by_case = comp.case_indices()
    for i in by_case["c1"]:
        for j in by_case["c2"]:
            sync_pair = (
                comp.moves[i].kind != "model" and comp.moves[j].kind != "model"
            )
            if sync_pair:
                e1, e2 = comp.moves[i].event, comp.moves[j].event
                if e1.timestamp == e2.timestamp:
                    assert comp.order.incomparable(i, j)


# -- violation criteria ----------------------------------------------------------

def test_violating_antichain_two_claims_capacity_one():
    net, comp = hand_composed(overlap_forced=False)
    assert violating_antichain(net, comp, {0, 2})


def test_violating_antichain_capacity_two_covers_both():
    net, comp = hand_composed(overlap_forced=False, instances={"x": 2})
    assert not violating_antichain(net, comp, {0, 2})


def test_violating_antichain_noncontended():
    net = hospital_net()
    log = hospital_log()
    comp = compose(align_cases(net, log), log)
    scaled = scale_cases(net, log.cases())
    for g in comp.order.maximal_antichains():
        assert not violating_antichain(scaled, comp, g)


def test_is_violating_matches_oracles_hand_fixtures():
    for forced in (False, True):
        net, comp = hand_composed(overlap_forced=forced)
        got = is_violating(net, comp)
        assert got == is_violating_by_linearizations(net, comp.moves, comp.order)
        assert got == is_violating_by_extension_enumeration(net, comp.moves, comp.order)
        assert got == forced


def test_is_violating_capacity_two_not_violating():
    net, comp = hand_composed(overlap_forced=True, instances={"x": 2})
    assert not is_violating(net, comp)
    assert not is_violating_by_linearizations(net, comp.moves, comp.order)


def test_violating_composition_never_fires():
    net, comp = hand_composed(overlap_forced=True)
    assert is_violating(net, comp)
    for lin in comp.order.linearizations():
        try:
            final = replay(net, [comp.moves[i] for i in lin])
        except Exception:
            continue
        assert final != net.final


# -- the order program ------------------------------------------------------------

def test_ilp_same_case_pairs_all_fixed():
    net = hospital_net()
    log = hospital_log().project_case("c1")
    comp = compose(align_cases(net, log), log)
    inst = build_ilp(scale_cases(net, ["c1"]), comp)
    free = [
        v for v in range(inst.program.n_vars)
        if v not in inst.program.fixings
    ]
    assert free == []


def test_ilp_free_vars_are_cross_case_pairs():
    net, comp = hand_composed(overlap_forced=True)
    inst = build_ilp(net, comp)
    for v in range(inst.program.n_vars):
        i, j = inst.pair(v)
        if comp.case_of[i] == comp.case_of[j]:
            assert v in inst.program.fixings
        else:
            assert v not in inst.program.fixings


def test_lazy_mode_eager_triples_match_all_triples_filter():
    net = clinic_net()
    log = clinic_log(5)
    comp = compose(align_cases(net, log), log)
    assert len(comp) > FULL_TRANSITIVITY_LIMIT
    inst = build_ilp(scale_cases(net, log.cases()), comp)
    n = inst.n
    touched = [
        {k for k in range(len(inst.instances)) if inst.C_clm[i][k] or inst.C_rls[i][k]}
        for i in range(n)
    ]

    def interact(i, j):
        return comp.case_of[i] == comp.case_of[j] or bool(touched[i] & touched[j])

    expected = [
        constraint({inst.var(i, j): 1, inst.var(j, k): 1, inst.var(i, k): -1},
                   "<=", 1, f"const_trans_clos[{i},{j},{k}]")
        for i in range(n) for j in range(n) for k in range(n)
        if len({i, j, k}) == 3
        and interact(i, j) and interact(j, k) and interact(i, k)
    ]
    rows = inst.program.constraints
    first = rows.index(expected[0])
    assert rows[first:first + len(expected)] == expected
    assert not set(expected) & set(rows[:first] + rows[first + len(expected):])


def test_block_triangular_always_feasible():
    cases = [
        hand_composed(overlap_forced=True),
        hand_composed(overlap_forced=False),
        hand_composed(overlap_forced=True, instances={"x": 2}),
    ]
    net = hospital_net()
    for log in (hospital_log(), hospital_forced_overlap_log(), hospital_concurrent_log()):
        comp = compose(align_cases(net, log), log)
        cases.append((scale_cases(net, log.cases()), comp))
    for net_, comp_ in cases:
        inst = build_ilp(net_, comp_)
        ok, why = check_feasible(inst.program, block_triangular_assignment(inst))
        assert ok, why


def test_solution_nonviolating_zero_cost():
    net = hospital_net()
    log = hospital_log()
    comp = compose(align_cases(net, log), log)
    inst = build_ilp(scale_cases(net, log.cases()), comp)
    sol = solve_and_extract(scale_cases(net, log.cases()), comp, inst)
    assert sol.objective == 0
    assert not sol.violating and sol.intervals == []


def test_solution_concurrent_contention_added_pairs_only():
    net = hospital_net()
    log = hospital_concurrent_log()
    comp = compose(align_cases(net, log), log)
    scaled = scale_cases(net, log.cases())
    assert not is_violating_by_linearizations(scaled, comp.moves, comp.order)
    inst = build_ilp(scaled, comp)
    sol = solve_and_extract(scaled, comp, inst)
    assert not sol.violating
    assert sol.additions, "serializing the claims needs added pairs"
    assert sol.intervals == []


def test_solution_forced_overlap_reversal_and_interval():
    net = hospital_net()
    log = hospital_forced_overlap_log()
    comp = compose(align_cases(net, log), log)
    scaled = scale_cases(net, log.cases())
    assert is_violating_by_linearizations(scaled, comp.moves, comp.order)
    inst = build_ilp(scaled, comp)
    sol = solve_and_extract(scaled, comp, inst)
    assert sol.violating
    assert len(sol.intervals) >= 1
    # the region covers the reversed claim/release pair
    labels = {
        (comp.moves[i].label, comp.case_of[i])
        for region in sol.regions for i in region
    }
    assert ("o_so", "c2") in labels and ("o_c", "c1") in labels


# -- realignment and the full pipeline ----------------------------------------------

def test_realign_interval_forced_overlap_pays_one_split():
    net = hospital_net()
    log = hospital_forced_overlap_log()
    comp = compose(align_cases(net, log), log)
    scaled = scale_cases(net, log.cases())
    inst = build_ilp(scaled, comp)
    sol = solve_and_extract(scaled, comp, inst)
    (a, b) = sol.intervals[0]
    re = realign_interval(scaled, comp, sol.x_order, a, b, log)
    assert not re.fallback
    assert re.alignment.cost() == 10_000 * 2
    kinds = sorted(m.kind for m in re.alignment.moves)
    assert kinds.count("model") == 1 and kinds.count("log") == 1


def test_approximate_fitting_log_costs_zero():
    net = hospital_net()
    result = approximate_alignment(net, hospital_log())
    assert result.valid, result.witness
    assert result.cost() == 0
    assert all(m.kind == "sync" for m in result.alignment.moves)


def test_approximate_equals_exact_on_fitting_log():
    net = hospital_net()
    log = hospital_log()
    result = approximate_alignment(net, log)
    prod = build_sync_product(scale_cases(net, log.cases()), build_log_net(log))
    exact = optimal_alignment(prod)
    assert result.cost() == exact.cost() == 0


def test_approximate_concurrent_resolved_by_reordering():
    net = hospital_net()
    result = approximate_alignment(net, hospital_concurrent_log())
    assert result.valid, result.witness
    assert result.cost() == 0
    assert not result.solution.violating
    assert result.realignments == []


def test_approximate_forced_overlap_dominates_exact():
    net = hospital_net()
    log = hospital_forced_overlap_log()
    result = approximate_alignment(net, log)
    assert result.valid, result.witness
    prod = build_sync_product(scale_cases(net, log.cases()), build_log_net(log))
    exact = optimal_alignment(prod)
    assert exact.cost() == 20_000
    assert result.cost() >= exact.cost()
    assert result.solution.violating
    assert len(result.realignments) == 1


def _clinic_missing_discharge(n_cases):
    """Contention-free clinic cases in disjoint time windows; ``c1`` lacks
    its last event ``d_c``, which claims no resource."""
    trace = (("i_s", "g:g1"), ("i_p", "g:g1"), ("o_p", ""),
             ("o_so", "s:s1"), ("o_c", "s:s1"), ("d_c", ""))
    return parse_log("".join(
        f"c{k + 1},{activity},{k * 10 + stamp},{res}\n"
        for k in range(n_cases)
        for (activity, res), stamp in zip(trace, (1, 2, 3, 4, 6, 8))
        if (k, activity) != (0, "d_c")
    ))


def test_no_capacity_row_at_a_move_that_claims_nothing():
    # a row at the model move d_c would count the claims of every case
    # not ordered after it and force order pairs no resource needs
    net, log = clinic_net(), _clinic_missing_discharge(4)
    result = approximate_alignment(net, log)
    assert result.solution.additions == [] and result.solution.reversals == []
    assert result.valid and result.cost() == 10_000


def test_missing_discharge_solves_within_a_small_order_budget():
    result = approximate_alignment(clinic_net(), _clinic_missing_discharge(5),
                                   ilp_budget=2_000)
    assert result.valid and result.cost() == 10_000


def test_approximate_valid_on_simulated_deviations():
    from nualign.rcnu import DeviationConfig, simulate
    net = hospital_net()
    for seed in range(6):
        log = simulate(net, 2, seed=seed,
                       deviations=DeviationConfig(drop_events=seed % 2,
                                                  relax_capacity=seed % 3 == 0))
        result = approximate_alignment(net, log)
        assert result.valid, f"seed {seed}: {result.witness}"


def test_prefix_reachability_matches_nonviolation():
    """Antichain pre-markings are prefix-reachable iff the prefix is not
    violating (checked on both hand fixtures)."""
    for forced in (False, True):
        net, comp = hand_composed(overlap_forced=forced)
        for g in comp.order.maximal_antichains():
            prefix = comp.order.prefix(g, closed=False)
            moves = [comp.moves[i] for i in sorted(prefix.elements)]
            sub = comp.order.restrict(sorted(prefix.elements))
            target = None
            reachable = False
            for lin in sub.linearizations():
                try:
                    target = replay(net, [comp.moves[i] for i in lin])
                    reachable = True
                    break
                except Exception:
                    continue
            not_violating = not is_violating_by_linearizations(
                net, comp.moves, sub
            )
            assert reachable == not_violating


def _unprojected_realignment(net, comp, x_order, a, b, log, node_budget):
    """The region's search from the full boundary markings, every case's
    tokens included: the reference for the case-projected search."""
    region = sorted(x_order.interval(a, b).elements)
    pre = sorted(
        x for x in x_order.elements
        if x not in region and any(x_order.precedes(x, m) for m in region)
    )
    events = sorted(
        (comp.moves[i].event for i in region if comp.moves[i].kind != "model"),
        key=lambda e: e.index,
    )
    sub_net = build_log_net(log.restrict(events))
    prod = build_sync_product(net, sub_net)
    m_a = _pseudo_to_marking(pseudo_fire(net, [comp.moves[i] for i in pre]))
    m_b = _pseudo_to_marking(pseudo_fire(net, [comp.moves[i] for i in pre + region]))
    start = _prefix_marking(m_a, "m::") | _prefix_marking(sub_net.initial, "l::")
    goal = _prefix_marking(m_b, "m::") | _prefix_marking(sub_net.final, "l::")
    return optimal_alignment(prod, node_budget=node_budget, start=start, goal=goal)


def _differential_fixtures():
    hospital = [(hospital_net(), log) for log in (
        hospital_log(), hospital_forced_overlap_log(), hospital_concurrent_log(),
    )]
    clinic = [(clinic_net(), clinic_log(4, overlap_at=0))]
    return (hospital + claim_release_fixtures() + clinic
            + generate_pipeline_fixtures(200))


def test_claims_and_releases_match_oracle():
    """The firing effect's claims and releases equal the oracle's own
    binding of the availability arcs, on every move of every composed and
    approximated alignment."""
    moves = 0
    for net, log in _differential_fixtures():
        scaled = scale_cases(net, log.cases())
        result = approximate_alignment(net, log, node_budget=20_000)
        for mv in result.composed.moves + result.alignment.moves:
            assert _claims_and_releases(scaled, mv) == oracle_claims_and_releases(scaled, mv)
            moves += 1
    assert moves > 1000


def test_projected_realignment_matches_full_marking_search():
    """Every region realigns at the cost of the full-marking search wherever
    that search finishes, substituting the full-marking alignments gives the
    same validity verdict, and approx never beats the exact optimum."""
    budget = 20_000
    regions = compared = 0
    for net, log in _differential_fixtures():
        scaled = scale_cases(net, log.cases())
        result = approximate_alignment(net, log, node_budget=budget)
        x_order = result.solution.x_order
        reference = []
        for re in result.realignments:
            regions += 1
            try:
                full = _unprojected_realignment(scaled, result.composed, x_order,
                                                *re.bounds, log, budget)
            except (SearchBudgetError, FiringError):
                reference.append(re)
                continue
            assert not re.fallback
            assert re.alignment.cost() == full.cost()
            reference.append(IntervalRealignment(re.bounds, re.region, full, False))
            compared += 1
        if reference:
            gamma = _substitute(result.composed, x_order, reference)
            assert is_valid_alignment(scaled, log, gamma)[0] == result.valid
        if len(log) <= 10:
            prod = build_sync_product(scaled, build_log_net(log))
            try:
                exact = optimal_alignment(prod, node_budget=budget)
            except SearchBudgetError:
                continue
            assert result.cost() >= exact.cost()
    assert regions >= 10 and compared == regions


def test_clinic_overlap_realigns_over_region_cases_only():
    # the smallest clinic overlap log whose realignment from the full
    # boundary markings exhausts 10 000 nodes: the seven cases after the
    # overlap have not started and offer two silent skips each
    net = clinic_net()
    log = clinic_log(9, overlap_at=0)
    result = approximate_alignment(net, log, node_budget=10_000)
    assert result.valid, result.witness
    (re,) = result.realignments
    assert not re.fallback
    assert re.alignment.cost() == 20_000
    assert result.cost() == 20_000
