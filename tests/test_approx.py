"""Composition + order-program pipeline, checked against the permutation
oracles and the exact aligner."""

import inspect
import json
import random
from dataclasses import FrozenInstanceError, replace
from functools import lru_cache

import pytest

import nualign.align as align_module
import nualign.approx as approx

from nualign.align import (
    Alignment,
    Move,
    SearchBudgetError,
    SoundnessError,
    align_log,
    effect_masks,
    is_valid_alignment,
    token_use,
)
from nualign.approx import (
    ComposedAlignment,
    CompositionError,
    IntervalRealignment,
    _boundary_marking,
    _lift_failures,
    _renamed,
    _substitute,
    align_cases,
    approximate_alignment,
    adjust_order,
    build_ilp,
    capacity_rows,
    compose,
    contending_groups,
    extract_solution,
    realign_interval,
)
from nualign.eventlog import parse_log
from nualign.ilp import (
    Constraint,
    IlpBudgetError,
    InfeasibleError,
    NodeBudget,
    constraint,
    solve,
)
from nualign.align import DEFAULT_COSTS, build_sync_product, case_variants, optimal_alignment
from nualign.lognet import build_log_net
from nualign.poset import Multiset, Poset
from nualign.report import build_report, dumps_report, violation_entry
from nualign.rcnu import (EPS, ColoredMarking, DeviationConfig, FiringError, Nu, RcNuNet,
                          Var, scale_cases, simulate)
from support.fixtures import (
    claim_release_net,
    clinic_log,
    clinic_net,
    clinic_two_overlaps_log,
    hospital_concurrent_log,
    hospital_forced_overlap_log,
    hospital_log,
    hospital_net,
    operation_rcnu,
)
from support.oracles import _claims_and_releases as oracle_claims_and_releases
from support.oracles import (
    boundary_by_pseudo_fire,
    broken_by_fits,
    check_feasible,
    dense_branch_scan,
    is_violating_by_extension_enumeration,
    is_violating_by_linearizations,
    least_left_by_set_bits,
    lift_failures_by_outside_moves,
    min_cost_exhaustive,
    over_claims,
    reference_case_alignment,
    REVERSAL_WEIGHT,
    row_holds,
    validity_by_set_bits,
    weighted_order_program,
)
from support.orders import (
    closed_pairs,
    incomparable,
    interval,
    linearizations,
    maximal,
    maximal_antichains,
    minimal,
    prefix,
    report_json,
)
from support.runs import composed_tokens, loosened, pseudo_fire, replay

from test_acceptance import (
    block_triangular_assignment,
    claim_release_fixtures,
    claim_release_log,
    generate_pipeline_fixtures,
)


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
    order = Poset(range(4), pairs)
    comp = ComposedAlignment(tuple(moves), order, ("c1", "c1", "c2", "c2"))
    return net, comp


# -- compose ------------------------------------------------------------------

def test_compose_single_case_unchanged():
    net = hospital_net()
    log = hospital_log().project_case("c1")
    per_case = align_cases(net, log)
    comp = compose(per_case, log)
    assert len(comp) == len(per_case["c1"].moves)
    assert set(closed_pairs(comp.order)) == set(closed_pairs(per_case["c1"].order))


def test_compose_hospital_structure():
    net = hospital_net()
    log = hospital_log()
    comp = compose(align_cases(net, log), log)
    assert len(comp) == 10
    by_case = {c: [i for i, x in enumerate(comp.case_of) if x == c] for c in comp.case_of}
    assert sorted(by_case) == ["c1", "c2"]
    # within a case the order is the individual chain
    for c, idxs in by_case.items():
        for i, j in zip(idxs, idxs[1:]):
            assert comp.order.precedes(i, j)
    # chronology pairs cross the cases: c1's intake precedes c2's
    i_c1_is = by_case["c1"][0]
    i_c2_is = by_case["c2"][0]
    assert comp.order.precedes(i_c1_is, i_c2_is)


def _assert_cases_keep_their_moves_and_order(per_case, comp):
    """Move ``i`` of case ``c`` sits at ``base + i``, and the composed order
    restricted to the case is the case's own closed order, shifted."""
    base = 0
    for c in sorted(per_case):
        alignment = per_case[c]
        m = len(alignment.moves)
        block = range(base, base + m)
        assert [comp.moves[base + i] for i in range(m)] == list(alignment.moves)
        assert {comp.case_of[k] for k in block} == {c}
        assert set(closed_pairs(comp.order.restrict(block))) == {
            (base + i, base + j) for i, j in closed_pairs(alignment.order)}
        base += m
    assert base == len(comp.moves)


def test_compose_places_each_case_at_base_plus_index():
    for net, log in generate_pipeline_fixtures(200):
        per_case = align_cases(net, log)
        _assert_cases_keep_their_moves_and_order(per_case, compose(per_case, log))


def test_compose_keeps_a_case_order_that_is_not_a_chain():
    # c1's alignment lists its release before its claim and has a model
    # move concurrent with both: composition neither sorts nor chains it
    net = claim_release_net({"x": 1})
    log = claim_release_log(((1, 2), (3, 4)))
    per_case = align_cases(net, log)
    claim, release = per_case["c1"].moves
    extra = Move("model", transition="claim", mode=(("c", "c1"), ("v", "x")),
                 label="claim")
    per_case["c1"] = Alignment((release, claim, extra), Poset(range(3), [(1, 0)]))
    comp = compose(per_case, log)
    _assert_cases_keep_their_moves_and_order(per_case, comp)
    assert incomparable(comp.order, 0, 2) and incomparable(comp.order, 1, 2)
    # the log order still reaches c2 from both of c1's events
    assert comp.order.precedes(0, 3) and comp.order.precedes(1, 3)


def test_compose_no_cross_order_without_chronology():
    # both cases at identical timestamps: only within-case order remains
    log = parse_log("c1,i_s,1,g:g1\nc1,i_p,2,g:g1\nc2,i_s,1,g:g1\nc2,i_p,2,g:g1\n")
    net = hospital_net()
    comp = compose(align_cases(net, log), log)
    by_case = {c: [i for i, x in enumerate(comp.case_of) if x == c] for c in comp.case_of}
    for i in by_case["c1"]:
        for j in by_case["c2"]:
            sync_pair = (
                comp.moves[i].kind != "model" and comp.moves[j].kind != "model"
            )
            if sync_pair:
                e1, e2 = comp.moves[i].event, comp.moves[j].event
                if e1.timestamp == e2.timestamp:
                    assert incomparable(comp.order, i, j)


def test_compose_rejects_a_case_chain_against_the_log():
    # c1's chain fires its events in reverse, against the log's order
    log = hospital_log()
    per_case = align_cases(hospital_net(), log)
    per_case["c1"] = Alignment.chain(reversed(per_case["c1"].moves))
    with pytest.raises(CompositionError, match="cyclic"):
        compose(per_case, log)


# -- violation criteria ----------------------------------------------------------

def test_violating_antichain_two_claims_capacity_one():
    net, comp = hand_composed(overlap_forced=False)
    assert over_claims(net, comp.moves, comp.order, {0, 2})


def test_violating_antichain_capacity_two_covers_both():
    net, comp = hand_composed(overlap_forced=False, instances={"x": 2})
    assert not over_claims(net, comp.moves, comp.order, {0, 2})


def test_violating_antichain_noncontended():
    net = hospital_net()
    log = hospital_log()
    comp = compose(align_cases(net, log), log)
    scaled = scale_cases(net, log.cases())
    for g in maximal_antichains(comp.order):
        assert not over_claims(scaled, comp.moves, comp.order, g)


def test_is_violating_matches_oracles_hand_fixtures():
    for forced in (False, True):
        net, comp = hand_composed(overlap_forced=forced)
        got = adjust_order(net, comp, composed_tokens(net, comp)).violating
        assert got == is_violating_by_linearizations(net, comp.moves, comp.order)
        assert got == is_violating_by_extension_enumeration(net, comp.moves, comp.order)
        assert got == forced


def test_is_violating_capacity_two_not_violating():
    net, comp = hand_composed(overlap_forced=True, instances={"x": 2})
    assert not adjust_order(net, comp, composed_tokens(net, comp)).violating
    assert not is_violating_by_linearizations(net, comp.moves, comp.order)


def test_violating_composition_never_fires():
    net, comp = hand_composed(overlap_forced=True)
    assert adjust_order(net, comp, composed_tokens(net, comp)).violating
    for lin in linearizations(comp.order):
        try:
            final = replay(net, [comp.moves[i] for i in lin])
        except Exception:
            continue
        assert final != net.final


# -- the order program ------------------------------------------------------------

def _full_program_solution(net, comp, node_budget=2_000_000):
    """The all-cases order program solved on one engine, whether or not
    the composed order fits."""
    inst = build_ilp(comp, capacity_rows(net, composed_tokens(net, comp)))
    assignment, _ = solve(inst.program, node_budget)
    return extract_solution(comp, inst.changes(assignment))


def test_capacity_sites_match_the_dense_program_rows(monkeypatch):
    """The capacity rows read through order rows are the full program's
    dense ``const_vio`` rows: on every differential fixture the sites are
    those rows, in order, and at R and at every lifted order the pipeline
    checks, each site's ``total`` is its row's value on the full program's
    assignment of that order, both taken relative to the capacity."""
    lifts = []

    def spy(comp, use, inst, changes, *args):
        lifts.append(dict(changes))
        return lift_failures(comp, use, inst, changes, *args)

    lift_failures = approx._lift_failures
    monkeypatch.setattr(approx, "_lift_failures", spy)
    orders = 0
    verdicts = []
    for net, log in _differential_fixtures():
        scaled = scale_cases(net, log.cases())
        comp = compose(align_cases(net, log, node_budget=20_000), log)
        use = capacity_rows(scaled, composed_tokens(scaled, comp))
        full = build_ilp(comp, use)
        dense = [row for row in full.program.constraints
                 if row.label.startswith("const_vio[")]
        assert [row.label for row in dense] == [
            f"const_vio[{i},{use.instances[k]}]" for i, k in use.sites]
        lifts.clear()
        adjust_order(scaled, comp, composed_tokens(scaled, comp))
        for changes in [{}] + lifts:
            def before(i, j, changes=changes):
                value = changes.get((i, j))
                return comp.order.precedes(i, j) if value is None else value

            X = [int(before(i, j)) for i in range(full.n) for j in range(full.n)]
            rows = [sum(X[i * full.n + j] << j for j in range(full.n))
                    for i in range(full.n)]
            preds = [sum(X[j * full.n + i] << j for j in range(full.n))
                     for i in range(full.n)]
            for site, row in zip(use.sites, dense):
                value = sum(c * X[v] for v, c in row.coeffs)
                assert (use.total(site, rows, preds) - use.capacities[site[1]]
                        == value - row.bound)
                verdicts.append(row_holds(row, X))
            orders += 1
    assert orders > len(_differential_fixtures()) + 50
    assert verdicts.count(False) > 50 and verdicts.count(True) > 300


def test_ilp_same_case_pairs_all_fixed():
    net = hospital_net()
    log = hospital_log().project_case("c1")
    comp = compose(align_cases(net, log), log)
    scaled = scale_cases(net, ["c1"])
    inst = build_ilp(comp, capacity_rows(scaled, composed_tokens(scaled, comp)))
    free = [
        v for v in range(inst.program.n_vars)
        if v not in inst.program.fixings
    ]
    assert free == []


def test_ilp_free_vars_are_cross_case_pairs():
    net, comp = hand_composed(overlap_forced=True)
    inst = build_ilp(comp, capacity_rows(net, composed_tokens(net, comp)))
    for v in range(inst.program.n_vars):
        i, j = divmod(v, inst.n)
        if comp.case_of[i] == comp.case_of[j]:
            assert v in inst.program.fixings
        else:
            assert v not in inst.program.fixings


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
        inst = build_ilp(comp_, capacity_rows(net_, composed_tokens(net_, comp_)))
        ok, why = check_feasible(inst.program, block_triangular_assignment(inst, comp_))
        assert ok, why


def test_solution_nonviolating_zero_cost():
    net = hospital_net()
    log = hospital_log()
    comp = compose(align_cases(net, log), log)
    sol = _full_program_solution(scale_cases(net, log.cases()), comp)
    assert len(sol.additions) == 0
    assert not sol.violating and sol.regions == []


def test_solution_concurrent_contention_added_pairs_only():
    net = hospital_net()
    log = hospital_concurrent_log()
    comp = compose(align_cases(net, log), log)
    scaled = scale_cases(net, log.cases())
    assert not is_violating_by_linearizations(scaled, comp.moves, comp.order)
    sol = _full_program_solution(scaled, comp)
    assert not sol.violating
    assert sol.additions, "serializing the claims needs added pairs"
    assert sol.regions == []


def test_solution_forced_overlap_reversal_and_interval():
    net = hospital_net()
    log = hospital_forced_overlap_log()
    comp = compose(align_cases(net, log), log)
    scaled = scale_cases(net, log.cases())
    assert is_violating_by_linearizations(scaled, comp.moves, comp.order)
    sol = _full_program_solution(scaled, comp)
    assert sol.violating
    assert len(sol.regions) >= 1
    # the region covers the reversed claim/release pair
    labels = {
        (comp.moves[i].label, comp.case_of[i])
        for region, _, _ in sol.regions for i in region
    }
    assert ("o_so", "c2") in labels and ("o_c", "c1") in labels


# -- realignment and the full pipeline ----------------------------------------------

def test_realign_interval_forced_overlap_pays_one_split():
    net = hospital_net()
    log = hospital_forced_overlap_log()
    comp = compose(align_cases(net, log), log)
    scaled = scale_cases(net, log.cases())
    sol = _full_program_solution(scaled, comp)
    effects = {pair: effect_masks(moved) for pair, moved in token_use(scaled, comp.moves).items()}
    re = realign_interval(scaled, comp, sol.x_order, sol.regions[0], log, effects)
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


#: three hospital cases closing up concurrently: ``o_sc`` takes the
#: surgeon s1 and gives it back in one firing
CONCURRENT_CLOSING_UPS = "".join(f"c{k},o_p,1,\n" for k in (1, 2, 3)) + "".join(
    f"c{k},o_sc,2,s:s1\n" for k in (1, 2, 3))

#: the batch benchmark's ``b047_operation`` log: c1 and c3 close up on x
#: while c2's open surgery still holds it
B047_OPERATION = ("c3,o_p,5,\nc1,o_p,7,\nc2,o_p,7,\nc2,o_a,16,\nc3,o_a,16,\n"
                  "c2,o_so,24,s:x\nc2,o_c,25,s:x\nc1,o_sc,25,s:x\nc3,o_sc,25,s:x\nc1,o_a,25,\n")


def test_concurrent_self_loops_break_no_capacity_row():
    # the composed order is valid as it is, so no program runs and no pair
    # is added (a claim counted without its same-firing release added three)
    net, log = hospital_net(), parse_log(CONCURRENT_CLOSING_UPS)
    result = approximate_alignment(net, log)
    assert result.solution.free_cases == () and result.solution.additions == []
    assert result.valid and result.cost() == align_log(net, log).cost() == 3


def test_concurrent_self_loops_are_left_unordered_by_the_program():
    # c2's release o_c (move 7) goes before both closing-ups and what
    # follows them; the closing-ups of c1 (move 1) and c3 (move 10) stay
    # unordered, where a claim counted without its release ordered them
    net, log = operation_rcnu(), parse_log(B047_OPERATION)
    result = approximate_alignment(net, log)
    assert [result.composed.moves[i].label for i in (1, 7, 10)] == ["o_sc", "o_c", "o_sc"]
    assert result.solution.additions == [(7, 1), (7, 2), (7, 3), (7, 10), (7, 11)]
    assert result.solution.reversals == []
    assert result.valid and result.cost() == align_log(net, log).cost() == 2


def test_approximate_valid_on_simulated_deviations():
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
        for g in maximal_antichains(comp.order):
            below = prefix(comp.order, g, closed=False)
            moves = [comp.moves[i] for i in sorted(below.elements)]
            sub = comp.order.restrict(sorted(below.elements))
            target = None
            reachable = False
            for lin in linearizations(sub):
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


def _unprojected_realignment(net, comp, x_order, region, log, node_budget):
    """The region's search from the full boundary markings, every case's
    tokens included: the reference for the case-projected search."""
    region = list(region)
    pre = sorted(
        x for x in x_order.elements
        if x not in region and any(x_order.precedes(x, m) for m in region)
    )
    events = sorted(
        (comp.moves[i].event for i in region if comp.moves[i].kind != "model"),
        key=lambda e: e.index,
    )
    m_a = _marking(pseudo_fire(net, [comp.moves[i] for i in pre]))
    m_b = _marking(pseudo_fire(net, [comp.moves[i] for i in pre + region]))
    prod = build_sync_product(net.with_markings(m_a, m_b), build_log_net(log.restrict(events)))
    return optimal_alignment(prod, node_budget=node_budget)


def _marking(counts):
    """The marking of a pseudo-marking's signed counts; FiringError when
    one is negative."""
    tokens = {}
    for (p, tok), n in counts.items():
        if n < 0:
            raise FiringError(f"pseudo-marking negative at {p}/{tok!r}")
        tokens.setdefault(p, {})[tok] = n
    return ColoredMarking(tokens)


def test_approximation_hashes_no_multiset(monkeypatch):
    # events hash by index: no lookup builds a frozenset of resources
    calls = []
    unhooked = Multiset.__hash__

    def counted(self):
        calls.append(self)
        return unhooked(self)

    monkeypatch.setattr(Multiset, "__hash__", counted)
    hash(Multiset({"x": 1}))
    assert len(calls) == 1
    calls.clear()
    result = approximate_alignment(clinic_net(), clinic_log(17, overlap_at=8))
    assert result.valid and result.cost() == 20_000
    assert not calls


def _differential_fixtures():
    hospital = [(hospital_net(), log) for log in (
        hospital_log(), hospital_forced_overlap_log(), hospital_concurrent_log(),
    )]
    clinic = [(clinic_net(), clinic_log(4, overlap_at=0))]
    return (hospital + claim_release_fixtures() + clinic
            + generate_pipeline_fixtures(200))


def _spare_name_fixture():
    """A net whose tie-breaks compare the case id with the spare name
    ``_nu1``: ``new`` (once, by its ``ctr`` token) puts a fresh-named token
    beside the case's own on ``q0``, and ``a`` turns either into one of the
    two final tokens, so the two orders of ``a`` cost the same.  Cases
    ``A1`` and ``c1`` sort on both sides of ``_nu1``; ``c1`` and ``c2`` on
    the same side."""
    net = RcNuNet(["ctr", "q0", "done"], [], ["new", "a"], {"new": None, "a": None},
                  {("ctr", "new"): Multiset([(EPS, EPS)]),
                   ("new", "q0"): Multiset([(Nu("n"), EPS)]),
                   ("q0", "a"): Multiset([(Var("c"), EPS)]),
                   ("a", "done"): Multiset([(EPS, EPS)])},
                  ColoredMarking({"ctr": Multiset({(EPS, EPS): 1}),
                                  "q0": Multiset({("c1", EPS): 1})}),
                  ColoredMarking({"done": Multiset({(EPS, EPS): 2})}))
    return net, parse_log("A1,b,1,\nc1,b,2,\nc2,b,3,\n")


def test_variant_key_orders_the_case_id_against_spare_names():
    net, log = _spare_name_fixture()
    keys = case_variants(net, log)
    assert keys["c1"] == keys["c2"] != keys["A1"]
    alone = {c: reference_case_alignment(net, log, c) for c in log.cases()}
    # the tie-break reads how the id sorts against _nu1, so renaming A1's
    # alignment would not give c1's
    assert _renamed(alone["A1"], log, "A1", "c1").moves != alone["c1"].moves
    assert _renamed(alone["c1"], log, "c1", "c2").moves == alone["c2"].moves


def test_align_cases_searches_each_variant_once(monkeypatch):
    """Move for move, settled and pushed the single-case products'
    searches, with one ``align_case`` per variant and one model graph per
    case-id signature, on every differential fixture, clinic n = 3..12 and
    the spare-name log."""
    spaces = []
    search = approx.align_case

    def counted(space, *args, **kwargs):
        spaces.append(space)
        return search(space, *args, **kwargs)

    monkeypatch.setattr(approx, "align_case", counted)
    fixtures = (_differential_fixtures()
                + [(clinic_net(), clinic_log(n, overlap_at=n // 2)) for n in range(3, 13)]
                + [_spare_name_fixture()])
    reused = shared = 0
    for net, log in fixtures:
        spaces.clear()
        per_case = align_cases(net, log)
        variants = case_variants(net, log)
        signatures = {(variant[1], len(log.trace(c))) for c, variant in variants.items()}
        assert len(spaces) == len(set(variants.values()))
        assert len({id(space.graph) for space in spaces}) == len(signatures)
        reused += len(log.cases()) - len(spaces)
        shared += len(spaces) - len(signatures)
        searched = {space.case for space in spaces}
        for c in log.cases():
            alone = reference_case_alignment(net, log, c)
            assert per_case[c].moves == alone.moves
            if c in searched:
                assert (per_case[c].settled, per_case[c].pushed) == (alone.settled, alone.pushed)
    assert reused >= 100 and shared >= 80, (reused, shared)


def test_claims_and_releases_match_oracle():
    """The per-instance effect masks and the sites ``capacity_rows`` reads
    from the token table follow the oracle's own binding of the
    availability arcs, move by move, on every composed and approximated
    alignment: bit i of an instance's mask for effect e is set iff move i
    releases e more of it than it claims, and site (i, k) holds what move i
    claims of instance k wherever that, plus the net claims of every other
    net claimer, exceeds the capacity."""
    moves = sites_seen = 0
    for net, log in _differential_fixtures():
        scaled = scale_cases(net, log.cases())
        result = approximate_alignment(net, log, node_budget=20_000)
        for al in (result.composed, result.alignment):
            use = capacity_rows(scaled, token_use(scaled, al.moves))
            bound = [oracle_claims_and_releases(scaled, mv) for mv in al.moves]
            effects = [{} for _ in use.instances]
            sites = {}
            for k, r in enumerate(use.instances):
                claims = [claimed.get(r, 0) - released.get(r, 0) for claimed, released in bound]
                for i, n in enumerate(claims):
                    if n:
                        effects[k][-n] = effects[k].get(-n, 0) | 1 << i
                for i, (claimed, _) in enumerate(bound):
                    others = sum(n for j, n in enumerate(claims) if j != i and n > 0)
                    if claimed.get(r) and claimed[r] + others > use.capacities[k]:
                        sites[i, k] = claimed[r]
            assert use.effects == effects
            assert list(use.sites.items()) == sorted(sites.items())
            moves += len(al.moves)
            sites_seen += len(sites)
    assert moves > 1000 and sites_seen > 100, (moves, sites_seen)


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
                                                re.region, log, budget)
            except (SearchBudgetError, FiringError):
                reference.append(re)
                continue
            assert not re.fallback
            assert re.alignment.cost() == full.cost()
            reference.append(IntervalRealignment(re.region, re.before, re.after, full, False))
            compared += 1
        if reference:
            gamma, _ = _substitute(result.composed, x_order, reference)
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


# -- the composed-order shortcut and the one-engine reversal levels ----------------

def _per_level_reference(program, node_budget):
    """The reversal levels as separate programs: a fresh solve per level,
    with the cap as an explicit ``reversal_cap[k]`` row at bound ``k`` minus
    the number of kept pairs, and the whole budget for every level."""
    cap = program.cap
    kept = len(cap.coeffs)
    for k in range(kept + 1):
        level = replace(program, cap=None, constraints=program.constraints + [
            Constraint(cap.coeffs, k - kept, f"reversal_cap[{k}]"),
        ])
        try:
            return solve(level, node_budget)
        except InfeasibleError:
            continue
    raise InfeasibleError("no feasible order at any reversal count")


def _all_triples_reference(program, node_budget):
    """The order program solved without propagation: ``order`` 0, with
    every antisymmetry pair and every ordered triple of distinct elements
    as a plain row."""
    n = program.order

    def pair(i, j):
        return i * n + j

    rows = [constraint({pair(i, j): 1, pair(j, i): 1}, 1, f"antisymmetry[{i},{j}]")
            for i in range(n) for j in range(i + 1, n)]
    rows += [constraint({pair(i, j): 1, pair(j, k): 1, pair(i, k): -1}, 1,
                        f"triple[{i},{j},{k}]")
             for i in range(n) for j in range(n) for k in range(n) if len({i, j, k}) == 3]
    return solve(replace(program, order=0, constraints=program.constraints + rows),
                 node_budget)


def _solved_with_nodes(program, reference=solve):
    """``reference``'s assignment and objective on ``program``, and the
    nodes it used."""
    budget = NodeBudget(2_000_000)
    return reference(program, budget), budget.used


def _solution_fields(sol):
    return (sol.changes, len(sol.additions), sol.reversals, sol.additions,
            sol.regions)


def _slow_adjust_order(net, comp, tokens, node_budget=2_000_000):
    """The order program built and solved level by level, whether or not
    the composed order fits."""
    inst = build_ilp(comp, capacity_rows(net, tokens))
    assignment, _ = _per_level_reference(inst.program, node_budget)
    return extract_solution(comp, inst.changes(assignment))


def test_one_engine_and_shortcut_match_per_level_reference(monkeypatch):
    """On every differential fixture: the one-engine solve and the pipeline's
    order (shortcut or program) equal the per-level reference, propagating
    the order gives the same assignment, objective and nodes as every pair
    and triple as a plain row, the fits check holds exactly when that
    reference is R at objective 0, and the pipeline gives the same result
    and validity verdict as with the reference order, at no less than the
    exact cost."""
    budget = 20_000
    fixtures = _differential_fixtures()
    fitting = 0
    for net, log in fixtures:
        scaled = scale_cases(net, log.cases())
        comp = compose(align_cases(net, log, node_budget=budget), log)
        inst = build_ilp(comp, capacity_rows(scaled, composed_tokens(scaled, comp)))
        assignment, _ = _per_level_reference(inst.program, 2_000_000)
        reference = extract_solution(comp, inst.changes(assignment))
        one_engine = _full_program_solution(scaled, comp)
        assert _solution_fields(one_engine) == _solution_fields(reference)
        propagated = _solved_with_nodes(inst.program)
        assert propagated == _solved_with_nodes(inst.program, _all_triples_reference)
        assert ((inst.changes(propagated[0][0]), propagated[0][1])
                == (one_engine.changes, len(one_engine.additions)))
        fits = not capacity_rows(scaled, composed_tokens(scaled, comp)).broken(
            comp.order.rows(), comp.order.predecessor_rows())
        assert fits == (reference.changes == {} and len(reference.additions) == 0)
        fitting += fits

        result = approximate_alignment(net, log, node_budget=budget)
        assert _solution_fields(result.solution) == _solution_fields(reference)
        with monkeypatch.context() as m:
            m.setattr(approx, "adjust_order", _slow_adjust_order)
            slow = approximate_alignment(net, log, node_budget=budget)
        assert result.valid == slow.valid
        assert result.cost() == slow.cost()
        assert result.alignment.moves == slow.alignment.moves
        assert (set(closed_pairs(result.alignment.order))
                == set(closed_pairs(slow.alignment.order)))
        if len(log) <= 10:
            prod = build_sync_product(scaled, build_log_net(log))
            try:
                exact = optimal_alignment(prod, node_budget=budget)
            except SearchBudgetError:
                continue
            assert result.cost() >= exact.cost()
    assert 10 <= fitting < len(fixtures) - 10


def _contended_log(n_cases, seed):
    """A hospital log drawn with one extra unit of every capacity and two
    dropped events: overlaps are many and dense."""
    return simulate(hospital_net(), n_cases, seed,
                    DeviationConfig(drop_events=2, relax_capacity=1))


def _group_programs(log):
    """The order program of every group of contending cases of ``log``'s
    composed alignment, before any widening."""
    net = hospital_net()
    scaled = scale_cases(net, log.cases())
    comp = compose(align_cases(net, log), log)
    use = capacity_rows(scaled, composed_tokens(scaled, comp))
    return [build_ilp(comp, use, cases).program
            for cases in contending_groups(comp, use, comp.order.predecessor_rows())]


def test_order_propagation_matches_every_triple_as_a_row_on_contended_programs():
    """On the order programs of contended hospital n = 6 seed 1 and the
    first, 18-move, program of n = 10 seed 2, propagating the order gives
    the same assignment, objective and nodes as every pair and triple as a
    plain row."""
    programs = _group_programs(_contended_log(6, 1)) + _group_programs(_contended_log(10, 2))[:1]
    assert [p.order for p in programs] == [9, 18]
    for program in programs:
        propagated = _solved_with_nodes(program)
        assert propagated == _solved_with_nodes(program, _all_triples_reference)
    assert propagated[1] == 548


def test_contended_log_answers_at_default_options():
    # every transitivity implication is propagated as pairs are set, so the
    # infeasible reversal levels are refuted without enumerating leaves
    net = hospital_net()
    log = _contended_log(10, 2)
    result = approximate_alignment(net, log)
    assert result.valid, result.witness
    assert result.cost() == align_log(net, log, node_budget=50_000).cost() == 40_006


def test_order_budget_spans_every_reversal_level():
    # three interleaved claim/release cases on one instance: the levels of
    # zero, one and two reversals are infeasible, and each level alone
    # proves its answer within 11 nodes (0, 3, 5 and 11), but together they
    # need 19
    net = claim_release_net({"x": 1})
    log = claim_release_log(((1, 4), (2, 5), (3, 6)))
    scaled = scale_cases(net, log.cases())
    comp = compose(align_cases(net, log), log)
    inst = build_ilp(comp, capacity_rows(scaled, composed_tokens(scaled, comp)))
    _per_level_reference(inst.program, 11)
    with pytest.raises(IlpBudgetError):
        adjust_order(scaled, comp, composed_tokens(scaled, comp), node_budget=11)
    sol = adjust_order(scaled, comp, composed_tokens(scaled, comp), node_budget=100)
    assert len(sol.reversals) == 3


def test_additions_objective_matches_the_weighted_reference():
    """Ranking reversals by the cap alone keeps the optimum: on the full
    program of every differential fixture and of two clinic overlaps, the
    additions-only program and its weighted copy (reversals at 1000,
    additions at 1) solve to the same assignment, the weighted value is
    1000 per extracted reversal plus 1 per addition, and the additions-only
    solves take no more nodes in total."""
    compositions = [
        (scale_cases(net, log.cases()), compose(align_cases(net, log, node_budget=20_000), log))
        for net, log in _differential_fixtures()
    ]
    log = clinic_two_overlaps_log(12, 3, 8)
    compositions.append((scale_cases(clinic_net(), log.cases()),
                         compose(align_cases(clinic_net(), log, node_budget=10_000), log)))
    nodes, weighted_nodes = NodeBudget(10_000_000), NodeBudget(10_000_000)
    reversing = adding = 0
    for net, comp in compositions:
        inst = build_ilp(comp, capacity_rows(net, composed_tokens(net, comp)))
        assignment, additions = solve(inst.program, nodes)
        weighted, value = solve(weighted_order_program(inst), weighted_nodes)
        assert weighted == assignment
        sol = extract_solution(comp, inst.changes(assignment))
        assert additions == len(sol.additions)
        assert value == REVERSAL_WEIGHT * len(sol.reversals) + len(sol.additions)
        reversing += sol.violating
        adding += bool(sol.additions)
    assert sol.violating        # the two clinic overlaps
    assert reversing >= 10 and adding >= 10
    assert nodes.used <= weighted_nodes.used


def test_extract_solution_takes_any_number_of_additions():
    # two 32-move chains of different cases, the first ordered wholly
    # before the second: 1 024 added pairs, past what a reversal weight of
    # 1000 could outweigh
    moves = tuple(Move("model", transition="t", mode=(("c", c),), label="t")
                  for c in ("c1", "c2") for _ in range(32))
    chains = [(i, i + 1) for base in (0, 32) for i in range(base, base + 31)]
    comp = ComposedAlignment(moves, Poset(range(64), chains), ("c1",) * 32 + ("c2",) * 32)
    sol = extract_solution(comp, {(i, j): 1 for i in range(32) for j in range(32, 64)})
    assert len(sol.additions) == 1024
    assert sol.reversals == [] and sol.regions == [] and not sol.violating
    assert sol.x_order.precedes(31, 32)


def test_fitting_composed_order_skips_the_order_program(monkeypatch):
    calls = []

    def spy(*args):
        inst = build_ilp(*args)
        calls.append(inst.n)
        return inst

    monkeypatch.setattr(approx, "build_ilp", spy)
    net = clinic_net()
    result = approximate_alignment(net, clinic_log(5), node_budget=10_000)
    assert calls == [] and result.valid and result.cost() == 0
    result = approximate_alignment(net, clinic_log(9, overlap_at=0), node_budget=10_000)
    assert len(calls) == 1 and result.solution.violating


# -- the contention-local order program ---------------------------------------------

def _build_ilp_spy(monkeypatch):
    """Record the size and the case ids of every program ``build_ilp`` builds."""
    calls = []

    def spy(comp, *args):
        inst = build_ilp(comp, *args)
        calls.append((inst.n, tuple(sorted({comp.case_of[i] for i in inst.moves}))))
        return inst

    monkeypatch.setattr(approx, "build_ilp", spy)
    return calls


def _widening_log():
    """c2 and c3 overlap on instance x; c1 claims and releases y in between
    (c3's claim < c1's moves < c2's release), so the local program's
    reversal of c3's claim after c2's release closes a cycle through c1."""
    return parse_log("c1,claim,2.5,r:y\nc1,release,2.7,r:y\n"
                     "c2,claim,1,r:x\nc2,release,3,r:x\n"
                     "c3,claim,2,r:x\nc3,release,4,r:x\n")


def test_local_program_matches_full_program_on_clinic_overlaps():
    # every n <= 20 matches; the full program takes 52 s over n = 13..20,
    # so the test keeps n <= 12 and the benchmark's 17 cases
    net = clinic_net()
    for n in [*range(2, 13), 17]:
        log = clinic_log(n, overlap_at=n // 2)
        scaled = scale_cases(net, log.cases())
        comp = compose(align_cases(net, log, node_budget=10_000), log)
        sol = adjust_order(scaled, comp, composed_tokens(scaled, comp))
        assert _solution_fields(sol) == _solution_fields(
            _full_program_solution(scaled, comp)), n
        overlap = n // 2 + 1 < n
        assert sol.free_cases == (
            tuple(sorted([f"c{n // 2 + 1}", f"c{n // 2 + 2}"])) if overlap else ())
        assert sol.widenings == 0 and sol.violating == overlap


def test_clinic_overlap_program_spans_the_two_overlapping_cases(monkeypatch):
    calls = _build_ilp_spy(monkeypatch)
    result = approximate_alignment(clinic_net(), clinic_log(30, overlap_at=15),
                                   node_budget=10_000)
    assert calls == [(12, ("c16", "c17"))]
    assert result.solution.free_cases == ("c16", "c17")
    assert result.solution.widenings == 0
    assert result.valid and result.cost() == 20_000
    assert not any(re.fallback for re in result.realignments)
    with pytest.raises(FrozenInstanceError):
        result.solution.widenings = 1


def test_separate_overlaps_give_separate_programs(monkeypatch):
    net = clinic_net()
    log = clinic_two_overlaps_log(8, 1, 5)
    scaled = scale_cases(net, log.cases())
    comp = compose(align_cases(net, log, node_budget=10_000), log)
    reference = _full_program_solution(scaled, comp)
    calls = _build_ilp_spy(monkeypatch)
    sol = adjust_order(scaled, comp, composed_tokens(scaled, comp))
    assert calls == [(12, ("c2", "c3")), (12, ("c6", "c7"))]
    assert sol.free_cases == ("c2", "c3", "c6", "c7") and sol.widenings == 0
    assert len(sol.reversals) == 2
    assert _solution_fields(sol) == _solution_fields(reference)


def test_failing_lift_widens_to_the_full_program(monkeypatch):
    # R's predecessor rows are computed once, for the broken rows, both
    # programs and both lifts
    net = claim_release_net({"x": 1, "y": 1})
    log = _widening_log()
    scaled = scale_cases(net, log.cases())
    comp = compose(align_cases(net, log), log)
    reference = _full_program_solution(scaled, comp)
    calls = _build_ilp_spy(monkeypatch)
    readers = []
    predecessor_rows = Poset.predecessor_rows

    def spy(order):
        readers.append(order is comp.order)
        return predecessor_rows(order)

    monkeypatch.setattr(Poset, "predecessor_rows", spy)
    sol = adjust_order(scaled, comp, composed_tokens(scaled, comp))
    assert readers.count(True) == 1
    assert calls == [(4, ("c2", "c3")), (6, ("c1", "c2", "c3"))]
    assert sol.free_cases == ("c1", "c2", "c3") and sol.widenings == 1
    assert _solution_fields(sol) == _solution_fields(reference)
    assert len(sol.reversals) == 3


@pytest.mark.parametrize("y_cases, x_cases, programs", [
    # {c1, c4} is solved first; widening {c2, c3} by c1 absorbs it
    (("c1", "c4"), ("c2", "c3"),
     [(4, ("c1", "c4")), (4, ("c2", "c3")), (8, ("c1", "c2", "c3", "c4"))]),
    # {c1, c2} comes first; widening it by c3 absorbs the pending {c3, c4}
    (("c3", "c4"), ("c1", "c2"),
     [(4, ("c1", "c2")), (8, ("c1", "c2", "c3", "c4"))]),
])
def test_widening_absorbs_the_groups_it_meets(monkeypatch, y_cases, x_cases, programs):
    # two cases overlap on y inside the stretch where two overlap on x, so
    # the x group's reversal closes a cycle through a y case
    (a, b), (c, d) = y_cases, x_cases
    log = parse_log(f"{a},claim,2.5,r:y\n{a},release,2.7,r:y\n"
                    f"{b},claim,2.6,r:y\n{b},release,2.8,r:y\n"
                    f"{c},claim,1,r:x\n{c},release,3,r:x\n"
                    f"{d},claim,2,r:x\n{d},release,4,r:x\n")
    net = claim_release_net({"x": 1, "y": 1})
    scaled = scale_cases(net, log.cases())
    comp = compose(align_cases(net, log), log)
    reference = _full_program_solution(scaled, comp)
    calls = _build_ilp_spy(monkeypatch)
    sol = adjust_order(scaled, comp, composed_tokens(scaled, comp))
    assert calls == programs
    assert sol.free_cases == ("c1", "c2", "c3", "c4") and sol.widenings == 1
    assert len(sol.reversals) == 6
    assert _solution_fields(sol) == _solution_fields(reference)


def test_order_budget_spans_every_widening_step():
    net = claim_release_net({"x": 1, "y": 1})
    log = _widening_log()
    scaled = scale_cases(net, log.cases())
    comp = compose(align_cases(net, log), log)
    tokens = composed_tokens(scaled, comp)
    steps = []
    for cases in ({"c2", "c3"}, None):
        budget = NodeBudget(10_000)
        solve(build_ilp(comp, capacity_rows(scaled, tokens), cases).program, budget)
        steps.append(budget.used)
    assert max(steps) < sum(steps)
    with pytest.raises(IlpBudgetError):
        adjust_order(scaled, comp, tokens, node_budget=max(steps))
    assert adjust_order(scaled, comp, tokens, node_budget=sum(steps)).widenings == 1


# -- derived orders against their pair-list constructions -------------------

def _x_order_from_pairs(comp, sol):
    """Reference adjusted order: R's closed pairs the changes keep, plus the
    reversals and additions, closed."""
    kept = [p for p in closed_pairs(comp.order) if sol.changes.get(p, 1)]
    return Poset(range(len(comp.moves)), kept + sol.reversals + sol.additions)


def _substitute_from_pairs(comp, x_order, realignments):
    """Reference substitution: the remainder's closed pairs reindexed, each
    realignment's closed pairs shifted to its block, and block pairs to
    every remainder move ordered before or after its region, closed."""
    replaced = set()
    for r in realignments:
        replaced.update(r.region)
    remainder = [i for i in range(len(comp.moves)) if i not in replaced]
    moves = []
    new_index = {}
    for i in remainder:
        new_index[i] = len(moves)
        moves.append(comp.moves[i])
    blocks = []
    for r in realignments:
        blocks.append((len(moves), range(len(moves), len(moves) + len(r.alignment.moves))))
        moves.extend(r.alignment.moves)
    pairs = [(new_index[i], new_index[j]) for i, j in closed_pairs(x_order)
             if i in new_index and j in new_index]
    for r, (base, members) in zip(realignments, blocks):
        pairs.extend((base + i, base + j) for i, j in closed_pairs(r.alignment.order))
        for i in remainder:
            if any(x_order.precedes(i, k) for k in r.region):
                pairs.extend((new_index[i], m) for m in members)
            elif any(x_order.precedes(k, i) for k in r.region):
                pairs.extend((m, new_index[i]) for m in members)
    return Alignment(tuple(moves), Poset(range(len(moves)), pairs))


def test_derived_orders_match_their_pair_list_constructions():
    """The adjusted order (R's rows with the changed bits set or cleared)
    and the substituted alignment (rows of the remainder, the blocks and
    their neighbours) have the closed pairs of the pair-list constructions,
    on every differential fixture the programs change, on two clinic
    overlaps whose joint region falls back, and on one clinic overlap."""
    runs = [(net, log, 20_000) for net, log in _differential_fixtures()]
    runs += [(clinic_net(), clinic_two_overlaps_log(12, 3, 8), 10_000),
             (clinic_net(), clinic_log(30, overlap_at=15), 10_000)]
    changed = substituted = fallbacks = 0
    for net, log, budget in runs:
        result = approximate_alignment(net, log, node_budget=budget)
        comp, sol = result.composed, result.solution
        if not sol.changes:
            continue
        changed += 1
        assert (closed_pairs(sol.x_order)
                == closed_pairs(_x_order_from_pairs(comp, sol)))
        if result.realignments:
            substituted += 1
            fallbacks += any(r.fallback for r in result.realignments)
            reference = _substitute_from_pairs(comp, sol.x_order, result.realignments)
            assert result.alignment.moves == reference.moves
            assert (closed_pairs(result.alignment.order)
                    == closed_pairs(reference.order))
    assert changed >= 20 and substituted >= 10 and fallbacks >= 1, (
        changed, substituted, fallbacks)


def test_substitute_with_an_empty_realignment_keeps_the_remainder_order():
    log = hospital_forced_overlap_log()
    net = scale_cases(hospital_net(), log.cases())
    comp = compose(align_cases(hospital_net(), log), log)
    sol = adjust_order(net, comp, composed_tokens(net, comp))
    ((region, before, after),) = sol.regions
    empty = IntervalRealignment(tuple(region), before, after, Alignment((), Poset(())), False)
    got, remainder = _substitute(comp, sol.x_order, [empty])
    reference = _substitute_from_pairs(comp, sol.x_order, [empty])
    assert got.moves == reference.moves
    assert len(got.moves) == len(comp.moves) - len(region)
    assert closed_pairs(got.order) == closed_pairs(reference.order)
    assert remainder == [i for i in range(len(comp.moves)) if i not in region]
    assert closed_pairs(got.order) == [
        (p, q) for p, i in enumerate(remainder) for q, j in enumerate(remainder)
        if sol.x_order.precedes(i, j)]


# -- regions against the antichain-interval walk --------------------------------

def _walk_regions(comp, sol):
    """Reference regions: the disturbed stretches' weakly connected
    components under comparability in the adjusted order, walked pair by
    pair, each giving the interval from its minimal to its maximal members.
    Returns (region, minimal members, maximal members) per component."""
    n = len(comp.moves)
    R, x_order = comp.order.precedes, sol.x_order
    disturbed = set()
    for i, j in sol.reversals:
        disturbed.update((i, j))
        disturbed.update(k for k in range(n) if R(j, k) and R(k, i))
    remaining = sorted(disturbed)
    seen = set()
    out = []
    for seed in remaining:
        if seed in seen:
            continue
        component = {seed}
        frontier = [seed]
        while frontier:
            x = frontier.pop()
            for y in remaining:
                if y not in component and (x_order.precedes(x, y)
                                           or x_order.precedes(y, x)):
                    component.add(y)
                    frontier.append(y)
        seen |= component
        sub = x_order.restrict(sorted(component))
        a, b = minimal(sub), maximal(sub)
        out.append((sorted(interval(x_order, a, b).elements), a, b))
    return out


def test_regions_match_the_antichain_interval_walk():
    """Every region is the interval of the old component walk, in the same
    order, and the report's bounds are that interval's antichains: on the
    differential fixtures, the hand fixtures, two clinic overlaps, and the
    hand moves with both claims reversed past both releases, whose bounds
    have two members each."""
    runs = []
    for net, log in _differential_fixtures():
        comp = compose(align_cases(net, log, node_budget=20_000), log)
        scaled = scale_cases(net, log.cases())
        runs.append((comp, adjust_order(scaled, comp, composed_tokens(scaled, comp))))
    for forced in (False, True):
        for instances in (None, {"x": 2}):
            net, comp = hand_composed(forced, instances)
            runs.append((comp, adjust_order(net, comp, composed_tokens(net, comp))))
    log = clinic_two_overlaps_log(12, 3, 8)
    comp = compose(align_cases(clinic_net(), log, node_budget=10_000), log)
    scaled = scale_cases(clinic_net(), log.cases())
    runs.append((comp, adjust_order(scaled, comp, composed_tokens(scaled, comp))))
    _, hand = hand_composed(False)
    crossed = replace(hand, order=Poset(range(4), [(1, 0), (1, 2), (3, 0), (3, 2)]))
    changes = {pair: value for i in (0, 2) for j in (1, 3)
               for pair, value in (((i, j), 1), ((j, i), 0))}
    runs.append((crossed, extract_solution(crossed, changes)))

    def describe(comp, members):
        return [{"kind": comp.moves[i].kind, "activity": comp.moves[i].label,
                 "case": comp.case_of[i]} for i in sorted(members)]

    regions = []
    bounds = []
    for comp, sol in runs:
        walked = _walk_regions(comp, sol)
        assert [members for members, _, _ in sol.regions] == [
            region for region, _, _ in walked]
        for (_, before, after), (region, a, b) in zip(sol.regions, walked):
            entry = violation_entry(IntervalRealignment(
                tuple(region), before, after, Alignment((), Poset(())), False),
                comp, DEFAULT_COSTS)
            assert entry["interval_lower"] == describe(comp, a)
            assert entry["interval_upper"] == describe(comp, b)
            regions.append(len(region))
            bounds.append((len(a), len(b)))
    assert len(regions) >= 20 and max(regions) == 32, regions
    assert bounds[-1] == (2, 2)


def test_region_masks_match_the_scans_they_replace():
    """Each region carries the moves before and after some member, the
    neighbourhood its boundary markings, its substitution and its report
    entry read: on every region of the differential fixtures, one clinic
    overlap and two two-overlap logs, ``before`` is the scan of every row
    of the adjusted order for a member, and ``after`` the OR of the
    members' rows."""
    runs = [(net, log, 20_000) for net, log in _differential_fixtures()]
    runs += [(clinic_net(), clinic_log(17, overlap_at=8), 10_000),
             (clinic_net(), clinic_two_overlaps_log(12, 3, 8), 10_000),
             (clinic_net(), clinic_two_overlaps_log(20, 3, 14), 10_000)]
    regions = 0
    for net, log, budget in runs:
        scaled = scale_cases(net, log.cases())
        comp = compose(align_cases(net, log, node_budget=budget), log)
        sol = adjust_order(scaled, comp, composed_tokens(scaled, comp))
        rows = sol.x_order.rows()
        for members, before, after in sol.regions:
            region = sum(1 << i for i in members)
            assert before == sum(1 << x for x, row in enumerate(rows) if row & region)
            follows = 0
            for i in members:
                follows |= rows[i]
            assert after == follows
            regions += 1
    assert regions == 31, regions


# -- row reads against the dense and per-move loops --------------------------------

def test_row_reads_match_the_dense_and_per_move_loops(monkeypatch):
    """The order program reads R and its candidates as rows, and the lift
    check as two masks per changed pair.  On every group program the
    pipeline builds for the differential fixtures, two clinic overlaps, one
    clinic overlap and the widening log: the branch order is that of the
    dense scan, and every lift the pipeline checks, and 20 random flips of
    each program's pairs, name the cases of the per-outside-move loop or
    raise as it does."""
    programs = []
    lifts = []
    nets = []               # the scaled net of each run, the last one adjusting

    def build_spy(comp, use, *args):
        inst = build_ilp(comp, use, *args)
        programs.append((nets[-1], comp, use, inst))
        return inst

    def lift_spy(comp, use, inst, changes, *args):
        named = lift_failures(comp, use, inst, changes, *args)
        lifts.append((named, lift_failures_by_outside_moves(nets[-1], comp, inst, changes)))
        return named

    lift_failures = approx._lift_failures
    monkeypatch.setattr(approx, "build_ilp", build_spy)
    monkeypatch.setattr(approx, "_lift_failures", lift_spy)
    runs = [(net, log, 20_000) for net, log in _differential_fixtures()]
    runs += [(clinic_net(), clinic_two_overlaps_log(12, 3, 8), 10_000),
             (clinic_net(), clinic_log(30, overlap_at=15), 10_000),
             (claim_release_net({"x": 1, "y": 1}), _widening_log(), 20_000)]
    for net, log, budget in runs:
        comp = compose(align_cases(net, log, node_budget=budget), log)
        nets.append(scale_cases(net, log.cases()))
        adjust_order(nets[-1], comp, composed_tokens(nets[-1], comp))

    kept = 0
    for _, comp, _, inst in programs:
        keep = dense_branch_scan(comp, inst)
        assert inst.program.branch_order[:len(keep)] == keep
        kept += len(keep)

    rng = random.Random(18)
    assert all(named == reference for named, reference in lifts)
    assert len(lifts) == len(programs) and sum(bool(named) for named, _ in lifts) >= 3
    assert len(programs) >= 50 and kept >= 500, (len(programs), kept)

    def outcome(lift, *args):
        try:
            return lift(*args)
        except SoundnessError:
            return "unsound"

    # lifts naming a case with only pairs set to 0, or some set to 1, and unsound lifts
    outcomes = [0, 0, 0]
    for net, comp, use, inst in programs:
        below = comp.order.predecessor_rows()
        for _ in range(20):
            changes = {}
            for _ in range(rng.randrange(1, 4)):
                a, b = rng.sample(range(inst.n), 2)
                changes[inst.moves[a], inst.moves[b]] = 1 - (inst.R[a] >> b & 1)
            named = outcome(lift_failures, comp, use, inst, changes, below)
            assert named == outcome(lift_failures_by_outside_moves, net, comp, inst, changes)
            if named == "unsound":
                outcomes[2] += 1
            elif named:
                outcomes[1 in changes.values()] += 1
    assert min(outcomes) >= 20, outcomes


# -- one token table per run, summed by popcounts ------------------------------------

@lru_cache(maxsize=None)
def _token_table_runs():
    """(net, log, node budget, scaled net, approx result) of the
    differential fixtures, the clinic overlap logs and two clinic overlaps
    whose joint region falls back."""
    runs = [(net, log, 20_000) for net, log in _differential_fixtures()]
    runs += [(clinic_net(), clinic_log(n, overlap_at=n // 2), 10_000) for n in (4, 9, 17, 30)]
    runs += [(clinic_net(), clinic_log(9, overlap_at=0), 10_000),
             (clinic_net(), clinic_two_overlaps_log(12, 3, 8), 10_000)]
    return tuple((net, log, budget, scale_cases(net, log.cases()),
                  approximate_alignment(net, log, node_budget=budget))
                 for net, log, budget in runs)


def _random_order(n, rng):
    """A random strict order over ``n`` moves: each pair of a random
    permutation kept in permutation order with one random probability."""
    perm = rng.sample(range(n), n)
    density = rng.choice((0.02, 0.1, 0.3))
    return Poset(range(n), [(perm[a], perm[b]) for a in range(n) for b in range(a + 1, n)
                            if rng.random() < density])


def test_broken_rows_match_fits_over_every_site():
    """The popcount totals of ``CapacityRows.broken`` break the rows that
    the per-move reference breaks summing every site term by term, at R
    and at three random orders of every run's composed moves."""
    rng = random.Random(21)
    verdicts = [0, 0]       # sites that fit, sites broken
    for _, _, _, scaled, result in _token_table_runs():
        comp = result.composed
        use = capacity_rows(scaled, composed_tokens(scaled, comp))
        for order in [comp.order] + [_random_order(len(comp), rng) for _ in range(3)]:
            ordered = replace(comp, order=order)
            broken = use.broken(order.rows(), order.predecessor_rows())
            assert broken == broken_by_fits(scaled, ordered)
            verdicts[0] += len(use.sites) - len(broken)
            verdicts[1] += len(broken)
    assert min(verdicts) >= 500, verdicts


def test_capacity_rows_are_validity_linear_bound_on_availability():
    """Differential over the differential fixtures: at R and at three random
    orders of each composed alignment, ``CapacityRows.broken`` is exactly
    the (move, instance) pairs where the set-bit reference of validity's
    linear sum leaves less of the instance's availability token than the
    move takes; the approximation is valid, by the set-bit reference too,
    and never beats the exact optimum."""
    rng = random.Random(25)
    verdicts = [0, 0]       # orders that fit, orders short somewhere
    for net, log in _differential_fixtures():
        scaled = scale_cases(net, log.cases())
        result = approximate_alignment(net, log, node_budget=20_000)
        comp = result.composed
        tokens = token_use(scaled, comp.moves)
        use = capacity_rows(scaled, tokens)
        for order in [comp.order] + [_random_order(len(comp), rng) for _ in range(3)]:
            after, before = order.rows(), order.predecessor_rows()
            short = []
            for (p, tok), moved in tokens.items():
                if scaled.place_kind(p) == "resource":
                    effect = {s: g - t for s, (t, g) in moved.items() if g != t}
                    initial = scaled.initial.get(p).count(tok)
                    short += [(t, use.instances.index(tok[1])) for t, (taken, _) in moved.items()
                              if taken and initial + least_left_by_set_bits(
                                  effect, t, after, before) < taken]
            assert use.broken(after, before) == sorted(short)
            verdicts[bool(short)] += 1
        assert result.valid and validity_by_set_bits(scaled, log, result.alignment) == (True, None)
        assert result.cost() >= align_log(net, log, node_budget=20_000).cost()
    assert min(verdicts) >= 100, verdicts


def test_validity_popcount_sums_match_the_set_bit_loop():
    """Verdict and witness of ``is_valid_alignment`` equal the set-bit loop's
    on every run's composed and approximated alignment and on three random
    loosenings of each, which keep the log order."""
    rng = random.Random(22)
    verdicts = [0, 0]       # valid, invalid at a move
    for _, log, _, scaled, result in _token_table_runs():
        comp = result.composed
        for base in (Alignment(comp.moves, comp.order), result.alignment):
            for al in [base] + [loosened(log, base, rng) for _ in range(3)]:
                ok, why = is_valid_alignment(scaled, log, al)
                assert (ok, why) == validity_by_set_bits(scaled, log, al)
                if ok or why.startswith("move "):
                    verdicts[not ok] += 1
    assert min(verdicts) >= 500, verdicts


def test_boundary_markings_match_pseudo_fire():
    """``_boundary_marking`` over the composed table's effect masks gives
    the projected pseudo-marking of the moves bound afresh, or raises
    FiringError as it does: at both bounds of every realigned region and at
    20 random move sets of every run with a region."""
    rng = random.Random(23)

    def outcome(build, *args):
        try:
            return build(*args)
        except FiringError:
            return "negative"

    bounds = []
    outcomes = [0, 0]       # markings, negative counts
    for _, _, _, scaled, result in _token_table_runs():
        comp, rows = result.composed, result.solution.x_order.rows()
        effects = {pair: effect_masks(moved)
                   for pair, moved in token_use(scaled, comp.moves).items()}
        sets = []
        for re in result.realignments:
            region = set(re.region)
            pre = [x for x, row in enumerate(rows)
                   if x not in region and any(row >> m & 1 for m in region)]
            idle = set(comp.case_of).difference(comp.case_of[i] for i in region)
            sets += [(pre, idle), (sorted(pre + list(region)), idle)]
        bounds += sets
        if result.realignments:
            cases = sorted(set(comp.case_of))
            sets += [(sorted(rng.sample(range(len(comp)), rng.randrange(len(comp) + 1))),
                      set(rng.sample(cases, rng.randrange(len(cases) + 1))))
                     for _ in range(20)]
        for members, idle in sets:
            got = outcome(_boundary_marking, scaled, effects, sum(1 << i for i in members), idle)
            assert got == outcome(boundary_by_pseudo_fire, scaled,
                                  [comp.moves[i] for i in members], idle)
            outcomes[got == "negative"] += 1
    assert len(bounds) >= 50 and min(outcomes) >= 100, (len(bounds), outcomes)


def test_validity_reads_a_fresh_table_of_the_substituted_alignment(monkeypatch):
    """The table validity reads after a substitution, the remainder's
    bindings re-indexed and the realignments' moves bound, is the
    substituted alignment's fresh table, tokens and moves in the same
    order, so it gives the fresh table's verdict and witness there and on
    three random loosenings of its order."""
    runs = _token_table_runs()
    tables = []

    def spy(net, log, alignment, tokens=None):
        tables.append(tokens)
        return is_valid_alignment(net, log, alignment, tokens)

    monkeypatch.setattr(approx, "is_valid_alignment", spy)
    rng = random.Random(24)
    verdicts = [0, 0]       # valid, invalid at a move
    for net, log, budget, scaled, result in runs:
        if not result.realignments:
            continue
        tables.clear()
        gamma = approximate_alignment(net, log, node_budget=budget).alignment
        (tokens,) = tables
        fresh = token_use(scaled, gamma.moves)
        assert [(pair, list(moved.items())) for pair, moved in tokens.items()] == [
            (pair, list(moved.items())) for pair, moved in fresh.items()]
        for al in [gamma] + [loosened(log, gamma, rng) for _ in range(3)]:
            ok, why = is_valid_alignment(scaled, log, al, tokens)
            assert (ok, why) == is_valid_alignment(scaled, log, al)
            if ok or why.startswith("move "):
                verdicts[not ok] += 1
    assert min(verdicts) >= 40, verdicts


def test_report_lists_the_closed_order_row_by_row():
    """The written report lists the closed order's pairs in row order, byte
    for byte as the encoder lays out the set-bit listing, on every run's
    alignments and on random orders."""
    rng = random.Random(25)
    listed = 0
    for _, _, _, scaled, result in _token_table_runs():
        for al in (result.alignment, Alignment(result.composed.moves,
                                               _random_order(len(result.composed), rng))):
            doc = build_report(al, "approx", net=scaled)
            listed_doc = report_json(doc)
            assert dumps_report(doc) == json.dumps(listed_doc, indent=2, sort_keys=True) + "\n"
            listed += len(listed_doc["order"])
    assert listed > 40_000


def test_each_move_is_bound_once_per_run(monkeypatch):
    """``approximate_alignment`` binds, through ``token_use``, every
    composed transition move once and every transition move a realignment
    puts in once: the capacity rows, the boundary markings and validity
    share one table."""
    calls = []
    bind = align_module.firing_effect

    def spy(net, t, mode):
        if inspect.currentframe().f_back.f_code.co_name == "token_use":
            calls.append(t)
        return bind(net, t, mode)

    monkeypatch.setattr(align_module, "firing_effect", spy)
    result = approximate_alignment(clinic_net(), clinic_log(17, overlap_at=8),
                                   node_budget=10_000)
    (re,) = result.realignments
    composed = [m.transition for m in result.composed.moves if m.kind != "log"]
    put_in = [m.transition for m in re.alignment.moves if m.kind != "log"]
    assert sorted(calls) == sorted(composed + put_in)
    assert result.valid and not re.fallback and put_in


def _outside_holder(instances, outside_instance):
    """Three claim/release cases: c1, outside every program, claims its
    instance before c2 claims x and releases it after c3 claims x; c2 then
    c3 claim and release x."""
    net = scale_cases(claim_release_net(instances), ["c1", "c2", "c3"])
    cases = (("c1", outside_instance), ("c2", "x"), ("c3", "x"))
    moves = [Move("model", transition=t, mode=(("c", c), ("v", r)), label=t)
             for c, r in cases for t in ("claim", "release")]
    order = Poset(range(6), [(0, 2), (2, 3), (3, 4), (4, 1), (4, 5)])
    return net, ComposedAlignment(tuple(moves), order, ("c1", "c1", "c2", "c2", "c3", "c3"))


def test_lift_names_an_outside_case_that_holds_the_instance():
    """A lift that puts a program case's claim where an outside case still
    holds the instance breaks the capacity row there and names the outside
    case.  With the outside case on another instance the same lift breaks
    the row with no outside case claiming, which raises."""
    # c3 claims before c2's claim and releases after it, so the row at c2's
    # claim counts c1's hold, c3's claim and its own; no transitivity triple
    # through a changed pair has an outside move
    changes = {(2, 4): 0, (4, 2): 1}
    for instances, outside, capacity in (({"x": 2, "y": 1}, "x", 2), ({"x": 1, "y": 1}, "y", 1)):
        net, comp = _outside_holder(instances, outside)
        use = capacity_rows(net, composed_tokens(net, comp))
        below = comp.order.predecessor_rows()
        assert use.broken(comp.order.rows(), below) == [] and use.capacities[0] == capacity
        inst = build_ilp(comp, use, {"c2", "c3"})
        if outside == "x":
            assert _lift_failures(comp, use, inst, changes, below) == {"c1"}
            assert lift_failures_by_outside_moves(net, comp, inst, changes) == {"c1"}
        else:
            with pytest.raises(SoundnessError, match=r"const_vio\[2,x\]"):
                _lift_failures(comp, use, inst, changes, below)
