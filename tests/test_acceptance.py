"""Acceptance suite: one test per criterion, timed, one PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are exact (set/boolean/integer equality) except the
performance criterion, which is a wall-clock ratio under equal budgets.
"""

import time

import pytest

from nualign.align import (
    SearchBudgetError,
    build_sync_product,
    is_valid_alignment,
    optimal_alignment,
)
from nualign.approx import (
    ComposedAlignment,
    adjust_order,
    align_cases,
    approximate_alignment,
    build_ilp,
    capacity_rows,
    compose,
    solve_and_extract,
)
from nualign.cli import main
from nualign.eventlog import parse_log
from nualign.lognet import build_log_net
from nualign.netfile import save_net
from nualign.poset import Multiset
from nualign.rcnu import (
    DeviationConfig,
    enabled_modes,
    fire_mode,
    scale_cases,
    simulate,
)
from support.fixtures import (
    HOSPITAL_FORCED_OVERLAP_CSV,
    HOSPITAL_LOG_CSV,
    OPERATION_MIXED_SEQUENCE,
    OPERATION_SINGLE_CASE_LANGUAGE,
    claim_release_net,
    clinic_log,
    clinic_net,
    hospital_concurrent_log,
    hospital_forced_overlap_log,
    hospital_log,
    hospital_net,
    operation_rcnu,
    operation_system,
)
from support.oracles import (
    check_feasible,
    is_violating_by_linearizations,
    linearization_is_resource_safe,
    min_cost_exhaustive,
)
from support.orders import is_antichain, linearizations, prefix
from support.petri import in_invariant_span, language, place_invariants, uncolored
from support.runs import annotated_language, composed_tokens, replay


def _pass(number, started, message):
    print(f"[criterion {number:02d}] PASS ({time.perf_counter() - started:.1f}s) {message}")


# ---------------------------------------------------------------------------
# Shared fixture generators (deterministic)
# ---------------------------------------------------------------------------

def claim_release_log(times, instance="x"):
    """2 or 3 case claim/release log; times = ((t_claim, t_release), ...)."""
    rows = ["case,activity,timestamp,resources"]
    for k, (t1, t2) in enumerate(times):
        rows.append(f"c{k + 1},claim,{t1},r:{instance}")
        rows.append(f"c{k + 1},release,{t2},r:{instance}")
    return parse_log("\n".join(rows) + "\n")


def claim_release_fixtures():
    """(net, log) pairs with <= 8 moves, varied contention patterns."""
    patterns = [
        ((1, 2), (3, 4)),        # disjoint spans
        ((1, 4), (2, 3)),        # nested: c2 inside c1's span
        ((1, 3), (2, 4)),        # staggered overlap
        ((1, 2), (2, 3)),        # release and next claim concurrent
        ((1, 2), (3, 4), (5, 6)),   # three serialized cases
        ((1, 4), (2, 5), (3, 6)),   # three interleaved cases
    ]
    return [
        (claim_release_net(capacities), claim_release_log(times))
        for capacities in ({"x": 1}, {"x": 2})
        for times in patterns
    ]


def small_composed_fixtures():
    """Composed alignments of the claim/release fixtures."""
    return [
        (scale_cases(net, log.cases()), compose(align_cases(net, log), log))
        for net, log in claim_release_fixtures()
    ]


def pipeline_fixture_specs(count):
    """Deterministic (net builder, n_cases, seed, deviations) specs."""
    builders = [hospital_net, lambda: claim_release_net({"x": 1, "y": 1}),
                operation_rcnu]
    deviations = [
        DeviationConfig(),
        DeviationConfig(drop_events=1),
        DeviationConfig(swap_resources=1),
        DeviationConfig(relax_capacity=1),
        DeviationConfig(drop_events=1, relax_capacity=1),
    ]
    specs = []
    for i in range(count):
        specs.append((
            builders[i % 3],
            2 + (i % 2),
            i,
            deviations[i % 5],
        ))
    return specs


_FIXTURES_200 = None


def generate_pipeline_fixtures(count):
    """Deterministic batch of (net, simulated log) pairs, cached."""
    global _FIXTURES_200
    if _FIXTURES_200 is None:
        out = []
        for builder, n_cases, seed, dev in pipeline_fixture_specs(200):
            net = builder()
            log = simulate(net, n_cases, seed=seed, deviations=dev)
            if len(log) == 0:
                continue
            out.append((net, log))
        _FIXTURES_200 = out
    return _FIXTURES_200[:count]


# ---------------------------------------------------------------------------
# 1. Language facts of the operation process
# ---------------------------------------------------------------------------

def test_criterion_01_language_facts():
    t0 = time.perf_counter()
    # single case: exactly the four quoted sequences
    assert language(operation_system(1), 5) == OPERATION_SINGLE_CASE_LANGUAGE
    # two indistinguishable case tokens admit the mixed interleaving
    assert OPERATION_MIXED_SEQUENCE in language(operation_system(2), 10)
    # with distinguishable cases the mixed attribution is impossible:
    # the closeup always belongs to the open-surgery case
    annotated = annotated_language(operation_rcnu(("c1", "c2")), 8)
    matching = [
        seq for seq in annotated
        if tuple(a for a, _ in seq) == OPERATION_MIXED_SEQUENCE
    ]
    assert matching, "interleaving must remain possible with identities"
    for seq in matching:
        case_sc, case_so, case_c = seq[2][1], seq[5][1], seq[6][1]
        assert case_c == case_so != case_sc
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 must finish in < 1 s, took {elapsed:.2f}s"
    _pass(1, t0, "single-case language exact; mixed interleaving only without identities")


# ---------------------------------------------------------------------------
# 2. Resource durability
# ---------------------------------------------------------------------------

def test_criterion_02_durability():
    t0 = time.perf_counter()
    net = hospital_net()
    reference = {
        role.name: Multiset({i: n for i, n in role.instances.items()})
        for role in net.roles
    }
    import random
    for seed in range(200):
        rng = random.Random(seed)
        m = net.initial
        for _ in range(rng.randrange(3, 16)):
            options = [
                (t, mode)
                for t in net.transitions
                for mode in enabled_modes(net, m, t)
            ]
            if not options:
                break
            t, mode = options[rng.randrange(len(options))]
            m = fire_mode(net, m, t, mode)
            for role in net.roles:
                avail = Multiset({r: n for (c, r), n in m.get(role.available_place).items()})
                busy = Multiset({r: n for (c, r), n in m.get(role.busy_place).items()})
                assert avail + busy == reference[role.name]
    basis = place_invariants(uncolored(net))
    for role in net.roles:
        vec = [
            1 if p in (role.available_place, role.busy_place) else 0
            for p in net.places
        ]
        assert in_invariant_span(basis, vec)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 2 must finish in < 5 s, took {elapsed:.2f}s"
    _pass(2, t0, "200 walks conserve every role; (1,1) invariants present")


# ---------------------------------------------------------------------------
# 3. Exact-aligner optimality against brute force
# ---------------------------------------------------------------------------

OPTIMALITY_LOGS = [
    (hospital_net, "c1,i_s,1,g:g1\nc1,i_p,2,g:g1\n"),
    (hospital_net, "c1,o_p,1,\nc1,o_sc,2,s:s1\n"),
    (hospital_net, "c1,o_p,1,\nc1,o_so,2,s:s1\nc1,o_c,3,s:s1\n"),
    (hospital_net, "c1,i_s,1,g:g1\nc1,i_p,2,g:g1\nc1,o_p,3,\nc1,o_sc,4,s:s1\n"),
    (hospital_net, "c1,o_sc,1,s:s1\n"),
    (hospital_net, "c1,i_p,1,g:g1\n"),
    (hospital_net, "c1,o_p,1,\nc2,o_p,2,\nc1,o_sc,3,s:s1\nc2,o_sc,4,s:s1\n"),
    (hospital_net, "c1,i_s,1,g:g1\nc2,i_s,2,g:g1\n"),
    (hospital_net, "c1,i_s,1,g:g1\nc1,i_p,2,g:g1\nc2,i_s,2,g:g1\nc2,i_p,3,g:g1\n"),
    (hospital_net, "c1,i_s,1,g:g1\nc1,mystery,2,\n"),
    (lambda: claim_release_net({"x": 1}), "c1,claim,1,r:x\nc1,release,4,r:x\nc2,claim,2,r:x\nc2,release,3,r:x\n"),
    (lambda: claim_release_net({"x": 1}), "c1,claim,1,r:x\nc1,release,2,r:x\nc2,claim,3,r:x\nc2,release,4,r:x\n"),
    (lambda: claim_release_net({"x": 2}), "c1,claim,1,r:x\nc2,claim,2,r:x\nc1,release,3,r:x\nc2,release,4,r:x\n"),
    (operation_rcnu, "c1,o_p,1,\nc1,o_a,2,\nc1,o_so,3,s:x\nc1,o_c,4,s:x\n"),
    (operation_rcnu, "c1,o_p,1,\nc1,o_sc,2,s:x\nc1,o_a,3,\n"),
]


def test_criterion_03_exact_optimality():
    t0 = time.perf_counter()
    for builder, csv in OPTIMALITY_LOGS:
        net = builder()
        log = parse_log(csv)
        assert len(log) <= 6
        assert len(net.transitions) <= 8
        scaled = scale_cases(net, log.cases())
        prod = build_sync_product(scaled, build_log_net(log))
        got = optimal_alignment(prod).cost()
        expected = min_cost_exhaustive(prod, node_cap=500_000)
        assert got == expected, f"{csv!r}: search {got} != oracle {expected}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 3 must finish in < 60 s, took {elapsed:.2f}s"
    _pass(3, t0, f"{len(OPTIMALITY_LOGS)} fixtures match the enumeration oracle")


# ---------------------------------------------------------------------------
# 4. Violating composed alignments are unfirable
# ---------------------------------------------------------------------------

def test_criterion_04_violating_unfirable():
    t0 = time.perf_counter()
    fixtures = small_composed_fixtures()
    violating = 0
    for net, comp in fixtures:
        assert len(comp) <= 8
        if not adjust_order(net, comp, composed_tokens(net, comp)).violating:
            continue
        violating += 1
        for lin in linearizations(comp.order):
            try:
                final = replay(net, [comp.moves[i] for i in lin])
            except Exception:
                continue
            assert final != net.final, (
                f"violating composition reached the final marking via {lin}"
            )
    assert violating >= 2, "fixture batch must include violating compositions"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 4 must finish in < 30 s, took {elapsed:.2f}s"
    _pass(4, t0, f"{violating} violating fixtures: zero linearizations reach the goal")


# ---------------------------------------------------------------------------
# 5. Antichain-marking reachability iff prefix non-violation
# ---------------------------------------------------------------------------

def all_antichains(order):
    from itertools import chain, combinations
    elems = list(order.elements)
    for r in range(1, len(elems) + 1):
        for combo in combinations(elems, r):
            if is_antichain(order, combo):
                yield frozenset(combo)


def test_criterion_05_antichain_reachability():
    t0 = time.perf_counter()
    checked = 0
    for net, comp in small_composed_fixtures():
        for g in all_antichains(comp.order):
            indices = sorted(prefix(comp.order, g, closed=False).elements)
            sub = comp.order.restrict(indices)
            reachable = False
            for lin in linearizations(sub):
                try:
                    replay(net, [comp.moves[i] for i in lin])
                    reachable = True
                    break
                except Exception:
                    continue
            if not indices:
                reachable = True  # empty prefix: the initial marking itself
            not_violating = not is_violating_by_linearizations(net, comp.moves, sub)
            assert reachable == not_violating, (
                f"antichain {sorted(g)}: reachable={reachable}, "
                f"non-violating={not_violating}"
            )
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 5 must finish in < 60 s, took {elapsed:.2f}s"
    _pass(5, t0, f"{checked} antichain prefixes: reachability matches non-violation")


# ---------------------------------------------------------------------------
# 6. Order-program violation decision matches the permutation-space oracle
# ---------------------------------------------------------------------------

def test_criterion_06_violation_decision():
    t0 = time.perf_counter()
    agree_violating = agree_clean = 0
    for net, comp in small_composed_fixtures():
        by_program = adjust_order(net, comp, composed_tokens(net, comp)).violating
        by_oracle = is_violating_by_linearizations(net, comp.moves, comp.order)
        assert by_program == by_oracle
        if by_oracle:
            agree_violating += 1
        else:
            agree_clean += 1
    assert agree_violating >= 2 and agree_clean >= 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 6 must finish in < 60 s, took {elapsed:.2f}s"
    _pass(6, t0, f"program == oracle on {agree_violating} violating / {agree_clean} clean fixtures")


# ---------------------------------------------------------------------------
# 7. The block-triangular order is feasible on every generated instance
# ---------------------------------------------------------------------------

def block_triangular_assignment(inst, comp):
    """The always-feasible order of an order program: its cases fully
    serialized in case-id order, each case keeping its own alignment order."""
    case_of = [comp.case_of[mv] for mv in inst.moves]
    assignment = [0] * (inst.n * inst.n)
    for i in range(inst.n):
        for j in range(inst.n):
            if i == j:
                continue
            if case_of[i] == case_of[j]:
                assignment[inst.var(i, j)] = inst.R[i] >> j & 1
            elif case_of[i] < case_of[j]:
                assignment[inst.var(i, j)] = 1
    return assignment


def test_criterion_07_block_triangular_existence():
    fixtures = generate_pipeline_fixtures(200)   # cached; generation untimed
    t0 = time.perf_counter()
    count = 0
    for net, log in fixtures:
        scaled = scale_cases(net, log.cases())
        comp = compose(align_cases(net, log), log)
        inst = build_ilp(comp, capacity_rows(scaled, composed_tokens(scaled, comp)))
        ok, why = check_feasible(inst.program, block_triangular_assignment(inst, comp))
        assert ok, f"seed fixture {count}: {why}"
        count += 1
    assert count >= 195
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 7 must finish in < 10 s, took {elapsed:.2f}s"
    _pass(7, t0, f"block-triangular order feasible on {count} instances")


# ---------------------------------------------------------------------------
# 8. The approximation always yields a valid alignment
# ---------------------------------------------------------------------------

def test_criterion_08_approximation_validity():
    t0 = time.perf_counter()
    count = with_violations = 0
    for net, log in generate_pipeline_fixtures(200):
        result = approximate_alignment(net, log)
        assert result.valid, (
            f"fixture {count} ({len(log)} events): {result.witness}"
        )
        ok, why = is_valid_alignment(
            scale_cases(net, log.cases()), log, result.alignment
        )
        assert ok, why
        if result.solution.violating:
            with_violations += 1
        count += 1
    assert with_violations >= 10, "batch must include injected violations"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 8 must finish in < 5 min, took {elapsed:.2f}s"
    _pass(8, t0, f"{count} pipelines valid ({with_violations} with violations)")


# ---------------------------------------------------------------------------
# 9. Approximation dominance and equality on violation-free logs
# ---------------------------------------------------------------------------

def test_criterion_09_dominance():
    t0 = time.perf_counter()
    named = [
        (hospital_net(), hospital_log()),
        (hospital_net(), hospital_forced_overlap_log()),
        (hospital_net(), hospital_concurrent_log()),
    ]
    generated = [
        (net, log) for net, log in generate_pipeline_fixtures(80)
        if len(log.cases()) <= 2 and len(log) <= 10
    ]
    compared = equalities = 0
    for net, log in named + generated:
        result = approximate_alignment(net, log)
        scaled = scale_cases(net, log.cases())
        prod = build_sync_product(scaled, build_log_net(log))
        try:
            exact = optimal_alignment(prod, node_budget=100_000)
        except SearchBudgetError:
            continue
        assert result.cost() >= exact.cost(), (
            f"approximation {result.cost()} beat the exact optimum {exact.cost()}"
        )
        if not result.solution.violating:
            assert result.cost() == exact.cost(), (
                f"violation-free fixture: approx {result.cost()} != exact {exact.cost()}"
            )
            equalities += 1
        compared += 1
    assert compared >= 30 and equalities >= 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 9 must finish in < 5 min, took {elapsed:.2f}s"
    _pass(9, t0, f"approx >= exact on {compared} fixtures, equal on {equalities} violation-free")


# ---------------------------------------------------------------------------
# 10. The approximation is the practical engine at scale
# ---------------------------------------------------------------------------

def test_criterion_10_performance():
    t0 = time.perf_counter()
    budget = 10_000
    net = clinic_net()
    log = clinic_log(10, overlap_at=4)
    assert len(log) == 60 and len(log.cases()) == 10

    t_approx0 = time.perf_counter()
    result = approximate_alignment(net, log, node_budget=budget)
    t_approx = time.perf_counter() - t_approx0
    assert result.valid, result.witness

    scaled = scale_cases(net, log.cases())
    prod = build_sync_product(scaled, build_log_net(log))
    t_exact0 = time.perf_counter()
    exact_completed = False
    try:
        optimal_alignment(prod, node_budget=budget)
        exact_completed = True
    except SearchBudgetError:
        pass
    t_exact = time.perf_counter() - t_exact0

    if exact_completed:
        assert t_exact >= 5 * t_approx, (
            f"exact {t_exact:.1f}s vs approx {t_approx:.1f}s: ratio below 5x"
        )
    # else: exact exhausted the budget while the approximation completed
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"criterion 10 must finish in < 10 min, took {elapsed:.2f}s"
    verdict = "exact hit its budget" if not exact_completed else "completed"
    _pass(10, t0, f"approx {t_approx:.1f}s vs exact {t_exact:.1f}s ({verdict}), equal budgets of {budget}")


# ---------------------------------------------------------------------------
# 11. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    net_file = tmp_path / "net.json"
    save_net(hospital_net(), net_file)
    fit_log = tmp_path / "fit.csv"
    fit_log.write_text(HOSPITAL_LOG_CSV)
    bad_log = tmp_path / "overlap.csv"
    bad_log.write_text(HOSPITAL_FORCED_OVERLAP_CSV)

    outputs = []
    for run in range(2):
        produced = []
        for name, argv in [
            ("exact", ["align", str(net_file), str(fit_log),
                       "--out", str(tmp_path / f"exact{run}.json"),
                       "--dot", str(tmp_path / f"exact{run}.dot")]),
            ("approx", ["align", str(net_file), str(bad_log), "--mode", "approx",
                        "--out", str(tmp_path / f"approx{run}.json"),
                        "--dot", str(tmp_path / f"approx{run}.dot")]),
            ("sim", ["simulate", str(net_file), "--seed", "11", "--cases", "3",
                     "--out", str(tmp_path / f"sim{run}.csv")]),
            ("netdot", ["dot", str(net_file), "--out", str(tmp_path / f"net{run}.dot")]),
            ("logdot", ["dot", str(fit_log), "--out", str(tmp_path / f"log{run}.dot")]),
        ]:
            assert main(argv) == 0, name
            for suffix in (".json", ".dot", ".csv"):
                path = tmp_path / f"{name_to_file(name, run)}{suffix}"
                if path.exists():
                    produced.append((name, suffix, path.read_bytes()))
        outputs.append(produced)
    assert outputs[0] == outputs[1]
    _pass(11, t0, "repeated CLI runs byte-identical (reports, DOT, CSV)")


def name_to_file(name, run):
    return {
        "exact": f"exact{run}", "approx": f"approx{run}", "sim": f"sim{run}",
        "netdot": f"net{run}", "logdot": f"log{run}",
    }[name]
