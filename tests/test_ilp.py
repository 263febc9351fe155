"""Branch-and-bound 0/1 solver: optimality vs enumeration, the cover-row
engine against the general reference engine, determinism."""

import copy
import random
from dataclasses import replace
from functools import lru_cache
from itertools import product as iproduct

import pytest

import nualign.approx as approx
from nualign.approx import adjust_order, align_cases, compose
from nualign.ilp import (
    BinaryProgram,
    IlpBudgetError,
    InfeasibleError,
    NodeBudget,
    _Engine,
    constraint,
    solve,
)
from nualign.rcnu import scale_cases
from support.oracles import ReferenceEngine, check_feasible, reference_solve, row_holds
from support.runs import composed_tokens
from test_approx import _contended_log, _differential_fixtures, _group_programs

#: more nodes than any program of this file takes
LIMIT = 2_000_000


@lru_cache(maxsize=None)
def strict_partial_orders(n):
    """Every strict partial order of n elements as its n*n pair values,
    ``a*n + b`` set iff a comes before b."""
    orders = []
    for bits in iproduct((0, 1), repeat=n * n):
        if all(not bits[a * n + b] or (a != b and not bits[b * n + a]
                                       and all(bits[a * n + k] for k in range(n)
                                               if bits[b * n + k]))
               for a in range(n) for b in range(n)):
            orders.append(bits)
    return orders


def feasible_assignments(program):
    """Every assignment, or every strict partial order of an order program,
    that keeps the fixings and rows of ``program``."""
    candidates = (strict_partial_orders(program.order) if program.order
                  else iproduct((0, 1), repeat=program.n_vars))
    return [bits for bits in candidates if check_feasible(program, list(bits))[0]]


def optimum(program, feasible=None):
    """Oracle: the optimal value and the set of optimal assignments among
    ``feasible`` (by default ``feasible_assignments(program)``), at the
    first bound of the cap row, counting up from its own, that one of them
    keeps; None when there is none."""
    if feasible is None:
        feasible = feasible_assignments(program)
    if not feasible:
        return None
    cap = program.cap
    if cap is not None:
        lhs = {bits: sum(c * bits[v] for v, c in cap.coeffs) for bits in feasible}
        level = max(cap.bound, min(lhs.values()))
        feasible = [bits for bits in feasible if lhs[bits] <= level]
    value = {bits: sum(c * bits[v] for v, c in program.objective.items()) for bits in feasible}
    best = min(value.values())
    return best, {bits for bits in feasible if value[bits] == best}


def solved(solver, program):
    """``solver``'s assignment and value on ``program`` (None when it is
    infeasible), and the nodes it used."""
    budget = NodeBudget(LIMIT)
    try:
        return solver(program, budget), budget.used
    except InfeasibleError:
        return None, budget.used


def equality(coeffs, bound, label=""):
    """``coeffs . x == bound`` as the pair of rows ``<= bound`` and ``>= bound``."""
    return [constraint(coeffs, bound, label),
            constraint({v: -c for v, c in coeffs.items()}, -bound, label)]


def random_cover(rng, variables, density):
    """A cover row over some of ``variables``: weights 1-3, and a need from
    0 to one past the row's total weight."""
    weights = {v: rng.randint(1, 3) for v in variables if rng.random() < density}
    return constraint({v: -w for v, w in weights.items()},
                      -rng.randint(0, sum(weights.values()) + 1))


def test_all_fixed():
    p = BinaryProgram(2, objective={0: 3, 1: 5}, fixings={0: 1, 1: 0})
    assignment, value = solve(p, NodeBudget(LIMIT))
    assert assignment == (1, 0) and value == 3


def test_cover_constraint():
    # minimize x0 + x1 subject to x0 + x1 >= 1  (as -x0 - x1 <= -1)
    p = BinaryProgram(
        2,
        objective={0: 1, 1: 1},
        constraints=[constraint({0: -1, 1: -1}, -1, "cover")],
    )
    assignment, value = solve(p, NodeBudget(LIMIT))
    assert value == 1 and sum(assignment) == 1


def test_equality_constraint():
    p = BinaryProgram(
        3,
        objective={0: 2, 1: 1, 2: 1},
        constraints=equality({0: 1, 1: 1, 2: 1}, 2, "pick-two"),
    )
    assignment, value = reference_solve(p, NodeBudget(LIMIT))
    assert sum(assignment) == 2 and value == 2


def test_weighted_cover_constraint():
    # weigh at least 3 with x0 (weight 3, price 4) or x1 and x2 (2 and 1,
    # priced 2 and 1): the pair is cheaper
    p = BinaryProgram(
        3,
        objective={0: 4, 1: 2, 2: 1},
        constraints=[constraint({0: -3, 1: -2, 2: -1}, -3, "weigh-three")],
    )
    assert solve(p, NodeBudget(LIMIT)) == ((0, 1, 1), 3)


def test_infeasible():
    p = BinaryProgram(
        1,
        constraints=equality({0: 1}, 1) + equality({0: 1}, 0),
    )
    with pytest.raises(InfeasibleError):
        reference_solve(p, NodeBudget(LIMIT))
    # covers: a need past the row's weight, a fixing that breaks a row,
    # and an order program whose rows put 0 before 1 and 1 before 0, under
    # a cap
    programs = [
        BinaryProgram(2, constraints=[constraint({0: -1, 1: -2}, -4)]),
        BinaryProgram(2, constraints=[constraint({0: -1, 1: -1}, -2)], fixings={1: 0}),
        BinaryProgram(4, constraints=[constraint({1: -1}, -1), constraint({2: -1}, -1)],
                      order=2, cap=constraint({1: -1, 2: -1}, -2)),
    ]
    for p in programs:
        with pytest.raises(InfeasibleError):
            solve(p, NodeBudget(LIMIT))
        assert solved(solve, p) == solved(reference_solve, p)


def test_engine_takes_cover_rows_and_a_nonnegative_objective_only():
    # a row with a positive coefficient, the cap too, names its label, and
    # a negative objective coefficient its variable; the reference solves
    # all three
    programs = {
        "'antisymmetry[0,1]'": BinaryProgram(2, constraints=[
            constraint({0: 1, 1: 1}, 1, "antisymmetry[0,1]")]),
        "'cap'": BinaryProgram(2, cap=constraint({0: -1, 1: 1}, 0, "cap")),
        "x1 is negative": BinaryProgram(2, objective={0: 1, 1: -1}),
    }
    for message, p in programs.items():
        with pytest.raises(ValueError, match=message.replace("[", r"\[")):
            solve(p, NodeBudget(LIMIT))
        reference_solve(p, NodeBudget(LIMIT))


def _assert_budget_errors_carry_incumbents(solver, program):
    """At every limit below the nodes ``solver`` takes on ``program``, it
    raises IlpBudgetError with ``nodes`` one past the limit and with no
    incumbent, or with one that keeps the fixings and rows at its value;
    returns how many limits left an incumbent."""
    _, total = solved(solver, program)
    incumbents = 0
    for limit in range(total):
        with pytest.raises(IlpBudgetError) as info:
            solver(program, NodeBudget(limit))
        assert info.value.nodes == limit + 1
        if info.value.incumbent is not None:
            assignment, value = info.value.incumbent
            assert check_feasible(program, list(assignment)) == (True, None)
            assert value == sum(c * assignment[v] for v, c in program.objective.items())
            incumbents += 1
    return incumbents


def test_budget_error_carries_incumbent():
    rng = random.Random(0)
    n = 14
    rows = [
        constraint({v: rng.choice([-2, -1, 1, 2]) for v in range(n)}, 2)
        for _ in range(6)
    ]
    p = BinaryProgram(n, objective={v: rng.choice([-1, 1, 2]) for v in range(n)},
                      constraints=rows)
    assert _assert_budget_errors_carry_incumbents(reference_solve, p) > 0
    # and the cover engine on random covers, some infeasible at the root
    incumbents = 0
    for seed in range(6):
        rng = random.Random(seed)
        n = 14
        rows = [random_cover(rng, range(n), 0.4) for _ in range(6)]
        p = BinaryProgram(n, objective={v: rng.randint(0, 3) for v in range(n)},
                          constraints=rows)
        incumbents += _assert_budget_errors_carry_incumbents(solve, p)
    assert incumbents >= 50, incumbents


def _assert_matches_enumeration(p, solver, feasible=None):
    """``solver``'s answer on ``p`` is an optimum by enumeration (see
    ``optimum``), or InfeasibleError when there is none."""
    expected = optimum(p, feasible)
    if expected is None:
        with pytest.raises(InfeasibleError):
            solver(p, NodeBudget(LIMIT))
    else:
        assignment, value = solver(p, NodeBudget(LIMIT))
        assert value == expected[0] and assignment in expected[1]


def test_random_instances_match_enumeration():
    rng = random.Random(42)
    for _ in range(120):
        n = rng.randrange(1, 9)
        objective = {v: rng.randrange(-4, 7) for v in range(n)}
        rows = []
        for _ in range(rng.randrange(0, 5)):
            coeffs = {
                v: rng.randrange(-3, 4)
                for v in range(n)
                if rng.random() < 0.7
            }
            op = "<=" if rng.random() < 0.8 else "=="
            bound = rng.randrange(-3, 5)
            rows.extend([constraint(coeffs, bound)] if op == "<="
                        else equality(coeffs, bound))
        fixings = {
            v: rng.randrange(2) for v in range(n) if rng.random() < 0.25
        }
        _assert_matches_enumeration(BinaryProgram(
            n, objective=objective, constraints=rows, fixings=fixings), reference_solve)
        # plus one long row over every free variable, shaped like the
        # reversal cap (at least m ones), at every m from infeasible to
        # slack: as a plain row, and as a cap row whose levels start at m
        free = [v for v in range(n) if v not in fixings]
        for m in range(len(free) + 1, -1, -1):
            cap = constraint({v: -1 for v in free}, -m, f"cap[{m}]")
            _assert_matches_enumeration(BinaryProgram(
                n, objective=objective, constraints=rows + [cap], fixings=fixings),
                reference_solve)
            _assert_matches_enumeration(BinaryProgram(
                n, objective=objective, constraints=rows, fixings=fixings, cap=cap),
                reference_solve)


def test_random_covers_match_enumeration_and_the_reference():
    """On random cover programs, under a weighted cap over their free
    variables at every need, as a plain row and as a cap row, the cover
    engine finds an optimum by enumeration, and the same assignment, value
    and nodes as the reference engine."""
    rng = random.Random(42)
    infeasible = 0
    for _ in range(120):
        n = rng.randrange(1, 9)
        rows = [random_cover(rng, range(n), 0.7) for _ in range(rng.randrange(0, 5))]
        fixings = {v: rng.randrange(2) for v in range(n) if rng.random() < 0.25}
        base = BinaryProgram(n, objective={v: rng.randrange(0, 7) for v in range(n)},
                             constraints=rows, fixings=fixings)
        feasible = feasible_assignments(base)
        weights = {v: -rng.randint(1, 3) for v in range(n) if v not in fixings}
        programs = [(base, feasible)]
        for need in range(-sum(weights.values()) + 2):
            cap = constraint(weights, -need, f"cap[{need}]")
            programs += [(replace(base, constraints=rows + [cap]),
                          [bits for bits in feasible if row_holds(cap, bits)]),
                         (replace(base, cap=cap), feasible)]
        for p, kept in programs:
            _assert_matches_enumeration(p, solve, kept)
            assert solved(solve, p) == solved(reference_solve, p)
            infeasible += not kept
    assert 200 <= infeasible <= 2_000, infeasible


def test_solution_passes_check_feasible():
    p = BinaryProgram(
        4,
        objective={0: 1, 1: 2, 2: 3, 3: 4},
        constraints=[constraint({0: -1, 1: -1, 2: -1, 3: -1}, -2, "two")],
    )
    assignment, _ = solve(p, NodeBudget(LIMIT))
    ok, why = check_feasible(p, list(assignment))
    assert ok, why


def test_check_feasible_names_violated_row():
    p = BinaryProgram(2, constraints=[constraint({0: 1, 1: 1}, 1, "const_trans_clos[0,1,0]")])
    ok, why = check_feasible(p, [1, 1])
    assert not ok and why == "const_trans_clos[0,1,0]"


def test_empty_program_feasible():
    p = BinaryProgram(0)
    assert check_feasible(p, []) == (True, None)
    assert solve(p, NodeBudget(LIMIT)) == ((), 0)


def _random_order_programs(seed, count, covers=False):
    """Random order programs of at most 4 elements: random fixings (the
    diagonal among them or not), rows, objective and preferred values, and
    every other one under a cap over its free variables.  The rows are
    covers and the objective nonnegative with ``covers``; else both are
    signed."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randrange(1, 5)
        m = n * n

        def random_row():
            if covers:
                return random_cover(rng, range(m), 0.4)
            coeffs = {v: rng.randrange(-2, 3) for v in range(m) if rng.random() < 0.4}
            return constraint(coeffs, rng.randrange(-1, 3))

        fixings = {v: rng.randrange(2) for v in range(m) if rng.random() < 0.2}
        if rng.random() < 0.5:
            fixings.update((a * n + a, 0) for a in range(n))
        free = [v for v in range(m) if v not in fixings]
        yield BinaryProgram(
            m, objective={v: rng.randrange(0 if covers else -4, 5) for v in range(m)},
            constraints=[random_row() for _ in range(rng.randrange(0, 4))],
            fixings=fixings, preferred={v: rng.randrange(2) for v in range(m)},
            order=n,
            cap=constraint({v: -1 for v in free}, -rng.randrange(len(free) + 1), "cap")
            if k % 2 else None)


def test_random_order_programs_match_enumeration_over_strict_partial_orders():
    """Propagation keeps every leaf a strict partial order: on random order
    programs the solver's optimum is the best strict partial order that
    keeps the fixings and rows, at the first feasible cap level."""
    infeasible = 0
    for program in _random_order_programs(23, 300):
        _assert_matches_enumeration(program, reference_solve)
        infeasible += optimum(program) is None
    assert 30 <= infeasible <= 270, infeasible


def test_random_cover_order_programs_match_enumeration_and_the_reference():
    """On random order programs of cover rows the cover engine finds the
    best strict partial order that keeps the fixings and rows, at the first
    feasible cap level, and the same assignment, value and nodes as the
    reference engine."""
    infeasible = 0
    for program in _random_order_programs(23, 300, covers=True):
        _assert_matches_enumeration(program, solve)
        assert solved(solve, program) == solved(reference_solve, program)
        infeasible += optimum(program) is None
    assert 30 <= infeasible <= 270, infeasible


@pytest.fixture(scope="module")
def order_programs():
    """Every order program ``adjust_order`` solves on the differential fixtures."""
    programs = []
    real = approx.solve

    def record(program, budget):
        programs.append(program)
        return real(program, budget)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(approx, "solve", record)
        for net, log in _differential_fixtures():
            scaled = scale_cases(net, log.cases())
            comp = compose(align_cases(net, log, node_budget=20_000), log)
            adjust_order(scaled, comp, composed_tokens(scaled, comp))
    return programs


def test_cover_engine_matches_the_reference_on_order_programs(order_programs):
    """On every order program of the differential fixtures, of contended
    hospital n = 6 seed 1 and the first of n = 10 seed 2, the cover engine
    gives the same assignment, objective and nodes as the reference."""
    programs = (order_programs + _group_programs(_contended_log(6, 1))
                + _group_programs(_contended_log(10, 2))[:1])
    nodes = 0
    for program in programs:
        got = solved(solve, program)
        assert got == solved(reference_solve, program)
        nodes += got[1]
    assert len(programs) >= 50 and nodes >= 900, (len(programs), nodes)


def _pair_bits(n, ones):
    """Per element a, the mask of its pairs (a, b) among ``ones``, and per
    element b the mask of its pairs (a, b)."""
    after, before = [0] * n, [0] * n
    for v in ones:
        a, b = divmod(v, n)
        after[a] |= 1 << b
        before[b] |= 1 << a
    return after, before


def _assert_order_bits_follow_the_trail(engine_type, programs):
    """The engine's ``after`` and ``before`` rows hold exactly the pairs
    set to 1 through root propagation and random branching on
    ``programs``, and ``undo_to(0)`` restores the engine as it was built,
    the fixings' bits included."""
    rng = random.Random(7)
    undone = 0
    for program in programs:
        engine = engine_type(program)
        built = copy.deepcopy({k: v for k, v in vars(engine).items() if k != "program"})
        n = program.order
        fixed = _pair_bits(n, [v for v, value in program.fixings.items() if value])
        assert (engine.after, engine.before) == fixed
        engine.propagate_all()
        for _ in range(8):
            free = [v for v, value in enumerate(engine.assignment) if value is None]
            if not free:
                break
            var = rng.choice(free)
            engine.assign(var, rng.randrange(2))
            engine.propagate([var])
            ones = [v for v, value in enumerate(engine.assignment) if value]
            assert (engine.after, engine.before) == _pair_bits(n, ones)
        undone += len(engine.trail) > 0
        engine.undo_to(0)
        assert {k: v for k, v in vars(engine).items() if k != "program"} == built
    assert len(programs) >= 150 and undone >= 100, (len(programs), undone)


def test_order_bits_follow_the_trail_back_to_the_fixings(order_programs):
    """On the order programs of the differential fixtures and random ones,
    signed for the reference engine and of cover rows for the package's."""
    _assert_order_bits_follow_the_trail(
        ReferenceEngine, order_programs + list(_random_order_programs(29, 100)))
    _assert_order_bits_follow_the_trail(
        _Engine, order_programs + list(_random_order_programs(29, 100, covers=True)))


def test_determinism():
    rng = random.Random(5)
    n = 10
    rows = [
        constraint({v: rng.randrange(-2, 3) for v in range(n)}, 1)
        for _ in range(5)
    ]
    p1 = BinaryProgram(n, objective={v: (v % 3) - 1 for v in range(n)}, constraints=rows)
    p2 = BinaryProgram(n, objective={v: (v % 3) - 1 for v in range(n)}, constraints=list(rows))
    assert reference_solve(p1, NodeBudget(LIMIT)) == reference_solve(p2, NodeBudget(LIMIT))
    rows = [random_cover(rng, range(n), 0.7) for _ in range(5)]
    p1 = BinaryProgram(n, objective={v: v % 3 for v in range(n)}, constraints=rows)
    p2 = BinaryProgram(n, objective={v: v % 3 for v in range(n)}, constraints=list(rows))
    assert solve(p1, NodeBudget(LIMIT)) == solve(p2, NodeBudget(LIMIT))


def dump_lp(program):
    """Plain-text rendering of a program, exact integers."""
    lines = []
    obj = " + ".join(
        f"{c} x{v}" for v, c in sorted(program.objective.items()) if c
    )
    lines.append(f"min {obj or '0'}")
    for var, value in sorted(program.fixings.items()):
        lines.append(f"x{var} = {value}  ; fixing")
    for row in program.constraints:
        body = " + ".join(f"{c} x{v}" for v, c in row.coeffs).replace("+ -", "- ")
        label = f"  ; {row.label}" if row.label else ""
        lines.append(f"{body or '0'} <= {row.bound}{label}")
    return "\n".join(lines) + "\n"


def test_dump_lp_roundtrip_text():
    p = BinaryProgram(
        2,
        objective={0: 1000, 1: 1},
        constraints=[constraint({0: 1, 1: -1}, 0, "rev")],
        fixings={1: 1},
    )
    text = dump_lp(p)
    assert "min 1000 x0 + 1 x1" in text
    assert "x1 = 1" in text
    assert "1 x0 - 1 x1 <= 0  ; rev" in text
