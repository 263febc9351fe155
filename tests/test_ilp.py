"""Branch-and-bound 0/1 solver: optimality vs enumeration, determinism."""

import random
from itertools import product as iproduct

import pytest

from nualign.ilp import (
    BinaryProgram,
    Constraint,
    IlpBudgetError,
    InfeasibleError,
    check_feasible,
    constraint,
    dump_lp,
    solve,
)


def brute_force(program):
    """Oracle: enumerate all 2^n assignments."""
    best = None
    for bits in iproduct((0, 1), repeat=program.n_vars):
        ok, _ = check_feasible(program, list(bits))
        if ok:
            val = program.objective_value(bits)
            if best is None or val < best[1]:
                best = (bits, val)
    return best


def test_all_fixed():
    p = BinaryProgram(2, objective={0: 3, 1: 5}, fixings={0: 1, 1: 0})
    assignment, value = solve(p)
    assert assignment == (1, 0) and value == 3


def test_cover_constraint():
    # minimize x0 + x1 subject to x0 + x1 >= 1  (as -x0 - x1 <= -1)
    p = BinaryProgram(
        2,
        objective={0: 1, 1: 1},
        constraints=[constraint({0: -1, 1: -1}, "<=", -1, "cover")],
    )
    assignment, value = solve(p)
    assert value == 1 and sum(assignment) == 1


def test_equality_constraint():
    p = BinaryProgram(
        3,
        objective={0: 2, 1: 1, 2: 1},
        constraints=[constraint({0: 1, 1: 1, 2: 1}, "==", 2, "pick-two")],
    )
    assignment, value = solve(p)
    assert sum(assignment) == 2 and value == 2


def test_infeasible():
    p = BinaryProgram(
        1,
        constraints=[constraint({0: 1}, "==", 1), constraint({0: 1}, "==", 0)],
    )
    with pytest.raises(InfeasibleError):
        solve(p)


def test_budget_error_carries_incumbent():
    rng = random.Random(0)
    n = 14
    rows = [
        constraint({v: rng.choice([-2, -1, 1, 2]) for v in range(n)}, "<=", 2)
        for _ in range(6)
    ]
    p = BinaryProgram(n, objective={v: 1 for v in range(n)}, constraints=rows)
    with pytest.raises(IlpBudgetError):
        solve(p, node_budget=3)


def _assert_matches_enumeration(p):
    expected = brute_force(p)
    if expected is None:
        with pytest.raises(InfeasibleError):
            solve(p)
    else:
        got_assignment, got_value = solve(p)
        assert got_value == expected[1]
        ok, why = check_feasible(p, list(got_assignment))
        assert ok, why


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
            rows.append(constraint(coeffs, op, bound))
        fixings = {
            v: rng.randrange(2) for v in range(n) if rng.random() < 0.25
        }
        _assert_matches_enumeration(BinaryProgram(
            n, objective=objective, constraints=rows, fixings=fixings))
        # plus one long row over every free variable, shaped like the
        # reversal cap (at least m ones), at every m from infeasible to slack
        free = [v for v in range(n) if v not in fixings]
        for m in range(len(free) + 1, -1, -1):
            cap = constraint({v: -1 for v in free}, "<=", -m, f"cap[{m}]")
            _assert_matches_enumeration(BinaryProgram(
                n, objective=objective, constraints=rows + [cap], fixings=fixings))


def test_solution_passes_check_feasible():
    p = BinaryProgram(
        4,
        objective={0: 1, 1: 2, 2: 3, 3: 4},
        constraints=[constraint({0: -1, 1: -1, 2: -1, 3: -1}, "<=", -2, "two")],
    )
    assignment, _ = solve(p)
    ok, why = check_feasible(p, list(assignment))
    assert ok, why


def test_check_feasible_names_violated_row():
    p = BinaryProgram(2, constraints=[constraint({0: 1, 1: 1}, "<=", 1, "const_trans_clos[0,1,0]")])
    ok, why = check_feasible(p, [1, 1])
    assert not ok and why == "const_trans_clos[0,1,0]"


def test_empty_program_feasible():
    p = BinaryProgram(0)
    assert check_feasible(p, []) == (True, None)
    assert solve(p) == ((), 0)


def test_lazy_rows_added_as_cuts():
    calls = []

    def lazy(assignment):
        calls.append(tuple(assignment))
        # forbid the all-ones corner lazily
        if all(v == 1 for v in assignment):
            return [constraint({0: 1, 1: 1}, "<=", 1, "lazy-cut")]
        return []

    p = BinaryProgram(
        2,
        objective={0: -1, 1: -1},
        lazy_rows=lazy,
    )
    assignment, value = solve(p)
    assert sum(assignment) == 1 and value == -1
    assert calls, "lazy family must have been consulted"


def test_lazy_cut_at_a_full_leaf_is_undone():
    # the cut arrives when every variable is set; once backtracked, it must
    # reject only the assignments that violate it
    def lazy(assignment):
        if all(assignment):
            return [constraint({0: 1, 1: 1, 2: 1}, "<=", 2, "not-all-three")]
        return []

    p = BinaryProgram(3, objective={0: -1, 1: -1, 2: -1},
                      preferred={0: 1, 1: 1, 2: 1}, lazy_rows=lazy)
    assignment, value = solve(p)
    assert value == -2 and sum(assignment) == 2


def test_random_instances_with_lazy_rows_match_enumeration():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randrange(1, 8)
        objective = {v: rng.randrange(-4, 5) for v in range(n)}

        def random_row():
            coeffs = {v: rng.randrange(-2, 3) for v in range(n) if rng.random() < 0.7}
            return constraint(coeffs, "<=", rng.randrange(-1, 3))

        eager = [random_row() for _ in range(rng.randrange(0, 3))]
        hidden = [random_row() for _ in range(rng.randrange(1, 4))]
        fixings = {v: rng.randrange(2) for v in range(n) if rng.random() < 0.2}
        preferred = {v: rng.randrange(2) for v in range(n)}

        def lazy(assignment, hidden=hidden):
            return [row for row in hidden if not row.holds(assignment)]

        _assert_matches_enumeration(BinaryProgram(
            n, objective=objective, constraints=eager, fixings=fixings,
            preferred=preferred, lazy_rows=lazy))


def test_determinism():
    rng = random.Random(5)
    n = 10
    rows = [
        constraint({v: rng.randrange(-2, 3) for v in range(n)}, "<=", 1)
        for _ in range(5)
    ]
    p1 = BinaryProgram(n, objective={v: (v % 3) - 1 for v in range(n)}, constraints=rows)
    p2 = BinaryProgram(n, objective={v: (v % 3) - 1 for v in range(n)}, constraints=list(rows))
    assert solve(p1) == solve(p2)


def test_warm_start_used_as_incumbent():
    p = BinaryProgram(
        3,
        objective={0: 1, 1: 1, 2: 1},
        constraints=[constraint({0: -1, 1: -1, 2: -1}, "<=", -1)],
        warm_starts=[[1, 1, 1]],
    )
    assignment, value = solve(p)
    assert value == 1


def test_dump_lp_roundtrip_text():
    p = BinaryProgram(
        2,
        objective={0: 1000, 1: 1},
        constraints=[constraint({0: 1, 1: -1}, "<=", 0, "rev")],
        fixings={1: 1},
    )
    text = dump_lp(p)
    assert "min 1000 x0 + 1 x1" in text
    assert "x1 = 1" in text
    assert "1 x0 - 1 x1 <= 0  ; rev" in text
