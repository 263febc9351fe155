"""Branch-and-bound 0/1 solver: optimality vs enumeration, determinism."""

import random
from dataclasses import replace
from itertools import product as iproduct

import pytest

import nualign.approx as approx
from nualign.approx import adjust_order, align_cases, compose
from nualign.ilp import (
    BinaryProgram,
    Constraint,
    IlpBudgetError,
    InfeasibleError,
    NodeBudget,
    _Engine,
    constraint,
    solve,
)
from nualign.rcnu import scale_cases
from support.oracles import check_feasible, row_holds
from support.runs import composed_tokens
from test_approx import _differential_fixtures


def brute_force(program):
    """Oracle: enumerate all 2^n assignments."""
    best = None
    for bits in iproduct((0, 1), repeat=program.n_vars):
        ok, _ = check_feasible(program, list(bits))
        if ok:
            val = sum(c * bits[v] for v, c in program.objective.items())
            if best is None or val < best[1]:
                best = (bits, val)
    return best


def equality(coeffs, bound, label=""):
    """``coeffs . x == bound`` as the pair of rows ``<= bound`` and ``>= bound``."""
    return [constraint(coeffs, bound, label),
            constraint({v: -c for v, c in coeffs.items()}, -bound, label)]


def test_all_fixed():
    p = BinaryProgram(2, objective={0: 3, 1: 5}, fixings={0: 1, 1: 0})
    assignment, value = solve(p)
    assert assignment == (1, 0) and value == 3


def test_cover_constraint():
    # minimize x0 + x1 subject to x0 + x1 >= 1  (as -x0 - x1 <= -1)
    p = BinaryProgram(
        2,
        objective={0: 1, 1: 1},
        constraints=[constraint({0: -1, 1: -1}, -1, "cover")],
    )
    assignment, value = solve(p)
    assert value == 1 and sum(assignment) == 1


def test_equality_constraint():
    p = BinaryProgram(
        3,
        objective={0: 2, 1: 1, 2: 1},
        constraints=equality({0: 1, 1: 1, 2: 1}, 2, "pick-two"),
    )
    assignment, value = solve(p)
    assert sum(assignment) == 2 and value == 2


def test_infeasible():
    p = BinaryProgram(
        1,
        constraints=equality({0: 1}, 1) + equality({0: 1}, 0),
    )
    with pytest.raises(InfeasibleError):
        solve(p)


def test_budget_error_carries_incumbent():
    rng = random.Random(0)
    n = 14
    rows = [
        constraint({v: rng.choice([-2, -1, 1, 2]) for v in range(n)}, 2)
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


def _assert_levels_match_enumeration(p):
    """A program with a cap row returns the optimum at the first cap bound,
    counting up from the row's own, that admits a feasible assignment."""
    cap = p.cap
    top = sum(max(0, c) for _, c in cap.coeffs)   # no lhs exceeds this
    for bound in range(cap.bound, max(cap.bound, top) + 1):
        level = replace(p, cap=None,
                        constraints=p.constraints + [replace(cap, bound=bound)])
        expected = brute_force(level)
        if expected is not None:
            got_assignment, got_value = solve(p)
            assert got_value == expected[1]
            ok, why = check_feasible(level, list(got_assignment))
            assert ok, why
            return
    with pytest.raises(InfeasibleError):
        solve(p)


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
            n, objective=objective, constraints=rows, fixings=fixings))
        # plus one long row over every free variable, shaped like the
        # reversal cap (at least m ones), at every m from infeasible to
        # slack: as a plain row, and as a cap row whose levels start at m
        free = [v for v in range(n) if v not in fixings]
        for m in range(len(free) + 1, -1, -1):
            cap = constraint({v: -1 for v in free}, -m, f"cap[{m}]")
            _assert_matches_enumeration(BinaryProgram(
                n, objective=objective, constraints=rows + [cap], fixings=fixings))
            _assert_levels_match_enumeration(BinaryProgram(
                n, objective=objective, constraints=rows, fixings=fixings, cap=cap))


def test_solution_passes_check_feasible():
    p = BinaryProgram(
        4,
        objective={0: 1, 1: 2, 2: 3, 3: 4},
        constraints=[constraint({0: -1, 1: -1, 2: -1, 3: -1}, -2, "two")],
    )
    assignment, _ = solve(p)
    ok, why = check_feasible(p, list(assignment))
    assert ok, why


def test_check_feasible_names_violated_row():
    p = BinaryProgram(2, constraints=[constraint({0: 1, 1: 1}, 1, "const_trans_clos[0,1,0]")])
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
            return [constraint({0: 1, 1: 1}, 1, "lazy-cut")]
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
            return [constraint({0: 1, 1: 1, 2: 1}, 2, "not-all-three")]
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
            return constraint(coeffs, rng.randrange(-1, 3))

        eager = [random_row() for _ in range(rng.randrange(0, 3))]
        hidden = [random_row() for _ in range(rng.randrange(1, 4))]
        fixings = {v: rng.randrange(2) for v in range(n) if rng.random() < 0.2}
        preferred = {v: rng.randrange(2) for v in range(n)}

        def lazy(assignment, hidden=hidden):
            return [row for row in hidden if not row_holds(row, assignment)]

        program = BinaryProgram(
            n, objective=objective, constraints=eager, fixings=fixings,
            preferred=preferred, lazy_rows=lazy)
        _assert_matches_enumeration(program)
        # the same program under a cap that starts at all free variables
        # set, so cuts found at the infeasible levels stay for the next
        free = [v for v in range(n) if v not in fixings]
        _assert_levels_match_enumeration(replace(program, cap=constraint(
            {v: -1 for v in free}, -len(free), "cap")))


def _random_programs(seed, count):
    """Random programs with and without lazy rows, each also under a cap
    that starts at every free variable set."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, 8)

        def random_row():
            coeffs = {v: rng.randrange(-2, 3) for v in range(n) if rng.random() < 0.7}
            return constraint(coeffs, rng.randrange(-1, 3))

        hidden = [random_row() for _ in range(rng.randrange(0, 4))]
        fixings = {v: rng.randrange(2) for v in range(n) if rng.random() < 0.2}
        free = [v for v in range(n) if v not in fixings]
        program = BinaryProgram(
            n, objective={v: rng.randrange(-4, 5) for v in range(n)},
            constraints=[random_row() for _ in range(rng.randrange(0, 4))],
            fixings=fixings, preferred={v: rng.randrange(2) for v in range(n)},
            lazy_rows=(lambda a, hidden=hidden: [r for r in hidden if not row_holds(r, a)])
            if hidden else None)
        yield program
        yield replace(program, cap=constraint({v: -1 for v in free}, -len(free), "cap"))


def _order_programs(monkeypatch):
    """Every order program ``adjust_order`` solves on the differential fixtures."""
    programs = []
    real = approx.solve

    def record(program, budget):
        programs.append(program)
        return real(program, budget)

    with monkeypatch.context() as patched:
        patched.setattr(approx, "solve", record)
        for net, log in _differential_fixtures():
            scaled = scale_cases(net, log.cases())
            comp = compose(align_cases(net, log, node_budget=20_000), log)
            adjust_order(scaled, comp, composed_tokens(scaled, comp))
    return programs


def _full_scan(engine):
    return not any(engine.row_conflict(i) for i in range(len(engine.rows)))


def _solved(program):
    """``solve``'s assignment and value, or its error, and the nodes used."""
    budget = NodeBudget(2_000_000)
    try:
        return solve(program, budget), budget.used
    except InfeasibleError:
        return "infeasible", budget.used


def test_leaf_scan_of_added_rows_matches_a_full_scan(monkeypatch):
    """At every leaf, whether the rows added after construction hold is
    whether every row holds, on random programs with and without lazy
    rows and caps and on the order programs of the differential fixtures;
    and ``solve`` returns what it returns with a full scan, nodes used
    included."""
    programs = list(_random_programs(13, 150)) + _order_programs(monkeypatch)
    scanned = _Engine.added_rows_hold
    leaves = []

    def checked(engine):
        held = scanned(engine)
        assert held == _full_scan(engine)
        leaves.append(held)
        return held

    for program in programs:
        monkeypatch.setattr(_Engine, "added_rows_hold", checked)
        got = _solved(program)
        monkeypatch.setattr(_Engine, "added_rows_hold", _full_scan)
        assert got == _solved(program)
    # a cut stays broken at later leaves, which only the scan rejects
    assert len(programs) >= 350 and len(leaves) >= 500 and leaves.count(False) >= 100


def test_determinism():
    rng = random.Random(5)
    n = 10
    rows = [
        constraint({v: rng.randrange(-2, 3) for v in range(n)}, 1)
        for _ in range(5)
    ]
    p1 = BinaryProgram(n, objective={v: (v % 3) - 1 for v in range(n)}, constraints=rows)
    p2 = BinaryProgram(n, objective={v: (v % 3) - 1 for v in range(n)}, constraints=list(rows))
    assert solve(p1) == solve(p2)


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
