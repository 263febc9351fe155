"""Branch-and-bound 0/1 solver: optimality vs enumeration, determinism."""

import random
from dataclasses import replace
from functools import lru_cache
from itertools import product as iproduct

import pytest

import nualign.approx as approx
from nualign.approx import adjust_order, align_cases, compose
from nualign.ilp import (
    BinaryProgram,
    Constraint,
    IlpBudgetError,
    InfeasibleError,
    _Engine,
    constraint,
    solve,
)
from nualign.rcnu import scale_cases
from support.oracles import check_feasible
from support.runs import composed_tokens
from test_approx import _differential_fixtures


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


def brute_force(program):
    """Oracle: enumerate all 2^n assignments, or every strict partial order
    of an order program."""
    best = None
    candidates = (strict_partial_orders(program.order) if program.order
                  else iproduct((0, 1), repeat=program.n_vars))
    for bits in candidates:
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


def _random_order_programs(seed, count):
    """Random order programs of at most 4 elements: random fixings (the
    diagonal among them or not), rows, objective and preferred values, and
    every other one under a cap over its free variables."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randrange(1, 5)
        m = n * n

        def random_row():
            coeffs = {v: rng.randrange(-2, 3) for v in range(m) if rng.random() < 0.4}
            return constraint(coeffs, rng.randrange(-1, 3))

        fixings = {v: rng.randrange(2) for v in range(m) if rng.random() < 0.2}
        if rng.random() < 0.5:
            fixings.update((a * n + a, 0) for a in range(n))
        free = [v for v in range(m) if v not in fixings]
        yield BinaryProgram(
            m, objective={v: rng.randrange(-4, 5) for v in range(m)},
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
        if program.cap is None:
            _assert_matches_enumeration(program)
        else:
            _assert_levels_match_enumeration(program)
        infeasible += brute_force(replace(program, cap=None)) is None
    assert 30 <= infeasible <= 270, infeasible


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


def _pair_bits(n, ones):
    """Per element a, the mask of its pairs (a, b) among ``ones``, and per
    element b the mask of its pairs (a, b)."""
    after, before = [0] * n, [0] * n
    for v in ones:
        a, b = divmod(v, n)
        after[a] |= 1 << b
        before[b] |= 1 << a
    return after, before


def test_order_bits_follow_the_trail_back_to_the_fixings(monkeypatch):
    """The engine's ``after`` and ``before`` rows hold exactly the pairs
    set to 1 through root propagation and random branching on the order
    programs of the differential fixtures and random ones, and
    ``undo_to(0)`` restores the fixings' bits."""
    rng = random.Random(7)
    programs = _order_programs(monkeypatch) + list(_random_order_programs(29, 100))
    undone = 0
    for program in programs:
        engine = _Engine(program)
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
        assert (engine.after, engine.before) == fixed
        assert all(engine.assignment[v] == program.fixings.get(v) for v in range(n * n))
    assert len(programs) >= 150 and undone >= 100, (len(programs), undone)


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
