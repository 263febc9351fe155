"""Moves, alignments, the synchronous product and optimal-alignment search.

An alignment is a poset of moves reconciling an event log with a process
execution.  Three move kinds exist: a log move carries an event the model
could not mimic, a model move carries a firing the log did not record, and
a synchronous move carries both, with matching label and identifiers.

The synchronous product unions the process net (places prefixed ``m::``)
with the log net (``l::``) and adds one transition per compatible
(model transition, event) pair.  Compatibility requires equal labels plus
an assignment of the event's observed resource instances to the model
transition's resource variables, role by role and with matching
multiplicities; the assignment and the event's case id become forced
bindings on the product transition, so a synchronous firing replays
exactly what was observed.

Optimal alignments come from uniform-cost search over product markings
(Dijkstra; the classical marking-equation heuristic is unsound under
variable bindings, so no heuristic is applied).  Costs are integers:
synchronous moves are free, silent model moves cost ``tau``, visible
log/model moves cost ``visible``.  States are the markings themselves,
which hash and compare by content.  Equal-cost frontier entries pop in
push order; transitions expand in net order and modes come sorted, so
the search is fully deterministic and independent of string hashing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count

from .eventlog import Event, EventLog
from .lognet import LogNet
from .poset import Multiset, Poset
from .rcnu import (
    EPS,
    ColoredMarking,
    ColoredNet,
    Nu,
    RcNuNet,
    Var,
    enabled_modes,
    fire_mode,
    firing_effect,
)


@dataclass(frozen=True)
class CostTable:
    sync: int = 0
    tau: int = 1
    visible: int = 10_000


DEFAULT_COSTS = CostTable()

DEFAULT_NODE_BUDGET = 2_000_000


class SoundnessError(RuntimeError):
    """A condition the result's soundness rests on does not hold, such as an
    integer weight that no longer separates the terms it scales."""


class SearchBudgetError(RuntimeError):
    def __init__(self, visited, frontier, best_cost):
        super().__init__(
            f"search exhausted after {visited} settled markings "
            f"(frontier {frontier}, cheapest open cost {best_cost})"
        )
        self.visited = visited
        self.frontier = frontier
        self.best_cost = best_cost


@dataclass(frozen=True)
class Move:
    kind: str                     # "log" | "model" | "sync"
    event: Event | None = None
    transition: str | None = None
    mode: tuple = ()              # sorted (variable, identifier) pairs
    label: str | None = None

    def binding(self) -> dict:
        return dict(self.mode)

    def __repr__(self):
        if self.kind == "log":
            return f"log({self.event.activity}@{self.event.index})"
        mode = ",".join(f"{k}={v}" for k, v in self.mode)
        if self.kind == "model":
            return f"model({self.transition}[{mode}])"
        return f"sync({self.event.activity}@{self.event.index}={self.transition}[{mode}])"


def move_cost(move: Move, costs: CostTable = DEFAULT_COSTS) -> int:
    if move.kind == "sync":
        return costs.sync
    if move.kind == "log":
        return costs.visible
    return costs.tau if move.label is None else costs.visible


class Alignment:
    """Poset of moves; ``order`` relates move indices."""

    def __init__(self, moves, order: Poset):
        self.moves = tuple(moves)
        self.order = order

    @classmethod
    def chain(cls, moves):
        moves = tuple(moves)
        idx = range(len(moves))
        return cls(moves, Poset(idx, list(zip(idx, idx[1:]))).transitive_closure())

    def cost(self, costs: CostTable = DEFAULT_COSTS) -> int:
        return sum(move_cost(m, costs) for m in self.moves)

    def transition_indices(self):
        return [i for i, m in enumerate(self.moves) if m.kind != "log"]

    def event_indices(self):
        return [i for i, m in enumerate(self.moves) if m.kind != "model"]

    def __len__(self):
        return len(self.moves)

    def __repr__(self):
        return f"Alignment({len(self.moves)} moves, cost {self.cost()})"


# ---------------------------------------------------------------------------
# Synchronous product
# ---------------------------------------------------------------------------

def _prefix_marking(marking: ColoredMarking, prefix: str) -> ColoredMarking:
    return ColoredMarking(
        {f"{prefix}{p}": marking.get(p) for p in marking.places()}
    )


class SyncProduct(ColoredNet):
    def __init__(self, model: RcNuNet, log_net: LogNet, places, transitions,
                 labels, flow, initial, final, meta, warnings, spare_count=None):
        super().__init__(places, transitions, labels, flow, initial, final)
        self.model = model
        self.log_net = log_net
        self.move_kind = {t: meta[t][0] for t in meta}
        self.model_transition = {t: meta[t][1] for t in meta}
        self.event = {t: meta[t][2] for t in meta}
        self.forced = {t: meta[t][3] for t in meta}
        self.warnings = list(warnings)
        log_events = sorted(log_net.event_of.values(), key=lambda e: e.index)
        self.log_case_ids = sorted({e.case for e in log_events})
        if spare_count is None:
            spare_count = len(log_events) or 1
        self.spare_ids = [f"_nu{i + 1}" for i in range(spare_count)]

    def fresh_candidates(self, marking: ColoredMarking):
        """Fresh-name pool: the log's case ids plus one canonical spare.

        Spare ids are interchangeable, so offering only the first unused
        one is a symmetry reduction that keeps the search deterministic.
        """
        ids = marking.identifiers()
        pool = [c for c in self.log_case_ids if c not in ids]
        for spare in self.spare_ids:
            if spare not in ids:
                pool.append(spare)
                break
        return pool


def _case_binding(model: RcNuNet, t) -> tuple[str, bool] | None:
    """The variable receiving the case id on a sync firing, if unambiguous."""
    case_vars, _, fresh = model.transition_vars(t)
    fresh_case = set()
    for p in model.output_places(t):
        for cterm, _ in model.arc(t, p).support():
            if isinstance(cterm, Nu):
                fresh_case.add(cterm.name)
    if len(case_vars) == 1:
        return next(iter(case_vars)), False
    if not case_vars and len(fresh_case) == 1:
        return next(iter(fresh_case)), True
    return None


def _role_var_multiplicities(model: RcNuNet, t):
    """Per role: {resource var: consumed multiplicity} and constant demands."""
    out = {}
    consts = {}
    for role in model.roles:
        var_mult = {}
        const_mult = Multiset()
        for p in (role.available_place, role.busy_place):
            for (cterm, rterm), n in model.arc(p, t).items():
                if isinstance(rterm, Var):
                    var_mult[rterm.name] = var_mult.get(rterm.name, 0) + n
                elif isinstance(rterm, str):
                    const_mult = const_mult + Multiset({rterm: n})
        if var_mult:
            out[role.name] = var_mult
        if const_mult:
            consts[role.name] = const_mult
    return out, consts


def _resource_assignments(model: RcNuNet, t, event: Event):
    """All forced-binding dicts matching the event's observed resources.

    Returns [] when the observation cannot be explained by the transition
    (role or multiplicity mismatch).
    """
    var_mult, consts = _role_var_multiplicities(model, t)
    observed = {}
    for inst in event.resources.support():
        role = model.role_of_instance(inst)
        if role is None:
            return []
        observed.setdefault(role, {})[inst] = event.resources.count(inst)

    roles = sorted(set(var_mult) | set(consts) | set(observed))
    assignments = [{}]
    for role in roles:
        need = dict(observed.get(role, {}))
        for inst, n in consts.get(role, Multiset()).items():
            if need.get(inst, 0) != n:
                return []
            need.pop(inst)
        vars_here = sorted(var_mult.get(role, {}).items())
        insts_here = sorted(need.items())
        if len(vars_here) != len(insts_here):
            return []
        role_options = []

        def assign(i, acc, remaining):
            if i == len(vars_here):
                if not remaining:
                    role_options.append(dict(acc))
                return
            var, mult = vars_here[i]
            for inst, n in list(remaining.items()):
                if n == mult:
                    rest = dict(remaining)
                    del rest[inst]
                    assign(i + 1, {**acc, var: inst}, rest)

        assign(0, {}, dict(insts_here))
        if not role_options:
            return []
        assignments = [
            {**base, **opt} for base in assignments for opt in role_options
        ]
    return assignments


def _sync_partners(model: RcNuNet, event: Event):
    """The model transitions an event can synchronize with, as (transition,
    case variable) pairs, and a warning for each reason it cannot."""
    candidates = [t for t in model.transitions if model.labels[t] == event.activity]
    if not candidates:
        return [], [
            f"activity {event.activity!r} (event {event.index}) has no "
            f"model transition; it can only be a log move"
        ]
    partners = []
    warnings = []
    for t in candidates:
        case = _case_binding(model, t)
        if case is None:
            warnings.append(
                f"transition {t} has no unambiguous case variable; "
                f"not synchronizable"
            )
        else:
            partners.append((t, case[0]))
    return partners, warnings


def sync_warnings(model: RcNuNet, log: EventLog) -> list:
    """The warnings of the log's synchronous product, in the same order."""
    return [w for e in log.events for w in _sync_partners(model, e)[1]]


def build_sync_product(model: RcNuNet, log_net: LogNet,
                       spare_count=None) -> SyncProduct:
    places = [f"m::{p}" for p in model.places] + [f"l::{p}" for p in log_net.places]
    transitions = []
    labels = {}
    flow = {}
    meta = {}
    warnings = []

    for t in model.transitions:
        tid = f"m::{t}"
        transitions.append(tid)
        labels[tid] = model.labels[t]
        meta[tid] = ("model", t, None, {})
        for p in model.input_places(t):
            flow[(f"m::{p}", tid)] = model.arc(p, t)
        for p in model.output_places(t):
            flow[(tid, f"m::{p}")] = model.arc(t, p)

    for lt in log_net.transitions:
        tid = f"l::{lt}"
        transitions.append(tid)
        labels[tid] = log_net.labels[lt]
        meta[tid] = ("log", None, log_net.event_of[lt], {})
        for p in log_net.input_places(lt):
            flow[(f"l::{p}", tid)] = log_net.arc(p, lt)
        for p in log_net.output_places(lt):
            flow[(tid, f"l::{p}")] = log_net.arc(lt, p)

    for lt in log_net.transitions:
        event = log_net.event_of[lt]
        partners, notes = _sync_partners(model, event)
        warnings.extend(notes)
        for t, case_var in partners:
            for k, res_assignment in enumerate(_resource_assignments(model, t, event)):
                tid = f"s::{t}::e{event.index}" + (f"::{k}" if k else "")
                transitions.append(tid)
                labels[tid] = event.activity
                forced = {case_var: event.case, **res_assignment}
                meta[tid] = ("sync", t, event, forced)
                for p in model.input_places(t):
                    flow[(f"m::{p}", tid)] = model.arc(p, t)
                for p in model.output_places(t):
                    flow[(tid, f"m::{p}")] = model.arc(t, p)
                for p in log_net.input_places(lt):
                    flow[(f"l::{p}", tid)] = log_net.arc(p, lt)
                for p in log_net.output_places(lt):
                    flow[(tid, f"l::{p}")] = log_net.arc(lt, p)

    initial = _prefix_marking(model.initial, "m::") | _prefix_marking(log_net.initial, "l::")
    final = _prefix_marking(model.final, "m::") | _prefix_marking(log_net.final, "l::")
    return SyncProduct(model, log_net, places, transitions, labels, flow,
                       initial, final, meta, warnings, spare_count)


def _decode_move(prod: SyncProduct, t, mode) -> Move:
    kind = prod.move_kind[t]
    if kind == "log":
        event = prod.event[t]
        return Move("log", event=event, label=event.activity)
    model_t = prod.model_transition[t]
    items = tuple(sorted(mode.items()))
    if kind == "model":
        return Move("model", transition=model_t, mode=items,
                    label=prod.model.labels[model_t])
    event = prod.event[t]
    return Move("sync", event=event, transition=model_t, mode=items,
                label=event.activity)


def product_move_cost(prod: SyncProduct, t, costs: CostTable) -> int:
    kind = prod.move_kind[t]
    if kind == "sync":
        return costs.sync
    if kind == "log":
        return costs.visible
    return costs.tau if prod.labels[t] is None else costs.visible


def optimal_alignment(prod: SyncProduct, costs: CostTable = DEFAULT_COSTS,
                      node_budget: int = DEFAULT_NODE_BUDGET,
                      start: ColoredMarking | None = None,
                      goal: ColoredMarking | None = None) -> Alignment:
    """Minimum-cost run of the product from start to goal, as a chain poset.

    Markings are their own table keys.  Deterministic: equal-cost frontier
    entries pop in push order.  Raises SearchBudgetError with frontier
    statistics when the node budget is exhausted before the goal settles.
    """
    start = prod.initial if start is None else start
    goal = prod.final if goal is None else goal

    best = {start: 0}
    parent = {start: None}
    pushes = count(1)
    heap = [(0, 0, start)]
    settled = set()

    while heap:
        cost, _, m = heapq.heappop(heap)
        if m in settled or cost > best[m]:
            continue
        settled.add(m)
        if m == goal:
            moves = []
            cursor = m
            while parent[cursor] is not None:
                prev, t, mode = parent[cursor]
                moves.append(_decode_move(prod, t, mode))
                cursor = prev
            moves.reverse()
            alignment = Alignment.chain(moves)
            tau_moves = sum(
                1 for m in moves if m.kind == "model" and m.label is None
            )
            if tau_moves >= costs.visible:
                raise SoundnessError(
                    f"{tau_moves} tau moves reached the visible-move cost "
                    f"{costs.visible}; integer cost scaling no longer mirrors "
                    f"the infinitesimal scheme"
                )
            return alignment
        if len(settled) > node_budget:
            raise SearchBudgetError(len(settled), len(heap), cost)
        fresh = prod.fresh_candidates(m)
        for t in prod.transitions:
            forced = prod.forced.get(t, {})
            for mode in enabled_modes(prod, m, t, fresh_pool=fresh, forced=forced):
                m2 = fire_mode(prod, m, t, mode)
                cost2 = cost + product_move_cost(prod, t, costs)
                if cost2 < best.get(m2, float("inf")):
                    best[m2] = cost2
                    parent[m2] = (m, t, mode)
                    heapq.heappush(heap, (cost2, next(pushes), m2))
    raise SearchBudgetError(len(settled), 0, None)


def align_log(model: RcNuNet, log: EventLog,
              costs: CostTable = DEFAULT_COSTS,
              node_budget: int = DEFAULT_NODE_BUDGET) -> Alignment:
    """Exact complete-log alignment: scale the model to the log's cases,
    build the product and search."""
    from .lognet import build_log_net
    from .rcnu import scale_cases

    scaled = scale_cases(model, log.cases())
    prod = build_sync_product(scaled, build_log_net(log))
    return optimal_alignment(prod, costs, node_budget)


# ---------------------------------------------------------------------------
# Pseudo-markings
# ---------------------------------------------------------------------------

class PseudoMarking:
    """Signed token counts per place; negative counts are meaningful."""

    __slots__ = ("_counts",)

    def __init__(self, counts=None):
        self._counts = {k: v for k, v in (counts or {}).items() if v}

    @classmethod
    def from_marking(cls, marking: ColoredMarking):
        counts = {}
        for p in marking.places():
            for tok, n in marking.get(p).items():
                counts[(p, tok)] = n
        return cls(counts)

    def value(self, place, token) -> int:
        return self._counts.get((place, token), 0)

    def items(self):
        return self._counts.items()

    def is_nonnegative(self):
        return all(v >= 0 for v in self._counts.values())

    def negatives(self):
        return sorted(
            ((p, tok, v) for (p, tok), v in self._counts.items() if v < 0),
            key=lambda x: (str(x[0]), str(x[1])),
        )

    def __eq__(self, other):
        return isinstance(other, PseudoMarking) and self._counts == other._counts

    def __hash__(self):
        return hash(frozenset(self._counts.items()))

    def __repr__(self):
        return f"PseudoMarking({self._counts!r})"


def move_effects(net: RcNuNet, move: Move):
    """Signed (place, token, delta) effects of a non-log move's firing:
    what it takes, negated, then what it gives back."""
    if move.kind == "log":
        return []
    taken, given = firing_effect(net, move.transition, move.binding())
    return [(p, tok, -n) for p, tok, n in taken] + given


def pseudo_fire(net: RcNuNet, moves) -> PseudoMarking:
    """Initial marking plus the summed effects of the given moves."""
    counts = dict(PseudoMarking.from_marking(net.initial).items())
    for move in moves:
        for p, tok, delta in move_effects(net, move):
            counts[(p, tok)] = counts.get((p, tok), 0) + delta
    return PseudoMarking(counts)


def antichain_marking(net: RcNuNet, alignment: Alignment, g, side="pre") -> PseudoMarking:
    """Pseudo-marking at an antichain: before its moves fire (pre) or after (post)."""
    if side not in ("pre", "post"):
        raise ValueError(f"side must be pre or post, not {side!r}")
    g = frozenset(g)
    if not alignment.order.is_antichain(g):
        raise ValueError("not an antichain of the alignment")
    prefix = alignment.order.prefix(g, closed=(side == "post"))
    moves = [alignment.moves[i] for i in sorted(prefix.elements)]
    return pseudo_fire(net, moves)


# ---------------------------------------------------------------------------
# Alignment validity
# ---------------------------------------------------------------------------

EXHAUSTIVE_VALIDITY_LIMIT = 8


def replay(net: RcNuNet, moves) -> ColoredMarking:
    """Fire the non-log moves in sequence from the net's initial marking."""
    m = net.initial
    for move in moves:
        if move.kind == "log":
            continue
        m = fire_mode(net, m, move.transition, move.binding())
    return m


def is_valid_alignment(net: RcNuNet, log: EventLog, alignment: Alignment,
                       exhaustive_limit=EXHAUSTIVE_VALIDITY_LIMIT):
    """Check the two alignment properties; returns (ok, first witness).

    Property 1: the log/sync moves carry exactly the log's events and the
    alignment order contains the log order.  Property 2: every
    linearization of the transition moves fires initial -> final --
    checked exhaustively up to ``exhaustive_limit`` transition moves, and
    otherwise by the availability criterion on every (place, token)
    subposet of moves touching that token, which is what reachability
    reduces to for antichain prefixes.
    """
    moves = alignment.moves
    # property 1: event coverage
    carrying = {}
    for i, mv in enumerate(moves):
        if mv.kind != "model":
            if mv.event in carrying:
                return False, f"event {mv.event!r} carried by two moves"
            carrying[mv.event] = i
    log_events = set(log.events)
    missing = log_events - set(carrying)
    extra = set(carrying) - log_events
    if missing:
        return False, f"log event {next(iter(missing))!r} not in alignment"
    if extra:
        return False, f"alignment carries foreign event {next(iter(extra))!r}"
    for e1, e2 in log.order.closed_pairs():
        if not alignment.order.precedes(carrying[e1], carrying[e2]):
            return False, f"log order {e1!r} < {e2!r} not preserved"

    # property 2: transition projection fires initial -> final
    t_indices = alignment.transition_indices()
    sub = alignment.order.restrict(t_indices)
    if len(t_indices) <= exhaustive_limit:
        for lin in sub.linearizations():
            try:
                final = replay(net, [moves[i] for i in lin])
            except Exception as exc:
                return False, f"linearization {list(lin)} not firable: {exc}"
            if final != net.final:
                return False, (
                    f"linearization {list(lin)} ends at {final!r}, "
                    f"not the final marking"
                )
        return True, None
    return _check_by_availability(net, alignment, sub)


def _check_by_availability(net: RcNuNet, alignment: Alignment, sub: Poset):
    moves = alignment.moves
    effects = {i: move_effects(net, moves[i]) for i in sub.elements}
    final = pseudo_fire(net, [moves[i] for i in sub.elements])
    if final != PseudoMarking.from_marking(net.final):
        return False, "summed effects do not reach the final marking"

    touched = {}
    for i in sub.elements:
        for p, tok, delta in effects[i]:
            touched.setdefault((p, tok), set()).add(i)
    for (p, tok), movers in sorted(touched.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        subposet = sub.restrict(sorted(movers))
        initial_avail = net.initial.get(p).count(tok)
        for g in subposet.maximal_antichains(limit=None):
            avail = initial_avail
            for j in subposet.prefix(g, closed=False).elements:
                for pp, tt, delta in effects[j]:
                    if (pp, tt) == (p, tok):
                        avail += delta
            demand = 0
            for j in g:
                for pp, tt, delta in effects[j]:
                    if (pp, tt) == (p, tok) and delta < 0:
                        demand += -delta
            if avail < demand:
                witness = sorted(g)
                return False, (
                    f"moves {witness} jointly need {demand} of token {tok!r} "
                    f"on {p} but only {avail} can be available"
                )
    return True, None
