"""Moves, alignments, the synchronous product and optimal-alignment search.

An alignment is a poset of moves reconciling an event log with a process
execution.  Three move kinds exist: a log move carries an event the model
could not mimic, a model move carries a firing the log did not record, and
a synchronous move carries both, with matching label and identifiers.  It
is valid when every linearization of its transition moves fires from the
initial to the final marking, checked exactly at every size.

The synchronous product unions the process net (places prefixed ``m::``)
with the log net (``l::``) and adds one transition per compatible
(model transition, event) pair (``_sync_moves``): equal labels plus an
assignment of the event's observed resource instances to the model
transition's resource variables, role by role and with matching
multiplicities, which with the event's case id is the mode of the
transition's move record.  A single case's product is never built: its
``CaseSpace`` pairs its trace positions with the reachability graph of
the model scaled to it (``_ModelGraph``, one per case-id signature), as
automata-based conformance checking does (Reissner et al., OTM 2017).

Optimal alignments come from one best-first frontier loop (``_search``)
over a product's interned token-count states (``_StateSpace``) or a case
space's.  Costs are integers: synchronous moves are free, silent model
moves cost ``tau``, visible log/model moves cost ``visible``.
Transitions expand in net order and modes come sorted, so every search
is fully deterministic and independent of string hashing.

Per-case searches (``align_case``), realignments and other searches run
with h = 0, which is Dijkstra.  Whole-log searches (``align_log``, the
CLI's exact mode) are A* on ``CaseHeuristic``: the sum of each case's
optimal cost-to-go on its case space, tabulated per variant.  The classical
marking-equation heuristic is unsound under variable bindings (compare
van Dongen, BPM 2018); projecting onto single cases avoids bindings
across cases, where every firing works on one case (else h is 0, and
``CaseHeuristic.reason`` says why).  Synchronous moves are free, so A*
meets plateaus of equal g + h and equal g that span every interleaving
of the cases' free moves; popping the longer path first dives along one
of them to the goal instead of expanding the plateau breadth-first (Asai
and Fukunaga, AAAI 2016).  A* expands partially (Felner et al., AAAI
2012; Goldenberg et al., JAIR 2014), from the case tables' edges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from itertools import permutations

from .eventlog import Event, EventLog
from .lognet import LogNet, build_log_net, transition_id
from .poset import Multiset, Poset, masks_by_value, set_bits
from .rcnu import (
    ColoredMarking,
    ColoredNet,
    FiringError,
    RcNuNet,
    Var,
    case_names,
    enabled_modes,
    fire_mode,
    firing_effect,
    scale_cases,
    token_key,
    validate_structure,
)


@dataclass(frozen=True)
class CostTable:
    """Move costs: nonnegative, as the searches' edge costs must be, and a
    visible move costs at least 1, so tau moves stay below it."""

    sync: int = 0
    tau: int = 1
    visible: int = 10_000

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"negative cost entry '{name}={value}'")
        if self.visible < 1:
            raise ValueError(f"the visible-move cost must be at least 1, got {self.visible}")


DEFAULT_COSTS = CostTable()

DEFAULT_NODE_BUDGET = 2_000_000

INF = float("inf")


class SoundnessError(RuntimeError):
    """A condition the result's soundness rests on does not hold, such as an
    integer weight that no longer separates the terms it scales."""


class SearchBudgetError(RuntimeError):
    """The search stopped without settling the goal: the node budget ran
    out, or (``best_cost`` None) every marking reachable from the start
    settled and the goal was not among them."""

    def __init__(self, visited, frontier, best_cost):
        super().__init__(
            f"goal unreachable from the start: all {visited} reachable "
            f"markings settled without reaching it"
            if best_cost is None else
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
    """Poset of moves; ``order`` relates move indices.  A search's result
    also records its effort: ``settled`` states (as ``SearchBudgetError``
    counts them) and ``pushed`` frontier entries, the start's and A*'s
    re-entries included."""

    settled: int | None = None
    pushed: int | None = None

    def __init__(self, moves, order: Poset):
        self.moves = tuple(moves)
        self.order = order

    @classmethod
    def chain(cls, moves):
        moves = tuple(moves)
        idx = range(len(moves))
        return cls(moves, Poset(idx, list(zip(idx, idx[1:]))))

    def cost(self, costs: CostTable = DEFAULT_COSTS) -> int:
        return sum(move_cost(m, costs) for m in self.moves)

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
    """The product net; ``moves`` maps each transition, in order, to the move
    a firing of it makes, its mode holding the sorted bindings the transition
    pins (a synchronous transition's case id and instances, else none), and
    ``owned`` holds the places of case tokens: production and busy."""

    def __init__(self, model: RcNuNet, log_net: LogNet, places, flow,
                 initial, final, moves):
        super().__init__(places, moves, {t: m.label for t, m in moves.items()},
                         flow, initial, final)
        self.model = model
        self.log_net = log_net
        self.moves = moves
        self.owned = {f"m::{p}" for p in model.places if model.place_kind(p) != "resource"}
        log_events = sorted(log_net.event_of.values(), key=lambda e: e.index)
        self.log_case_ids = sorted({e.case for e in log_events})
        self.spare_ids = [f"_nu{i + 1}" for i in range(len(log_events) or 1)]

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

    def transition_vars(self, t):
        """The variables of ``t``'s model transition; a log move has none."""
        made = self.moves[t].transition
        return (set(), set(), set()) if made is None else self.model.transition_vars(made)


def _case_binding(model: RcNuNet, t) -> tuple[str, bool] | None:
    """The variable receiving the case id on a sync firing, if unambiguous."""
    case_vars, fresh_case = case_names(model, t)
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
    """All resource-variable bindings matching the event's observed resources.

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
        role_options = [
            {var: inst for (var, _), (inst, _) in zip(vars_here, insts)}
            for insts in permutations(insts_here)
            if all(mult == n for (_, mult), (_, n) in zip(vars_here, insts))
        ]
        if not role_options:
            return []
        assignments = [{**base, **opt} for base in assignments for opt in role_options]
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
    """The log's synchronization warnings, event by event: an activity no
    model transition carries, or a matching transition with no unambiguous
    case variable.  Reports of both modes carry this list."""
    return [w for e in log.events for w in _sync_partners(model, e)[1]]


def _sync_moves(model: RcNuNet, event: Event):
    """``(name, move)`` of each synchronous transition of ``event``, in
    product order: per partner transition ``t`` and resource assignment
    ``k``, ``s::<t>::e<i>[::k]`` pinning the case id and the instances."""
    for t, case_var in _sync_partners(model, event)[0]:
        for k, res_assignment in enumerate(_resource_assignments(model, t, event)):
            mode = tuple(sorted({case_var: event.case, **res_assignment}.items()))
            yield (f"s::{t}::e{event.index}" + (f"::{k}" if k else ""),
                   Move("sync", event=event, transition=t, mode=mode, label=event.activity))


def build_sync_product(model: RcNuNet, log_net: LogNet) -> SyncProduct:
    places = [f"m::{p}" for p in model.places] + [f"l::{p}" for p in log_net.places]
    flow, moves = {}, {}

    def add(tid, move, *parts):
        """Add ``tid`` making ``move``, with each (net, prefix, transition)'s arcs."""
        moves[tid] = move
        for net, prefix, t in parts:
            for p in net.input_places(t):
                flow[(prefix + p, tid)] = net.arc(p, t)
            for p in net.output_places(t):
                flow[(tid, prefix + p)] = net.arc(t, p)

    for t in model.transitions:
        add(f"m::{t}", Move("model", transition=t, label=model.labels[t]),
            (model, "m::", t))
    for lt in log_net.transitions:
        event = log_net.event_of[lt]
        add(f"l::{lt}", Move("log", event=event, label=event.activity),
            (log_net, "l::", lt))
    for lt in log_net.transitions:
        for name, move in _sync_moves(model, log_net.event_of[lt]):
            add(name, move, (model, "m::", move.transition), (log_net, "l::", lt))

    initial = _prefix_marking(model.initial, "m::") | _prefix_marking(log_net.initial, "l::")
    final = _prefix_marking(model.final, "m::") | _prefix_marking(log_net.final, "l::")
    return SyncProduct(model, log_net, places, flow, initial, final, moves)


def _packed(counts):
    """A state's one form of ``counts``: bytes while every count fits in a
    byte, else the tuple of counts."""
    return bytes(counts) if max(counts, default=0) < 256 else tuple(counts)


class _StateSpace:
    """The interned token-count states of one product and their firings.

    A state is the token counts indexed by interned (place, token) ids,
    trailing zeros stripped: one byte per pair (``_packed``), or the tuple
    of counts while some count passes 255.  Bytes cache their hash, and
    each marking has exactly one state.  Pairs are interned as markings are
    encoded (sorted by place and token) and as firings produce them.  A
    (transition, mode) is bound once by ``firing_effect`` into interned
    (taken, given) lists (``effect``) that every later firing of it applies.

    A transition whose move record's mode binds all its variables (every
    log and synchronous transition) is ground: its one firing, keyed by
    that mode, is enabled iff the state holds what its ``taken`` list names.
    Any other transition's enabled firings, forced to its mode, are memoised
    on the tokens of its input places, which is all ``enabled_modes`` reads
    of a marking unless the transition has fresh variables; those read the
    whole marking's identifiers and the fresh-name pool, so they are
    enumerated anew at every state.
    """

    def __init__(self, prod: SyncProduct):
        self.prod = prod
        self.moves = prod.moves
        self.pairs = []         # id -> (place, token)
        self.ids = {}           # (place, token) -> id
        self.place_of = []      # id -> its place
        self.effects = {}       # (transition, mode items) -> (taken, given, length)
        self.firings = {}       # (position, input-place tokens) -> enabled firing keys
        self.consumers = {}     # place -> positions of the transitions taking from it
        self.inputs = []        # per transition position, its input places
        self.unconditional = []  # positions of transitions with no input place
        self.ground = {}        # position of a ground transition -> its one firing key
        self.with_fresh = set()  # positions of other transitions with fresh variables
        for k, t in enumerate(prod.transitions):
            self.inputs.append(tuple(prod.input_places(t)))
            if not self.inputs[k]:
                self.unconditional.append(k)
            case_vars, res_vars, fresh = prod.transition_vars(t)
            move = prod.moves[t]
            if move.binding().keys() >= case_vars | res_vars | fresh:
                self.ground[k] = (t, move.mode)
            elif fresh:
                self.with_fresh.add(k)
            for p in prod.input_places(t):
                self.consumers.setdefault(p, []).append(k)
        self.start, self.goal = self.encode(prod.initial), self.encode(prod.final)

    def intern(self, pair) -> int:
        i = self.ids.get(pair)
        if i is None:
            i = self.ids[pair] = len(self.pairs)
            self.pairs.append(pair)
            self.place_of.append(pair[0])
        return i

    def encode(self, marking: ColoredMarking):
        counts = {
            self.intern((p, tok)): n
            for p in sorted(marking.places())
            for tok, n in sorted(marking.get(p).items(), key=lambda kv: token_key(kv[0]))
        }
        state = [0] * (max(counts, default=-1) + 1)
        for i, n in counts.items():
            state[i] = n
        return _packed(state)

    def decode(self, state) -> dict:
        tokens = {}
        for (p, tok), n in zip(self.pairs, state):
            if n:
                tokens.setdefault(p, {})[tok] = n
        return tokens

    def effect(self, key):
        """The firing ``key``'s interned (taken, given, length), bound once."""
        entry = self.effects.get(key)
        if entry is None:
            taken, given = firing_effect(self.prod, key[0], dict(key[1]))
            taken = [(self.intern((p, tok)), n) for p, tok, n in taken]
            given = [(self.intern((p, tok)), n) for p, tok, n in given]
            entry = self.effects[key] = (
                taken, given, 1 + max((i for i, _ in taken + given), default=-1))
        return entry

    def enables(self, state, key) -> bool:
        """Whether ``state`` holds what the firing ``key`` takes."""
        return all(i < len(state) and state[i] >= n for i, n in self.effect(key)[0])

    def fire(self, state, key):
        entry = self.effect(key)
        try:
            return bytes(self._moved(bytearray(state), entry))
        except ValueError:      # a tuple state, or a count past 255
            return _packed(self._moved(list(state), entry))

    def _moved(self, counts, entry):
        taken, given, length = entry
        if len(counts) < length:
            counts.extend(bytes(length - len(counts)))
        for i, n in taken:
            if counts[i] < n:
                p, tok = self.pairs[i]
                raise FiringError(f"place {p} holds {counts[i]} of token {tok}, needs {n}")
            counts[i] -= n
        for i, n in given:
            counts[i] += n
        while counts and not counts[-1]:
            counts.pop()
        return counts

    def successors(self, state):
        """``(transition, mode key, next state)`` of every firing enabled at
        ``state``: only transitions whose input places are all marked, in
        net order, each with its modes in sorted order; a memo miss, or a
        transition with fresh variables, decodes the state once."""
        prod = self.prod
        place_of = self.place_of
        groups = {}
        for i, n in enumerate(state):
            if n:
                groups.setdefault(place_of[i], []).append((i, n))
        hits = {}
        for p in groups:
            for k in self.consumers.get(p, ()):
                hits[k] = hits.get(k, 0) + 1
        candidates = sorted(self.unconditional
                            + [k for k, h in hits.items() if h == len(self.inputs[k])])
        marking = fresh = None
        for k in candidates:
            t = prod.transitions[k]
            key = self.ground.get(k)
            if key is not None:
                if self.enables(state, key):
                    yield t, key, self.fire(state, key)
                continue
            memo = None if k in self.with_fresh else (
                k, tuple(tuple(groups[p]) for p in self.inputs[k]))
            keys = None if memo is None else self.firings.get(memo)
            if keys is None:
                if marking is None:
                    marking = ColoredMarking(self.decode(state))
                    fresh = prod.fresh_candidates(marking)
                keys = [(t, tuple(sorted(mode.items())))
                        for mode in enabled_modes(prod, marking, t, fresh_pool=fresh,
                                                  forced=prod.moves[t].binding())]
                if memo is not None:
                    self.firings[memo] = keys
            for key in keys:
                yield t, key, self.fire(state, key)


def optimal_alignment(prod: SyncProduct, costs: CostTable = DEFAULT_COSTS,
                      node_budget: int = DEFAULT_NODE_BUDGET,
                      heuristic: CaseHeuristic | None = None) -> Alignment:
    """Minimum-cost run of the product from its initial to its final
    marking, as a chain poset: ``_search`` on the product's interned states,
    A* on a ``heuristic`` that prices every case, else Dijkstra.  A search
    between other markings runs on the product of the model
    ``with_markings`` them.  Raises ValueError for another product's
    heuristic."""
    if heuristic is not None and heuristic.space.prod is not prod:
        raise ValueError("a case heuristic prices its own product only")
    return _search(_StateSpace(prod) if heuristic is None else heuristic.space,
                   costs, node_budget, heuristic)


def _search(space: _StateSpace | CaseSpace, costs: CostTable, node_budget: int,
            heuristic: CaseHeuristic | None = None) -> Alignment:
    """The minimum-cost path from ``space.start`` to ``space.goal`` as a
    chain of moves: ``space.successors(state)`` gives each firing's
    ``(transition, key, next state)``, which makes ``space.moves[transition]``
    with the key's mode.

    The frontier pops by (g + h + offset, -g, -moves, push order), so the
    search is fully deterministic.  Without a heuristic that prices every
    case, h and offsets are 0: Dijkstra, where a settled state makes every
    enabled firing.  With one, it is A* by partial expansion: a pop makes
    the children whose g + h exceeds the state's by the entry's offset
    (``CaseHeuristic.expand``) and re-queues the state, with its own g and
    moves, at its next larger offset.  h is consistent, so a state settles
    at its final cost on its first pop, at offset 0.  moves counts only on
    A*, sending it down one interleaving of a plateau of free moves.

    The alignment records ``settled`` (first expansions, which
    ``node_budget`` counts) and ``pushed``.  Raises SearchBudgetError with
    frontier statistics (every open entry, re-queued states included, and
    the cheapest open g + h + offset) when the budget is exhausted before
    the goal settles, or when every reachable state settled first."""
    if node_budget < 0:
        raise ValueError(f"node_budget must be nonnegative, got {node_budget}")
    start, goal = space.start, space.goal
    step_cost = {t: move_cost(move, costs) for t, move in space.moves.items()}
    informed = heuristic is not None and heuristic.priced
    info = {start: heuristic.start()} if informed else {}
    best, parent, settled = {start: 0}, {start: None}, 0
    pushed = 1          # frontier entries made, and each entry's push order
    heap = [(info[start][0] if informed else 0, 0, 0, pushed, start, 0)]

    while heap:
        bound, paid, depth, _, state, offset = heapq.heappop(heap)
        cost = -paid
        if not offset:      # a state's first expansion; a re-entry's offset is above 0
            if cost > best[state]:
                continue    # stale: pushes only lower a cost, so a state pops at its final cost once
            settled += 1
            if state == goal:
                moves = []
                while parent[state] is not None:
                    state, (t, mode) = parent[state]
                    moves.append(replace(space.moves[t], mode=mode))
                moves.reverse()
                alignment = Alignment.chain(moves)
                alignment.settled, alignment.pushed = settled, pushed
                tau_moves = sum(1 for m in moves if m.kind == "model" and m.label is None)
                if tau_moves >= costs.visible:
                    raise SoundnessError(
                        f"{tau_moves} tau moves reached the visible-move cost "
                        f"{costs.visible}; integer cost scaling no longer mirrors "
                        f"the infinitesimal scheme"
                    )
                return alignment
            if settled > node_budget:
                raise SearchBudgetError(settled, len(heap), bound)
        if informed:
            children, later = heuristic.expand(state, offset, info)
        else:
            children, later = space.successors(state), None
        for t, key, state2 in children:
            cost2 = cost + step_cost[t]
            if cost2 < best.get(state2, INF):
                best[state2] = cost2
                parent[state2] = (state, key)
                pushed += 1
                heapq.heappush(heap, (cost2 + info[state2][0] if informed else cost2,
                                      -cost2, depth - informed, pushed, state2, 0))
        if later is not None:
            pushed += 1
            heapq.heappush(heap, (bound - offset + later, paid, depth, pushed, state, later))
    raise SearchBudgetError(settled, 0, None)


def align_log(model: RcNuNet, log: EventLog,
              costs: CostTable = DEFAULT_COSTS,
              node_budget: int = DEFAULT_NODE_BUDGET) -> Alignment:
    """Exact complete-log alignment: scale the model to the log's cases,
    build the product and search it by A* on the case heuristic."""
    scaled = scale_cases(model, log.cases())
    prod = build_sync_product(scaled, build_log_net(log))
    return optimal_alignment(prod, costs, node_budget,
                             heuristic=CaseHeuristic(prod, costs, node_budget))


# ---------------------------------------------------------------------------
# Case variants and the per-case heuristic
# ---------------------------------------------------------------------------


def case_variants(model: RcNuNet, log: EventLog) -> dict:
    """Per case, what its single-case search reads from the log and the
    case id, as a key: cases with equal keys have the same search up to
    renaming the k-th event to the k-th event and one case id to the other.

    The first part is the trace's (activity, resource instances) sequence.
    The second is how the case id compares with every other identifier the
    search can meet: the spare fresh names ``_nu1..``, and the declared and
    caseless-marked resource instances and the arcs' constants, collected
    once.  Tie-breaks sort modes, fresh-name pools and tokens by these
    comparisons, and equality decides enabledness, so equal signs make the
    two searches push in the same order."""
    constants = set(model.resource_instances().support())
    for marking in (model.initial, model.final):
        constants.update(r for _, (c, r) in token_counts(marking) if c is None and r)
    for arc in model.flow.values():
        constants.update(x for pair in arc.support() for x in pair if isinstance(x, str))
    variants = {}
    for case in log.cases():
        trace = log.trace(case)
        others = constants.union(f"_nu{i + 1}" for i in range(len(trace) or 1))
        variants[case] = (
            tuple((e.activity, tuple(sorted(e.resources.items()))) for e in trace),
            tuple((case > x) - (case < x) for x in sorted(others)))
    return variants


def _projection_breaks(prod: SyncProduct) -> str | None:
    """Why the per-case projection of ``prod`` is unsound, or None.

    The projection needs every firing to work on one case, and every token
    outside the availability places to carry that case: each transition
    has one case variable (``_case_binding``), and every production and
    busy arc inscribes exactly it.  No case is created by a fresh name:
    a log case's id is fresh in the whole-log marking once its log token
    moved to a place between cases, but never alone, where its own log
    places keep it.  Durable resources (``validate_structure``) make an
    instance's availability its capacity minus what the cases hold.  The
    markings must be the log's cases scaled from one pattern, so each case
    starts and ends as it does alone."""
    model = prod.model
    if validate_structure(model):
        return "the net fails structural validation"
    for t in model.transitions:
        binding = _case_binding(model, t)
        if binding is None:
            return f"transition {t} has no unambiguous case variable"
        if binding[1]:
            return f"transition {t} creates its case by a fresh name"
        arcs = ([model.arc(p, t) for p in model.input_places(t)
                 if model.place_kind(p) != "resource"]
                + [model.arc(t, p) for p in model.output_places(t)
                   if model.place_kind(p) != "resource"])
        for arc in arcs:
            for cterm, _ in arc.support():
                if not (isinstance(cterm, Var) and cterm.name == binding[0]):
                    return f"transition {t} inscribes case term {cterm!r} besides its case"
    try:
        scaled = scale_cases(model, prod.log_case_ids)
    except ValueError as exc:
        return str(exc)
    if (scaled.initial, scaled.final) != (model.initial, model.final):
        return "the markings are not the log's cases scaled from one pattern"
    return None


class _ModelGraph:
    """The markings of a model scaled to one case, numbered as first met;
    ``out(i)`` maps each firing ``("m::<t>", mode items)`` at marking i, in
    net order with sorted modes and enumerated once, to the marking it
    reaches.  Fresh names come from the first spare of ``_nu1.._nuK`` (K
    the trace length, at least 1) that is neither among the marking's
    identifiers nor the case id, which the product's one log token holds."""

    def __init__(self, net: RcNuNet, case, length):
        self.net, self.case, self.markings, self.index, self.edges = net, case, [], {}, {}
        self.spares = [f"_nu{i + 1}" for i in range(length or 1)]

    def node(self, marking: ColoredMarking) -> int:
        key = frozenset(token_counts(marking).items())
        if key not in self.index:
            self.index[key] = len(self.markings)
            self.markings.append(marking)
        return self.index[key]

    def firings(self, i, t, forced=None) -> list:
        marking, pool = self.markings[i], ()
        if self.net.transition_vars(t)[2]:
            ids = marking.identifiers() | {self.case}
            pool = [s for s in self.spares if s not in ids][:1]
        return [(tuple(sorted(mode.items())), self.node(fire_mode(self.net, marking, t, mode)))
                for mode in enabled_modes(self.net, marking, t, fresh_pool=pool, forced=forced)]

    def out(self, i) -> dict:
        if i not in self.edges:
            self.edges[i] = {(f"m::{t}", mode): j for t in self.net.transitions
                             for mode, j in self.firings(i, t)}
        return self.edges[i]


class CaseSpace:
    """One case's single-case product as the pairs (marking i of a
    ``_ModelGraph``, trace position p), numbered i * (K + 1) + p, with the
    product's firings, keys and move records but neither of its nets.

    The case's log net is a chain, and exactly one log token carries the
    case id, so (marking, p) maps one-to-one onto product markings; the
    start is (initial, 0) and the goal (final, K).  At (i, p) the product
    fires, in its transition order, the model firings at i, event p's log
    move ``l::t_e<index>``, then each synchronous transition of event p
    (``_sync_moves``) whose pinned mode is a model firing at i: a pin binds
    distinct instances, so that lookup is the product's ground count check.
    Where the transition has fresh variables, or the pin leaves one free,
    ``enabled_modes`` forced to the pin enumerates the firings instead.  A
    graph shared by a case-id signature (equal comparisons with every other
    identifier) is read by renaming its case id to the space's."""

    def __init__(self, graph: _ModelGraph, trace: EventLog):
        model, events = graph.net, trace.events
        self.graph, self.case, self.width = graph, events[0].case, len(events) + 1
        self.start = graph.node(model.initial) * self.width
        self.goal = graph.node(model.final) * self.width + len(events)
        self.moves = {f"m::{t}": Move("model", transition=t, label=model.labels[t])
                      for t in model.transitions}
        self.steps = []         # per trace position: (log move name, sync entries)
        for e in events:
            name, syncs = f"l::{transition_id(e)}", []
            self.moves[name] = Move("log", event=e, label=e.activity)
            for sync, move in _sync_moves(model, e):
                self.moves[sync], t = move, move.transition
                case_vars, res_vars, fresh = model.transition_vars(t)
                pin = tuple((v, graph.case if x == self.case else x) for v, x in move.mode)
                syncs.append((sync, t, (f"m::{t}", pin),
                              not fresh and move.binding().keys() >= case_vars | res_vars))
            self.steps.append((name, syncs))

    def _renamed(self, mode) -> tuple:
        return tuple((v, self.case if x == self.graph.case else x) for v, x in mode)

    def successors(self, state):
        """``(transition, key, next state)`` of every firing at ``state``, in
        the single-case product's order."""
        i, p = divmod(state, self.width)
        out = self.graph.out(i)
        for (t, mode), j in out.items():
            yield t, (t, self._renamed(mode)), j * self.width + p
        if p < len(self.steps):
            name, syncs = self.steps[p]
            yield name, (name, ()), state + 1
            for sync, t, key, exact in syncs:
                found = [(key[1], out.get(key))] if exact else self.graph.firings(i, t, dict(key[1]))
                for mode, j in found:
                    if j is not None:
                        yield sync, (sync, self._renamed(mode)), j * self.width + p + 1


def case_spaces(model: RcNuNet, log: EventLog):
    """``(case, representative, space)`` per case of ``log`` in id order: its
    variant's first case (``case_variants``) and, for that case itself, the
    ``CaseSpace`` of ``log.project_case(case)``, else None.  One
    ``_ModelGraph`` serves a case-id signature and trace length."""
    graphs, reps = {}, {}
    for c, variant in case_variants(model, log).items():
        space = None
        if reps.setdefault(variant, c) == c:
            trace = log.project_case(c)
            signature = (variant[1], len(trace))
            if signature not in graphs:
                graphs[signature] = _ModelGraph(scale_cases(model, [c]), c, len(trace))
            space = CaseSpace(graphs[signature], trace)
        yield c, reps[variant], space


def align_case(space: CaseSpace, costs: CostTable = DEFAULT_COSTS,
               node_budget: int = DEFAULT_NODE_BUDGET) -> Alignment:
    """Dijkstra on one case's space, as ``optimal_alignment`` on its
    single-case product; a budget error names the case."""
    try:
        return _search(space, costs, node_budget)
    except SearchBudgetError as exc:
        exc.args = (f"case {space.case}: {exc}",)
        raise


def _cost_to_go(space: CaseSpace, costs: CostTable, node_budget: int):
    """``(togo, edges)`` over the states of a case space reachable from its
    start, numbered as met (the start is 0), or None past ``node_budget``
    states: state i's optimal cost-to-go ``togo[i]`` (INF where the goal is
    unreachable) and its firings ``edges[i]``, ``(df, key, j)`` into states
    j of finite cost-to-go, stably sorted by df = cost + togo[j] - togo[i],
    the rise of g + h."""
    states, out, into, index = [space.start], [], [[]], {space.start: 0}
    for state in states:
        out.append([])
        for t, key, state2 in space.successors(state):
            j = index.get(state2)
            if j is None:
                if len(states) >= node_budget:
                    return None
                j = index[state2] = len(states)
                states.append(state2)
                into.append([])
            cost = move_cost(space.moves[t], costs)
            into[j].append((len(out) - 1, cost))
            out[-1].append((cost, key, j))
    togo = [INF] * len(states)
    heap = [(0, index[space.goal])] if space.goal in index else []
    while heap:
        d, j = heapq.heappop(heap)
        if togo[j] == INF:
            togo[j] = d
            for i, c in into[j]:
                if togo[i] == INF:
                    heapq.heappush(heap, (d + c, i))
    edges = [sorted(((c + togo[j] - togo[i], key, j) for c, key, j in made if togo[j] < INF),
                    key=lambda edge: edge[0])
             for i, made in enumerate(out)]
    return togo, edges


class CaseHeuristic:
    """h(state) = the sum over the log's cases c of h_c(pi_c(state)).

    pi_c is c's tokens on production and busy places plus c's log tokens;
    h_c is the optimal cost-to-go in c's single-case product (the net
    scaled to c alone against c's trace, so with the declared resources
    minus what c holds and without the cross-case log order), tabulated on
    the case space of each variant's representative (``case_spaces``).

    Admissible: the moves of c in any completion of the whole-log run form
    a run of c's single-case product from pi_c.  The preconditions
    (``_projection_breaks``) make each move work on one case and leave
    other cases' tokens alone; an instance c can claim in the full marking
    is free alone too, since alone only c holds any; c's events keep their
    trace order and resource places; and c's final tokens with all its
    events fired are the single-case goal.  The cases' move sets are
    disjoint, so the summed cost-to-go is at most the completion's cost.
    Consistent: a move changes one case's projection by a move of that
    case's single-case product at the same cost, and h_c(x) <= cost +
    h_c(y) along every move.  So every projection the search meets is a
    state the table explored, and every firing at a whole-log state is an
    edge of one case's table that the state's counts enable.

    The tables price every case or none: where the preconditions fail or
    the tables would explore more than ``node_budget`` states together,
    ``reason`` says why and h is 0 (``priced`` is false).  The heuristic
    owns the product's state space, which its search shares.  A state's
    entry is (h, indices): pi_c(state) is state ``indices[k]`` of case k's
    table.  ``expand`` maps an edge of case k's table to the product's
    firing key by the variant's renaming and checks it by the state's
    counts."""

    def __init__(self, prod: SyncProduct, costs: CostTable = DEFAULT_COSTS,
                 node_budget: int = DEFAULT_NODE_BUDGET):
        self.space = _StateSpace(prod)
        self.reason = _projection_breaks(prod)
        self.rep = {}           # case -> its variant's representative
        self.tables = {}        # representative -> its _cost_to_go (togo, edges)
        self._moves = {}        # representative -> its case space's move records
        self._keys = {}         # (case index, representative's key) -> (net position, key)
        log = EventLog(prod.log_net.event_of.values())
        budget = node_budget    # states the tables may still explore
        for c, rep, space in () if self.reason is not None else case_spaces(prod.model, log):
            self.rep[c] = rep
            if space is not None:
                table = _cost_to_go(space, costs, budget)
                if table is None:
                    self.reason = f"the case tables explore more than {node_budget} states"
                    break
                self.tables[c], self._moves[c] = table, space.moves
                budget -= len(table[0])
        self.priced = self.reason is None and bool(self.rep)
        cases = list(self.rep) if self.priced else []
        # per case: (it, its representative, {representative's event: its event})
        self._cases = [(c, self.rep[c], dict(zip(log.trace(self.rep[c]), log.trace(c))))
                       for c in cases]
        self._togo = [self.tables[self.rep[c]][0] for c in cases]
        self._edges = [self.tables[self.rep[c]][1] for c in cases]
        self._made = {move: t for t, move in prod.moves.items()} if self.priced else {}
        self._order = {t: k for k, t in enumerate(prod.transitions)}

    def start(self):
        """The entry of the product's initial state, where every case is at
        its table's start."""
        return sum(togo[0] for togo in self._togo), (0,) * len(self._cases)

    def _ground(self, k, key):
        """(net position, firing key) in the product of the firing ``key``
        on case k's representative: the representative's j-th event is the
        case's j-th event, and its case id is renamed to the case's."""
        got = self._keys.get((k, key))
        if got is None:
            case, rep, events = self._cases[k]
            move = self._moves[rep][key[0]]
            pinned, mode = (tuple((v, case if x == rep else x) for v, x in m)
                            for m in (move.mode, key[1]))
            t = self._made[replace(move, event=events.get(move.event), mode=pinned)]
            got = self._keys[k, key] = (self._order[t], (t, mode))
        return got

    def expand(self, state, offset, info):
        """The firings at ``state`` that raise g + h by ``offset``, as
        ``(transition, key, next state)`` in net order with sorted modes, and
        the next larger rise of the state's table edges, None past the last.
        ``info`` maps states to their entries and gains each next state's."""
        h, at = info[state]
        made, later = [], None
        for k, (edges, i) in enumerate(zip(self._edges, at)):
            for df, key, j in edges[i]:
                if df == offset:
                    made.append((*self._ground(k, key), k, j))
                elif df > offset:
                    if later is None or df < later:
                        later = df
                    break
        made.sort()
        children = []
        for _, key, k, j in made:
            if self.space.enables(state, key):
                state2 = self.space.fire(state, key)
                if state2 not in info:
                    togo = self._togo[k]
                    info[state2] = h - togo[at[k]] + togo[j], at[:k] + (j,) + at[k + 1:]
                children.append((key[0], key, state2))
        return children, later


# ---------------------------------------------------------------------------
# Per-token use
# ---------------------------------------------------------------------------

def token_counts(marking: ColoredMarking) -> dict:
    """A marking's ``{(place, token): count}``."""
    return {(p, tok): n for p in marking.places() for tok, n in marking.get(p).items()}


def token_use(net: RcNuNet, moves, bound: dict | None = None) -> dict:
    """``{(place, token): {move index: [taken, given]}}`` over the non-log
    moves, from one ``firing_effect`` call per move: the table that
    pseudo-markings, validity and the order program's capacity rows read.
    A move in ``bound`` (index -> ``firing_effect``) is not bound again."""
    use = {}
    bound = {} if bound is None else bound
    for i, move in enumerate(moves):
        if move.kind != "log":
            effect = bound.get(i)
            if effect is None:
                effect = bound[i] = firing_effect(net, move.transition, move.binding())
            for side, tokens in enumerate(effect):
                for p, tok, n in tokens:
                    use.setdefault((p, tok), {}).setdefault(i, [0, 0])[side] += n
    return use


def effect_masks(moved: dict) -> dict:
    """``{net effect: mask}`` of one (place, token)'s ``token_use`` entry:
    bit i of effect e's mask is set iff move i gives back e more than it takes."""
    return masks_by_value({i: given - taken for i, (taken, given) in moved.items()})


def least_left(effects: dict, i, after, before) -> int:
    """The linear bound on what a linearization leaves of a token before
    move ``i``, less its initial count: the net effects of ``i``'s
    predecessors plus those of every net consumer not ordered after ``i``,
    by popcounts of the token's ``effect_masks``.  ``after`` and ``before``
    are an order's rows and predecessor rows (bit j of ``after[i]``: i
    before j; of ``before[i]``: j before i)."""
    not_after = ~(after[i] | 1 << i)
    return sum(e * (mask & (not_after if e < 0 else before[i])).bit_count()
               for e, mask in effects.items())


def _pseudo_marking(net: RcNuNet, use: dict) -> dict:
    """The initial marking plus the net effects of a ``token_use`` table."""
    counts = token_counts(net.initial)
    for pair, moved in use.items():
        counts[pair] = counts.get(pair, 0) + sum(g - t for t, g in moved.values())
    return {pair: n for pair, n in counts.items() if n}


# ---------------------------------------------------------------------------
# Alignment validity
# ---------------------------------------------------------------------------

def is_valid_alignment(net: RcNuNet, log: EventLog, alignment: Alignment,
                       tokens: dict | None = None):
    """Check the two alignment properties; returns (ok, first witness).

    Property 1: the log/sync moves carry exactly the log's events and the
    alignment order contains the log order.  Property 2, checked exactly at
    every size: every linearization of the transition moves fires initial
    -> final.  Firing compares counts per (place, token), and all
    linearizations end at the initial marking plus the summed effects.  So
    each move ``t`` must find what it takes after the fewest tokens a
    linearization can leave: the initial count, plus the effects of ``t``'s
    predecessors, plus the least summed effect of a down-closed set of the
    moves incomparable to ``t``.  That minimum closure (Picard 1976) is every
    net consumer of the token (``least_left``), plus a minimum cut paying
    either for leaving a consumer out or for the net producers ordered
    before it.  ``tokens``: the alignment's ``token_use`` table.
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
    for e1, e2 in log.covering_pairs():
        if not alignment.order.precedes(carrying[e1], carrying[e2]):
            return False, f"log order {e1!r} < {e2!r} not preserved"

    # property 2: every linearization of the transition moves fires
    use = token_use(net, moves) if tokens is None else tokens
    if _pseudo_marking(net, use) != token_counts(net.final):
        return False, "summed effects do not reach the final marking"
    order = alignment.order
    if order.elements != tuple(range(len(moves))):
        raise ValueError("the alignment order must relate move indices in order")
    after, before = order.rows(), order.predecessor_rows()
    for (p, tok), moved in use.items():
        masks = effect_masks(moved)
        initial = net.initial.get(p).count(tok)
        for t, (taken, _) in moved.items():
            if not taken:
                continue
            least = initial + least_left(masks, t, after, before)
            if least < taken:
                free = ~(after[t] | before[t] | 1 << t)     # incomparable to t
                effect = {s: e for e, mask in masks.items() for s in set_bits(mask & free)}
                supply = {c: -effect[c] for c in sorted(effect) if effect[c] < 0}
                capacity = {x: effect[x] for x in sorted(effect) if effect[x] > 0}
                producers = sum(1 << x for x in capacity)
                arcs = {c: list(set_bits(producers & before[c])) for c in supply}
                least += _max_flow(supply, capacity, arcs, taken - least)
                if least < taken:
                    return False, (
                        f"move {t} takes {taken} of token {tok!r} on {p}, but a "
                        f"linearization leaves only {least} available before it")
    return True, None


def _max_flow(supply, capacity, arcs, enough):
    """Flow source -> consumer ``c`` (``supply[c]``) -> producer ``x`` in
    ``arcs[c]`` (unbounded) -> sink (``capacity[x]``) over disjoint moves,
    one unit per breadth-first residual path, until maximum or ``enough``."""
    left, into, total = dict(capacity), {x: {} for x in capacity}, 0
    for c0, rem in supply.items():
        while rem and total < enough:
            came, queue = {c0: None}, [c0]
            for c in queue:
                for x in arcs[c]:
                    if x not in came:
                        came[x] = c
                        for d, f in into[x].items():
                            if f and d not in came:
                                came[d] = x
                                queue.append(d)
            end = next((x for x in came if left.get(x)), None)
            if end is None:
                break
            x = end
            while x is not None:
                c = came[x]
                into[x][c] = into[x].get(c, 0) + 1
                x = came[c]
                if x is not None:
                    into[x][c] -= 1
            left[end], rem, total = left[end] - 1, rem - 1, total + 1
    return total
