"""Resource-constrained nets with two-field colored tokens.

Tokens are ``(case_id, resource_id)`` pairs where either field may be
``None`` (the plain/epsilon color).  Three place kinds exist:

- production places hold ``(case, None)`` tokens: the per-case control flow;
- per resource role ``r``, an availability place holds ``(None, instance)``
  tokens (one token per unit of capacity) and a busy place holds
  ``(case, instance)`` tokens recording which case claims the instance.

Arc inscriptions are multisets of ``(case_term, resource_term)`` pairs,
each term one of: ``None`` (epsilon), a :class:`Var` (bound injectively by
a mode at firing time), a :class:`Nu` (fresh-name variable, output arcs
only), or a plain string constant.

Structural restrictions make resources durable: per role and transition,
the resource variables consumed from the role's two places equal the ones
produced back to them, and the initial/final markings pin full
availability.  ``validate_structure`` reports violations instead of
raising, so a CLI can show all of them at once.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, replace
from itertools import permutations

from .eventlog import Event, EventLog
from .poset import Multiset

EPS = None

#: The label of a silent transition.
TAU = None


class FiringError(RuntimeError):
    """Attempt to fire a transition that is not enabled."""


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return f"?{self.name}"


@dataclass(frozen=True)
class Nu:
    """Fresh-name variable: binds an identifier absent from the marking."""

    name: str

    def __repr__(self):
        return f"nu:{self.name}"


def term_key(term):
    if term is EPS:
        return (0, "")
    if isinstance(term, str):
        return (1, term)
    if isinstance(term, Var):
        return (2, term.name)
    return (3, term.name)


def pair_key(pair):
    return (term_key(pair[0]), term_key(pair[1]))


def token_key(tok):
    c, r = tok
    return (c is not None, c or "", r is not None, r or "")


@dataclass(frozen=True)
class Role:
    name: str
    instances: Multiset      # instance id -> capacity
    available_place: str
    busy_place: str


_EMPTY_MS = Multiset()


class ColoredMarking:
    """Immutable mapping place -> multiset of tokens.

    Markings hash and compare by content, so a marking can key a table;
    the hash is computed on first use.  The exact search keys its states
    by interned token counts instead (``align.optimal_alignment``)."""

    __slots__ = ("_tokens", "_hash")

    def __init__(self, tokens=None):
        self._tokens = {}
        self._hash = None
        for p, ms in (tokens or {}).items():
            ms = ms if isinstance(ms, Multiset) else Multiset(ms)
            if ms:
                self._tokens[p] = ms

    def get(self, place) -> Multiset:
        return self._tokens.get(place, _EMPTY_MS)

    def places(self):
        return set(self._tokens)

    def identifiers(self):
        ids = set()
        for ms in self._tokens.values():
            for (c, r) in ms.support():
                if c is not None:
                    ids.add(c)
                if r is not None:
                    ids.add(r)
        return ids

    def __or__(self, other: "ColoredMarking") -> "ColoredMarking":
        out = dict(self._tokens)
        for p, ms in other._tokens.items():
            out[p] = out.get(p, Multiset()) + ms
        return ColoredMarking(out)

    def __eq__(self, other):
        return isinstance(other, ColoredMarking) and self._tokens == other._tokens

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._tokens.items()))
        return self._hash

    def __repr__(self):
        return f"ColoredMarking({dict(self._tokens)!r})"


def resource_marking(roles) -> ColoredMarking:
    """Full availability: capacity-many ``(None, instance)`` tokens per role."""
    tokens = {}
    for role in roles:
        tokens[role.available_place] = Multiset(
            {(EPS, inst): n for inst, n in role.instances.items()}
        )
    return ColoredMarking(tokens)


@dataclass(frozen=True)
class Violation:
    kind: str        # restriction1 | restriction2 | typing | freshness | capacity
    role: str | None
    where: str       # transition or place id
    detail: str

    def __str__(self):
        role = f" role {self.role}" if self.role else ""
        return f"[{self.kind}]{role} at {self.where}: {self.detail}"


class ColoredNet:
    """Structure shared by process nets, log nets and synchronous products:
    places, labeled transitions, inscription flow, initial/final markings."""

    def __init__(self, places, transitions, labels, flow,
                 initial: ColoredMarking, final: ColoredMarking):
        self.places = tuple(places)
        self.transitions = tuple(transitions)
        self.labels = dict(labels)
        for t in self.transitions:
            self.labels.setdefault(t, TAU)
        self.flow = {
            k: (v if isinstance(v, Multiset) else Multiset(v))
            for k, v in flow.items()
            if v
        }
        self.initial = initial
        self.final = final
        nodes = self.places + self.transitions
        known = set(nodes)
        if len(known) < len(nodes):
            twin = min((n for n in nodes if nodes.count(n) > 1), key=str)
            raise ValueError(f"node id {twin!r} is used more than once")
        for (src, tgt) in self.flow:
            if src not in known or tgt not in known:
                raise ValueError(f"arc ({src}, {tgt}) references unknown node")
        self._inputs = {t: [] for t in self.transitions}
        self._outputs = {t: [] for t in self.transitions}
        pset = set(self.places)
        for (src, tgt) in sorted(self.flow, key=lambda k: (str(k[0]), str(k[1]))):
            if src in pset:
                self._inputs[tgt].append(src)
            else:
                self._outputs[src].append(tgt)
        self._vars_cache = {}
        self._reqs_cache = {}

    def with_markings(self, initial: ColoredMarking, final: ColoredMarking):
        """This net between other markings: a shallow copy sharing the
        structure, fixed once built, and the caches that read only the arcs."""
        net = copy.copy(self)
        net.initial, net.final = initial, final
        return net

    def arc(self, src, tgt) -> Multiset:
        return self.flow.get((src, tgt), _EMPTY_MS)

    def input_places(self, t):
        return self._inputs[t]

    def output_places(self, t):
        return self._outputs[t]

    def transition_vars(self, t):
        """(case var names, resource var names, fresh var names) on t's arcs."""
        cached = self._vars_cache.get(t)
        if cached is None:
            pairs = [pair for p in self.input_places(t) for pair in self.arc(p, t).support()]
            pairs += [pair for p in self.output_places(t) for pair in self.arc(t, p).support()]
            cached = self._vars_cache[t] = (
                {c.name for c, _ in pairs if isinstance(c, Var)},
                {r.name for _, r in pairs if isinstance(r, Var)},
                {term.name for pair in pairs for term in pair if isinstance(term, Nu)})
        return cached

    def requirements(self, t):
        """``(place, pair, count)`` of every inscription on t's input arcs,
        sorted by place and pair."""
        reqs = self._reqs_cache.get(t)
        if reqs is None:
            reqs = self._reqs_cache[t] = sorted(
                ((p, pair, n) for p in self.input_places(t) for pair, n in self.arc(p, t).items()),
                key=lambda r: (str(r[0]), pair_key(r[1])))
        return reqs

    def is_silent(self, t):
        return self.labels.get(t) is TAU


class RcNuNet(ColoredNet):
    def __init__(self, production_places, roles, transitions, labels, flow,
                 initial: ColoredMarking, final: ColoredMarking):
        self.production_places = tuple(production_places)
        self.roles = tuple(roles)
        places = self.production_places + tuple(
            p for role in self.roles for p in (role.available_place, role.busy_place)
        )
        super().__init__(places, transitions, labels, flow, initial, final)
        self.role_by_name = {r.name: r for r in self.roles}
        self._place_kind = {p: "production" for p in self.production_places}
        self._place_role = {}
        for r in self.roles:
            self._place_kind[r.available_place] = "resource"
            self._place_kind[r.busy_place] = "busy"
            self._place_role[r.available_place] = r
            self._place_role[r.busy_place] = r

    # -- structure helpers ------------------------------------------------

    def place_kind(self, p):
        return self._place_kind[p]

    def place_role(self, p):
        return self._place_role.get(p)

    def resource_instances(self):
        """All declared instances with capacities, role-ordered (Multiset)."""
        out = Multiset()
        for role in self.roles:
            out = out + role.instances
        return out

    def role_of_instance(self, instance):
        for role in self.roles:
            if instance in role.instances:
                return role.name
        return None


def _bind_term(term, mode):
    if term is EPS:
        return EPS
    if isinstance(term, str):
        return term
    value = mode.get(term.name)
    if value is None:
        raise KeyError(f"mode does not bind {term!r}")
    return value


def case_names(net: ColoredNet, t):
    """A transition's case variables and the fresh names it gives as case ids."""
    fresh = {cterm.name for p in net.output_places(t)
             for cterm, _ in net.arc(t, p).support() if isinstance(cterm, Nu)}
    return net.transition_vars(t)[0], fresh


def case_of_mode(net: RcNuNet, t, mode) -> str | None:
    """The case a firing works on: the id bound by t's case names."""
    ids = {mode[v] for names in case_names(net, t) for v in names if v in mode}
    if len(ids) > 1:
        raise ValueError(f"firing of {t} mixes cases {sorted(ids)}")
    return next(iter(ids), None)


def firing_effect(net: ColoredNet, t, mode):
    """The tokens a firing of ``t`` in ``mode`` takes and gives back.

    Returns ``(taken, given)``: lists of ``(place, token, count)`` with one
    entry per input (output) place and bound token, in arc order.  This is
    the one place where arc inscriptions are bound: ``fire_mode``, the
    search's ``_StateSpace.effect``, ``involved_resources`` and the per-token
    table ``align.token_use``, which pseudo-markings, validity and resource
    claims read, derive from it.  A self-loop's token is in both lists.
    """
    def bound(p, pairs):
        tokens = {}
        for (cterm, rterm), n in pairs.items():
            tok = (_bind_term(cterm, mode), _bind_term(rterm, mode))
            tokens[tok] = tokens.get(tok, 0) + n
        return [(p, tok, n) for tok, n in tokens.items()]

    return ([entry for p in net.input_places(t) for entry in bound(p, net.arc(p, t))],
            [entry for p in net.output_places(t) for entry in bound(p, net.arc(t, p))])


def involved_resources(net: RcNuNet, t, mode) -> Multiset:
    """Instances a firing touches: tokens consumed from role places."""
    out = {}
    for p, (_, r), n in firing_effect(net, t, mode)[0]:
        if r is not None and net.place_role(p) is not None:
            out[r] = out.get(r, 0) + n
    return Multiset(out)


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------

def _resvar_projection(pairs: Multiset) -> Multiset:
    """Resource terms of an inscription multiset, canonically keyed."""
    return Multiset({term_key(rterm): n for (_, rterm), n in pairs.items()})


def validate_structure(net: RcNuNet):
    """Check the durability restrictions plus token/inscription typing.

    Restriction 1 is checked on the resource components of the arc
    inscriptions: claims recolor the case field of a token (available
    ``(eps, x)`` becomes busy ``(c, x)``), so only the resource side is
    conserved literally.
    """
    out = []
    declared = {}            # instance -> the first role declaring it
    for role in net.roles:
        p_r, p_b = role.available_place, role.busy_place
        for inst in sorted(role.instances.support()):
            first = declared.setdefault(inst, role.name)
            if first != role.name:
                out.append(Violation(
                    "capacity", role.name, p_r,
                    f"instance {inst!r} is declared in roles {first} and {role.name}",
                ))
        for t in net.transitions:
            consumed = net.arc(p_r, t) + net.arc(p_b, t)
            produced = net.arc(t, p_r) + net.arc(t, p_b)
            if _resvar_projection(consumed) != _resvar_projection(produced):
                out.append(Violation(
                    "restriction1", role.name, t,
                    f"consumes {sorted(consumed.items(), key=lambda kv: pair_key(kv[0]))!r} "
                    f"from role places but produces "
                    f"{sorted(produced.items(), key=lambda kv: pair_key(kv[0]))!r}",
                ))
        if net.initial.get(p_r) != net.final.get(p_r):
            out.append(Violation(
                "restriction2", role.name, p_r,
                f"initial {net.initial.get(p_r)!r} != final {net.final.get(p_r)!r}",
            ))
        for label, marking in (("initial", net.initial), ("final", net.final)):
            if marking.get(p_b):
                out.append(Violation(
                    "restriction2", role.name, p_b,
                    f"{label} marking leaves tokens on busy place: {marking.get(p_b)!r}",
                ))
        expected = resource_marking([role]).get(p_r)
        if net.initial.get(p_r) != expected:
            out.append(Violation(
                "capacity", role.name, p_r,
                f"initial availability {net.initial.get(p_r)!r} does not match "
                f"declared instances {expected!r}",
            ))

    out.extend(_typing_violations(net))
    out.extend(_freshness_violations(net))
    return out


def _typing_violations(net):
    out = []

    def check_pair(kind, role, cterm, rterm, where):
        if kind == "production":
            if rterm is not EPS:
                return Violation("typing", None, where,
                                 f"production inscription carries resource term {rterm!r}")
            if cterm is EPS or isinstance(cterm, (Var, Nu, str)):
                return None
        elif kind == "resource":
            if cterm is not EPS:
                return Violation("typing", role, where,
                                 f"availability inscription carries case term {cterm!r}")
            if rterm is EPS:
                return Violation("typing", role, where,
                                 "availability inscription lacks a resource term")
        elif kind == "busy":
            if rterm is EPS:
                return Violation("typing", role, where,
                                 "busy inscription lacks a resource term")
        return None

    for (src, tgt), pairs in sorted(net.flow.items()):
        p = src if src in net._place_kind else tgt
        kind = net.place_kind(p)
        role = net.place_role(p)
        for cterm, rterm in sorted(pairs.support(), key=pair_key):
            v = check_pair(kind, role.name if role else None, cterm, rterm,
                           f"arc ({src}, {tgt})")
            if v:
                out.append(v)

    for label, marking in (("initial", net.initial), ("final", net.final)):
        for p in sorted(marking.places()):
            kind = net._place_kind.get(p)
            if kind is None:
                out.append(Violation("typing", None, p, f"{label} marking uses unknown place"))
                continue
            for (c, r) in sorted(marking.get(p).support(), key=token_key):
                if kind == "production" and r is not None:
                    out.append(Violation("typing", None, p,
                                         f"{label} production token {(c, r)!r} has a resource field"))
                if kind == "resource" and (c is not None or r is None):
                    out.append(Violation("typing", net.place_role(p).name, p,
                                         f"{label} availability token {(c, r)!r} must be (eps, instance)"))
    return out


def _freshness_violations(net):
    out = []
    for t in net.transitions:
        input_vars = set()
        for p in net.input_places(t):
            for cterm, rterm in net.arc(p, t).support():
                for term in (cterm, rterm):
                    if isinstance(term, Nu):
                        out.append(Violation(
                            "freshness", None, t,
                            f"fresh variable {term!r} on input arc from {p}",
                        ))
                    if isinstance(term, Var):
                        input_vars.add(term.name)
        for p in net.output_places(t):
            for cterm, rterm in net.arc(t, p).support():
                for term in (cterm, rterm):
                    if isinstance(term, Var) and term.name not in input_vars:
                        out.append(Violation(
                            "freshness", None, t,
                            f"output variable {term!r} neither fresh nor consumed",
                        ))
    return out


# ---------------------------------------------------------------------------
# Modes: enumeration and firing
# ---------------------------------------------------------------------------

def enabled_modes(net: RcNuNet, marking: ColoredMarking, t, fresh_pool=(),
                  forced=None):
    """All injective bindings enabling ``t``, deterministically ordered.

    ``fresh_pool`` supplies candidate identifiers for fresh variables
    (filtered against the marking).  ``forced`` pre-binds variables, which
    is how synchronous-product transitions pin observed identifiers: forced
    names are bound as given, a fresh one with no freshness check.
    Component injectivity: distinct case variables bind distinct case ids,
    same for resource variables; fresh names differ from every other value.
    """
    if not all(marking.get(p) for p in net.input_places(t)):
        return []
    case_vars, res_vars, fresh_vars = net.transition_vars(t)
    reqs = net.requirements(t)
    marking_ids = marking.identifiers() if fresh_vars else ()
    taken = {}      # (place, token) -> count the requirements matched so far take
    found = set()

    def bind(binding, term, value, component):
        if term is EPS or isinstance(term, str):
            return binding if value == term else None
        if value is EPS or isinstance(term, Nu):    # inputs never carry fresh vars
            return None
        if term.name in binding:
            return binding if binding[term.name] == value else None
        if len(component) > 1 and any(binding.get(v) == value for v in component):
            return None     # injectivity within the component
        return {**binding, term.name: value}

    def match(i, binding):
        if i == len(reqs):
            missing = sorted(fresh_vars.difference(binding))
            pool = missing and sorted(set(fresh_pool).difference(marking_ids, binding.values()))
            for names in permutations(pool, len(missing)):
                found.add(tuple(sorted([*binding.items(), *zip(missing, names)])))
            return
        p, (cterm, rterm), need = reqs[i]
        have = marking.get(p)
        for tok in sorted(have.support(), key=token_key):
            used = taken.get((p, tok), 0)
            if have.count(tok) - used < need:
                continue
            nb = bind(binding, cterm, tok[0], case_vars)
            nb = None if nb is None else bind(nb, rterm, tok[1], res_vars)
            if nb is not None:
                taken[p, tok] = used + need
                match(i + 1, nb)
                taken[p, tok] = used

    match(0, forced or {})
    return [dict(items) for items in sorted(found)]


def fire_mode(net: RcNuNet, marking: ColoredMarking, t, mode) -> ColoredMarking:
    """Fire ``t`` with ``mode``; raises FiringError on missing tokens."""
    taken, given = firing_effect(net, t, mode)
    changed = {}
    for sign, effect in ((-1, taken), (1, given)):
        for p, tok, n in effect:
            if p not in changed:
                changed[p] = dict(marking.get(p).items())
            have = changed[p].get(tok, 0)
            if have + sign * n < 0:
                raise FiringError(f"place {p} holds {have} of token {tok}, needs {n}")
            changed[p][tok] = have + sign * n
    tokens = {p: marking.get(p) for p in marking.places()}
    tokens.update((p, Multiset(counts)) for p, counts in changed.items())
    return ColoredMarking(tokens)


# ---------------------------------------------------------------------------
# Case scaling and simulation
# ---------------------------------------------------------------------------

def _case_template(marking: ColoredMarking, production_places):
    """Per-case token pattern; all cases in the marking must share it."""
    groups = {}
    for p in production_places:
        for (c, r), n in marking.get(p).items():
            if c is not None:
                groups.setdefault(c, []).append((p, n))
    patterns = {c: tuple(sorted(pat)) for c, pat in groups.items()}
    distinct = set(patterns.values())
    if len(distinct) > 1:
        raise ValueError(f"cases have differing start patterns: {patterns}")
    return next(iter(distinct), ())


def scale_cases(net: RcNuNet, case_ids) -> RcNuNet:
    """The net between markings for the given case ids (``with_markings``).

    The per-case production-token pattern of the declared initial/final
    markings is replicated for each requested case; resource availability
    and caseless tokens are kept as declared.
    """
    case_ids = list(case_ids)
    new_markings = []
    for marking in (net.initial, net.final):
        template = _case_template(marking, net.production_places)
        tokens = {}
        for p in marking.places():
            ms = Multiset({
                tok: n for tok, n in marking.get(p).items() if tok[0] is None
            })
            if ms:
                tokens[p] = ms
        for c in case_ids:
            for p, n in template:
                tokens[p] = tokens.get(p, Multiset()) + Multiset({(c, EPS): n})
        new_markings.append(ColoredMarking(tokens))
    return net.with_markings(*new_markings)


@dataclass(frozen=True)
class DeviationConfig:
    """Deviations injected into simulated logs.

    ``drop_events`` removes recorded events; ``swap_resources`` rewrites an
    event's recorded instance to another instance of the same role;
    ``relax_capacity`` adds that many extra capacity units per instance
    during generation, so the emitted schedule can overlap claims beyond
    the declared capacities.
    """

    drop_events: int = 0
    swap_resources: int = 0
    relax_capacity: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")


def _relaxed(net: RcNuNet, extra: int) -> RcNuNet:
    roles = []
    for role in net.roles:
        inst = Multiset({i: n + extra for i, n in role.instances.items()})
        roles.append(replace(role, instances=inst))
    def widen(marking):
        tokens = {p: marking.get(p) for p in marking.places()}
        for role in roles:
            tokens[role.available_place] = Multiset(
                {(EPS, i): n for i, n in role.instances.items()}
            )
        return ColoredMarking(tokens)

    return RcNuNet(net.production_places, roles, net.transitions, net.labels,
                   net.flow, widen(net.initial), widen(net.final))


def simulate(net: RcNuNet, n_cases: int, seed: int,
             deviations: DeviationConfig | None = None,
             max_attempts: int = 25) -> EventLog:
    """Generate a log of ``n_cases`` completed cases by random firing."""
    if n_cases < 0:
        raise ValueError(f"n_cases must be nonnegative, got {n_cases}")
    problems = validate_structure(net)
    if problems:
        raise ValueError(f"net fails validation: {problems[0]}")
    dev = deviations or DeviationConfig()
    cases = [f"c{i + 1}" for i in range(n_cases)]
    scaled = scale_cases(net, cases)
    if dev.relax_capacity:
        scaled = _relaxed(scaled, dev.relax_capacity)
    step_cap = 50 + 60 * n_cases

    for attempt in range(max_attempts):
        rng = random.Random(f"{seed}:{attempt}")
        recorded = _random_run(scaled, rng, step_cap)
        if recorded is not None:
            return _apply_deviations(net, recorded, dev, random.Random(f"{seed}:dev"))
    raise RuntimeError(f"simulation deadlocked in all {max_attempts} attempts")


def _random_run(net: RcNuNet, rng, step_cap):
    m = net.initial
    clock = 0
    recorded = []
    while m != net.final:
        clock += 1
        if clock > step_cap:
            return None
        options = []
        for t in net.transitions:
            for mode in enabled_modes(net, m, t):
                options.append((t, mode))
        if not options:
            return None
        t, mode = options[rng.randrange(len(options))]
        if not net.is_silent(t):
            case = case_of_mode(net, t, mode)
            res = involved_resources(net, t, mode)
            roles = tuple(sorted(
                (inst, net.role_of_instance(inst)) for inst in res.support()
            ))
            recorded.append((net.labels[t], float(clock), case, res, roles))
        m = fire_mode(net, m, t, mode)
    return recorded


def _apply_deviations(net, recorded, dev: DeviationConfig, rng):
    rows = list(recorded)
    for _ in range(dev.drop_events):
        if rows:
            rows.pop(rng.randrange(len(rows)))
    for _ in range(dev.swap_resources):
        candidates = [
            i for i, row in enumerate(rows) if len(row[3].support()) == 1
        ]
        rng.shuffle(candidates)
        for i in candidates:
            label, ts, case, res, roles = rows[i]
            inst = next(iter(res.support()))
            role = net.role_of_instance(inst)
            others = sorted(
                x for x in net.role_by_name[role].instances.support() if x != inst
            )
            if not others:
                continue
            repl = others[rng.randrange(len(others))]
            new_res = Multiset({repl: res.count(inst)})
            rows[i] = (label, ts, case, new_res, ((repl, role),))
            break
    events = [
        Event(i, label, ts, case, res, roles)
        for i, (label, ts, case, res, roles) in enumerate(rows)
    ]
    return EventLog(events)


def undeclared_log_resources(net: RcNuNet, log: EventLog):
    """Instances/roles in the log that the net does not declare."""
    problems = []
    for e in log.events:
        for inst in sorted(e.resources.support()):
            declared = net.role_of_instance(inst)
            recorded = e.role_of(inst)
            if declared is None:
                problems.append(f"event {e.index}: instance {inst!r} not declared in any role")
            elif recorded is not None and recorded != declared:
                problems.append(
                    f"event {e.index}: instance {inst!r} recorded under role "
                    f"{recorded!r} but declared in {declared!r}"
                )
    return problems
