"""Colored net semantics: validation, modes, firing, scaling, simulation."""

import random

import pytest

from nualign.poset import Multiset
from nualign.rcnu import (
    EPS,
    ColoredMarking,
    DeviationConfig,
    FiringError,
    Nu,
    RcNuNet,
    Role,
    Var,
    case_of_mode,
    enabled_modes,
    fire_mode,
    involved_resources,
    resource_marking,
    scale_cases,
    simulate,
    undeclared_log_resources,
    validate_structure,
)
from support.fixtures import (
    OPERATION_MIXED_SEQUENCE,
    OPERATION_SINGLE_CASE_LANGUAGE,
    claim_release_net,
    hospital_log,
    hospital_net,
    operation_rcnu,
)
from support.oracles import bind_pairs, reference_enabled_modes
from support.petri import in_invariant_span, place_invariants, uncolored
from support.runs import annotated_language


# -- validation ---------------------------------------------------------------

def test_hospital_fixture_validates_clean():
    assert validate_structure(hospital_net()) == []


def test_operation_rcnu_validates_clean():
    assert validate_structure(operation_rcnu()) == []


def test_removed_release_arc_breaks_durability():
    net = hospital_net()
    flow = dict(net.flow)
    del flow[("o_c", "p_s")]
    broken = RcNuNet(net.production_places, net.roles, net.transitions,
                     net.labels, flow, net.initial, net.final)
    reports = validate_structure(broken)
    assert any(v.kind == "restriction1" and v.where == "o_c" for v in reports)


@pytest.mark.parametrize("places, transitions, twin", [
    (["p", "p"], ["t"], "p"), (["p"], ["t", "t"], "t"), (["p", "t"], ["t"], "t"),
])
def test_a_node_id_names_one_node(places, transitions, twin):
    with pytest.raises(ValueError, match=f"node id '{twin}' is used more than once"):
        RcNuNet(places, [], transitions, {}, {}, ColoredMarking(), ColoredMarking())


def test_token_on_busy_place_in_final_marking():
    net = hospital_net()
    bad_final = net.final | ColoredMarking({"p_s_busy": Multiset({("c1", "s1"): 1})})
    broken = RcNuNet(net.production_places, net.roles, net.transitions,
                     net.labels, net.flow, net.initial, bad_final)
    reports = validate_structure(broken)
    assert any(v.kind == "restriction2" and v.where == "p_s_busy" for v in reports)


def test_fresh_vars_rejected_on_input_arcs():
    role = Role("r", Multiset({"x": 1}), "p_r", "p_r_busy")
    flow = {("p_r", "t"): Multiset([(EPS, Nu("n"))]),
            ("t", "p_r"): Multiset([(EPS, Nu("n"))])}
    net = RcNuNet([], [role], ["t"], {"t": "a"}, flow,
                  resource_marking([role]), resource_marking([role]))
    assert any(v.kind == "freshness" for v in validate_structure(net))


# -- mode enumeration ----------------------------------------------------------


def test_claim_offers_one_mode_per_instance():
    net = claim_release_net()
    modes = enabled_modes(net, net.initial, "claim")
    assert modes == [{"c": "c1", "v": "x"}, {"c": "c1", "v": "y"}]


def test_release_mode_forced_by_correlation():
    net = claim_release_net()
    m = fire_mode(net, net.initial, "claim", {"c": "c1", "v": "x"})
    modes = enabled_modes(net, m, "release")
    # only the claiming pair matches: the resource must return with its case
    assert modes == [{"c": "c1", "v": "x"}]


def _nu_net(marking):
    """``t_new`` takes a caseless ``ctr`` token and gives a fresh-named one."""
    flow = {
        ("ctr", "t_new"): Multiset([(EPS, EPS)]),
        ("t_new", "out"): Multiset([(Nu("n"), EPS)]),
    }
    return RcNuNet(["ctr", "out"], [], ["t_new"], {"t_new": "new"}, flow, marking,
                   ColoredMarking({"out": Multiset({(EPS, EPS): 1})}))


def _spawn_net():
    """``spawn`` takes case c1's token and gives two fresh-named ones."""
    flow = {
        ("ctr", "spawn"): Multiset([(Var("c"), EPS)]),
        ("spawn", "out"): Multiset([(Nu("n"), EPS), (Nu("m"), EPS)]),
    }
    marking = ColoredMarking({"ctr": Multiset({("c1", EPS): 1})})
    return RcNuNet(["ctr", "out"], [], ["spawn"], {"spawn": "spawn"}, flow, marking, marking)


def _merge_net():
    """``t`` takes one token from each of ``a`` and ``b``, by two case variables."""
    flow = {
        ("a", "t"): Multiset([(Var("c1"), EPS)]),
        ("b", "t"): Multiset([(Var("c2"), EPS)]),
        ("t", "c"): Multiset([(Var("c1"), EPS), (Var("c2"), EPS)]),
    }
    return RcNuNet(["a", "b", "c"], [], ["t"], {"t": "merge"}, flow,
                   ColoredMarking(), ColoredMarking())


def test_nu_transition_needs_fresh_pool():
    net = _nu_net(ColoredMarking({"ctr": Multiset({(EPS, EPS): 1})}))
    assert enabled_modes(net, net.initial, "t_new", fresh_pool=[]) == []
    modes = enabled_modes(net, net.initial, "t_new", fresh_pool=["k1", "k2"])
    assert modes == [{"n": "k1"}, {"n": "k2"}]


def test_nu_binding_must_be_absent_from_marking():
    m = ColoredMarking({"ctr": Multiset({(EPS, EPS): 1}),
                        "out": Multiset({("k1", EPS): 1})})
    net = _nu_net(m)
    modes = enabled_modes(net, m, "t_new", fresh_pool=["k1", "k2"])
    assert modes == [{"n": "k2"}]


def test_fresh_names_differ_from_each_other_and_from_every_bound_value():
    net = _spawn_net()
    pool = ["c1", "k1", "k2"]
    assert enabled_modes(net, net.initial, "spawn", fresh_pool=pool) == [
        {"c": "c1", "m": "k1", "n": "k2"}, {"c": "c1", "m": "k2", "n": "k1"}]
    # a forced name, here one the marking lacks, is bound as given, and no
    # other fresh name takes it
    assert enabled_modes(net, net.initial, "spawn", fresh_pool=pool, forced={"n": "k1"}) == [
        {"c": "c1", "m": "k2", "n": "k1"}]
    assert enabled_modes(net, net.initial, "spawn", fresh_pool=["k1"]) == []


def test_forced_bindings_restrict_modes():
    net = claim_release_net()
    modes = enabled_modes(net, net.initial, "claim", forced={"v": "y"})
    assert modes == [{"c": "c1", "v": "y"}]
    assert enabled_modes(net, net.initial, "claim", forced={"v": "zz"}) == []


def test_mode_injectivity_within_component():
    # two case variables on one transition must bind distinct ids
    net = _merge_net()
    m = ColoredMarking({"a": Multiset({("k", EPS): 1}),
                        "b": Multiset({("k", EPS): 1})})
    assert enabled_modes(net, m, "t") == []
    m2 = m | ColoredMarking({"b": Multiset({("j", EPS): 1})})
    assert enabled_modes(net, m2, "t") == [{"c1": "k", "c2": "j"}]


def test_enabled_modes_match_the_brute_force_on_the_mode_tests():
    # the nets, markings, pools and forced names of the tests above, and
    # every marking of a short walk of the claim/release and hospital nets
    claim = claim_release_net()
    claimed = fire_mode(claim, claim.initial, "claim", {"c": "c1", "v": "x"})
    merge = ColoredMarking({"a": Multiset({("k", EPS): 1}),
                            "b": Multiset({("k", EPS): 1, ("j", EPS): 2})})
    nu = ColoredMarking({"ctr": Multiset({(EPS, EPS): 2}), "out": Multiset({("k1", EPS): 1})})
    spawn = _spawn_net()
    cases = [
        (claim, claim.initial, "claim", (), {}),
        (claim, claimed, "release", (), {}),
        (claim, claim.initial, "claim", (), {"v": "y"}),
        (claim, claim.initial, "claim", (), {"v": "zz"}),
        (claim, claimed, "release", (), {"c": "c1"}),
        (_merge_net(), merge, "t", (), {}),
        (_merge_net(), merge, "t", (), {"c2": "k"}),
        (_nu_net(nu), nu, "t_new", [], {}),
        (_nu_net(nu), nu, "t_new", ["k1", "k2", "k3"], {}),
        (_nu_net(nu), nu, "t_new", ["k1"], {"n": "k1"}),
        (spawn, spawn.initial, "spawn", ["c1", "k1", "k2", "k3"], {}),
        (spawn, spawn.initial, "spawn", ["c1", "k1", "k2"], {"n": "k1"}),
        (spawn, spawn.initial, "spawn", ["k1"], {"c": "c1"}),
    ]
    rng = random.Random(3)
    for net in (claim, scale_cases(hospital_net(), ["c1", "c2"])):
        m = net.initial
        for _ in range(12):
            cases += [(net, m, t, ["c1", "k1"], {}) for t in net.transitions]
            options = [(t, mode) for t in net.transitions for mode in enabled_modes(net, m, t)]
            if not options:
                break
            m = fire_mode(net, m, *rng.choice(options))
    several = 0
    for net, marking, t, pool, forced in cases:
        got = enabled_modes(net, marking, t, fresh_pool=pool, forced=forced)
        assert got == reference_enabled_modes(net, marking, t, pool, forced), (t, forced)
        several += len(got) > 1
    assert several >= 5


# -- firing ---------------------------------------------------------------------

def test_claim_recolors_token():
    net = claim_release_net()
    m = fire_mode(net, net.initial, "claim", {"c": "c1", "v": "x"})
    assert m.get("p_r") == Multiset({(EPS, "y"): 1})
    assert m.get("p_busy") == Multiset({("c1", "x"): 1})


def test_release_restores_availability():
    net = claim_release_net()
    m = fire_mode(net, net.initial, "claim", {"c": "c1", "v": "x"})
    m = fire_mode(net, m, "release", {"c": "c1", "v": "x"})
    assert m == net.final


def test_marking_equality_ignores_insertion_order():
    tokens = [
        ("p_r", (EPS, "x"), 1), ("p_busy", ("c1", "y"), 1),
        ("p_r", (EPS, "z"), 2), ("q", ("c2", EPS), 1),
    ]

    def build(order):
        places = {}
        for p, tok, n in order:
            places.setdefault(p, {})[tok] = n
        return ColoredMarking({p: Multiset(d) for p, d in places.items()})

    a, b = build(tokens), build(tokens[::-1])
    assert list(a._tokens) != list(b._tokens)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_fire_unbound_requirement_raises():
    net = claim_release_net()
    with pytest.raises(FiringError):
        fire_mode(net, net.initial, "release", {"c": "c1", "v": "x"})


def test_involved_resources_and_case():
    net = claim_release_net()
    mode = {"c": "c1", "v": "x"}
    assert involved_resources(net, "claim", mode) == Multiset(["x"])
    assert case_of_mode(net, "claim", mode) == "c1"


def test_durability_along_random_walks():
    net = hospital_net()
    rng = random.Random(17)
    reference = {
        role.name: Multiset({i: n for i, n in role.instances.items()})
        for role in net.roles
    }
    for _ in range(60):
        m = net.initial
        for _ in range(rng.randrange(14)):
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
                avail = Multiset(
                    {r: n for (c, r), n in m.get(role.available_place).items()}
                )
                busy = Multiset(
                    {r: n for (c, r), n in m.get(role.busy_place).items()}
                )
                assert avail + busy == reference[role.name]
                # an instance is never busy for two cases at once
                cases_by_inst = {}
                for (c, r) in m.get(role.busy_place).support():
                    cases_by_inst.setdefault(r, set()).add(c)
                assert all(len(cs) <= 1 for cs in cases_by_inst.values())


def test_uncolored_projection_has_role_invariants():
    net = hospital_net()
    plain = uncolored(net)
    basis = place_invariants(plain)
    for role in net.roles:
        vec = [
            1 if p in (role.available_place, role.busy_place) else 0
            for p in plain.places
        ]
        assert in_invariant_span(basis, vec)


# -- language of the colored operation net ---------------------------------------

def test_annotated_language_single_case():
    lang = annotated_language(operation_rcnu(("c1",)), 4)
    labels = {tuple(a for a, _ in seq) for seq in lang}
    assert labels == OPERATION_SINGLE_CASE_LANGUAGE
    assert all(c == "c1" for seq in lang for _, c in seq)


def test_mixed_interleaving_requires_consistent_cases():
    """The mixed label sequence exists, but the closeup always belongs to
    the open-surgery case once cases are distinguishable."""
    lang = annotated_language(operation_rcnu(("c1", "c2")), 8)
    matching = [
        seq for seq in lang
        if tuple(a for a, _ in seq) == OPERATION_MIXED_SEQUENCE
    ]
    assert matching, "interleaving itself must remain possible"
    for seq in matching:
        case_of_sc = seq[2][1]
        case_of_so = seq[5][1]
        case_of_c = seq[6][1]
        assert case_of_c == case_of_so != case_of_sc


# -- scaling and simulation -------------------------------------------------------

def test_scale_cases():
    net = hospital_net(("c1", "c2"))
    scaled = scale_cases(net, ["a", "b", "c"])
    assert scaled.initial.get("q0") == Multiset(
        {("a", EPS): 1, ("b", EPS): 1, ("c", EPS): 1}
    )
    assert scaled.final.get("q5") == Multiset(
        {("a", EPS): 1, ("b", EPS): 1, ("c", EPS): 1}
    )
    assert scaled.initial.get("p_g") == net.initial.get("p_g")
    assert validate_structure(scaled) == []
    # a copy between other markings (``with_markings``): the structure and
    # the per-transition caches are shared, and the net keeps its markings
    assert type(scaled) is type(net) and scaled.flow is net.flow
    assert scaled._vars_cache is net._vars_cache and scaled._reqs_cache is net._reqs_cache
    assert net.initial.get("q0") == Multiset({("c1", EPS): 1, ("c2", EPS): 1})


def test_simulate_deterministic_and_complete():
    net = hospital_net()
    log1 = simulate(net, 2, seed=42)
    log2 = simulate(net, 2, seed=42)
    assert [
        (e.activity, e.timestamp, e.case, e.resources) for e in log1.events
    ] == [
        (e.activity, e.timestamp, e.case, e.resources) for e in log2.events
    ]
    assert set(log1.cases()) <= {"c1", "c2"}
    times = [e.timestamp for e in log1.events]
    assert times == sorted(times) and len(set(times)) == len(times)
    assert undeclared_log_resources(net, log1) == []


def test_simulate_other_seed_differs():
    net = hospital_net()
    a = simulate(net, 2, seed=1)
    b = simulate(net, 2, seed=2)
    assert [(e.activity, e.case) for e in a.events] != [
        (e.activity, e.case) for e in b.events
    ] or [e.timestamp for e in a.events] != [e.timestamp for e in b.events]


def test_simulate_drop_deviation():
    net = hospital_net()
    base = simulate(net, 2, seed=42)
    dropped = simulate(net, 2, seed=42, deviations=DeviationConfig(drop_events=1))
    assert len(dropped) == len(base) - 1


def test_simulate_swap_deviation():
    net = operation_rcnu()
    base = simulate(net, 2, seed=7)
    swapped = simulate(net, 2, seed=7, deviations=DeviationConfig(swap_resources=1))
    assert len(swapped) == len(base)
    diffs = [
        (a, b)
        for a, b in zip(base.events, swapped.events)
        if a.resources != b.resources
    ]
    assert len(diffs) == 1


def test_hospital_log_fixture_matches_net():
    net = hospital_net()
    log = hospital_log()
    assert len(log) == 10
    assert undeclared_log_resources(net, log) == []
    for c in ("c1", "c2"):
        assert [e.activity for e in log.trace(c)] == [
            "i_s", "i_p", "o_p", "o_so", "o_c"
        ]


def test_bind_pairs_constants_and_eps():
    pairs = Multiset([("c9", Var("v")), (EPS, EPS)])
    assert bind_pairs(pairs, {"v": "x"}) == Multiset([("c9", "x"), (EPS, EPS)])
