"""Built-in example nets and logs used by the test suite.

The operation-process net models a small surgical workflow: preparation
(o_p) forks an assistance branch (o_a) and a surgery branch where either
closed surgery (o_sc) happens, or open surgery (o_so) followed by closeup
(o_c).  Closed surgery uses a surgeon from the shared pool only for the
instant of the firing; open surgery keeps the surgeon busy until closeup
releases them.  A silent join completes the closed path.

The hospital net extends this with an intake subprocess (i_s claims a
general practitioner, i_p releases them) and silent skip transitions, and
is the workhorse fixture for simulation, alignment and pipeline tests.
"""

from __future__ import annotations

from nualign.eventlog import EventLog, parse_log, serialize_log
from nualign.poset import Multiset
from nualign.rcnu import EPS, ColoredMarking, RcNuNet, Role, Var, resource_marking

from .petri import LabeledNet, NetSystem


def operation_net() -> LabeledNet:
    """Classical (uncolored) version of the operation process."""
    places = ["p_i", "p_1", "p_2", "p_3", "p_4", "p_5", "p_f", "p_s"]
    transitions = ["o_p", "o_a", "o_sc", "o_so", "o_c", "t_join"]
    flow = {
        ("p_i", "o_p"): 1, ("o_p", "p_1"): 1, ("o_p", "p_2"): 1,
        ("p_1", "o_a"): 1, ("o_a", "p_3"): 1,
        ("p_2", "o_sc"): 1, ("p_s", "o_sc"): 1, ("o_sc", "p_4"): 1, ("o_sc", "p_s"): 1,
        ("p_2", "o_so"): 1, ("p_s", "o_so"): 1, ("o_so", "p_5"): 1,
        ("p_5", "o_c"): 1, ("p_3", "o_c"): 1, ("o_c", "p_f"): 1, ("o_c", "p_s"): 1,
        ("p_3", "t_join"): 1, ("p_4", "t_join"): 1, ("t_join", "p_f"): 1,
    }
    labels = {
        "o_p": "o_p", "o_a": "o_a", "o_sc": "o_sc", "o_so": "o_so", "o_c": "o_c",
        "t_join": None,
    }
    return LabeledNet(places, transitions, flow, labels)


def operation_system(n_cases: int = 1) -> NetSystem:
    net = operation_net()
    initial = Multiset({"p_i": n_cases, "p_s": 2})
    final = Multiset({"p_f": n_cases, "p_s": 2})
    return NetSystem(net, initial, final)


#: The four label sequences of the single-case operation process.
OPERATION_SINGLE_CASE_LANGUAGE = {
    ("o_p", "o_a", "o_sc"),
    ("o_p", "o_sc", "o_a"),
    ("o_p", "o_a", "o_so", "o_c"),
    ("o_p", "o_so", "o_a", "o_c"),
}

#: A two-case label sequence that mixes both cases' tokens: the case that
#: had closed surgery appears to perform the closeup.  Possible with
#: indistinguishable case tokens, impossible once cases carry identities.
OPERATION_MIXED_SEQUENCE = ("o_p", "o_a", "o_sc", "o_p", "o_a", "o_so", "o_c")


def _case(var="c"):
    return (Var(var), EPS)


def _res(var="v"):
    return (EPS, Var(var))


def _busy(cvar="c", rvar="v"):
    return (Var(cvar), Var(rvar))


def operation_rcnu(case_ids=("c1",)) -> RcNuNet:
    """Colored version of the operation process: cases are identities and
    the surgeon pool holds two distinguishable instances x and y."""
    role = Role("s", Multiset({"x": 1, "y": 1}), "p_s", "p_s_busy")
    flow = {
        ("p_i", "o_p"): Multiset([_case()]),
        ("o_p", "p_1"): Multiset([_case()]),
        ("o_p", "p_2"): Multiset([_case()]),
        ("p_1", "o_a"): Multiset([_case()]),
        ("o_a", "p_3"): Multiset([_case()]),
        ("p_2", "o_sc"): Multiset([_case()]),
        ("p_s", "o_sc"): Multiset([_res()]),
        ("o_sc", "p_4"): Multiset([_case()]),
        ("o_sc", "p_s"): Multiset([_res()]),
        ("p_2", "o_so"): Multiset([_case()]),
        ("p_s", "o_so"): Multiset([_res()]),
        ("o_so", "p_5"): Multiset([_case()]),
        ("o_so", "p_s_busy"): Multiset([_busy()]),
        ("p_5", "o_c"): Multiset([_case()]),
        ("p_3", "o_c"): Multiset([_case()]),
        ("p_s_busy", "o_c"): Multiset([_busy()]),
        ("o_c", "p_f"): Multiset([_case()]),
        ("o_c", "p_s"): Multiset([_res()]),
        ("p_3", "t_join"): Multiset([_case()]),
        ("p_4", "t_join"): Multiset([_case()]),
        ("t_join", "p_f"): Multiset([_case()]),
    }
    labels = {
        "o_p": "o_p", "o_a": "o_a", "o_sc": "o_sc", "o_so": "o_so", "o_c": "o_c",
        "t_join": None,
    }
    res = resource_marking([role])
    initial = ColoredMarking(
        {"p_i": Multiset({(c, EPS): 1 for c in case_ids})}
    ) | res
    final = ColoredMarking(
        {"p_f": Multiset({(c, EPS): 1 for c in case_ids})}
    ) | res
    return RcNuNet(
        ["p_i", "p_1", "p_2", "p_3", "p_4", "p_5", "p_f"],
        [role],
        ["o_p", "o_a", "o_sc", "o_so", "o_c", "t_join"],
        labels, flow, initial, final,
    )


def hospital_net(case_ids=("c1", "c2")) -> RcNuNet:
    """Hospital process: intake with a GP, then the operation subprocess
    with a surgeon; both subprocesses can be skipped silently.

    One GP instance (g1) and one surgeon instance (s1), each capacity 1,
    so two concurrent patients contend for both.
    """
    gp = Role("g", Multiset({"g1": 1}), "p_g", "p_g_busy")
    surgeon = Role("s", Multiset({"s1": 1}), "p_s", "p_s_busy")
    flow = {
        ("q0", "i_s"): Multiset([_case()]),
        ("p_g", "i_s"): Multiset([_res("w")]),
        ("i_s", "q1"): Multiset([_case()]),
        ("i_s", "p_g_busy"): Multiset([_busy("c", "w")]),
        ("q1", "i_p"): Multiset([_case()]),
        ("p_g_busy", "i_p"): Multiset([_busy("c", "w")]),
        ("i_p", "q2"): Multiset([_case()]),
        ("i_p", "p_g"): Multiset([_res("w")]),
        ("q0", "t_skip_intake"): Multiset([_case()]),
        ("t_skip_intake", "q2"): Multiset([_case()]),
        ("q2", "o_p"): Multiset([_case()]),
        ("o_p", "q3"): Multiset([_case()]),
        ("q3", "o_sc"): Multiset([_case()]),
        ("p_s", "o_sc"): Multiset([_res()]),
        ("o_sc", "q5"): Multiset([_case()]),
        ("o_sc", "p_s"): Multiset([_res()]),
        ("q3", "o_so"): Multiset([_case()]),
        ("p_s", "o_so"): Multiset([_res()]),
        ("o_so", "q4"): Multiset([_case()]),
        ("o_so", "p_s_busy"): Multiset([_busy()]),
        ("q4", "o_c"): Multiset([_case()]),
        ("p_s_busy", "o_c"): Multiset([_busy()]),
        ("o_c", "q5"): Multiset([_case()]),
        ("o_c", "p_s"): Multiset([_res()]),
        ("q2", "t_skip_op"): Multiset([_case()]),
        ("t_skip_op", "q5"): Multiset([_case()]),
    }
    labels = {
        "i_s": "i_s", "i_p": "i_p", "o_p": "o_p",
        "o_sc": "o_sc", "o_so": "o_so", "o_c": "o_c",
        "t_skip_intake": None, "t_skip_op": None,
    }
    roles = [gp, surgeon]
    res = resource_marking(roles)
    initial = ColoredMarking(
        {"q0": Multiset({(c, EPS): 1 for c in case_ids})}
    ) | res
    final = ColoredMarking(
        {"q5": Multiset({(c, EPS): 1 for c in case_ids})}
    ) | res
    return RcNuNet(
        ["q0", "q1", "q2", "q3", "q4", "q5"],
        roles,
        ["i_s", "i_p", "o_p", "o_sc", "o_so", "o_c",
         "t_skip_intake", "t_skip_op"],
        labels, flow, initial, final,
    )


#: Two patients, shared GP and surgeon, properly serialized: replays at cost 0.
HOSPITAL_LOG_CSV = """\
case,activity,timestamp,resources
c1,i_s,1,g:g1
c1,i_p,2,g:g1
c1,o_p,3,
c1,o_so,4,s:s1
c2,i_s,5,g:g1
c1,o_c,6,s:s1
c2,i_p,7,g:g1
c2,o_p,8,
c2,o_so,9,s:s1
c2,o_c,10,s:s1
"""

#: Chronology forces the surgeon overlap: c2 starts open surgery while c1
#: still holds s1, so composing the (individually perfect) cases violates
#: the capacity and even the exact aligner must pay for a deviation.
HOSPITAL_FORCED_OVERLAP_CSV = """\
case,activity,timestamp,resources
c1,i_s,1,g:g1
c1,i_p,2,g:g1
c1,o_p,3,
c2,i_s,4,g:g1
c1,o_so,5,s:s1
c2,i_p,6,g:g1
c2,o_p,7,
c2,o_so,8,s:s1
c1,o_c,9,s:s1
c2,o_c,10,s:s1
"""

#: The surgeon claims only look concurrent: c2's o_so carries the same
#: timestamp as c1's o_c, so the two are incomparable and serializing them
#: (an added order pair, no reversal) resolves the contention at cost 0.
HOSPITAL_CONCURRENT_CSV = """\
case,activity,timestamp,resources
c1,i_s,1,g:g1
c1,i_p,2,g:g1
c2,i_s,3,g:g1
c1,o_p,3,
c2,i_p,4,g:g1
c1,o_so,4,s:s1
c2,o_p,5,
c2,o_so,6,s:s1
c1,o_c,6,s:s1
c2,o_c,7,s:s1
"""


def clinic_net(case_ids=("c1", "c2")) -> RcNuNet:
    """Hospital process extended with a final discharge activity (d_c), so
    a full case records six events.  Used by scale/performance fixtures."""
    base = hospital_net(case_ids)
    flow = dict(base.flow)
    flow[("q5", "d_c")] = Multiset([_case()])
    flow[("d_c", "q6")] = Multiset([_case()])
    labels = dict(base.labels)
    labels["d_c"] = "d_c"
    initial = base.initial
    final_tokens = {p: base.final.get(p) for p in base.final.places() if p != "q5"}
    final_tokens["q6"] = base.final.get("q5")
    final = ColoredMarking(final_tokens)
    return RcNuNet(
        base.production_places + ("q6",),
        base.roles,
        base.transitions + ("d_c",),
        labels, flow, initial, final,
    )


def clinic_log(n_cases: int, overlap_at: int | None = None) -> EventLog:
    """Deterministic n-case log for the clinic net: case windows are
    disjoint in time (zero contention), except that case ``overlap_at + 1``
    starts open surgery while case ``overlap_at`` still holds the surgeon,
    creating exactly one forced contention region."""
    rows = ["case,activity,timestamp,resources"]
    for k in range(n_cases):
        case = f"c{k + 1}"
        base = 10 * k
        stamps = [base + 1, base + 2, base + 3, base + 4, base + 6, base + 8]
        if overlap_at is not None and k == overlap_at:
            # shift the next case's surgery claim inside this case's span
            pass
        if overlap_at is not None and k == overlap_at + 1:
            prev_base = 10 * (k - 1)
            # surgery claim happens before the previous case's release
            stamps = [prev_base + 4.2, prev_base + 4.6, prev_base + 5,
                      prev_base + 5.5, base + 6, base + 8]
        acts = [
            ("i_s", "g:g1"), ("i_p", "g:g1"), ("o_p", ""),
            ("o_so", "s:s1"), ("o_c", "s:s1"), ("d_c", ""),
        ]
        for (activity, res), ts in zip(acts, stamps):
            rows.append(f"{case},{activity},{ts:g},{res}")
    return parse_log("\n".join(rows) + "\n")


def clinic_two_overlaps_log(n_cases: int, first: int, second: int) -> EventLog:
    """``clinic_log(n_cases)`` with the surgeon overlaps of both
    ``clinic_log(n_cases, overlap_at=first)`` and
    ``clinic_log(n_cases, overlap_at=second)``."""
    late = f"c{second + 2},"
    rows = [row for row in serialize_log(clinic_log(n_cases, overlap_at=first)).splitlines()
            if not row.startswith(late)]
    rows += [row for row in serialize_log(clinic_log(n_cases, overlap_at=second)).splitlines()
             if row.startswith(late)]
    return parse_log("\n".join(rows) + "\n")


def claim_release_net(instances=None, case_ids=("c1",)) -> RcNuNet:
    """Minimal two-activity process: claim an instance of role r, release it."""
    role = Role("r", Multiset(instances or {"x": 1, "y": 1}), "p_r", "p_busy")
    flow = {
        ("q0", "claim"): Multiset([_case()]),
        ("p_r", "claim"): Multiset([_res()]),
        ("claim", "q1"): Multiset([_case()]),
        ("claim", "p_busy"): Multiset([_busy()]),
        ("q1", "release"): Multiset([_case()]),
        ("p_busy", "release"): Multiset([_busy()]),
        ("release", "q2"): Multiset([_case()]),
        ("release", "p_r"): Multiset([_res()]),
    }
    res = resource_marking([role])
    initial = ColoredMarking({"q0": Multiset({(c, EPS): 1 for c in case_ids})}) | res
    final = ColoredMarking({"q2": Multiset({(c, EPS): 1 for c in case_ids})}) | res
    return RcNuNet(["q0", "q1", "q2"], [role], ["claim", "release"],
                   {"claim": "claim", "release": "release"}, flow, initial, final)


def hospital_log() -> EventLog:
    return parse_log(HOSPITAL_LOG_CSV)


def hospital_forced_overlap_log() -> EventLog:
    return parse_log(HOSPITAL_FORCED_OVERLAP_CSV)


def hospital_concurrent_log() -> EventLog:
    return parse_log(HOSPITAL_CONCURRENT_CSV)
