"""The benchmark's own process nets, as net-file documents.

The documents use the JSON net format that ``nualign align`` reads.  They
are written out here, not taken from the package, so a change to the
package's example nets does not change what the benchmark measures.

- ``clinic``: intake with a GP (``i_s`` claims ``g1``, ``i_p`` releases
  it), an operation with a surgeon (``o_so`` claims ``s1``, ``o_c``
  releases it; ``o_sc`` takes and returns it in one firing), silent skips
  of both subprocesses, and a discharge ``d_c``.  One GP and one surgeon.
- ``hospital``: the clinic net without the discharge.
- ``claim_release``: ``claim`` takes an instance of role ``r`` (``x`` or
  ``y``), ``release`` gives the same instance back.
- ``operation``: preparation ``o_p`` forks assistance ``o_a`` and surgery;
  closed surgery ``o_sc`` then a silent join, or open surgery ``o_so``
  then closeup ``o_c``.  Two surgeons, ``x`` and ``y``.

Every net declares one case, ``c1``; the aligner replicates that case's
tokens for each case of the log.
"""

from __future__ import annotations

CASE = {"case": "c", "resource": "eps", "count": 1}


def _res(var):
    return {"case": "eps", "resource": var, "count": 1}


def _busy(var):
    return {"case": "c", "resource": var, "count": 1}


def _tok(case="eps", resource="eps"):
    return {"case": case, "resource": resource, "count": 1}


def _net(roles, production, transitions, arcs, start, end):
    """Assemble a document; ``roles`` maps role -> (instances, available, busy)."""
    places = [{"id": p, "kind": "production"} for p in production]
    role_docs = []
    pool = {}
    for name, (instances, available, busy) in roles.items():
        places.append({"id": available, "kind": "resource_available", "role": name})
        places.append({"id": busy, "kind": "resource_busy", "role": name})
        role_docs.append({
            "name": name,
            "instances": [{"id": i, "capacity": 1} for i in instances],
            "available_place": available,
            "busy_place": busy,
        })
        pool[available] = [_tok(resource=i) for i in instances]
    return {
        "roles": role_docs,
        "places": places,
        "transitions": [{"id": t, "label": label} for t, label in transitions],
        "arcs": [
            {"source": s, "target": t, "inscriptions": [ins]}
            for s, t, ins in arcs
        ],
        "initial": {start: [_tok(case="c1")], **pool},
        "final": {end: [_tok(case="c1")], **pool},
    }


_HOSPITAL_ARCS = [
    ("q0", "i_s", CASE), ("p_g", "i_s", _res("w")),
    ("i_s", "q1", CASE), ("i_s", "p_g_busy", _busy("w")),
    ("q1", "i_p", CASE), ("p_g_busy", "i_p", _busy("w")),
    ("i_p", "q2", CASE), ("i_p", "p_g", _res("w")),
    ("q0", "t_skip_intake", CASE), ("t_skip_intake", "q2", CASE),
    ("q2", "o_p", CASE), ("o_p", "q3", CASE),
    ("q3", "o_sc", CASE), ("p_s", "o_sc", _res("v")),
    ("o_sc", "q5", CASE), ("o_sc", "p_s", _res("v")),
    ("q3", "o_so", CASE), ("p_s", "o_so", _res("v")),
    ("o_so", "q4", CASE), ("o_so", "p_s_busy", _busy("v")),
    ("q4", "o_c", CASE), ("p_s_busy", "o_c", _busy("v")),
    ("o_c", "q5", CASE), ("o_c", "p_s", _res("v")),
    ("q2", "t_skip_op", CASE), ("t_skip_op", "q5", CASE),
]

_HOSPITAL_TRANSITIONS = [
    ("i_s", "i_s"), ("i_p", "i_p"), ("o_p", "o_p"), ("o_sc", "o_sc"),
    ("o_so", "o_so"), ("o_c", "o_c"),
    ("t_skip_intake", None), ("t_skip_op", None),
]

_HOSPITAL_ROLES = {
    "g": (["g1"], "p_g", "p_g_busy"),
    "s": (["s1"], "p_s", "p_s_busy"),
}


def hospital() -> dict:
    return _net(_HOSPITAL_ROLES, ["q0", "q1", "q2", "q3", "q4", "q5"],
                _HOSPITAL_TRANSITIONS, _HOSPITAL_ARCS, "q0", "q5")


def clinic() -> dict:
    return _net(_HOSPITAL_ROLES, ["q0", "q1", "q2", "q3", "q4", "q5", "q6"],
                _HOSPITAL_TRANSITIONS + [("d_c", "d_c")],
                _HOSPITAL_ARCS + [("q5", "d_c", CASE), ("d_c", "q6", CASE)],
                "q0", "q6")


def claim_release() -> dict:
    arcs = [
        ("q0", "claim", CASE), ("p_r", "claim", _res("v")),
        ("claim", "q1", CASE), ("claim", "p_busy", _busy("v")),
        ("q1", "release", CASE), ("p_busy", "release", _busy("v")),
        ("release", "q2", CASE), ("release", "p_r", _res("v")),
    ]
    return _net({"r": (["x", "y"], "p_r", "p_busy")}, ["q0", "q1", "q2"],
                [("claim", "claim"), ("release", "release")], arcs, "q0", "q2")


def operation() -> dict:
    arcs = [
        ("p_i", "o_p", CASE), ("o_p", "p_1", CASE), ("o_p", "p_2", CASE),
        ("p_1", "o_a", CASE), ("o_a", "p_3", CASE),
        ("p_2", "o_sc", CASE), ("p_s", "o_sc", _res("v")),
        ("o_sc", "p_4", CASE), ("o_sc", "p_s", _res("v")),
        ("p_2", "o_so", CASE), ("p_s", "o_so", _res("v")),
        ("o_so", "p_5", CASE), ("o_so", "p_s_busy", _busy("v")),
        ("p_5", "o_c", CASE), ("p_3", "o_c", CASE),
        ("p_s_busy", "o_c", _busy("v")),
        ("o_c", "p_f", CASE), ("o_c", "p_s", _res("v")),
        ("p_3", "t_join", CASE), ("p_4", "t_join", CASE), ("t_join", "p_f", CASE),
    ]
    transitions = [("o_p", "o_p"), ("o_a", "o_a"), ("o_sc", "o_sc"),
                   ("o_so", "o_so"), ("o_c", "o_c"), ("t_join", None)]
    return _net({"s": (["x", "y"], "p_s", "p_s_busy")},
                ["p_i", "p_1", "p_2", "p_3", "p_4", "p_5", "p_f"],
                transitions, arcs, "p_i", "p_f")


NETS = {
    "clinic": clinic,
    "hospital": hospital,
    "claim_release": claim_release,
    "operation": operation,
}
