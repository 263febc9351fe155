"""File formats and CLI commands: round-trips, exit codes, determinism."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nualign
import nualign.approx
import nualign.cli
from nualign.cli import EXIT_INVALID, main
from nualign.dot import log_to_dot, net_to_dot, report_to_dot
from nualign.eventlog import parse_log, serialize_log
from nualign.netfile import NetFileError, load_net, net_from_dict, net_to_dict, save_net
from nualign.report import (
    build_report,
    dumps_report,
    report_to_alignment,
    load_report,
    ReportError,
)
from nualign.align import Alignment, Move, build_sync_product, optimal_alignment
from nualign.eventlog import Event
from nualign.lognet import build_log_net
from nualign.poset import Multiset, Poset
from nualign.ilp import NodeBudget
from nualign.rcnu import (ColoredMarking, DeviationConfig, RcNuNet, scale_cases, simulate,
                          validate_structure)
from support.fixtures import (
    HOSPITAL_FORCED_OVERLAP_CSV,
    HOSPITAL_LOG_CSV,
    clinic_log,
    clinic_net,
    clinic_two_overlaps_log,
    hospital_forced_overlap_log,
    hospital_log,
    hospital_net,
)
from support.orders import closed_pairs, report_json

from test_eventlog import reference_order


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "hospital.json"
    save_net(hospital_net(), path)
    return str(path)


@pytest.fixture
def log_file(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(HOSPITAL_LOG_CSV)
    return str(path)


# -- net file ------------------------------------------------------------------

def test_net_roundtrip(net_file):
    net = hospital_net()
    loaded = load_net(net_file)
    assert loaded.places == net.places
    assert loaded.transitions == net.transitions
    assert loaded.labels == net.labels
    assert loaded.flow == net.flow
    assert loaded.initial == net.initial and loaded.final == net.final
    assert net_to_dict(loaded) == net_to_dict(net)


def test_net_file_validation_failure():
    doc = net_to_dict(hospital_net())
    doc["arcs"] = [a for a in doc["arcs"]
                   if not (a["source"] == "o_c" and a["target"] == "p_s")]
    with pytest.raises(NetFileError) as info:
        net_from_dict(doc)
    assert any(v.kind == "restriction1" for v in info.value.violations)
    net_from_dict(doc, validate=False)  # loadable when asked not to validate


def test_net_file_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(NetFileError):
        load_net(str(path))


@pytest.mark.parametrize("load, error", [(load_net, NetFileError), (load_report, ReportError)])
def test_loaders_name_a_file_that_is_not_utf8(tmp_path, load, error):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(error, match=f"^{re.escape(str(path))}: invalid JSON: .*utf-8"):
        load(path)


# -- report ---------------------------------------------------------------------

def make_report():
    net = hospital_net()
    log = hospital_log()
    scaled = scale_cases(net, log.cases())
    prod = build_sync_product(scaled, build_log_net(log))
    alignment = optimal_alignment(prod)
    return build_report(alignment, "exact", net=scaled), alignment


def test_report_roundtrip_identity():
    doc, _ = make_report()
    text = dumps_report(doc)
    rebuilt = report_to_alignment(json.loads(text))
    doc2 = build_report(rebuilt, "exact", net=scale_cases(hospital_net(), ["c1", "c2"]))
    assert dumps_report(doc2) == text


def test_report_events_equal_and_hash_as_the_parsed_ones():
    doc, alignment = make_report()
    rebuilt = report_to_alignment(json.loads(dumps_report(doc)))
    parsed = [m.event for m in alignment.moves if m.event is not None]
    loaded = [m.event for m in rebuilt.moves if m.event is not None]
    assert len(loaded) == len(hospital_log().events)
    assert loaded == parsed and all(a is not b for a, b in zip(loaded, parsed))
    assert [hash(e) for e in loaded] == [hash(e) for e in parsed]
    assert set(loaded) == set(parsed)
    # equality still compares every field, not only the index
    assert Event(0, "a", 1.0, "c1") != Event(0, "a", 1.0, "c2")


def test_report_per_case_costs():
    doc, alignment = make_report()
    assert doc["total_cost"] == 0
    assert doc["per_case_cost"] == {"c1": 0, "c2": 0}
    assert len(doc["moves"]) == len(alignment.moves)


def test_report_rejects_unknown_major_version():
    doc, _ = make_report()
    doc["schema_version"] = "2.0"
    with pytest.raises(ReportError):
        report_to_alignment(doc)
    doc["schema_version"] = "1.7"
    report_to_alignment(doc)  # minor bumps stay loadable


def _report_doc(moves, order):
    doc, _ = make_report()
    return dict(doc, moves=doc["moves"][:moves], order=order)


def test_report_rejects_an_order_pair_outside_the_moves():
    with pytest.raises(ReportError, match=r"order pair \[0, 1\] names a move outside"):
        report_to_alignment(_report_doc(0, [[0, 1]]))
    with pytest.raises(ReportError, match=r"order pair \[1, 2\]"):
        report_to_alignment(_report_doc(2, [[0, 1], [1, 2]]))


def test_report_rejects_a_cyclic_order():
    with pytest.raises(ReportError, match="cyclic: .*cycle: 0 -> 1 -> 2 -> 0"):
        report_to_alignment(_report_doc(3, [[0, 1], [1, 2], [2, 0]]))
    with pytest.raises(ReportError, match="cyclic: reflexive pair on 1"):
        report_to_alignment(_report_doc(2, [[1, 1]]))


def _drop(key):
    return lambda part: part.pop(key)


def _set(key, value):
    return lambda part: part.__setitem__(key, value)


#: (the part of a report changed, the change, the ReportError it raises)
MALFORMED = [
    ("doc", _drop("moves"), "report lacks 'moves'"),
    ("doc", _set("moves", 5), "report's 'moves' must be list, not int"),
    ("doc", _set("moves", [[]]), "move 0 must be an object, not list"),
    ("move", _drop("kind"), "move 0 lacks 'kind'"),
    ("move", _set("kind", "skip"), "move 0's 'kind' must be log, model or sync, not 'skip'"),
    ("move", _drop("event"), "move 0 lacks 'event'"),
    ("move", _drop("bindings"), "move 0 lacks 'bindings'"),
    ("move", _set("bindings", []), "move 0's 'bindings' must be dict, not list"),
    ("move", _set("transition", 3), "move 0's 'transition' must be str or null, not int"),
    ("move", _set("bindings", {"c": 1}), "move 0's 'bindings' must map names to strings"),
    ("event", _set("index", "0"), "move 0's event's 'index' must be int, not str"),
    ("event", _set("timestamp", float("inf")), "move 0's event's 'timestamp' must be finite"),
    ("event", _set("resources", [{"instance": "g1"}]),
     "move 0's event's resource 0 lacks 'count'"),
    ("event", _set("resources", [{"instance": "g1", "role": "gp", "count": 0}]),
     "move 0's event's resource 0's 'count' must be at least 1"),
    ("doc", _drop("order"), "report lacks 'order'"),
    ("doc", _set("order", 5), "report's 'order' must be list, not int"),
    ("doc", _set("order", [[0, 1, 2]]), r"order pairs must be \[i, j\] lists"),
    ("doc", _set("order", [[0, "1"]]), "order pairs must hold two ints"),
]


@pytest.mark.parametrize("part, change, message", MALFORMED,
                         ids=[message for _, _, message in MALFORMED])
def test_report_rejects_a_malformed_document(part, change, message):
    doc = json.loads(dumps_report(make_report()[0]))
    change({"doc": doc, "move": doc["moves"][0], "event": doc["moves"][0]["event"]}[part])
    with pytest.raises(ReportError, match=f"^{message}$"):
        report_to_alignment(doc)


# -- dot ------------------------------------------------------------------------

def test_net_dot_mentions_every_node():
    text = net_to_dot(hospital_net())
    for p in hospital_net().places:
        assert f'"{p}"' in text
    for t in hospital_net().transitions:
        assert f'"{t}"' in text


def test_log_dot_uses_reduction():
    log = hospital_log()
    text = log_to_dot(log)
    assert text.count("->") == len(reference_order(log.events).covering_pairs())


def test_log_dot_and_messages_keep_every_digit_of_a_timestamp(tmp_path):
    # ISO times of one day differ in their last digits, which ``:g`` dropped:
    # 10:00, 10:05 and 11:00 all read 1.7041e+09
    rows = "c1,a,2024-01-01T10:00:00,\nc1,b,2024-01-01T10:05:00,\nc2,a,2024-01-01T11:00:00,\n"
    path, out = tmp_path / "log.csv", tmp_path / "log.dot"
    path.write_text(rows)
    assert main(["dot", str(path), "--out", str(out)]) == 0
    labels = re.findall(r"@ ([^\\\"]*)", out.read_text())
    assert labels == ["1704103200", "1704103500", "1704106800"]
    log = parse_log(rows)
    assert [repr(e) for e in log.events[:2]] == ["<e0 a@1704103200 case=c1>",
                                                 "<e1 b@1704103500 case=c1>"]
    with pytest.warns(UserWarning, match=r"\(c1, b, 1704103500\); keeping both"):
        parse_log(rows + "c1,b,2024-01-01T10:05:00,\n")
    assert repr(parse_log("c1,a,1.5,\n").events[0]) == "<e0 a@1.5 case=c1>"


def test_report_dot_reduction_edges():
    doc, alignment = make_report()
    text = report_to_dot(doc)
    assert text.count("->") == len(alignment.order.covering_pairs())
    assert "palegreen" in text  # sync moves present


# -- CLI ------------------------------------------------------------------------

def test_cli_validate_ok(net_file, capsys):
    assert main(["validate", net_file]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_broken_net(tmp_path, capsys):
    doc = net_to_dict(hospital_net())
    doc["arcs"] = [a for a in doc["arcs"]
                   if not (a["source"] == "o_c" and a["target"] == "p_s")]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "restriction1" in capsys.readouterr().out


def test_an_instance_declared_in_two_roles_is_rejected(tmp_path, log_file, capsys):
    # ``hospital_net()`` with its surgeon ``s1`` renamed ``g1``, the GP's
    # id: the two roles' availability places each hold one ``g1`` token,
    # but a capacity row keyed by instance would count capacity 2
    doc = json.loads(json.dumps(net_to_dict(hospital_net())).replace('"s1"', '"g1"'))
    (violation,) = validate_structure(net_from_dict(doc, validate=False))
    assert violation.kind == "capacity"
    assert "'g1'" in violation.detail and "roles g and s" in violation.detail
    with pytest.raises(NetFileError) as info:
        net_from_dict(doc)
    assert info.value.violations == [violation]
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NetFileError):
        load_net(path)
    assert main(["validate", str(path)]) == 1
    assert "roles g and s" in capsys.readouterr().out
    assert main(["align", str(path), log_file, "--mode", "approx"]) == 2
    assert "roles g and s" in capsys.readouterr().err


def test_cli_validate_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("command", ["validate", "dot"])
@pytest.mark.parametrize("doc, message", [
    ({"places": ["p"], "transitions": "ab"},
     "malformed net document: 'str' object has no attribute 'get'"),
    ({"places": [], "transitions": [], "initial": [1]},
     "malformed initial marking: 'list' object has no attribute 'items'"),
    ({"initial": []}, "net document lacks places and transitions"),
    ({"places": [], "transitions": [], "final": {"p": [{"count": "x"}]}},
     "malformed final marking: place 'p': 'count' must be an integer of at least 1, not 'x'"),
])
def test_cli_rejects_a_malformed_net_document(tmp_path, capsys, command, doc, message):
    # a document of the wrong shape is an input error, not a traceback
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", [1.9, True, "1", 0, -1, None])
@pytest.mark.parametrize("where, field, change", [
    ("instance 'g1'", "capacity",
     lambda doc, v: doc["roles"][0]["instances"][0].update(capacity=v)),
    ("arc ('i_s', 'q1')", "count",
     lambda doc, v: next(a for a in doc["arcs"] if a["source"] == "i_s"
                         and a["target"] == "q1")["inscriptions"][0].update(count=v)),
    ("place 'p_g'", "count", lambda doc, v: doc["initial"]["p_g"][0].update(count=v)),
])
def test_cli_rejects_a_net_count_that_is_no_positive_integer(tmp_path, capsys, value, where,
                                                             field, change):
    # ``int(...)`` read 1.9 as 1 and took true and "1"; a count is a JSON
    # integer of at least 1, and the message names the field
    doc = net_to_dict(hospital_net())
    change(doc, value)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    message = f"{where}: {field!r} must be an integer of at least 1, not {value!r}"
    if where.startswith("place"):
        message = f"malformed initial marking: {message}"
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["validate", "dot"])
def test_cli_rejects_a_net_document_with_an_unknown_key(tmp_path, capsys, command):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"foo": 1}))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown net document keys: foo\n"
    path.write_text(json.dumps(dict(net_to_dict(hospital_net()), name="h", foo=1)))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown net document keys: foo, name\n"


@pytest.mark.parametrize("key", ["places", "transitions"])
def test_cli_rejects_a_net_document_without_places_or_transitions(tmp_path, capsys, key):
    doc = net_to_dict(hospital_net())
    del doc[key]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: net document lacks {key}\n"


def test_cli_align_exact(net_file, log_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["align", net_file, log_file, "--out", str(out)])
    assert code == 0
    doc = load_report(out)
    assert doc["mode"] == "exact" and doc["total_cost"] == 0


def test_cli_align_reads_a_log_with_a_byte_order_mark(net_file, log_file, tmp_path):
    marked = tmp_path / "marked.csv"
    marked.write_text("\ufeff" + HOSPITAL_LOG_CSV, encoding="utf-8")
    reports = []
    for log in (log_file, marked):
        out = tmp_path / f"{Path(log).stem}.json"
        assert main(["align", net_file, str(log), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_cli_align_approx_with_violations(net_file, tmp_path):
    log = tmp_path / "overlap.csv"
    log.write_text(HOSPITAL_FORCED_OVERLAP_CSV)
    out = tmp_path / "report.json"
    code = main(["align", net_file, str(log), "--mode", "approx",
                 "--out", str(out)])
    assert code == 0
    doc = load_report(out)
    assert doc["mode"] == "approx"
    assert doc["total_cost"] > 0
    assert len(doc["violations"]) == 1
    assert doc["violations"][0]["fallback"] is False


def test_cli_align_reports_warnings_in_both_modes(net_file, tmp_path):
    log = tmp_path / "mystery.csv"
    log.write_text(HOSPITAL_LOG_CSV + "c2,mystery,11,\nc1,mystery,12,\n")
    warnings = {}
    for mode in ("exact", "approx"):
        out = tmp_path / f"{mode}.json"
        assert main(["align", net_file, str(log), "--mode", mode,
                     "--out", str(out)]) == 0
        warnings[mode] = load_report(out)["warnings"]
    assert len(warnings["exact"]) == 2
    assert all("mystery" in w for w in warnings["exact"])
    assert warnings["approx"] == warnings["exact"]


def test_cli_align_fail_on_deviation(net_file, tmp_path):
    log = tmp_path / "overlap.csv"
    log.write_text(HOSPITAL_FORCED_OVERLAP_CSV)
    out = tmp_path / "report.json"
    code = main(["align", net_file, str(log), "--fail-on-deviation",
                 "--out", str(out)])
    assert code == 1


def test_cli_align_budget_exit(net_file, log_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["align", net_file, log_file, "--node-budget", "2",
                 "--out", str(out)])
    assert code == 3


def test_cli_align_invalid_approximation_exit(net_file, log_file, monkeypatch, capsys):
    monkeypatch.setattr(nualign.approx, "is_valid_alignment",
                        lambda *args, **kwargs: (False, "forced witness"))
    assert main(["align", net_file, log_file, "--mode", "approx"]) == EXIT_INVALID == 4
    assert "forced witness" in capsys.readouterr().err


def test_cli_align_undeclared_resource(net_file, tmp_path, capsys):
    log = tmp_path / "bad.csv"
    log.write_text("c1,i_s,1,g:nobody\n")
    assert main(["align", net_file, str(log)]) == 2
    assert "not declared" in capsys.readouterr().err


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
def test_cli_align_rejects_a_non_finite_timestamp(net_file, tmp_path, capsys, stamp):
    log = tmp_path / "stamp.csv"
    log.write_text(f"c1,i_s,1,g:g1\nc1,i_p,{stamp},g:g1\n")
    assert main(["align", net_file, str(log)]) == 2
    assert f"line 2: non-finite timestamp '{stamp}'" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_cli_align_mismatched_case_patterns(log_file, tmp_path, capsys, mode):
    # valid structure, but c2 starts with one more token than c1, so the
    # cases cannot be scaled from one pattern
    net = hospital_net(["c1", "c2"])
    initial = net.initial | ColoredMarking({"q1": Multiset({("c2", None): 1})})
    path = tmp_path / "mismatched.json"
    save_net(RcNuNet(net.production_places, net.roles, net.transitions, net.labels,
                     net.flow, initial, net.final), path)
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["align", str(path), log_file, "--mode", mode]) == 2
    assert "error: cases have differing start patterns" in capsys.readouterr().err


def test_cli_align_cost_scaling_error_exit(net_file, tmp_path, capsys):
    log = tmp_path / "skip.csv"
    log.write_text("c1,o_p,1,\nc1,o_sc,2,s:s1\n")
    assert main(["align", net_file, str(log), "--costs", "visible=1"]) == 2
    assert "visible-move cost" in capsys.readouterr().err


def test_cli_align_custom_costs(net_file, log_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["align", net_file, log_file, "--costs",
                 "sync=0,tau=5,visible=777", "--out", str(out)])
    assert code == 0
    assert load_report(out)["costs"] == {"sync": 0, "tau": 5, "visible": 777}


def _clinic_overlap_inputs(tmp_path):
    net_path, log_path = tmp_path / "clinic.json", tmp_path / "overlap.csv"
    save_net(clinic_net(), net_path)
    log_path.write_text(serialize_log(clinic_log(6, overlap_at=2)))
    return str(net_path), str(log_path)


@pytest.mark.parametrize("section, node, twin", [
    ("places", {"id": "q0", "kind": "production"}, "q0"),
    ("transitions", {"id": "i_s", "label": "i_s"}, "i_s"),
    ("transitions", {"id": "q1", "label": "x"}, "q1"),
])
def test_cli_rejects_a_net_document_that_repeats_a_node_id(tmp_path, capsys, section, node,
                                                           twin):
    # a second production place q0 used to pass validation and give every
    # scaled case two start tokens, so the search ran out of markings
    net_path, log_path = _clinic_overlap_inputs(tmp_path)
    doc = json.loads(Path(net_path).read_text())
    doc[section].append(node)
    Path(net_path).write_text(json.dumps(doc))
    message = f"error: malformed net document: node id {twin!r} is used more than once\n"
    assert main(["validate", net_path]) == 2
    assert capsys.readouterr() == ("", message)
    assert main(["align", net_path, log_path, "--mode", "exact"]) == 2
    assert capsys.readouterr().err == message


def test_cli_align_realignment_cost_uses_the_run_costs(tmp_path):
    # the one realigned region holds both visible moves of the overlap, so
    # its cost is the total under the run's costs, not the default ones
    net_path, log_path = _clinic_overlap_inputs(tmp_path)
    totals = []
    for visible in (10_000, 5_000):
        out = tmp_path / f"report_{visible}.json"
        assert main(["align", net_path, log_path, "--mode", "approx",
                     "--costs", f"visible={visible}", "--out", str(out)]) == 0
        doc = load_report(out)
        (entry,) = doc["violations"]
        assert entry["realignment_cost"] == doc["total_cost"] == 2 * visible
        totals.append(doc["total_cost"])
    assert totals == [20_000, 10_000]


@pytest.mark.parametrize("entry", ["tau=-1", "sync=-5", "visible=-3"])
def test_cli_align_rejects_a_negative_cost(tmp_path, capsys, entry):
    # negative costs break the nonnegative edge costs the searches need
    net_path, log_path = _clinic_overlap_inputs(tmp_path)
    out = tmp_path / "report.json"
    assert main(["align", net_path, log_path, "--mode", "approx",
                 "--costs", entry, "--out", str(out)]) == 2
    assert f"error: negative cost entry {entry!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("entry", ["tau=1.5", "visible=", "sync=x"])
def test_cli_align_rejects_a_cost_that_is_no_integer(tmp_path, capsys, entry):
    # the message names the option and the entry, not only int()'s complaint
    net_path, log_path = _clinic_overlap_inputs(tmp_path)
    out = tmp_path / "report.json"
    assert main(["align", net_path, log_path, "--costs", f"sync=0,{entry}",
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: --costs: entry {entry!r} is not an integer cost\n")
    assert not out.exists()


def test_cli_align_rejects_a_visible_cost_below_one(tmp_path, capsys):
    # with visible 0 the search used to run to the end before its tau-move
    # soundness check failed; the cost table now refuses it up front
    net_path, log_path = _clinic_overlap_inputs(tmp_path)
    out = tmp_path / "report.json"
    assert main(["align", net_path, log_path, "--mode", "exact",
                 "--costs", "visible=0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: the visible-move cost must be at least 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("command, option", [
    ("simulate", "--cases"),
    ("simulate", "--drop-events"),
    ("simulate", "--swap-resources"),
    ("simulate", "--relax-capacity"),
    ("align", "--node-budget"),
    ("align", "--ilp-budget"),
])
def test_cli_rejects_a_negative_count(net_file, log_file, tmp_path, capsys, command, option):
    inputs = [net_file] if command == "simulate" else [net_file, log_file, "--mode", "approx"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as stop:
        main([command, *inputs, option, "-1", "--out", str(out)])
    assert stop.value.code == 2
    assert f"argument {option}: must not be negative, got -1" in capsys.readouterr().err
    assert not out.exists()
    # zero stays a count
    args = nualign.cli.build_parser().parse_args([command, *inputs, option, "0"])
    assert getattr(args, option[2:].replace("-", "_")) == 0


def _product():
    log = hospital_log()
    return build_sync_product(scale_cases(hospital_net(), log.cases()), build_log_net(log))


@pytest.mark.parametrize("call, argument", [
    (lambda: simulate(hospital_net(), -3, 1), "n_cases"),
    (lambda: DeviationConfig(drop_events=-2), "drop_events"),
    (lambda: DeviationConfig(swap_resources=-1), "swap_resources"),
    (lambda: DeviationConfig(relax_capacity=-1), "relax_capacity"),
    (lambda: optimal_alignment(_product(), node_budget=-1), "node_budget"),
    (lambda: NodeBudget(-5), "limit"),
])
def test_library_rejects_a_negative_count(call, argument):
    # the library calls behind the options above refuse what the CLI refuses
    with pytest.raises(ValueError, match=rf"^{argument} must be nonnegative, got -\d+$"):
        call()


def test_cli_simulate_roundtrip(net_file, tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", net_file, "--cases", "2", "--seed", "42",
                 "--out", str(out)]) == 0
    report = tmp_path / "report.json"
    assert main(["align", net_file, str(out), "--out", str(report)]) == 0
    # fitting run: no visible deviations, only possibly silent skips
    doc = load_report(report)
    assert doc["deviation_moves"] == 0
    assert doc["total_cost"] < doc["costs"]["visible"]


def test_cli_simulate_drop_deviation_costs_model_move(net_file, tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", net_file, "--cases", "2", "--seed", "42",
                 "--drop-events", "1", "--out", str(out)]) == 0
    report = tmp_path / "report.json"
    assert main(["align", net_file, str(out), "--out", str(report)]) == 0
    doc = load_report(report)
    assert doc["deviation_moves"] == 1
    assert 10_000 <= doc["total_cost"] < 20_000


@pytest.mark.parametrize("command", [
    ["align", "{net}", "{log}", "--out", "{missing}"],
    ["align", "{net}", "{log}", "--out", "{report}", "--dot", "{missing}"],
    ["simulate", "{net}", "--out", "{missing}"],
])
def test_cli_unwritable_output_exits_2(net_file, log_file, tmp_path, capsys, command):
    # exit 1 from ``align`` means deviations found, so an output path in a
    # missing directory is an input error
    missing = tmp_path / "no-such-dir" / "out"
    argv = [part.format(net=net_file, log=log_file, missing=missing,
                        report=tmp_path / "report.json") for part in command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no-such-dir" in err


@pytest.mark.parametrize("command", [
    ["align", "{bad}", "{log}"],
    ["dot", "{bad}"],
])
def test_cli_names_an_input_that_is_not_utf8(net_file, log_file, tmp_path, capsys, command):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main([part.format(bad=bad, log=log_file) for part in command]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: invalid JSON: ")


@pytest.mark.parametrize("command", [
    ["align", "{net}", "{bad}"],
    ["dot", "{bad}"],
])
@pytest.mark.parametrize("content, message", [
    (b"\xff\xfec1,i_s,1,g:g1\n", "'utf-8' codec can't decode byte 0xff in position 0"),
    (b"c1,i_s,1,g:g1\nc1,i_p,abc,g:g1\n", "line 2: bad timestamp 'abc'"),
])
def test_cli_names_a_log_it_cannot_read(net_file, tmp_path, capsys, command, content, message):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    assert main([part.format(net=net_file, bad=bad) for part in command]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")


def test_cli_dot_commands(net_file, log_file, tmp_path):
    report = tmp_path / "report.json"
    main(["align", net_file, log_file, "--out", str(report)])
    for source in (net_file, log_file, str(report)):
        out = tmp_path / "out.dot"
        assert main(["dot", source, "--out", str(out)]) == 0
        assert out.read_text().startswith("digraph")


def test_cli_dot_bad_input(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("[1,2,3]")
    assert main(["dot", str(path)]) == 2


def test_cli_dot_report_whose_moves_are_not_a_list(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"schema": "nualign-report", "moves": 5, "order": []}))
    assert main(["dot", str(path)]) == 2
    assert capsys.readouterr().err == "error: report's 'moves' must be list, not int\n"


def test_cli_dot_report_with_a_move_without_index(tmp_path, capsys):
    path = tmp_path / "report.json"
    doc = json.loads(dumps_report(make_report()[0]))
    del doc["moves"][1]["index"]
    path.write_text(json.dumps(doc))
    assert main(["dot", str(path)]) == 2
    assert capsys.readouterr().err == "error: move 1 lacks 'index'\n"


def test_cli_outputs_deterministic(net_file, log_file, tmp_path):
    outs = []
    for run in range(2):
        report = tmp_path / f"report{run}.json"
        dot = tmp_path / f"out{run}.dot"
        assert main(["align", net_file, log_file, "--mode", "approx",
                     "--out", str(report), "--dot", str(dot)]) == 0
        outs.append((report.read_bytes(), dot.read_bytes()))
    assert outs[0] == outs[1]

    sims = []
    for run in range(2):
        sim = tmp_path / f"sim{run}.csv"
        assert main(["simulate", net_file, "--seed", "7", "--out", str(sim)]) == 0
        sims.append(sim.read_bytes())
    assert sims[0] == sims[1]


@pytest.mark.parametrize("make_net, csv", [
    (hospital_net, lambda: HOSPITAL_LOG_CSV),
    (hospital_net, lambda: HOSPITAL_FORCED_OVERLAP_CSV),
    (clinic_net, lambda: serialize_log(clinic_log(3, overlap_at=1))),
], ids=["fit", "forced_overlap", "clinic_overlap"])
def test_cli_reports_independent_of_hash_seed(tmp_path, make_net, csv):
    net_file = str(tmp_path / "net.json")
    save_net(make_net(), net_file)
    log = tmp_path / "log.csv"
    log.write_text(csv())
    src = str(Path(nualign.__file__).resolve().parents[1])
    reports = {}
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        for mode in ("exact", "approx"):
            out = tmp_path / f"{mode}{seed}.json"
            subprocess.run(
                [sys.executable, "-m", "nualign.cli", "align", net_file, str(log),
                 "--mode", mode, "--out", str(out)],
                env=env, check=True, timeout=300,
            )
            reports[seed, mode] = out.read_bytes()
    for mode in ("exact", "approx"):
        assert reports["1", mode] == reports["2", mode]


#: sha256 of the report bytes of ``nualign align`` at its default options
#: but for its input's own (``PINNED_INPUTS``); a change to the report
#: bytes has to update these on purpose
PINNED_REPORTS = {
    ("hospital_forced_overlap", "exact"):
        "cec165e9084439c3066838bb3f4a332872daa154ff8504da77d3f10c4d0a29e2",
    ("hospital_forced_overlap", "approx"):
        "e532b269ea4ec4173da2b9d2d907c3b4794612cfae4498df21db336a35fa1f18",
    ("clinic_6_overlap_at_2", "exact"):
        "7a7363610029398e2abba0e211d552f1bcf135d30b4f690fdd59624d284f02f7",
    ("clinic_6_overlap_at_2", "approx"):
        "69f450abd8d7a6aa725de6fe992df403329d767618fb36d478b167fd450077f6",
    ("clinic_12_overlaps_at_3_and_8", "approx"):
        "8fbe23e9ea29ce7dbcf4063e5eae9c76692f2a7e3f60d14c2a284bf8de3a178e",
}

#: per pinned input, its net, its log and its options; under a node
#: budget of 10 000 the two overlaps' merged region falls back
PINNED_INPUTS = {
    "hospital_forced_overlap": (hospital_net, hospital_forced_overlap_log, []),
    "clinic_6_overlap_at_2": (clinic_net, lambda: clinic_log(6, overlap_at=2), []),
    "clinic_12_overlaps_at_3_and_8": (clinic_net, lambda: clinic_two_overlaps_log(12, 3, 8),
                                      ["--node-budget", "10000"]),
}


@pytest.mark.parametrize("name, mode", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(tmp_path, name, mode):
    make_net, make_log, options = PINNED_INPUTS[name]
    net_path, log_path, out = tmp_path / "net.json", tmp_path / "log.csv", tmp_path / "r.json"
    save_net(make_net(), net_path)
    log_path.write_text(serialize_log(make_log()))
    assert main(["align", str(net_path), str(log_path), "--mode", mode,
                 "--out", str(out), *options]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_REPORTS[name, mode]


@pytest.mark.parametrize("name, mode", sorted(PINNED_REPORTS))
def test_align_dot_equals_the_dot_of_its_report(tmp_path, name, mode):
    # ``align --dot`` renders the built report, whose order is the
    # alignment's Poset; ``nualign dot`` renders the written pair list
    make_net, make_log, options = PINNED_INPUTS[name]
    net_path, log_path = tmp_path / "net.json", tmp_path / "log.csv"
    save_net(make_net(), net_path)
    log_path.write_text(serialize_log(make_log()))
    report, direct, loaded = tmp_path / "r.json", tmp_path / "align.dot", tmp_path / "dot.dot"
    assert main(["align", str(net_path), str(log_path), "--mode", mode,
                 "--out", str(report), "--dot", str(direct), *options]) == 0
    assert main(["dot", str(report), "--out", str(loaded)]) == 0
    assert direct.read_bytes() == loaded.read_bytes()
    assert direct.read_text().count("->") > 0


# -- report writer against the JSON encoder ---------------------------------------

def encoder_bytes(doc):
    """The reference layout of a report: the standard library's encoder."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


DIFFERENTIAL_INPUTS = dict(PINNED_INPUTS, **{
    f"clinic_{n}": (clinic_net, lambda n=n: clinic_log(n, overlap_at=n // 2), [])
    for n in range(3, 13)
})


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_INPUTS))
def test_report_writer_matches_the_encoder_on_cli_reports(tmp_path, monkeypatch, name):
    make_net, make_log, options = DIFFERENTIAL_INPUTS[name]
    net_path, log_path, out = tmp_path / "net.json", tmp_path / "log.csv", tmp_path / "r.json"
    save_net(make_net(), net_path)
    log_path.write_text(serialize_log(make_log()))
    docs = []

    def spy(doc):
        docs.append(doc)
        return dumps_report(doc)

    monkeypatch.setattr(nualign.cli, "dumps_report", spy)
    for mode in ("exact", "approx"):
        assert main(["align", str(net_path), str(log_path), "--mode", mode,
                     "--out", str(out), *options]) == 0
        assert out.read_text(encoding="utf-8") == encoder_bytes(report_json(docs[-1]))
    assert [doc["mode"] for doc in docs] == ["exact", "approx"]
    assert all(closed_pairs(doc["order"]) for doc in docs)


def _model_move(case):
    return Move("model", transition="t", mode=(("c", case),), label=None)


def test_report_writer_matches_the_encoder_on_small_orders():
    two = (_model_move("c1"), _model_move("c2"))
    for alignment in (Alignment((), Poset(())),
                      Alignment(two[:1], Poset(range(1))),
                      Alignment(two, Poset(range(2)))):
        doc = build_report(alignment, "exact", net=hospital_net())
        assert report_json(doc)["order"] == []
        assert dumps_report(doc) == encoder_bytes(report_json(doc))


def test_report_writer_escapes_strings_like_the_encoder():
    odd = ['caf\u00e9 "\u6d4b\u8bd5"', 'back\\slash\nnew\tline', "\U0001f600 \x00 \u2028"]
    events = [Event(k, odd[k], float(k), odd[(k + 1) % 3], Multiset({odd[k]: 1}),
                    ((odd[k], odd[(k + 2) % 3]),))
              for k in range(3)]
    alignment = Alignment.chain([Move("log", event=e) for e in events]
                                + [Move("model", transition=odd[0], mode=(("c", odd[1]),),
                                        label=odd[2])])
    doc = build_report(alignment, "approx", net=hospital_net(), warnings=odd,
                       violations=[{"interval_lower": odd, odd[0]: None}])
    assert len(report_json(doc)["order"]) == 6
    assert dumps_report(doc) == encoder_bytes(report_json(doc))
    assert json.loads(dumps_report(doc)) == report_json(doc)


def test_report_writer_matches_the_encoder_on_every_move_layout():
    # each template branch: a log move (no transition, no bindings), a tau
    # and a visible model move, sync moves whose events hold several
    # instances with counts above 1 or none, an instance without a role,
    # timestamps the float repr writes in each form, and non-ASCII and
    # escaped text in binding keys and values, instances and roles
    odd = ['caf\u00e9', 'q"uote\\', 'tab\tnl\n', '\U0001f600\u2028', '\x00\x7f']
    events = [
        Event(0, "a", 0.1, "c1"),
        Event(1, odd[0], 1e16, odd[1], Multiset({odd[2]: 2, "g1": 3, odd[4]: 1}),
              ((odd[2], odd[3]), ("g1", "g"))),
        Event(2, "b", 1234567.125, "c2", Multiset({"s1": 1})),
        Event(3, odd[3], -3.5, "c2", Multiset({odd[0]: 4}), ((odd[0], odd[1]),)),
    ]
    moves = [
        Move("log", event=events[0]),
        Move("model", transition="t_skip_op", mode=(("c", "c1"),), label=None),
        Move("model", transition=odd[1], mode=((odd[0], odd[2]), ("b", odd[3])), label=odd[4]),
        Move("sync", event=events[1], transition="i_s", mode=((odd[3], odd[4]), ("c", odd[1])),
             label=odd[0]),
        Move("sync", event=events[2], transition="o_so", mode=(("c", "c2"), ("s", "s1")),
             label="b"),
        Move("sync", event=events[3], transition="o_c", mode=(("c", "c2"),), label=odd[3]),
    ]
    alignments = [Alignment((), Poset(())), Alignment(moves[:1], Poset(range(1))),
                  Alignment.chain(moves[1:2]),
                  Alignment(moves, Poset(range(6), [(0, 3), (1, 2), (3, 5), (4, 5)]))]
    for alignment in alignments:
        doc = build_report(alignment, "approx", net=hospital_net(), warnings=odd)
        text = dumps_report(doc)
        assert text == encoder_bytes(report_json(doc))
        assert json.loads(text) == report_json(doc)
    assert {m["case"] for m in doc["moves"]} >= {None, "c1", odd[1]}
    assert "?" in text and "1e+16" in text


def test_report_order_lists_the_closed_pairs_in_order():
    # random strict orders over move indices, half of them not following
    # the index order, each listed as sorted closed pairs
    rng = random.Random(13)
    for trial in range(300):
        n = rng.randrange(0, 26)
        rank = list(range(n))
        if trial % 2:
            rng.shuffle(rank)
        density = rng.choice([0.03, 0.1, 0.3])
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if rank[i] < rank[j] and rng.random() < density]
        order = Poset(range(n), pairs)
        doc = build_report(Alignment([_model_move("c1")] * n, order), "exact",
                           net=hospital_net())
        text = dumps_report(doc)
        assert json.loads(text)["order"] == sorted([i, j] for i, j in closed_pairs(order))
        assert text == encoder_bytes(report_json(doc))


def _rejects_the_order(tmp_path, capsys, order):
    """A loaded report with ``order`` is refused: ``report_to_alignment``
    raises ReportError, and ``nualign dot`` exits 2 on its file, unless
    JSON cannot hold the order as it is (a tuple, an int key)."""
    doc = json.loads(dumps_report(make_report()[0]))
    doc["order"] = order
    with pytest.raises(ReportError):
        report_to_alignment(doc)
    if json.loads(json.dumps(order)) == order:
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        assert main(["dot", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "order" in err


# the writer takes the alignment's ``Poset``; pair lists come only from
# loaded documents, so the reader is the one that refuses malformed ones

@pytest.mark.parametrize("pair", [
    [0, 1.0], [0, True], [0, "1"], [0, None], [0, 1, 2], [0], (0, 1), {0: 1, 1: 2}, 1,
])
def test_report_writer_rejects_pairs_that_are_not_two_ints(tmp_path, capsys, pair):
    _rejects_the_order(tmp_path, capsys, [[0, 1], pair])


@pytest.mark.parametrize("order", [None, {}, (), "", ((0, 1),)])
def test_report_writer_rejects_an_order_that_is_not_a_list(tmp_path, capsys, order):
    _rejects_the_order(tmp_path, capsys, order)
