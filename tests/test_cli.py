"""File formats and CLI commands: round-trips, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nualign
import nualign.approx
from nualign.cli import EXIT_INVALID, main
from nualign.dot import log_to_dot, net_to_dot, report_to_dot
from nualign.fixtures import (
    HOSPITAL_FORCED_OVERLAP_CSV,
    HOSPITAL_LOG_CSV,
    hospital_log,
    hospital_net,
)
from nualign.netfile import NetFileError, load_net, net_from_dict, net_to_dict, save_net
from nualign.report import (
    build_report,
    dumps_report,
    report_to_alignment,
    load_report,
    ReportError,
)
from nualign.align import build_sync_product, optimal_alignment
from nualign.lognet import build_log_net
from nualign.rcnu import scale_cases, validate_structure


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
    assert text.count("->") == len(log.order.transitive_reduction().pairs())


def test_report_dot_reduction_edges():
    doc, alignment = make_report()
    text = report_to_dot(doc)
    assert text.count("->") == len(alignment.order.transitive_reduction().pairs())
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


def test_cli_validate_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["validate", str(path)]) == 2


def test_cli_align_exact(net_file, log_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["align", net_file, log_file, "--out", str(out)])
    assert code == 0
    doc = load_report(out)
    assert doc["mode"] == "exact" and doc["total_cost"] == 0


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


@pytest.mark.parametrize("csv", [HOSPITAL_LOG_CSV, HOSPITAL_FORCED_OVERLAP_CSV],
                         ids=["fit", "forced_overlap"])
def test_cli_reports_independent_of_hash_seed(net_file, tmp_path, csv):
    log = tmp_path / "log.csv"
    log.write_text(csv)
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
