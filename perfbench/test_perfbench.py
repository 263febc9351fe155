"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import nets  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nualign import cli  # noqa: E402
from nualign.netfile import net_from_dict  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_batch_mix_and_kept_failure():
    ops = workloads.batch(3)
    assert len(ops) == workloads.BATCH_LOGS + 1
    assert [op.expect_failure for op in ops].count(True) == 1
    assert ops[-1] == workloads.batch(4)[-1], "the failing log must not depend on the seed"
    assert {op.net for op in ops[:-1]} == set(workloads.BATCH_NETS)
    assert all(2 <= len({row[0] for row in op.rows}) <= 3 for op in ops[:-1])


def test_schedule_respects_capacity():
    rng = random.Random(1)
    roles, path = workloads.BATCH_NETS["claim_release"]
    for _ in range(50):
        rows = workloads.schedule(rng, roles, [path(rng) for _ in range(3)])
        holders = {}
        for case, activity, _, res in rows:
            if activity == "claim":
                assert res not in holders
                holders[res] = case
            else:
                assert holders.pop(res) == case


@pytest.mark.parametrize("name", sorted(nets.NETS))
def test_nets_pass_structural_validation(name):
    net_from_dict(nets.NETS[name]())


def _exact_cost(tmp_path, rows):
    (tmp_path / "net.json").write_text(json.dumps(nets.clinic()))
    (tmp_path / "log.csv").write_text(workloads.csv_text(rows))
    op = workloads.Operation("t", "clinic", tuple(rows), mode="exact")
    argv = op.argv(tmp_path / "net.json", tmp_path / "log.csv", tmp_path / "r.json")
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    events = checks.read_log(tmp_path / "log.csv")
    assert checks.check_report(report, events, "exact") == []
    return report["total_cost"]


@pytest.mark.parametrize("activity", sorted(set(workloads.WIDE_MISSING)))
def test_optimum_of_one_missing_event(tmp_path, activity):
    rows = workloads.clinic_rows(random.Random(activity), 2, missing={1: activity})
    assert _exact_cost(tmp_path, rows) == workloads.clinic_optimum(0, 1) == 10_000


def test_optimum_of_a_forced_overlap(tmp_path):
    rows = workloads.clinic_rows(random.Random(2), 3, overlap_at=1)
    assert _exact_cost(tmp_path, rows) == workloads.clinic_optimum(1, 0) == 20_000


def test_optimum_of_overlap_and_missing_event(tmp_path):
    rows = workloads.clinic_rows(random.Random(3), 3, overlap_at=0, missing={2: "o_so"})
    assert _exact_cost(tmp_path, rows) == workloads.clinic_optimum(1, 1) == 30_000


def test_missing_event_in_overlapping_pair_is_refused():
    with pytest.raises(ValueError):
        workloads.clinic_rows(random.Random(0), 3, overlap_at=0, missing={1: "o_p"})


def _approx_report(tmp_path):
    rows = workloads.clinic_rows(random.Random(5), 3, missing={0: "o_c"})
    (tmp_path / "net.json").write_text(json.dumps(nets.clinic()))
    (tmp_path / "log.csv").write_text(workloads.csv_text(rows))
    op = workloads.Operation("t", "clinic", rows)
    assert cli.main(op.argv(tmp_path / "net.json", tmp_path / "log.csv",
                            tmp_path / "r.json")) == 0
    return (json.loads((tmp_path / "r.json").read_text()),
            checks.read_log(tmp_path / "log.csv"))


def test_checks_pass_a_correct_report_and_catch_broken_ones(tmp_path):
    report, events = _approx_report(tmp_path)
    assert checks.check_report(report, events, "approx", 10_000) == []
    assert checks.check_report(report, events, "approx", 20_000) != []

    wrong_cost = dict(report, total_cost=report["total_cost"] + 1)
    assert checks.check_report(wrong_cost, events, "approx") != []

    carriers = [m for m in report["moves"] if m["kind"] != "model"]
    doubled = dict(report, moves=report["moves"] + [carriers[0]])
    assert checks.check_report(doubled, events, "approx") != []

    carrier = {m["event"]["index"]: m["index"] for m in carriers}
    a, b = checks.log_order(events)[0]
    lost = [p for p in report["order"] if p != [carrier[a], carrier[b]]]
    assert checks.check_report(dict(report, order=lost), events, "approx") != []


def test_log_order_follows_the_chronology_rules():
    events = [(0, "a", "x", 1.0), (1, "b", "x", 1.0), (2, "a", "y", 1.0), (3, "b", "y", 2.0)]
    assert sorted(checks.log_order(events)) == [(0, 2), (0, 3), (1, 3), (2, 3)]


def test_tracer_finds_every_name():
    cli_module = run.fresh_cli()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert cli_module.parse_log.__module__ == "nualign.eventlog"


def test_layer_times_split_inclusive_and_self():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["cli.main", 0.0, 10.0, None, 0],
        ["approx.build_ilp", 1.0, 4.0, 0, 0],
        ["ilp.solve", 5.0, 9.0, 0, 0],
        ["ilp.solve", 6.0, 7.0, 2, 0],
    ]
    times = tracer.layer_times(0)
    assert times["cli.main.s"] == 10.0 and times["cli.main.self_s"] == 3.0
    assert times["ilp.solve.s"] == 4.0 and times["ilp.solve.self_s"] == 4.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
