"""Smoke test of the benchmark itself: every workload, tiny, in-process,
with tracing off and on. Checks names, the output check, span accounting
and that tracing leaves the program as it found it — never a timing."""

import json
import re

import pytest

import bench.harness
import bench.workloads
from bench.compare import rows
from bench.harness import declared, print_report, run_workload
from bench.metrics import E2E
from bench.trace import ROOT, SpanTable, _defining_owner, targets
from bench.workloads import WORKLOADS, generate_inputs

SMALL = dict(seconds=0.25, scale=0.05)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    """Timing the set-up three times is the run's business, not the test's."""
    monkeypatch.setattr(bench.harness, "SETUP_REPEATS", 1)


def test_declaration_names_the_workloads():
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(E2E)
    # Every metric is reported somewhere, set-up time everywhere.
    assert all(on and set(on) <= set(WORKLOADS) for _, on in E2E.values())
    assert E2E["setup_s"][1] == tuple(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names + list(WORKLOADS))


def wrapped_now():
    return [
        vars(_defining_owner(owner, attr))[attr] for owner, attr, *_ in targets()
    ]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_prints_the_end_to_end_metrics(name, capsys):
    spec = declared()["end_to_end"]
    report = run_workload(name, seed=3, trace=False, **SMALL)
    print_report(report)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0
        assert report["metrics"][m["name"]]["reported_on"] == (
            name in E2E[m["name"]][1]
        )
    assert report["phases"]["traced"]["requests_sent"] == 0
    # A change is compared with its parent where a metric is reported.
    compared = rows([{name: report}], [{name: report}], declared(), paired=False)
    assert [r["metric"] for r in compared] == [
        metric for metric, (_, on) in E2E.items() if name in on
    ]
    assert all(r["ratio"] == 1 for r in compared)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_partitions_the_wall_and_restores_the_program(
    name, capsys, tmp_path
):
    spec = declared()["per_layer"]
    originals = wrapped_now()
    report = run_workload(name, seed=3, trace=True, out=tmp_path, **SMALL)
    assert wrapped_now() == originals
    print_report(report)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]

    table = SpanTable.from_json(tmp_path / f"trace-{name}.json")
    # Building and warming the engines is not the pass: nothing is
    # recorded outside a pass root, so every self time is a share of it.
    roots = table.parent < 0
    assert (roots == table.mask(ROOT)).all()
    sent_a_pass = len(generate_inputs(WORKLOADS[name], 3, SMALL["scale"]).requests)
    assert roots.sum() * sent_a_pass == report["phases"]["traced"]["requests_sent"]
    wall = table.duration[roots].sum()
    assert table.self_time.sum() == pytest.approx(wall, rel=1e-9)
    assert table.self_time.min() > -1e-6
    metrics = {k: m["value"] for k, m in last["metrics"].items()}
    shares = [v for k, v in metrics.items() if k.endswith("self_frac")]
    assert all(v >= 0 for v in shares)
    # The named layers' shares and the root's own never exceed the wall;
    # what they leave is the router's, the policies' and the idle sleep's.
    assert sum(shares) + metrics["trace.unattributed_frac"] <= 1 + 1e-9
    assert table.mask("engine.step").sum() == metrics["engine.steps"] * roots.sum()
    assert table.mask("kernel.execute").any()
    assert table.mask("cluster.pump").any() == (name == "prefill-shared-2w")
    assert (metrics["routing.place_us_p50"] > 0) == (name == "prefill-shared-2w")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_follow_the_seed(name):
    workload = WORKLOADS[name]
    a, b, c = (generate_inputs(workload, s, SMALL["scale"]) for s in (1, 1, 2))
    assert a.requests == b.requests and a.due_s == b.due_s
    assert [r.prompt for r in a.requests] != [r.prompt for r in c.requests]
    # The shape (ids, lengths, schedule, which requests are checked) is
    # the workload's, not the seed's.
    assert a.due_s == c.due_s
    assert [r.request_id for r in a.samples] == [r.request_id for r in c.samples]
    assert [(r.request_id, len(r.prompt), r.max_new_tokens)
            for r in a.requests] == [
        (r.request_id, len(r.prompt), r.max_new_tokens) for r in c.requests
    ]


def test_a_corrupted_token_stream_is_a_failure(monkeypatch):
    reference = bench.workloads.solo_reference

    def corrupted(workload, inputs):
        out = reference(workload, inputs)
        first = next(iter(out))
        out[first][-1] = (out[first][-1] + 1) % 512
        return out

    monkeypatch.setattr(bench.workloads, "solo_reference", corrupted)
    report = run_workload("decode-fp", seed=3, trace=False, **SMALL)
    assert not report["correct"]
    assert report["failed"] == report["passes"]
    assert report["phases"]["measured"]["requests_failed"] == report["failed"]
