"""bench_serving CLI surface: workload/flag registry, verdict files,
and the committed BENCH_serving.json schema."""

import json
import pathlib

import pytest

from repro.experiments.bench_serving import (
    WORKLOADS,
    _guarded,
    build_parser,
)
from repro.experiments.serving_guard import SLO_GOODPUT_FLOOR

ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestParser:
    def test_every_registered_workload_parses(self):
        parser = build_parser()
        for workload in WORKLOADS:
            assert parser.parse_args(
                ["--workload", workload]
            ).workload == workload

    def test_trace_workload_is_registered(self):
        assert "trace" in WORKLOADS

    def test_unknown_workload_is_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--workload", "does-not-exist"])

    def test_every_registered_scheduler_parses(self):
        from repro.runtime import SCHEDULERS

        parser = build_parser()
        for scheduler in SCHEDULERS:
            assert parser.parse_args(
                ["--scheduler", scheduler]
            ).scheduler == scheduler
        with pytest.raises(SystemExit):
            parser.parse_args(["--scheduler", "round-robin"])

    def test_guard_flags_default_off_and_compose(self):
        args = build_parser().parse_args([])
        assert not (args.spec_guard or args.swap_guard
                    or args.slo_guard or args.router_smoke)
        assert args.json is None and args.verdict_dir is None
        args = build_parser().parse_args([
            "--spec-guard", "--swap-guard",
            "--slo-guard", "--json", "out.json",
            "--verdict-dir", "verdicts",
        ])
        assert args.spec_guard
        assert args.swap_guard and args.slo_guard
        assert args.json == "out.json"
        assert args.verdict_dir == "verdicts"


class TestVerdictFiles:
    def test_success_writes_ok_verdict_and_returns_result(self, tmp_path):
        result = _guarded(str(tmp_path), "demo", lambda: {"x": 1})
        assert result == {"x": 1}
        data = json.loads((tmp_path / "demo.json").read_text())
        assert data == {"workload": "demo", "ok": True, "detail": "passed"}

    def test_failure_writes_false_verdict_and_reraises(self, tmp_path):
        def boom():
            raise RuntimeError("goodput did not improve")

        with pytest.raises(RuntimeError):
            _guarded(str(tmp_path), "slo-guard", boom)
        data = json.loads((tmp_path / "slo-guard.json").read_text())
        assert data["workload"] == "slo-guard"
        assert data["ok"] is False
        assert "goodput did not improve" in data["detail"]

    def test_none_dir_is_a_noop(self):
        assert _guarded(None, "demo", lambda: 42) == 42


class TestCommittedBaseline:
    """The tracked BENCH_serving.json is the schema contract the JSON
    writer and the guard diff share; it must stay well-formed."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return json.loads((ROOT / "BENCH_serving.json").read_text())

    def test_top_level_sections(self, baseline):
        assert set(baseline) == {"env", "speculative", "swap", "slo"}

    def test_slo_section_schema(self, baseline):
        slo = baseline["slo"]
        assert slo["bench"] == "serving-slo-trace"
        assert slo["workload"] == "trace-pressure"
        assert slo["arrival"] == "burst"
        assert slo["requests"] > 0 and slo["total_tokens"] > 0
        assert slo["step_ms"] > 0 and slo["steps_per_s"] > 0
        # Replay parity is a hard invariant, not a measurement.
        assert all(slo["parity"].values())
        for policy in ("fifo", "slo_aware"):
            summary = slo[policy]
            assert summary["goodput_tokens"] >= 0
            assert summary["ttft_p99_ms"] > 0
            assert summary["tpot_p99_ms"] > 0
            assert {"interactive", "batch"} <= set(summary["classes"])
        # The ratio is rounded for the report; the raw counts must
        # still support it.
        assert slo["goodput_ratio"] == pytest.approx(
            slo["slo_aware"]["goodput_tokens"]
            / slo["fifo"]["goodput_tokens"], abs=0.01,
        )
        assert slo["goodput_ratio"] >= SLO_GOODPUT_FLOOR
