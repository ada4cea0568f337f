"""serving_guard: the BENCH_serving.json regression comparison."""

import json

import pytest

from repro.experiments.serving_guard import (
    SECTIONS,
    SLO_GOODPUT_FLOOR,
    SPEC_SPEEDUP_FLOOR,
    SWAP_SPEEDUP_FLOOR,
    check_verdicts,
    compare_reports,
    main,
)


def _with_speculative(report, high_speedup, low_speedup=0.3):
    report = dict(report)
    report["speculative"] = {
        "bench": "serving-speculative",
        "variants": {
            "high-acceptance": {
                "speedup": high_speedup,
                "acceptance_rate": 0.96,
                "tokens_per_step": 6.8,
                "spec_tok_s": 100.0 * high_speedup,
                "plain_tok_s": 100.0,
            },
            "low-acceptance": {
                "speedup": low_speedup,
                "acceptance_rate": 0.0,
                "tokens_per_step": 1.0,
                "spec_tok_s": 100.0 * low_speedup,
                "plain_tok_s": 100.0,
            },
        },
    }
    return report


class TestSpeculativeSection:
    def test_above_floor_passes(self):
        current = _with_speculative({}, 1.9)
        baseline = _with_speculative({}, 1.8)
        assert compare_reports(current, baseline) == []

    def test_below_floor_fails(self):
        current = _with_speculative(
            {}, SPEC_SPEEDUP_FLOOR - 0.1
        )
        baseline = _with_speculative({}, 1.8)
        failures = compare_reports(current, baseline)
        assert len(failures) == 1
        assert "speculative" in failures[0] and "floor" in failures[0]

    def test_low_acceptance_carries_no_floor(self):
        # A 0.2x low-acceptance ratio is the documented worst case,
        # not a regression.
        current = _with_speculative({}, 1.9, low_speedup=0.2)
        baseline = _with_speculative({}, 1.9, low_speedup=0.5)
        assert compare_reports(current, baseline) == []

    def test_missing_section_fails(self):
        baseline = _with_speculative({}, 1.8)
        failures = compare_reports({}, baseline)
        assert len(failures) == 1
        assert "speculative" in failures[0]

    def test_baseline_without_speculative_is_backwards_compatible(self):
        # Old baselines predating the speculative bench must keep
        # passing untouched.
        current = _with_speculative({}, 0.9)
        assert compare_reports(current, {}) == []

    def test_missing_high_acceptance_variant_fails(self):
        current = _with_speculative({}, 1.9)
        del current["speculative"]["variants"]["high-acceptance"]
        failures = compare_reports(current, _with_speculative({}, 1.8))
        assert len(failures) == 1
        assert "high-acceptance" in failures[0]

    def test_custom_spec_floor(self):
        current = _with_speculative({}, 1.2)
        baseline = _with_speculative({}, 1.2)
        assert compare_reports(current, baseline, spec_floor=1.1) == []
        assert len(compare_reports(current, baseline)) == 1


def _with_swap(report, speedup):
    report = dict(report)
    report["swap"] = {
        "bench": "serving-swap-resume",
        "speedup": speedup,
        "swap_resume_ms": 2.0,
        "recompute_resume_ms": 2.0 * speedup,
        "context_tokens": 257,
        "spill_mib": 1.5,
        "threshold_tokens": 64,
    }
    return report


class TestSwapSection:
    def test_above_floor_passes(self):
        current = _with_swap({}, 8.0)
        baseline = _with_swap({}, 6.0)
        assert compare_reports(current, baseline) == []

    def test_below_floor_fails(self):
        current = _with_swap({}, SWAP_SPEEDUP_FLOOR - 0.5)
        baseline = _with_swap({}, 6.0)
        failures = compare_reports(current, baseline)
        assert len(failures) == 1
        assert "swap" in failures[0] and "floor" in failures[0]

    def test_missing_section_fails(self):
        baseline = _with_swap({}, 6.0)
        failures = compare_reports({}, baseline)
        assert len(failures) == 1
        assert "swap" in failures[0]

    def test_baseline_without_swap_is_backwards_compatible(self):
        current = _with_swap({}, 1.0)
        assert compare_reports(current, {}) == []

    def test_custom_swap_floor(self):
        current = _with_swap({}, 2.5)
        baseline = _with_swap({}, 2.5)
        assert compare_reports(current, baseline, swap_floor=2.0) == []
        assert len(compare_reports(current, baseline)) == 1


def _with_slo(report, goodput_ratio, parity_ok=True):
    report = dict(report)
    report["slo"] = {
        "bench": "serving-slo-trace",
        "goodput_ratio": goodput_ratio,
        "requests": 40,
        "arrival": "burst",
        "parity": {
            "replay_deterministic": True,
            "router_matches_engine": True,
            "slo_aware_output_transparent": parity_ok,
        },
        "fifo": {"goodput_tokens": 100, "ttft_p99_ms": 700.0},
        "slo_aware": {
            "goodput_tokens": int(100 * goodput_ratio),
            "ttft_p99_ms": 500.0,
        },
    }
    return report


class TestSloSection:
    def test_above_floor_passes(self):
        current = _with_slo({}, 1.3)
        baseline = _with_slo({}, 1.2)
        assert compare_reports(current, baseline) == []

    def test_below_floor_fails(self):
        current = _with_slo({}, SLO_GOODPUT_FLOOR - 0.05)
        baseline = _with_slo({}, 1.3)
        failures = compare_reports(current, baseline)
        assert len(failures) == 1
        assert "slo" in failures[0] and "goodput" in failures[0]

    def test_missing_section_fails(self):
        baseline = _with_slo({}, 1.3)
        failures = compare_reports({}, baseline)
        assert len(failures) == 1
        assert "slo" in failures[0] and "missing" in failures[0]

    def test_baseline_without_slo_is_backwards_compatible(self):
        current = _with_slo({}, 0.5)
        assert compare_reports(current, {}) == []

    def test_broken_parity_fails_even_above_floor(self):
        current = _with_slo({}, 1.5, parity_ok=False)
        baseline = _with_slo({}, 1.2)
        failures = compare_reports(current, baseline)
        assert len(failures) == 1
        assert "parity" in failures[0]
        assert "slo_aware_output_transparent" in failures[0]

    def test_custom_slo_floor(self):
        current = _with_slo({}, 1.05)
        baseline = _with_slo({}, 1.05)
        assert compare_reports(current, baseline, slo_floor=1.0) == []
        assert len(compare_reports(current, baseline)) == 1


class TestSectionsFilter:
    def test_slo_only_report_passes_against_full_baseline(self):
        """The CI slo-guard step's BENCH_slo.json carries only env +
        slo; --sections slo must not trip the missing-section checks."""
        current = _with_slo({"env": {}}, 1.3)
        baseline = _with_slo(
            _with_swap(_with_speculative({}, 1.8), 6.0), 1.2,
        )
        assert compare_reports(
            current, baseline, sections={"slo"}
        ) == []
        # Without the filter the same pair fails on every other section.
        assert len(compare_reports(current, baseline)) == 2

    def test_excluding_slo_skips_its_floor(self):
        current = _with_slo({}, 0.5)   # under the floor
        baseline = _with_slo({}, 1.2)
        assert compare_reports(
            current, baseline, sections={"swap"}
        ) == []

    def test_ci_sections_skip_slo_but_keep_the_rest(self):
        """The serving-perf-guard step compares speculative,swap only:
        slo is not judged there, the other two floors still bind."""
        baseline = _with_slo(_with_swap(_with_speculative({}, 1.8), 6.0), 1.2)
        ci = {"speculative", "swap"}
        current = _with_slo(_with_swap(_with_speculative({}, 1.8), 6.0), 0.5)
        assert compare_reports(current, baseline, sections=ci) == []
        current = _with_swap(_with_speculative({}, 1.0), 6.0)
        failures = compare_reports(current, baseline, sections=ci)
        assert len(failures) == 1 and "speculative" in failures[0]

    def test_every_failing_section_reported_together(self):
        baseline = _with_slo(_with_swap(_with_speculative({}, 1.8), 6.0), 1.2)
        current = _with_slo(_with_swap(_with_speculative({}, 1.0), 1.0), 0.5)
        failures = compare_reports(current, baseline)
        assert [f.split(":")[0] for f in failures] == list(SECTIONS)

    def test_unknown_section_raises(self):
        with pytest.raises(ValueError):
            compare_reports(
                {}, {}, sections={"latency"}
            )
        assert set(SECTIONS) == {"speculative", "swap", "slo"}


class TestCheckVerdicts:
    def _verdict(self, directory, name, ok, detail="passed"):
        (directory / f"{name}.json").write_text(json.dumps(
            {"workload": name, "ok": ok, "detail": detail}
        ))

    def test_all_ok_passes(self, tmp_path):
        for name in ("shared-prefix", "slo-guard"):
            self._verdict(tmp_path, name, True)
        lines, failures = check_verdicts(
            tmp_path, ["shared-prefix", "slo-guard"]
        )
        assert failures == []
        assert len(lines) == 2

    def test_failed_verdict_fails(self, tmp_path):
        self._verdict(tmp_path, "slo-guard", False,
                      "ServingError: goodput did not improve")
        _, failures = check_verdicts(tmp_path, ["slo-guard"])
        assert len(failures) == 1
        assert "goodput did not improve" in failures[0]

    def test_missing_expected_verdict_fails(self, tmp_path):
        self._verdict(tmp_path, "shared-prefix", True)
        _, failures = check_verdicts(
            tmp_path, ["shared-prefix", "swap-guard"]
        )
        assert len(failures) == 1
        assert "swap-guard" in failures[0]

    def test_empty_or_missing_dir_fails(self, tmp_path):
        _, failures = check_verdicts(tmp_path / "nope", [])
        assert failures
        _, failures = check_verdicts(tmp_path, [])
        assert failures

    def test_unreadable_verdict_fails(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json")
        _, failures = check_verdicts(tmp_path, [])
        assert any("broken" in f for f in failures)


class TestCli:
    def _write(self, path, report):
        path.write_text(json.dumps(report))
        return str(path)

    def test_pass_exit_zero(self, tmp_path, capsys):
        current = self._write(tmp_path / "cur.json", _with_swap({}, 8.0))
        baseline = self._write(tmp_path / "base.json", _with_swap({}, 6.0))
        assert main([current, baseline]) == 0
        out = capsys.readouterr().out
        assert "serving-perf-guard OK" in out

    def test_fail_exit_one(self, tmp_path, capsys):
        current = self._write(tmp_path / "cur.json", _with_swap({}, 1.5))
        baseline = self._write(tmp_path / "base.json", _with_swap({}, 6.0))
        assert main([current, baseline]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_spec_floor_flag_and_row_printed(self, tmp_path, capsys):
        current = self._write(
            tmp_path / "cur.json",
            _with_speculative({}, 1.3),
        )
        baseline = self._write(
            tmp_path / "base.json",
            _with_speculative({}, 1.8),
        )
        assert main([current, baseline]) == 1
        assert main([current, baseline, "--spec-floor", "1.2"]) == 0
        out = capsys.readouterr().out
        assert "speculative/high-acceptance" in out

    def test_swap_floor_flag_and_row_printed(self, tmp_path, capsys):
        current = self._write(
            tmp_path / "cur.json", _with_swap({}, 2.5)
        )
        baseline = self._write(
            tmp_path / "base.json", _with_swap({}, 6.0)
        )
        assert main([current, baseline]) == 1
        assert main([current, baseline, "--swap-floor", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "swap: resume speedup" in out

    def test_slo_floor_flag_and_row_printed(self, tmp_path, capsys):
        current = self._write(
            tmp_path / "cur.json", _with_slo({}, 1.05)
        )
        baseline = self._write(
            tmp_path / "base.json", _with_slo({}, 1.3)
        )
        assert main([current, baseline]) == 1
        assert main([current, baseline, "--slo-floor", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "slo: slo-aware goodput" in out

    def test_sections_flag_filters_the_diff(self, tmp_path, capsys):
        current = self._write(
            tmp_path / "slo_only.json", _with_slo({"env": {}}, 1.3)
        )
        baseline = self._write(
            tmp_path / "base.json", _with_slo(_with_swap({}, 6.0), 1.2)
        )
        assert main([current, baseline]) == 1
        assert main([current, baseline, "--sections", "slo"]) == 0
        out = capsys.readouterr().out
        assert "serving-perf-guard OK (slo sections)" in out

    def test_unknown_section_flag_errors(self, tmp_path):
        current = self._write(tmp_path / "cur.json", {})
        with pytest.raises(SystemExit):
            main([current, current, "--sections", "latency"])

    def test_missing_positionals_without_verdict_mode_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_check_verdicts_mode(self, tmp_path, capsys):
        (tmp_path / "slo-guard.json").write_text(json.dumps(
            {"workload": "slo-guard", "ok": True, "detail": "passed"}
        ))
        assert main([
            "--check-verdicts", str(tmp_path), "--expect", "slo-guard",
        ]) == 0
        assert "serving-verdict-guard OK" in capsys.readouterr().out
        assert main([
            "--check-verdicts", str(tmp_path),
            "--expect", "slo-guard", "swap-guard",
        ]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_env_provenance_printed_on_failure(self, tmp_path, capsys):
        report = _with_swap({}, 1.5)
        report["env"] = {
            "numpy": "9.9.9", "python": "3.11.7",
            "platform": "TestOS-1.0", "cpus": 64,
        }
        current = self._write(tmp_path / "cur.json", report)
        baseline = self._write(tmp_path / "base.json", _with_swap({}, 6.0))
        assert main([current, baseline]) == 1
        out = capsys.readouterr().out
        assert "current env: numpy 9.9.9" in out
        assert "64 cpus" in out


class TestBaselineFile:
    def test_committed_baseline_is_well_formed(self):
        """The tracked BENCH_serving.json must parse and satisfy its
        own guard thresholds (a baseline under the floor could never
        pass CI again)."""
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        baseline = json.loads((root / "BENCH_serving.json").read_text())
        spec = baseline["speculative"]["variants"]
        high = spec["high-acceptance"]
        assert float(high["speedup"]) >= SPEC_SPEEDUP_FLOOR
        assert float(high["acceptance_rate"]) > 0.8
        assert "low-acceptance" in spec
        swap = baseline["swap"]
        assert float(swap["speedup"]) >= SWAP_SPEEDUP_FLOOR
        assert int(swap["context_tokens"]) >= 256
        assert float(swap["spill_mib"]) > 0
        slo = baseline["slo"]
        assert float(slo["goodput_ratio"]) >= SLO_GOODPUT_FLOOR
        assert all(slo["parity"].values())
        env = baseline["env"]
        assert env["numpy"] and env["platform"] and env["cpus"] > 0
        assert compare_reports(baseline, baseline) == []

    def test_committed_baseline_carries_only_guarded_sections(self):
        """Every top-level key of BENCH_serving.json is a section the
        guard diffs, or the env provenance it prints on failure."""
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        baseline = json.loads((root / "BENCH_serving.json").read_text())
        assert set(baseline) == set(SECTIONS) | {"env"}
