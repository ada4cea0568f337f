"""Serving-perf-guard comparison: tracked serving ratios vs the committed
baseline.

The serving-perf-guard CI lane runs ``python -m
repro.experiments.bench_serving --spec-guard --swap-guard --json ...``
to produce a fresh report, then calls this module to diff it against
the committed ``BENCH_serving.json`` at the repo root — the tracked perf
trajectory. The guard fails when:

- the baseline has a ``speculative`` section and the current report's
  high-acceptance speculative speedup (self-speculation draft,
  single-stream decode — see ``bench_serving.measure_spec_speedup``)
  fell below ``SPEC_SPEEDUP_FLOOR``. The low-acceptance row is
  reported but carries no floor: it documents the rollback-dominated
  worst case, whose ratio is legitimately below 1;
- the baseline has a ``swap`` section (``bench_serving --swap-guard``)
  and the current report's swap-over-recompute resume speedup fell
  below ``SWAP_SPEEDUP_FLOOR`` — restoring spilled KV blocks
  (O(context) memcpy) must stay decisively faster than replaying the
  model (O(context) FLOPs) on a long-context resume; or
- the baseline has an ``slo`` section (``bench_serving --slo-guard``)
  and the current report's slo-aware-over-fifo goodput-under-deadline
  ratio on the seeded burst trace fell below ``SLO_GOODPUT_FLOOR`` —
  deadline-aware scheduling must keep earning its keep.

``--sections`` restricts the diff to a comma-separated subset
(``speculative,swap,slo``), so a single-guard report
(e.g. the CI slo-guard step's ``BENCH_slo.json``, which carries only
the ``slo`` section) can be compared against the full committed
baseline without tripping the missing-section checks.

``--check-verdicts DIR`` is the machine-readable CI path: instead of
diffing reports it reads the per-workload ``{name}.json`` verdicts
``bench_serving --verdict-dir`` wrote (``{"workload", "ok",
"detail"}``), fails on any ``ok: false`` or any ``--expect`` name with
no verdict file, and replaces the old stdout-grep assertions.

Raw tok/s and step-millisecond numbers are machine-dependent and are
*not* compared — only same-machine, same-process ratios, which are
stable across hardware. When the guard does fail, the report's ``env``
provenance (numpy/python/platform/cpu count) is printed alongside, so
a machine change masquerading as a regression is visible at a glance.
"""

from __future__ import annotations

import json
import pathlib

#: Minimum speculative-over-plain decode speedup on the
#: high-acceptance (self-speculation) variant.
SPEC_SPEEDUP_FLOOR = 1.5
#: Minimum swap-resume-over-recompute-resume speedup on the
#: long-context (>= 256 cached tokens) preemption resume.
SWAP_SPEEDUP_FLOOR = 3.0
#: Minimum slo-aware-over-fifo goodput-under-deadline ratio on the
#: seeded burst trace (bench_serving --slo-guard).
SLO_GOODPUT_FLOOR = 1.1
#: Report sections the guard knows how to diff (--sections subsets).
SECTIONS = ("speculative", "swap", "slo")


def compare_reports(
    current: dict,
    baseline: dict,
    spec_floor: float = SPEC_SPEEDUP_FLOOR,
    swap_floor: float = SWAP_SPEEDUP_FLOOR,
    slo_floor: float = SLO_GOODPUT_FLOOR,
    sections: set[str] | None = None,
) -> list[str]:
    """Diff two ``BENCH_serving.json`` reports; returns failure strings
    (empty list = guard passes).

    ``sections`` limits the diff to a subset of :data:`SECTIONS`; the
    default ``None`` checks everything the baseline carries.
    """
    if sections is not None:
        unknown = set(sections) - set(SECTIONS)
        if unknown:
            raise ValueError(
                f"unknown report sections {sorted(unknown)}; "
                f"known: {', '.join(SECTIONS)}"
            )

    def active(name: str) -> bool:
        return sections is None or name in sections

    failures: list[str] = []
    if active("speculative") and "speculative" in baseline:
        spec = current.get("speculative")
        if spec is None:
            failures.append(
                "speculative: section present in baseline but missing "
                "from the current report"
            )
        else:
            high = spec.get("variants", {}).get("high-acceptance")
            if high is None:
                failures.append(
                    "speculative: high-acceptance variant missing from "
                    "the current report"
                )
            elif float(high["speedup"]) < spec_floor:
                failures.append(
                    f"speculative: high-acceptance speedup "
                    f"{float(high['speedup']):.2f}x is below the "
                    f"{spec_floor:.1f}x floor (acceptance "
                    f"{high.get('acceptance_rate', '?')})"
                )
    if active("swap") and "swap" in baseline:
        swap = current.get("swap")
        if swap is None:
            failures.append(
                "swap: section present in baseline but missing from "
                "the current report"
            )
        elif float(swap["speedup"]) < swap_floor:
            failures.append(
                f"swap: resume speedup {float(swap['speedup']):.2f}x "
                f"is below the {swap_floor:.1f}x floor (swap "
                f"{swap.get('swap_resume_ms', '?')} ms vs recompute "
                f"{swap.get('recompute_resume_ms', '?')} ms at "
                f"{swap.get('context_tokens', '?')} cached tokens)"
            )
    if active("slo") and "slo" in baseline:
        slo = current.get("slo")
        if slo is None:
            failures.append(
                "slo: section present in baseline but missing from "
                "the current report"
            )
        else:
            ratio = float(slo["goodput_ratio"])
            if ratio < slo_floor:
                failures.append(
                    f"slo: slo-aware goodput is only {ratio:.2f}x fifo "
                    f"on the burst trace (floor {slo_floor:.2f}x) — "
                    "deadline-aware scheduling stopped paying off"
                )
            parity = slo.get("parity", {})
            broken = sorted(k for k, v in parity.items() if not v)
            if broken:
                failures.append(
                    "slo: replay parity checks failed: "
                    + ", ".join(broken)
                )
    return failures


def check_verdicts(
    verdict_dir: str | pathlib.Path,
    expect: list[str] | None = None,
) -> tuple[list[str], list[str]]:
    """Read the per-workload ``{name}.json`` verdicts written by
    ``bench_serving --verdict-dir``; returns ``(lines, failures)`` where
    *lines* is a human-readable summary of every verdict found and
    *failures* is non-empty when any verdict is missing or ``ok: false``.
    """
    directory = pathlib.Path(verdict_dir)
    lines: list[str] = []
    failures: list[str] = []
    found: dict[str, dict] = {}
    for path in sorted(directory.glob("*.json")) if directory.is_dir() else []:
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            failures.append(f"{path.name}: unreadable verdict ({exc})")
            continue
        name = str(data.get("workload", path.stem))
        found[name] = data
    if not found and not failures:
        failures.append(f"no verdict files found under {directory}")
    for name, data in sorted(found.items()):
        ok = bool(data.get("ok"))
        detail = data.get("detail", "")
        lines.append(f"{name}: {'ok' if ok else 'FAILED'} — {detail}")
        if not ok:
            failures.append(f"{name}: workload failed — {detail}")
    for name in expect or []:
        if name not in found:
            failures.append(
                f"{name}: expected a verdict but none was written "
                "(workload never ran?)"
            )
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Fail when a tracked serving ratio fell below its "
        "floor vs the committed BENCH_serving.json baseline"
    )
    parser.add_argument(
        "current", nargs="?", help="freshly measured report "
        "(bench_serving --spec-guard --swap-guard --json); not needed with "
        "--check-verdicts",
    )
    parser.add_argument(
        "baseline", nargs="?",
        help="committed baseline report (BENCH_serving.json)",
    )
    parser.add_argument(
        "--spec-floor", type=float, default=SPEC_SPEEDUP_FLOOR,
        help="minimum speculative speedup on the high-acceptance "
        "variant (default %(default)s)",
    )
    parser.add_argument(
        "--swap-floor", type=float, default=SWAP_SPEEDUP_FLOOR,
        help="minimum swap-resume over recompute-resume speedup "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--slo-floor", type=float, default=SLO_GOODPUT_FLOOR,
        help="minimum slo-aware over fifo goodput ratio on the burst "
        "trace (default %(default)s)",
    )
    parser.add_argument(
        "--sections", default=None,
        help="comma-separated subset of report sections to compare "
        f"({', '.join(SECTIONS)}; default: all present in baseline)",
    )
    parser.add_argument(
        "--check-verdicts", metavar="DIR", default=None,
        help="verdict mode: read per-workload JSON verdicts written by "
        "bench_serving --verdict-dir and fail on any missing/failed "
        "one (report positionals are ignored)",
    )
    parser.add_argument(
        "--expect", nargs="*", default=None, metavar="NAME",
        help="workload names that must have a verdict file in "
        "--check-verdicts mode",
    )
    args = parser.parse_args(argv)

    if args.check_verdicts is not None:
        lines, failures = check_verdicts(args.check_verdicts, args.expect)
        for line in lines:
            print(line)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        print(
            f"serving-verdict-guard OK: {len(lines)} workload "
            f"verdicts under {args.check_verdicts}, all passed"
        )
        return 0
    if args.current is None or args.baseline is None:
        parser.error(
            "current and baseline reports are required unless "
            "--check-verdicts is given"
        )

    sections = None
    if args.sections is not None:
        sections = {
            name.strip() for name in args.sections.split(",") if name.strip()
        }
    current = json.loads(pathlib.Path(args.current).read_text())
    baseline = json.loads(pathlib.Path(args.baseline).read_text())
    try:
        failures = compare_reports(
            current, baseline, spec_floor=args.spec_floor,
            swap_floor=args.swap_floor, slo_floor=args.slo_floor,
            sections=sections,
        )
    except ValueError as exc:
        parser.error(str(exc))
    for key, row in sorted(
        current.get("speculative", {}).get("variants", {}).items()
    ):
        print(
            f"speculative/{key}: speedup {row['speedup']:.2f}x "
            f"(acceptance {row['acceptance_rate']}, "
            f"{row['tokens_per_step']} tok/step)"
        )
    swap = current.get("swap")
    if swap is not None:
        print(
            f"swap: resume speedup {swap['speedup']:.2f}x "
            f"(swap {swap.get('swap_resume_ms', '?')} ms vs recompute "
            f"{swap.get('recompute_resume_ms', '?')} ms, "
            f"{swap.get('context_tokens', '?')} cached tokens, "
            f"{swap.get('spill_mib', '?')} MiB spilled)"
        )
    slo = current.get("slo")
    if slo is not None:
        print(
            f"slo: slo-aware goodput {slo['goodput_ratio']:.2f}x fifo "
            f"(floor {args.slo_floor}) on {slo.get('requests', '?')} "
            f"requests, {slo.get('arrival', '?')} arrivals, "
            f"slo-aware ttft p99 "
            f"{slo.get('slo_aware', {}).get('ttft_p99_ms', '?')} ms vs "
            f"fifo {slo.get('fifo', {}).get('ttft_p99_ms', '?')} ms"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        for label, report in (("current", current), ("baseline", baseline)):
            env = report.get("env")
            if env:
                print(
                    f"{label} env: numpy {env.get('numpy', '?')}, "
                    f"python {env.get('python', '?')}, "
                    f"{env.get('cpus', '?')} cpus, "
                    f"{env.get('platform', '?')}"
                )
        return 1
    checked = ",".join(sorted(sections)) if sections else "all"
    print(
        f"serving-perf-guard OK ({checked} sections): speculative high-"
        f"acceptance speedup >= {args.spec_floor:.1f}x, swap resume "
        f">= {args.swap_floor:.1f}x recompute, slo-aware goodput >= "
        f"{args.slo_floor:.1f}x fifo"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
