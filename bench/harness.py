"""One benchmark run, the suite over all workloads, and the repeat check.

``bench/run.py`` is the entry point; it pins the BLAS thread counts and
fixes ``sys.path`` before this module (and numpy) is imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from bench.compare import worse_by
from bench.metrics import end_to_end, per_layer
from bench.trace import Tracer, install
from bench.workloads import (
    WARMUP_REQUESTS,
    WORKLOADS,
    build_engines,
    run_pass,
    setup,
)

ROOT = Path(__file__).resolve().parent.parent
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def declared() -> dict:
    """The benchmark's declaration (BENCHMARK.json at the repo root)."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def provenance(seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "threads": {name: os.environ.get(name) for name in THREAD_PINS},
        "git_sha": sha,
        "seed": seed,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    rate_scale: float = 1.0,
    out: Path | None = None,
) -> dict:
    """Set up, measure for about *seconds*, check outputs, report.

    Untraced run: :data:`SETUP_REPEATS` timed set-ups, then untraced
    passes until the time is used; the metrics are the end-to-end ones.
    Traced run: one set-up, then untraced and traced passes in turn (the
    untraced ones only give the tracing overhead its base); the metrics
    are the per-layer ones. Every pass runs on freshly built engines.
    """
    workload = WORKLOADS[name]
    setups_s = []
    inputs = engines = None
    for _ in range(1 if trace else SETUP_REPEATS):
        # The previous set-up's engines go first: the process never holds
        # two sets, so its peak memory is one set-up's or one pass's.
        inputs = engines = None
        gc.collect()
        started = time.perf_counter()
        inputs, engines = setup(workload, seed, scale, rate_scale)
        setups_s.append(time.perf_counter() - started)

    def fresh_pass(tracer=None):
        """A pass on engines nothing has run on; they (models, pools) are
        freed before the next are built. The wrappers go in around the
        pass only: building and warming the engines calls the same entry
        points at other shapes, and is set-up, not the pass."""
        nonlocal engines
        if engines is None:
            engines = build_engines(workload, inputs)
        with install(tracer) if tracer else nullcontext():
            result = run_pass(workload, inputs, engines, tracer)
        engines = None
        gc.collect()
        return result

    tracer = Tracer() if trace else None
    untraced, traced = [], []
    started = time.perf_counter()
    while True:
        untraced.append(fresh_pass())
        if trace:
            traced.append(fresh_pass(tracer))
        elapsed = time.perf_counter() - started
        # Stop at the round boundary nearest to the requested time.
        if elapsed + elapsed / len(untraced) / 2 >= seconds:
            break

    counted = untraced + traced
    digests = {p.digest for p in counted}
    failed = sum(len(p.failed) for p in counted)
    if trace:
        table = tracer.table()
        metrics = per_layer(table, traced, untraced, inputs, workload)
    else:
        metrics = end_to_end(untraced, setups_s, workload)

    def phase(passes):
        sent = sum(p.sent for p in passes)
        bad = sum(len(p.failed) for p in passes)
        return {"requests_sent": sent, "requests_ok": sent - bad,
                "requests_failed": bad}

    # Every timed set-up and every later pass warmed its own engines.
    warm_sent = (
        (len(setups_s) - 1 + len(counted))
        * workload.router.get("workers", 1) * WARMUP_REQUESTS
    )
    report = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "rate_scale": rate_scale,
        "passes": len(untraced),
        "phases": {
            # build_engine raises unless every warm-up request completes.
            "warm-up": {"requests_sent": warm_sent, "requests_ok": warm_sent,
                        "requests_failed": 0},
            "measured": phase(untraced),
            "traced": phase(traced),
        },
        "output_digest": sorted(digests)[0] if len(digests) == 1 else None,
        "overloaded": any(p.overloaded for p in counted),
        "errors": [p.error for p in counted if p.error],
        "correct": failed == 0 and len(digests) == 1,
        "attempted": sum(p.sent for p in counted),
        "failed": failed,
        "metrics": metrics,
        "env": provenance(seed),
    }
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{name}-trace{int(trace)}.json", "w") as fh:
            json.dump(report, fh, indent=1)
        if trace:
            last = traced[-1]
            table.to_json(
                out / f"trace-{name}.json", name,
                [
                    {
                        "request_id": k,
                        "late_ms": last.late_ms.get(k, 0.0),
                        "first_token_ms": r.first_token_ms,
                        "latency_ms": r.latency_ms,
                    }
                    for k, r in sorted(last.results.items())
                ],
            )
    return report


def print_report(report: dict) -> None:
    """Every metric by name with its unit, then the driver's JSON line."""
    print(
        f"workload {report['workload']} seed {report['env']['seed']} "
        f"seconds {report['seconds']:g} trace {report['trace']} "
        f"passes {report['passes']}"
    )
    for label, counts in report["phases"].items():
        print(f"phase {label}: " + " ".join(f"{k} {v}" for k, v in counts.items()))
    print(f"output_digest {report['output_digest']}")
    if report["overloaded"]:
        print("overloaded: the run was still draining at the drain cap")
    for error in report["errors"]:
        print("error in the program under test:\n" + error)
    if report["trace"]:
        print("kernel.gmacs_per_s, kernel.bytes_per_call_mean and "
              "paging.kv_bytes_peak are computed from shapes, not measured")
    for name, m in report["metrics"].items():
        line = f"metric {name} {m['value']:.6g} {m['unit']}"
        if "per_pass" in m:
            s = m["per_pass"]
            line += (f"  (per pass min {s['min']:.6g} median "
                     f"{s['median']:.6g} max {s['max']:.6g})")
        if not m.get("reported_on", True):
            line += "  [printed for the flat list; not reported on this workload]"
        print(line)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in report["metrics"].items()
        },
    }))


def run_set(names, seed, seconds, out: Path) -> dict:
    """Every workload, untraced then traced, each in its own process so
    that ``peak_rss_mb`` is the workload's own."""
    reports = {}
    for name in names:
        for trace in (0, 1):
            subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace),
                 "--out", str(out)],
                check=True,
            )
            with open(out / f"{name}-trace{trace}.json") as fh:
                reports[f"{name}/trace{trace}"] = json.load(fh)
    return reports


def check_repeat(names, seed, seconds, out: Path) -> int:
    """Two full sets on the same checkout must agree within the bounds."""
    first = run_set(names, seed, seconds, out / "set1")
    second = run_set(names, seed, seconds, out / "set2")
    bad = 0
    rows = []
    for name in names:
        a, b = first[f"{name}/trace0"], second[f"{name}/trace0"]
        if not (a["correct"] and b["correct"]) or (
            a["output_digest"] != b["output_digest"]
        ):
            print(f"{name}: outputs differ or failed")
            bad += 1
        for spec in declared()["end_to_end"]:
            va = a["metrics"][spec["name"]]["value"]
            vb = b["metrics"][spec["name"]]["value"]
            diff = abs(worse_by(va, vb, spec["better"]))
            ok = diff <= spec["bound"]
            bad += not ok
            rows.append({"workload": name, "metric": spec["name"],
                         "first": va, "second": vb, "diff": diff,
                         "bound": spec["bound"], "ok": ok})
            print(f"{name:18s} {spec['name']:14s} {va:12.5g} {vb:12.5g} "
                  f"diff {diff:6.1%} bound {spec['bound']:4.0%} "
                  f"{'ok' if ok else 'DISAGREE'}")
    with open(out / "check-repeat.json", "w") as fh:
        json.dump(rows, fh, indent=1)
    return 1 if bad else 0


def main(argv=None) -> int:
    spec = declared()
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="The serving benchmark. With --workload: one run, "
        "printing the metrics and a final JSON line. Without: every "
        "workload, untraced and traced, each in its own process.",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink request counts and lengths (smoke runs)")
    parser.add_argument("--rate-scale", type=float, default=1.0,
                        help="trace-burst arrival-rate sweep, by hand only")
    parser.add_argument("--out", type=Path,
                        help="directory for result and trace files")
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)

    if args.workload:
        report = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.scale, args.rate_scale, args.out,
        )
        print_report(report)
        return 0
    out = args.out or ROOT / "artifacts" / "bench"
    if args.check_repeat:
        return check_repeat(args.workloads, args.seed, args.seconds, out)
    reports = run_set(args.workloads, args.seed, args.seconds, out)
    with open(out / "results.json", "w") as fh:
        json.dump(reports, fh, indent=1)
    return 0 if all(r["correct"] for r in reports.values()) else 1
