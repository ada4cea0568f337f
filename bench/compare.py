"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py parent/results.json change/results.json
    python3 bench/compare.py --pairs p1.json c1.json p2.json c2.json ...

One row per (workload, end-to-end metric reported on it — the results
carry the flag; the pairs a run prints only for the driver's flat list
say nothing a reported one does not): each side's value and the
distance between its quartiles, the ratio with its base, the bound from
BENCHMARK.json and a verdict. Two files compare one run each (its
reported value; spread and overlap from its per-pass values); ``--pairs``
takes alternating parent/change runs (at least ten pairs to claim a gain)
and compares the medians of the runs' reported values.

Verdicts:

- ``worse``: the change's value is worse than the parent's by more than
  the bound;
- ``better``: the change wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the
  distance between the parent's own quartiles. With two files every value
  of the change must beat every value of the parent instead;
- ``unresolved``: the spread between the runs of one side is wider than
  the bound and the two sides overlap, so neither of the above can be told;
- ``same``: none of these.

Exits non-zero on any ``worse`` or when the change failed a larger share
of its operations.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict[str, dict]:
    """``workload -> untraced report`` from a suite ``results.json`` or a
    single ``<workload>-trace0.json``."""
    with open(path) as fh:
        data = json.load(fh)
    if "workload" in data:
        data = {"only": data}
    return {r["workload"]: r for r in data.values() if not r["trace"]}


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return q3 - q1


def worse_by(parent: float, change: float, better: str) -> float:
    """Share of *parent* by which *change* is worse (negative: better)."""
    delta = change - parent if better == "lower" else parent - change
    return delta / abs(parent) if parent else 0.0


def beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(
    pv: float, parent: list[float], cv: float, change: list[float],
    better: str, bound: float, paired: bool,
) -> str:
    """*pv* / *cv* are the sides' values, *parent* / *change* the samples
    their spread and overlap are read from."""
    spread = max(iqr(parent) / abs(pv), iqr(change) / abs(cv))
    all_better = all(beats(c, p, better) for c in change for p in parent)
    all_worse = all(beats(p, c, better) for c in change for p in parent)
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    if worse_by(pv, cv, better) > bound:
        return "worse"
    if paired:
        wins = sum(beats(c, p, better) for p, c in zip(parent, change))
        won = wins >= 0.9 * len(parent)
    else:
        won = all_better
    if won and abs(cv - pv) > iqr(parent):
        return "better"
    return "same"


def side(reports: list[dict], workload: str, name: str, paired: bool):
    """``(value, samples)`` of one side: the median of the runs' reported
    values and those values (``--pairs``), or the one run's reported value
    and its per-pass values."""
    if paired:
        samples = [r[workload]["metrics"][name]["value"] for r in reports]
        return median(samples), samples
    metric = reports[0][workload]["metrics"][name]
    return metric["value"], (
        metric.get("per_pass", {}).get("values") or [metric["value"]]
    )


def rows(parents: list[dict], changes: list[dict], spec: dict, paired: bool):
    """*parents* and *changes* are lists of ``workload -> report``."""
    out = []
    for workload in parents[0]:
        if workload not in changes[0]:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if not parents[0][workload]["metrics"][name]["reported_on"]:
                continue
            pv, p = side(parents, workload, name, paired)
            cv, c = side(changes, workload, name, paired)
            out.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "parent": pv, "parent_iqr": iqr(p),
                "change": cv, "change_iqr": iqr(c),
                "ratio": cv / pv if pv else float("nan"),
                "bound": metric["bound"],
                "verdict": verdict(pv, p, cv, c, metric["better"],
                                   metric["bound"], paired),
            })
    return out


def failed_share(reports: list[dict]) -> float:
    attempted = sum(r["attempted"] for side in reports for r in side.values())
    failed = sum(r["failed"] for side in reports for r in side.values())
    return failed / attempted if attempted else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument("--pairs", action="store_true",
                        help="files alternate parent, change, parent, ...")
    args = parser.parse_args(argv)
    if len(args.files) % 2 or (not args.pairs and len(args.files) != 2):
        parser.error("give parent and change files in pairs")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parents = [load(f) for f in args.files[0::2]]
    changes = [load(f) for f in args.files[1::2]]
    table = rows(parents, changes, spec, args.pairs)
    print(f"{'workload':18s} {'metric':14s} {'parent':>11s} {'±iqr':>9s} "
          f"{'change':>11s} {'±iqr':>9s} {'change/parent':>13s} {'bound':>6s}  verdict")
    for r in table:
        print(f"{r['workload']:18s} {r['metric']:14s} {r['parent']:11.5g} "
              f"{r['parent_iqr']:9.3g} {r['change']:11.5g} "
              f"{r['change_iqr']:9.3g} {r['ratio']:13.4f} "
              f"{r['bound']:6.0%}  {r['verdict']}")
    more_failures = failed_share(changes) > failed_share(parents)
    if more_failures:
        print(f"the change failed a larger share of operations: "
              f"{failed_share(changes):.4f} vs {failed_share(parents):.4f}")
    if len(parents) < 10 and args.pairs:
        print(f"only {len(parents)} pairs: ten are needed to claim a gain")
    return 1 if more_failures or any(
        r["verdict"] == "worse" for r in table
    ) else 0


if __name__ == "__main__":
    sys.exit(main())
