"""Entry point of the serving benchmark.

    python3 bench/run.py --workload decode-fp --seed 1 --seconds 22 --trace 0
    PYTHONPATH=src python -m bench.run            # every workload, to artifacts/bench

Pins the BLAS thread counts (so the core count cannot change the load) and
puts the repo root and ``src/`` on ``sys.path`` before numpy or the
program under test is imported; everything else lives in ``bench.harness``.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    # Run as a script, sys.path[0] is bench/ itself, where trace.py would
    # shadow the standard library's; the repo root takes its place.
    here = str(ROOT / "bench")
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from bench.harness import main as harness_main

    return harness_main()


if __name__ == "__main__":
    sys.exit(main())
