"""Token streams against committed digests (``golden_digests.json``).

A digest that moved means the served tokens, or the bits of the model's
linears, moved: a kernel, table, sampler or scheduler change altered
some output. The file is data,
rewritten only on purpose (``python -m tests.runtime.golden``), with the
reason stated. Runs on both bodies of ``lut-blocked`` (conftest's
``BOTH_BODIES``) and under whichever LUT backend
``REPRO_MPGEMM_BACKEND`` names; ``reference`` is not bit-exact and is
skipped.
"""

import json

import pytest

from repro.kernels import resolve_backend_name
from tests.runtime.golden import (
    GOLDEN_FILE,
    SCENARIOS,
    SEEDS,
    linears_digest,
    run,
)

GOLDEN = json.loads(GOLDEN_FILE.read_text())


def test_file_holds_the_matrix():
    assert sorted(GOLDEN) == sorted(
        [f"{scenario}/{seed}" for scenario in SCENARIOS for seed in SEEDS]
        + [f"linears/{seed}" for seed in SEEDS]
    )


def _lut_backend_only():
    if resolve_backend_name(None) == "reference":
        pytest.skip("the reference backend is not bit-exact")


@pytest.mark.parametrize("seed", SEEDS)
def test_linears_match_the_committed_digest(seed):
    _lut_backend_only()
    assert linears_digest(seed) == GOLDEN[f"linears/{seed}"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_streams_match_the_committed_digest(scenario, seed):
    _lut_backend_only()
    digest, results, stats = run(scenario, seed)
    # Each scenario exercises what it is named for.
    if scenario.startswith("preempt"):
        assert sum(r.preemptions for r in results) > 0
    if scenario == "preempt-swap":
        assert stats.swaps > 0
    if scenario == "spec-high":
        assert sum(r.spec_accepted for r in results) > 0
    assert digest == GOLDEN[f"{scenario}/{seed}"]
