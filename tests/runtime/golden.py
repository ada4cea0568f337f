"""The golden token-stream digests: a pinned scenario matrix on a tiny
model, and the writer of ``golden_digests.json``.

Each scenario serves a small request set through one feature of the
runtime — float and int4 KV decode, chunked prefill, prefix sharing,
preemption by recompute and by swap, speculation at high and at zero
acceptance, a two-worker router — for two seeds, and its digest is the
SHA-256 of the emitted token streams. Tokens survive a one-ulp change
to the table build, so one more digest per seed covers the bits: every
linear of the model applied to a fixed activation block. It holds no
transcendental — the logits do, through numpy's ``exp``, whose SIMD path
differs from libm in the last bit (so do the bits of every softmax), and
a logits digest would pin this host's ``exp``. Every LUT backend and
both bodies
of ``lut-blocked`` are bit-identical, so one digest per (scenario, seed)
covers all of them; ``reference`` is excluded (its BLAS GEMM agrees to
1e-9, not bit for bit). ``tests/runtime/test_golden_digests.py`` recomputes
the digests and compares them with the committed file.

Rewrite the file (a change to it must say why)::

    PYTHONPATH=src:. python -m tests.runtime.golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.models.configs import ModelConfig
from repro.runtime import (
    AsyncRouter,
    DecoderModel,
    Request,
    RuntimeConfig,
    SamplingParams,
    ServingEngine,
    SpeculativeConfig,
)

GOLDEN_FILE = Path(__file__).with_name("golden_digests.json")

TINY = ModelConfig(
    "golden-tiny", hidden=32, ffn=48, layers=2, heads=4, kv_heads=2,
    vocab=64, gated_ffn=True,
)

SEEDS = (0, 1)

#: scenario -> (RuntimeConfig overrides, forced-preemption steps, workers)
SCENARIOS: dict[str, tuple[dict, tuple[int, ...], int]] = {
    "decode-fp": ({"kv_bits": None}, (), 1),
    "decode-int4kv": ({}, (), 1),
    "chunked-prefill": ({"prefill_chunk": 5}, (), 1),
    "prefix-sharing": ({"prefix_sharing": True}, (), 1),
    "preempt-recompute": ({"kv_pool_blocks": 32}, (2, 5), 1),
    "preempt-swap": (
        {"kv_pool_blocks": 32, "swap_threshold_tokens": 1}, (2, 5), 1
    ),
    "spec-high": ({"speculative": SpeculativeConfig(k=2)}, (), 1),
    "spec-zero": ({"speculative": SpeculativeConfig(k=3, seed=999)}, (), 1),
    "router-2w": ({"prefix_sharing": True}, (), 2),
}


def requests(seed: int) -> list[Request]:
    """Four requests, two of them sharing a prompt prefix, greedy and
    top-k sampled."""
    rng = np.random.default_rng(seed)
    shared = [int(t) for t in rng.integers(0, TINY.vocab, size=10)]
    out = []
    for i in range(4):
        tail = [int(t) for t in rng.integers(0, TINY.vocab, size=2 + i)]
        out.append(Request(
            request_id=f"r{i}",
            prompt=tuple((shared if i < 2 else []) + tail),
            max_new_tokens=6 + i,
            sampling=SamplingParams(top_k=None if i % 2 else 4, seed=i),
        ))
    return out


def _engine(overrides: dict) -> ServingEngine:
    runtime = {
        "weight_bits": 4, "kv_bits": 4, "max_seq_len": 64,
        "kv_block_size": 8, **overrides,
    }
    return ServingEngine(
        DecoderModel(TINY, RuntimeConfig(**runtime)), max_batch_size=4
    )


def run(scenario: str, seed: int):
    """Serve one (scenario, seed): its digest, the request results, and
    the engine's stats (None behind the router)."""
    overrides, preempt_steps, workers = SCENARIOS[scenario]
    if workers > 1:
        router = AsyncRouter(
            lambda: _engine(overrides), workers=workers,
            routing="prefix-aware",
        )
        try:
            results, stats = router.run_sync(requests(seed)), None
        finally:
            router.close()
    else:
        engine = _engine(overrides)
        for request in requests(seed):
            engine.submit(request)
        step = 0
        while engine.has_work:
            engine.step()
            step += 1
            if step in preempt_steps and engine.active:
                engine._preempt(engine.active[0])
        results, stats = engine.run()
    streams = sorted((r.request_id, r.tokens) for r in results)
    digest = hashlib.sha256(json.dumps(streams).encode()).hexdigest()
    return digest, results, stats


def linears_digest(seed: int) -> str:
    """SHA-256 of the bytes of every linear of the model (the head
    included) applied to five activation rows drawn from *seed*."""
    model = _engine({}).model
    rng = np.random.default_rng(seed)
    sha = hashlib.sha256()
    linears = [
        getattr(layer, name)
        for layer in model.layers
        for name in ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down")
    ]
    for linear in linears + [model.head]:
        sha.update(linear(rng.normal(size=(5, linear.in_features))).tobytes())
    return sha.hexdigest()


def main() -> None:
    table = {
        f"{scenario}/{seed}": run(scenario, seed)[0]
        for scenario in SCENARIOS
        for seed in SEEDS
    }
    table.update({f"linears/{seed}": linears_digest(seed) for seed in SEEDS})
    GOLDEN_FILE.write_text(json.dumps(table, indent=2) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN_FILE}")


if __name__ == "__main__":
    main()
