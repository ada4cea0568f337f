"""Swap-to-host preemption: spill/restore is output-invisible.

A preempted sequence whose cached context clears
``RuntimeConfig.swap_threshold_tokens`` serializes its KV blocks
(float slabs, quant codes, fill metadata) instead of collapsing to a
recompute-on-resume record; resumption restores the slabs into fresh
pool blocks and runs **one** decode step. If the spill format captures
exactly the state copy-on-write clones (frozen K plans rebuild
lazily), the restored engine cannot be distinguished from the
unpreempted one — so token streams must be bit-identical to both the
unpreempted run and the recompute-on-resume path on the
batch-invariant LUT backends.

Pinned here: a seeded random-schedule differential fuzz with forced
preemptions (swap vs recompute vs untouched), threshold gating,
mid-prefill exclusion, the pool-pressure fallback to recompute — and
the same fallback for a payload ``restore`` refuses before allocating
(wrong array names / dtypes / shapes, block count or fills) — spill
accounting (a payload is the pool's per-block bytes), the block
serialize/restore round-trip itself, and the swap-aware resume-headroom
arithmetic.
"""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.models.configs import ModelConfig
from repro.runtime import (
    DecoderModel,
    PagedLayerCache,
    Request,
    RuntimeConfig,
    SamplingParams,
    ServingEngine,
)
from repro.runtime.paging import BlockAllocator, spill_nbytes
from repro.runtime.scheduler import resume_blocks_needed, worst_case_blocks

LUT_BACKENDS = ("lut-naive", "lut-blocked")

FUZZ = ModelConfig(
    "swap-fuzz", hidden=32, ffn=48, layers=2, heads=4, kv_heads=2,
    vocab=64, gated_ffn=True,
)


def _random_requests(rng):
    shared = [
        int(t)
        for t in rng.integers(0, FUZZ.vocab, size=int(rng.integers(6, 16)))
    ]
    requests = []
    for i in range(int(rng.integers(3, 7))):
        if rng.random() < 0.5:
            take = int(rng.integers(2, len(shared) + 1))
            prompt = tuple(shared[:take])
            if rng.random() < 0.5:
                prompt = prompt + tuple(
                    int(t)
                    for t in rng.integers(0, FUZZ.vocab,
                                          size=int(rng.integers(1, 6)))
                )
        else:
            prompt = tuple(
                int(t)
                for t in rng.integers(0, FUZZ.vocab,
                                      size=int(rng.integers(1, 13)))
            )
        top_k = None if rng.random() < 0.6 else int(rng.integers(1, 6))
        requests.append(Request(
            request_id=f"r{i}",
            prompt=prompt,
            max_new_tokens=int(rng.integers(4, 17)),
            sampling=SamplingParams(top_k=top_k, seed=i),
            priority=int(rng.integers(0, 3)),
        ))
    return requests


def _run_engine(requests, backend, *, kv_bits=4, swap_threshold=None,
                preempt_steps=(), pool_blocks=64, block_size=8):
    """Run one engine, force-preempting an active sequence at each
    step index in *preempt_steps* (the engine-internal seam the fuzz
    uses to make eviction deterministic)."""
    model = DecoderModel(FUZZ, RuntimeConfig(
        weight_bits=4, kv_bits=kv_bits, backend=backend, max_seq_len=96,
        kv_block_size=block_size, kv_pool_blocks=pool_blocks,
        prefix_sharing=True, swap_threshold_tokens=swap_threshold,
    ))
    engine = ServingEngine(model, max_batch_size=len(requests))
    for request in requests:
        engine.submit(request)
    step = 0
    while engine.has_work:
        engine.step()
        step += 1
        if step in preempt_steps and engine.active:
            engine._preempt(engine.active[0])
    results, stats = engine.run()
    return {r.request_id: tuple(r.tokens) for r in results}, stats, engine


class TestSwapFuzz:
    @pytest.mark.parametrize("backend", LUT_BACKENDS)
    def test_swap_resume_streams_bit_identical(self, backend):
        """Random schedules with forced preemptions: unpreempted ==
        recompute-on-resume == swap-resume, under prefix sharing and
        bounded pools. The generator must actually exercise swaps."""
        swaps = swap_resumes = shared = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            requests = _random_requests(rng)
            preempt_steps = set(
                int(s) for s in rng.integers(2, 14,
                                             size=int(rng.integers(1, 4)))
            )
            base, _, _ = _run_engine(requests, backend)
            rec, rec_stats, _ = _run_engine(
                requests, backend, preempt_steps=preempt_steps
            )
            swp, swp_stats, engine = _run_engine(
                requests, backend, swap_threshold=1,
                preempt_steps=preempt_steps,
            )
            assert rec == base, f"seed {seed}: recompute diverged"
            assert swp == base, f"seed {seed}: swap-resume diverged"
            assert rec_stats.swaps == 0
            swaps += swp_stats.swaps
            swap_resumes += swp_stats.swap_resumes
            shared += engine.model.kv_pool.stats["shared"]
        assert swaps > 0, "no schedule spilled a sequence"
        assert swap_resumes > 0, "no schedule resumed from a spill"
        assert shared > 0, "no schedule shared a prefix block"

    def test_float_kv_swap_identical(self):
        """kv_bits=None: the spill carries only the float slabs and
        restore still round-trips exactly."""
        requests = _random_requests(np.random.default_rng(3))
        base, _, _ = _run_engine(requests, "lut-blocked", kv_bits=None)
        swp, stats, _ = _run_engine(
            requests, "lut-blocked", kv_bits=None, swap_threshold=1,
            preempt_steps={3, 7},
        )
        assert swp == base
        assert stats.swaps > 0


class TestSwapGating:
    def test_threshold_gates_short_contexts(self):
        """Contexts below the threshold keep recompute-on-resume."""
        requests = _random_requests(np.random.default_rng(1))
        _, stats, _ = _run_engine(
            requests, "lut-naive", swap_threshold=10_000,
            preempt_steps={3, 6},
        )
        assert stats.preemptions > 0
        assert stats.swaps == 0
        assert stats.swap_resumes == 0

    def test_default_is_off(self):
        requests = _random_requests(np.random.default_rng(2))
        _, stats, _ = _run_engine(
            requests, "lut-naive", preempt_steps={4}
        )
        assert stats.preemptions > 0
        assert stats.swaps == 0

    def test_mid_prefill_never_swaps(self):
        """A sequence evicted before its first generated token has no
        decode state to preserve — it must not spill."""
        model = DecoderModel(FUZZ, RuntimeConfig(
            weight_bits=4, kv_bits=8, backend="lut-naive", max_seq_len=96,
            kv_block_size=8, prefill_chunk=4, swap_threshold_tokens=1,
        ))
        engine = ServingEngine(model, max_batch_size=2)
        engine.submit(Request(
            "long", tuple(range(1, 33)), max_new_tokens=4,
            sampling=SamplingParams(seed=0),
        ))
        engine.step()  # one prefill chunk: mid-prefill, nothing sampled
        assert engine.prefilling
        engine._preempt(engine.prefilling[0])
        assert engine._swaps == 0
        assert engine.preempted[0].swap_record is None
        results, stats = engine.run()
        assert results[0].finish_reason == "length"
        assert stats.swaps == 0

    def test_swap_accounting(self):
        """swaps/swap_resumes/swap_bytes reach EngineStats and the
        spill size matches the serialized payloads."""
        requests = _random_requests(np.random.default_rng(4))
        _, stats, _ = _run_engine(
            requests, "lut-naive", swap_threshold=1, preempt_steps={5}
        )
        assert stats.swaps >= 1
        assert stats.swap_resumes >= 1
        assert stats.swap_bytes > 0
        assert stats.resumes >= stats.swap_resumes


class TestSwapFallback:
    def test_restore_failure_falls_back_to_recompute(self, monkeypatch):
        """A restore the pool cannot host (ServingError) must release
        what it rebuilt and drop to recompute-on-resume — still
        bit-identical, never an engine error."""
        requests = _random_requests(np.random.default_rng(6))
        base, _, _ = _run_engine(requests, "lut-naive")

        original = PagedLayerCache.restore.__func__
        calls = {"n": 0}

        def failing_restore(cls, pool, payload):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise ServingError("injected: pool cannot host restore")
            return original(cls, pool, payload)

        monkeypatch.setattr(
            PagedLayerCache, "restore", classmethod(failing_restore)
        )
        swp, stats, engine = _run_engine(
            requests, "lut-naive", swap_threshold=1, preempt_steps={4, 8}
        )
        assert calls["n"] > 0, "fallback path never exercised"
        assert swp == base
        assert stats.swaps > stats.swap_resumes, (
            "the failed restore must not count as a swap resume"
        )
        pool = engine.model.kv_pool
        assert pool.used_blocks == 0, "fallback leaked pool blocks"


    @pytest.mark.parametrize("damage", ["int64-codes", "truncated"])
    def test_corrupt_payload_falls_back_to_recompute(self, monkeypatch, damage):
        """A spill record the pool's format check refuses — codes in the
        pre-narrowing int64 format, a block list cut short — takes the
        same road: the real ``restore`` raises before allocating, the
        engine recomputes, streams and pool are as if nothing happened."""
        requests = _random_requests(np.random.default_rng(6))
        base, _, _ = _run_engine(requests, "lut-naive")

        original = PagedLayerCache.serialize
        damaged = {"n": 0}

        def corrupting_serialize(cache):
            payload = original(cache)
            if damaged["n"] < 4 and payload["blocks"]:
                damaged["n"] += 1
                if damage == "truncated":
                    payload["blocks"].pop()
                else:
                    block = payload["blocks"][0]
                    block["_k_codes"] = block["_k_codes"].astype(np.int64)
            return payload

        monkeypatch.setattr(PagedLayerCache, "serialize", corrupting_serialize)
        swp, stats, engine = _run_engine(
            requests, "lut-naive", swap_threshold=1, preempt_steps={4, 8}
        )
        assert damaged["n"] > 0, "no payload was damaged"
        assert swp == base
        assert stats.swaps > stats.swap_resumes
        assert engine.model.kv_pool.used_blocks == 0, "fallback leaked blocks"


class TestBlockSerde:
    def _pool_and_cache(self, kv_bits=8):
        pool = BlockAllocator(
            kv_heads=2, head_dim=8, block_size=4, num_blocks=32,
            bits=kv_bits,
        )
        cache = PagedLayerCache(pool, layer=0)
        rng = np.random.default_rng(0)
        for t in range(10):
            cache.append(
                rng.standard_normal((1, 2, 8)),
                rng.standard_normal((1, 2, 8)),
                token_ids=[t],
            )
        return pool, cache

    def test_round_trip_restores_attention_state(self):
        pool, cache = self._pool_and_cache()
        payload = cache.serialize()
        assert spill_nbytes(payload) > 0
        restored = PagedLayerCache.restore(pool, payload)
        assert restored.length == cache.length
        np.testing.assert_array_equal(restored.k_view(), cache.k_view())
        np.testing.assert_array_equal(restored.v_view(), cache.v_view())
        assert restored.block_ids != cache.block_ids
        for orig, new in zip(cache.block_ids, restored.block_ids):
            for name in pool._QUANT_ARRAYS:
                np.testing.assert_array_equal(
                    getattr(pool, name)[orig], getattr(pool, name)[new],
                    err_msg=name,
                )

    def test_restore_reindexes_prefix_chain(self):
        """Restored full blocks re-enter the prefix index, so later
        prompts can adopt a restored sequence's prefix — even in a
        pool that never saw the original appends."""
        pool, cache = self._pool_and_cache()
        payload = cache.serialize()
        other = BlockAllocator(
            kv_heads=2, head_dim=8, block_size=4, num_blocks=32, bits=8,
        )
        restored = PagedLayerCache.restore(other, payload)
        match = other.match_prefix(0, list(range(10)))
        assert match, "restored chain is not matchable"
        assert match[0][0] in restored.block_ids
        covered = sum(fill for _bid, fill in match)
        assert covered == 10

    def test_failed_restore_leaks_nothing(self):
        pool, cache = self._pool_and_cache()
        payload = cache.serialize()
        cache.release()
        small = BlockAllocator(
            kv_heads=2, head_dim=8, block_size=4, num_blocks=1, bits=8,
            prefix_cache_blocks=0,
        )
        with pytest.raises(ServingError):
            PagedLayerCache.restore(small, payload)
        assert small.used_blocks == 0
        assert small.free_blocks == 1

    @pytest.mark.parametrize("kv_bits", [None, 4, 8])
    def test_spill_bytes_are_the_pools_per_block_bytes(self, kv_bits):
        """A payload holds exactly the pool's per-block arrays, so the
        spill shrinks with the pool: ``spill_nbytes`` per block is the sum
        of one block's slice of each content array."""
        pool, cache = self._pool_and_cache(kv_bits)
        payload = cache.serialize()
        per_block = sum(
            getattr(pool, name)[0].nbytes for name in pool._block_arrays
        )
        assert spill_nbytes(payload) == len(cache.block_ids) * per_block
        for block in payload["blocks"]:
            assert set(block) == {*pool._block_arrays, "fill"}

    @pytest.mark.parametrize(
        "damage",
        [
            "int64-codes", "per-element-scale", "missing-array",
            "unknown-array", "not-an-array", "truncated", "extra-block",
            "wrong-fill", "no-length", "no-tokens",
        ],
    )
    def test_restore_refuses_a_foreign_payload_before_allocating(self, damage):
        """Array names, dtypes and shapes per block, the block count and
        every fill must be what this pool would have written; anything
        else raises ``ServingError`` with no block touched."""
        pool, cache = self._pool_and_cache(kv_bits=4)
        payload = cache.serialize()
        assert pool.accepts(payload)
        blocks = payload["blocks"]
        if damage == "int64-codes":  # the format before codes narrowed
            blocks[1]["_k_codes"] = blocks[1]["_k_codes"].astype(np.int64)
        elif damage == "per-element-scale":
            blocks[0]["_k_scale"] = np.repeat(blocks[0]["_k_scale"], 8, axis=-1)
        elif damage == "missing-array":
            del blocks[2]["_ka_flat"]
        elif damage == "unknown-array":
            blocks[0]["_va_deq"] = np.zeros((2, 8, 4))
        elif damage == "not-an-array":
            blocks[0]["_v"] = blocks[0]["_v"].tolist()
        elif damage == "truncated":
            blocks.pop()
        elif damage == "extra-block":
            blocks.append(dict(blocks[-1]))
        elif damage == "wrong-fill":
            blocks[-1]["fill"] = pool.block_size
        elif damage == "no-length":
            del payload["length"]
        elif damage == "no-tokens":
            del payload["tokens"]
        assert not pool.accepts(payload)
        used, free, allocated = (
            pool.used_blocks, list(pool._free), pool.stats["allocated"]
        )
        with pytest.raises(ServingError, match="block format"):
            PagedLayerCache.restore(pool, payload)
        assert (pool.used_blocks, pool._free, pool.stats["allocated"]) == (
            used, free, allocated
        )

    def test_serialize_released_cache_raises(self):
        pool, cache = self._pool_and_cache()
        cache.release()
        with pytest.raises(ServingError):
            cache.serialize()

    def test_float_pool_round_trip(self):
        pool, cache = self._pool_and_cache(kv_bits=None)
        restored = PagedLayerCache.restore(pool, cache.serialize())
        np.testing.assert_array_equal(restored.k_view(), cache.k_view())
        np.testing.assert_array_equal(restored.v_view(), cache.v_view())


class TestResumeHeadroom:
    def test_swapped_resume_is_undiscounted(self):
        needed = worst_case_blocks(20, 10, 8, 2)
        assert resume_blocks_needed(20, 10, 8, 2, live_shareable=3) == (
            needed - 3
        )
        assert resume_blocks_needed(
            20, 10, 8, 2, live_shareable=3, swapped=True
        ) == needed

    def test_discount_never_goes_negative(self):
        assert resume_blocks_needed(2, 1, 8, 1, live_shareable=99) == 0
