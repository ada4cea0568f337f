"""Differential parity/fuzz harness for the batch-fused decode path.

The fused decode attention
(:func:`~repro.runtime.paging.fused_paged_decode_attention`) claims to
be bit-identical on the LUT backends, at *any* batch composition, to a
from-scratch recompute that re-quantizes each sequence's float history
and reads no pool arena (:mod:`tests.runtime.oracle`), and 1e-9-close
on ``reference`` (whose oracle dequantizes; the attention itself runs
the LUT mpGEMM on every backend and equals ``lut-naive`` byte for byte
there). This module pins that claim two ways:

- a seeded random-schedule **engine fuzz**: random admissions, prompt
  lengths, shared prefixes, samplers, pool bounds (forcing
  preemptions), run through the full :class:`ServingEngine` and
  compared against the oracle's one-request-at-a-time decode
  (``all_rows_streams``) — identical token streams;
- a **kernel-level parity matrix** over block sizes × GQA ratios ×
  partial trailing fills × backends, including freed-block-reuse and
  CoW-divergence block-table states.
"""

import numpy as np
import pytest

from repro.lut.attention import (
    QuantizedKvCache,
    float_decode_attention,
    lut_decode_attention,
)
from repro.models.configs import ModelConfig
from repro.runtime import (
    DecoderModel,
    Request,
    RuntimeConfig,
    SamplingParams,
    ServingEngine,
)
from repro.runtime.paging import (
    BlockAllocator,
    PagedLayerCache,
    fused_paged_decode_attention,
    fused_paged_verify_attention,
)
from repro.runtime.scheduler import worst_case_blocks
from tests.runtime.oracle import (
    assert_parity,
    oracle_attention,
    oracle_decode_batch,
)

LUT_BACKENDS = ("lut-naive", "lut-blocked")
BACKENDS = LUT_BACKENDS + ("reference",)

FUZZ = ModelConfig(
    "fuzz", hidden=32, ffn=48, layers=2, heads=4, kv_heads=2,
    vocab=64, gated_ffn=True,
)

#: Seeds per LUT backend; 2 backends x this many schedules >= 25 random
#: schedules through the engine-vs-oracle harness.
FUZZ_SEEDS = range(13)


def _random_schedule(rng):
    """One random serving schedule: requests (with shared prefixes and
    mixed samplers), a block size, a pool bound, and a scheduler.

    Bounded-pool schedules keep ``max_batch >= len(requests)`` and a
    pool that covers every prompt at once plus the biggest single
    request's worst case: under FIFO a prefill that doesn't fit is a
    hard error (the engine's relief valve only guards the *decode*),
    so pressure must come from decode growth — which is exactly where
    preemption lives.
    """
    block_size = int(rng.choice([8, 16]))
    shared = [
        int(t)
        for t in rng.integers(0, FUZZ.vocab, size=int(rng.integers(6, 16)))
    ]
    requests = []
    for i in range(int(rng.integers(4, 8))):
        if rng.random() < 0.5:  # shared-prefix family
            take = int(rng.integers(2, len(shared) + 1))
            prompt = tuple(shared[:take])
            if rng.random() < 0.5:   # else: a pure nested prefix — the
                # longer sibling adopts the shorter one's live partial
                # trailing block and copy-on-writes past it
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
        top_k = None if rng.random() < 0.7 else int(rng.integers(1, 6))
        requests.append(Request(
            request_id=f"r{i}",
            prompt=prompt,
            max_new_tokens=int(rng.integers(4, 17)),
            sampling=SamplingParams(top_k=top_k, seed=i),
            priority=int(rng.integers(0, 3)),
        ))
    if rng.random() < 0.4:
        pool_blocks = None            # unbounded pool
        scheduler = str(rng.choice(["fifo", "sjf", "memory-aware"]))
        max_batch = int(rng.integers(2, 9))
    else:
        biggest = max(
            worst_case_blocks(len(r.prompt), r.max_new_tokens,
                              block_size, FUZZ.layers)
            for r in requests
        )
        total = sum(
            worst_case_blocks(len(r.prompt), r.max_new_tokens,
                              block_size, FUZZ.layers)
            for r in requests
        )
        prompts = sum(
            FUZZ.layers * -(-len(r.prompt) // block_size)
            for r in requests
        )
        lo = max(biggest, prompts)
        pool_blocks = int(rng.integers(lo, max(lo + 1, total)))
        scheduler = "fifo"
        max_batch = len(requests)
    return requests, block_size, pool_blocks, scheduler, max_batch


def _runtime(backend, block_size):
    return dict(
        weight_bits=4, kv_bits=4, backend=backend, max_seq_len=96,
        kv_block_size=block_size,
    )


def _run_engine(schedule, backend):
    requests, block_size, pool_blocks, scheduler, max_batch = schedule
    model = DecoderModel(FUZZ, RuntimeConfig(
        kv_pool_blocks=pool_blocks, **_runtime(backend, block_size)
    ))
    engine = ServingEngine(
        model, max_batch_size=max_batch, scheduler=scheduler
    )
    for request in requests:
        engine.submit(request)
    results, stats = engine.run()
    streams = {r.request_id: tuple(r.tokens) for r in results}
    return streams, stats, model


class TestEngineFuzz:
    @pytest.mark.parametrize("backend", LUT_BACKENDS)
    def test_random_schedules_token_streams_bit_identical(
        self, backend, all_rows_streams
    ):
        """>= 25 random schedules across the two LUT backends: the fused
        engine's token streams equal the from-scratch oracle's exactly,
        under admission churn, shared prefixes, CoW divergence, bounded
        pools and preemptions."""
        preempted = shared = cow = 0
        for seed in FUZZ_SEEDS:
            schedule = _random_schedule(np.random.default_rng(seed))
            fused_streams, fused_stats, fused_model = _run_engine(
                schedule, backend
            )
            assert fused_streams == all_rows_streams(
                FUZZ, _runtime(backend, schedule[1]), schedule[0]
            ), f"seed {seed}: fused token streams diverged"
            preempted += fused_stats.preemptions
            pool_stats = fused_model.kv_pool.stats
            shared += pool_stats["shared"]
            cow += pool_stats["cow"]
        # The schedule generator must actually exercise the hard cases,
        # or the equality above proves nothing about them.
        assert preempted > 0, "no schedule triggered a preemption"
        assert shared > 0, "no schedule shared a prefix block"
        assert cow > 0, "no schedule diverged through copy-on-write"

    def test_random_batches_reference_within_1e9(self):
        """On ``reference``, fused decode logits agree with the oracle
        decode step's to 1e-9 (token streams are not compared — a
        last-ulp flip could legally change an argmax). Both models are
        driven with the same token inputs so the comparison is
        step-by-step."""
        rng = np.random.default_rng(99)
        for trial in range(6):
            rt = dict(
                weight_bits=4, kv_bits=4, backend="reference",
                max_seq_len=64, kv_block_size=int(rng.choice([8, 16])),
            )
            fused = DecoderModel(FUZZ, RuntimeConfig(**rt))
            oracle = DecoderModel(FUZZ, RuntimeConfig(**rt))
            nseq = int(rng.integers(1, 6))
            caches_f = [fused.new_caches() for _ in range(nseq)]
            caches_o = [oracle.new_caches() for _ in range(nseq)]
            for s in range(nseq):
                prompt = rng.integers(
                    0, FUZZ.vocab, size=int(rng.integers(1, 24))
                )
                fused.prefill(prompt, caches_f[s])
                oracle.prefill(prompt, caches_o[s])
            for _ in range(int(rng.integers(2, 10))):
                tokens = rng.integers(0, FUZZ.vocab, size=nseq)
                got = fused.decode_batch(tokens, caches_f)
                want = oracle_decode_batch(oracle, tokens, caches_o)
                np.testing.assert_allclose(
                    got, want, atol=1e-9, err_msg=f"trial {trial}"
                )


def _stacked_oracle(queries, caches, repeat, backend):
    return np.stack([
        oracle_attention(queries[i], cache, repeat=repeat, backend=backend)
        for i, cache in enumerate(caches)
    ])


class TestFusedKernelParityMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "block_size,head_dim,kv_heads,repeat",
        [
            (8, 8, 1, 1),       # MHA, minimal block
            (8, 8, 2, 2),       # GQA 2:1
            (16, 8, 1, 4),      # GQA 4:1
            (16, 16, 2, 2),     # grouped K quantization (head_dim 16)
            (32, 8, 3, 2),      # wide blocks, odd kv_heads
        ],
    )
    def test_ragged_batch_matches_per_sequence(
        self, backend, block_size, head_dim, kv_heads, repeat
    ):
        """Ragged lengths with full and partial trailing blocks: the
        fused batch equals B per-sequence oracle recomputes."""
        rng = np.random.default_rng(
            block_size * 1000 + head_dim * 10 + kv_heads
        )
        pool = BlockAllocator(
            kv_heads, head_dim, block_size=block_size, bits=4
        )
        lengths = [
            1,                       # single row
            block_size - 1,          # partial block
            block_size,              # exactly full
            2 * block_size + 3,      # full + partial tail
            3 * block_size,          # all full
        ]
        caches = []
        for length in lengths:
            cache = PagedLayerCache(pool)
            cache.append(
                rng.normal(size=(length, kv_heads, head_dim)),
                rng.normal(size=(length, kv_heads, head_dim)),
            )
            caches.append(cache)
        queries = rng.normal(
            size=(len(caches), kv_heads * repeat, head_dim)
        )
        got = fused_paged_decode_attention(
            queries, caches, repeat=repeat, backend=backend
        )
        want = _stacked_oracle(queries, caches, repeat, backend)
        assert_parity(got, want, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kv_bits", [2, 4, 8])
    def test_kv_bit_widths(self, backend, kv_bits):
        rng = np.random.default_rng(kv_bits)
        pool = BlockAllocator(2, 8, block_size=8, bits=kv_bits)
        caches = []
        for length in (3, 8, 13):
            cache = PagedLayerCache(pool)
            cache.append(
                rng.normal(size=(length, 2, 8)),
                rng.normal(size=(length, 2, 8)),
            )
            caches.append(cache)
        queries = rng.normal(size=(3, 4, 8))
        got = fused_paged_decode_attention(
            queries, caches, repeat=2, backend=backend
        )
        want = _stacked_oracle(queries, caches, 2, backend)
        assert_parity(got, want, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_growth_across_block_boundaries(self, backend):
        """Interleave appends and fused/oracle comparisons so trailing
        blocks fill, freeze, and new blocks open mid-stream."""
        rng = np.random.default_rng(5)
        pool = BlockAllocator(2, 8, block_size=8, bits=4)
        caches = [PagedLayerCache(pool) for _ in range(3)]
        for cache in caches:
            cache.append(
                rng.normal(size=(2, 2, 8)), rng.normal(size=(2, 2, 8))
            )
        for step in range(20):
            grower = caches[step % len(caches)]
            grower.append(
                rng.normal(size=(2, 8)), rng.normal(size=(2, 8))
            )
            queries = rng.normal(size=(3, 4, 8))
            got = fused_paged_decode_attention(
                queries, caches, repeat=2, backend=backend
            )
            want = _stacked_oracle(queries, caches, 2, backend)
            assert_parity(got, want, backend, msg=f"step {step}")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cow_divergence_through_fused_path(self, backend):
        """Two sequences share prefix blocks, then diverge: the append
        copy-on-writes the shared trailing block, and the fused batch
        over [donor, fork] still matches the per-sequence oracle."""
        rng = np.random.default_rng(17)
        pool = BlockAllocator(2, 8, block_size=8, bits=4)
        donor = PagedLayerCache(pool, layer=0)
        tokens = [int(t) for t in rng.integers(0, 64, size=12)]
        donor.append(
            rng.normal(size=(12, 2, 8)), rng.normal(size=(12, 2, 8)),
            token_ids=tokens,
        )
        chain = pool.match_prefix(0, tokens)
        assert chain, "prefix index must cover the donor's blocks"
        covered = sum(fill for _, fill in chain)
        fork = PagedLayerCache(pool, layer=0)
        fork.adopt_prefix(chain, tokens[:covered])
        assert pool.stats["shared"] > 0
        # Divergence: the fork appends its own rows (CoW on the shared
        # partial trailing block), the donor keeps growing privately.
        fork.append(
            rng.normal(size=(3, 2, 8)), rng.normal(size=(3, 2, 8)),
            token_ids=[1, 2, 3],
        )
        assert pool.stats["cow"] > 0
        donor.append(
            rng.normal(size=(2, 2, 8)), rng.normal(size=(2, 2, 8)),
            token_ids=[4, 5],
        )
        caches = [donor, fork]
        queries = rng.normal(size=(2, 4, 8))
        got = fused_paged_decode_attention(
            queries, caches, repeat=2, backend=backend
        )
        want = _stacked_oracle(queries, caches, 2, backend)
        assert_parity(got, want, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_freed_block_reuse_through_fused_path(self, backend):
        """A released sequence's scrubbed blocks serve a new sequence:
        no V-arena or plan state leaks from the previous occupant."""
        rng = np.random.default_rng(23)
        pool = BlockAllocator(2, 8, block_size=8, bits=4, num_blocks=4,
                              prefix_cache_blocks=0)
        first = PagedLayerCache(pool)
        first.append(
            rng.normal(size=(20, 2, 8)), rng.normal(size=(20, 2, 8))
        )
        queries = rng.normal(size=(1, 4, 8))
        fused_paged_decode_attention(
            queries, [first], repeat=2, backend=backend
        )  # populate arenas for the first occupant
        reused_ids = list(first.block_ids)
        first.release()
        k2 = rng.normal(size=(18, 2, 8))
        v2 = rng.normal(size=(18, 2, 8))
        second = PagedLayerCache(pool)
        second.append(k2, v2)
        assert set(second.block_ids) <= set(reused_ids)
        q2 = rng.normal(size=(1, 4, 8))
        got = fused_paged_decode_attention(
            q2, [second], repeat=2, backend=backend
        )
        # Oracle: the same rows in a fresh pool never touched before.
        fresh_pool = BlockAllocator(2, 8, block_size=8, bits=4)
        fresh = PagedLayerCache(fresh_pool)
        fresh.append(k2, v2)
        want = fused_paged_decode_attention(
            q2, [fresh], repeat=2, backend=backend
        )
        np.testing.assert_array_equal(got, want)

    def test_batch_composition_invariance(self):
        """A sequence's fused output does not depend on which other
        sequences share the batch — the property that makes continuous
        batching (and preemption) output-transparent."""
        rng = np.random.default_rng(31)
        pool = BlockAllocator(2, 8, block_size=8, bits=4)
        caches = []
        for length in (4, 9, 17, 24):
            cache = PagedLayerCache(pool)
            cache.append(
                rng.normal(size=(length, 2, 8)),
                rng.normal(size=(length, 2, 8)),
            )
            caches.append(cache)
        queries = rng.normal(size=(4, 4, 8))
        full = fused_paged_decode_attention(
            queries, caches, repeat=2, backend="lut-blocked"
        )
        solo = np.concatenate([
            fused_paged_decode_attention(
                queries[i:i + 1], caches[i:i + 1], repeat=2,
                backend="lut-blocked",
            )
            for i in range(4)
        ])
        np.testing.assert_array_equal(full, solo)
        pair = fused_paged_decode_attention(
            queries[1:3], caches[1:3], repeat=2, backend="lut-blocked"
        )
        np.testing.assert_array_equal(full[1:3], pair)

    def test_single_block_matches_contiguous_dense_cache(self):
        """Dense cross-check through the *fused* path: within one block
        the fused recipe coincides with ``QuantizedKvCache.quantize`` of
        the zero-padded history + ``lut_decode_attention`` bit for bit."""
        rng = np.random.default_rng(7)
        k = rng.normal(size=(13, 2, 16))
        v = rng.normal(size=(13, 2, 16))
        query = rng.normal(size=(2, 16))
        pool = BlockAllocator(2, 16, block_size=16, bits=4)
        paged = PagedLayerCache(pool)
        paged.append(k, v)
        got = fused_paged_decode_attention(
            query[None], [paged], backend="lut-blocked"
        )[0]
        k_pad, v_pad = np.zeros((2, 2, 16, 16))
        k_pad[:, :13] = k.transpose(1, 0, 2)
        v_pad[:, :13] = v.transpose(1, 0, 2)
        want = lut_decode_attention(
            query, QuantizedKvCache.quantize(k_pad, v_pad, bits=4),
            backend="lut-blocked", context_valid=13,
        )
        np.testing.assert_array_equal(got, want)

    def test_validation(self):
        from repro.errors import LutError, ServingError

        with pytest.raises(ServingError):
            fused_paged_decode_attention(np.zeros((0, 2, 8)), [])
        float_pool = BlockAllocator(2, 8, block_size=8)
        cache = PagedLayerCache(float_pool)
        # A float pool is served by the float fused branch now — but an
        # empty cache is still unservable.
        with pytest.raises(ServingError):
            fused_paged_decode_attention(np.zeros((1, 2, 8)), [cache])
        pool = BlockAllocator(2, 8, block_size=8, bits=4)
        empty = PagedLayerCache(pool)
        with pytest.raises(ServingError):
            fused_paged_decode_attention(np.zeros((1, 2, 8)), [empty])
        full = PagedLayerCache(pool)
        full.append(np.zeros((2, 8)), np.zeros((2, 8)))
        with pytest.raises(LutError):
            fused_paged_decode_attention(np.zeros((1, 3, 8)), [full])
        other_pool = BlockAllocator(2, 8, block_size=8, bits=4)
        other = PagedLayerCache(other_pool)
        other.append(np.zeros((2, 8)), np.zeros((2, 8)))
        with pytest.raises(ServingError):
            fused_paged_decode_attention(
                np.zeros((2, 2, 8)), [full, other]
            )


class TestSharedGatherRatios:
    """Each KV head's query heads (and verify positions) ride one
    gathered arena row as the executor's M axis: parity at every
    GQA ratio for decode, and at T candidates per sequence for verify."""

    KV, HD, BLOCK = 2, 8, 8

    def _caches(self, rng, lengths):
        pool = BlockAllocator(self.KV, self.HD, self.BLOCK, bits=4)
        caches = []
        for length in lengths:
            cache = PagedLayerCache(pool)
            cache.append(
                rng.normal(size=(length, self.KV, self.HD)),
                rng.normal(size=(length, self.KV, self.HD)),
            )
            caches.append(cache)
        return caches

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("repeat", [1, 2, 4])
    def test_decode_matches_per_sequence(self, backend, repeat):
        rng = np.random.default_rng(repeat)
        caches = self._caches(rng, (1, 7, 8, 19, 24))
        queries = rng.normal(size=(5, self.KV * repeat, self.HD))
        got = fused_paged_decode_attention(
            queries, caches, repeat=repeat, backend=backend
        )
        want = _stacked_oracle(queries, caches, repeat, backend)
        assert_parity(got, want, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("repeat", [1, 2, 4])
    @pytest.mark.parametrize("t", [1, 3])
    def test_verify_matches_sequential_decode(self, backend, repeat, t):
        """T candidate rows per sequence in one verify pass equal T
        append-then-decode steps (whose own parity is pinned above)."""
        rng = np.random.default_rng(10 * repeat + t)
        base = (2, 7, 8, 14)  # trailing blocks cross a boundary at T = 3
        k_new, v_new = rng.normal(size=(2, len(base), t, self.KV, self.HD))
        queries = rng.normal(
            size=(len(base), t, self.KV * repeat, self.HD)
        )
        state = rng.bit_generator.state
        caches = self._caches(rng, base)
        for i, cache in enumerate(caches):
            cache.append(k_new[i], v_new[i])
        got = fused_paged_verify_attention(
            queries, caches, base, repeat=repeat, backend=backend
        )
        rng.bit_generator.state = state
        caches = self._caches(rng, base)
        for j in range(t):
            for i, cache in enumerate(caches):
                cache.append(k_new[i, j], v_new[i, j])
            want = fused_paged_decode_attention(
                queries[:, j], caches, repeat=repeat, backend=backend
            )
            assert_parity(got[:, j], want, backend, msg=f"row {j}")



class TestReferenceRunsTheLutAttention:
    """On an int4 pool the paged attention is a LUT mpGEMM whatever
    backend the linears use: the pool keeps only lookup columns, so
    ``reference`` (no tables for its linears) runs the numpy LUT body
    ``lut-naive`` runs and returns its bytes."""

    @pytest.mark.parametrize("t", [1, 4])
    def test_reference_equals_lut_naive(self, t):
        """T = 1 is a decode step. At T = 4 rows 0-2 of the 3- and
        13-row bases see their trailing block below its current fill, so
        their context reads a masked requantization of it."""
        rng = np.random.default_rng(40 + t)
        base = (3, 8, 13)
        pool = BlockAllocator(2, 8, block_size=8, bits=4)
        caches = []
        for n in base:
            caches.append(PagedLayerCache(pool))
            caches[-1].append(*rng.normal(size=(2, n + t, 2, 8)))
        queries = rng.normal(size=(len(base), t, 4, 8))
        got, want = (
            fused_paged_verify_attention(
                queries, caches, base, repeat=2, backend=backend
            )
            for backend in ("reference", "lut-naive")
        )
        assert got.tobytes() == want.tobytes()


class TestFloatKvFused:
    """The float branch: ``kv_bits=None`` pools no longer fall back to
    per-sequence decode — the fused batch gathers the float slabs and
    runs grouped einsums, 1e-9-close to the per-head gemv reference and
    bitwise invariant to batch composition."""

    def _grown(self, lengths, seed):
        rng = np.random.default_rng(seed)
        pool = BlockAllocator(2, 8, block_size=8)
        caches = []
        for length in lengths:
            cache = PagedLayerCache(pool)
            cache.append(
                rng.normal(size=(length, 2, 8)),
                rng.normal(size=(length, 2, 8)),
            )
            caches.append(cache)
        return pool, caches

    @pytest.mark.parametrize("repeat", [1, 2])
    def test_matches_per_sequence_float_reference(self, repeat):
        """Ragged float batch vs B calls of the contiguous-view gemv
        path (the oracle's float attention)."""
        lengths = [1, 7, 8, 19, 24]
        _, caches = self._grown(lengths, seed=41)
        rng = np.random.default_rng(42)
        queries = rng.normal(size=(len(caches), 2 * repeat, 8))
        got = fused_paged_decode_attention(queries, caches, repeat=repeat)
        want = np.stack([
            float_decode_attention(
                queries[i], cache.k_view(), cache.v_view(), repeat=repeat
            )
            for i, cache in enumerate(caches)
        ])
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_batch_composition_invariance(self):
        """A sequence's float fused output is bitwise independent of
        its batch neighbours (padded columns are exact zeros that never
        enter a reduction)."""
        lengths = [4, 9, 17, 24]
        _, caches = self._grown(lengths, seed=43)
        rng = np.random.default_rng(44)
        queries = rng.normal(size=(4, 4, 8))
        full = fused_paged_decode_attention(queries, caches, repeat=2)
        solo = np.concatenate([
            fused_paged_decode_attention(
                queries[i:i + 1], caches[i:i + 1], repeat=2
            )
            for i in range(4)
        ])
        np.testing.assert_array_equal(full, solo)
        pair = fused_paged_decode_attention(
            queries[1:3], caches[1:3], repeat=2
        )
        np.testing.assert_array_equal(full[1:3], pair)

    def test_growth_across_block_boundaries(self):
        lengths = [2, 2, 2]
        _, caches = self._grown(lengths, seed=45)
        rng = np.random.default_rng(46)
        for step in range(20):
            grower = caches[step % len(caches)]
            grower.append(
                rng.normal(size=(2, 8)), rng.normal(size=(2, 8))
            )
            queries = rng.normal(size=(3, 4, 8))
            got = fused_paged_decode_attention(queries, caches, repeat=2)
            want = np.stack([
                float_decode_attention(
                    queries[i], c.k_view(), c.v_view(), repeat=2
                )
                for i, c in enumerate(caches)
            ])
            np.testing.assert_allclose(
                got, want, atol=1e-9, err_msg=f"step {step}"
            )

    def test_engine_float_kv_fused_logits_match_oracle(self):
        """Model-level differential drive with kv_bits=None: the fused
        decode logits track the oracle decode step at 1e-9 over mixed
        prefill lengths and many steps."""
        rng = np.random.default_rng(47)
        rt = dict(
            weight_bits=4, kv_bits=None, backend="lut-blocked",
            max_seq_len=64, kv_block_size=8,
        )
        fused = DecoderModel(FUZZ, RuntimeConfig(**rt))
        oracle = DecoderModel(FUZZ, RuntimeConfig(**rt))
        nseq = 4
        caches_f = [fused.new_caches() for _ in range(nseq)]
        caches_o = [oracle.new_caches() for _ in range(nseq)]
        for s in range(nseq):
            prompt = rng.integers(0, FUZZ.vocab, size=int(rng.integers(1, 24)))
            fused.prefill(prompt, caches_f[s])
            oracle.prefill(prompt, caches_o[s])
        for _ in range(12):
            tokens = rng.integers(0, FUZZ.vocab, size=nseq)
            got = fused.decode_batch(tokens, caches_f)
            want = oracle_decode_batch(oracle, tokens, caches_o)
            np.testing.assert_allclose(got, want, atol=1e-9)
