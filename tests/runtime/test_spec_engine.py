"""Engine-level speculative decoding fuzz: spec-on == spec-off.

Speculative decoding claims to be *output-invisible*: a draft model
proposes k tokens, the target scores all k+1 candidate rows in one
batched verify step, the longest agreeing prefix (plus the bonus token)
is accepted, and ``truncate_rows`` rolls the paged cache back over the
rejected tail. If verify parity, acceptance bookkeeping, and rollback
are all exact, the engine's token streams cannot depend on whether
speculation ran — for *any* draft, including one that disagrees on
every position.

This module pins that claim with a seeded random-schedule differential
fuzz (mirroring :mod:`tests.runtime.test_fused_parity`): random
admissions, shared prefixes, CoW divergence, bounded pools forcing
preemption, chunked prefill, and mixed greedy/top-k samplers, run
spec-on and spec-off through the full :class:`ServingEngine` on both
LUT backends — asserting bitwise identical streams — plus unit tests
for the spec-skip fallback, acceptance accounting, draft-cache
lifecycle, and per-request TPOT.
"""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.models.configs import ModelConfig
from repro.runtime import (
    DecoderModel,
    Request,
    RuntimeConfig,
    SamplingParams,
    ServingEngine,
    SpeculativeConfig,
)
from repro.runtime.scheduler import worst_case_blocks

LUT_BACKENDS = ("lut-naive", "lut-blocked")

FUZZ = ModelConfig(
    "spec-fuzz", hidden=32, ffn=48, layers=2, heads=4, kv_heads=2,
    vocab=64, gated_ffn=True,
)

#: Draft variants the fuzz rotates through. Output-identity must hold
#: for every one of them:
#: - inherit: the target verbatim (acceptance ~1 on LUT backends);
#: - self-spec: the target's weights on the reference backend with a
#:   float KV cache (the bench's high-acceptance configuration);
#: - hostile: different seed, so proposals are unrelated noise and
#:   nearly every step degenerates to rollback + bonus token.
SPEC_VARIANTS = (
    SpeculativeConfig(k=2),
    SpeculativeConfig(k=3, backend="reference", kv_bits=None),
    SpeculativeConfig(k=3, seed=999),
)


def _random_schedule(rng):
    """One random serving schedule: requests (shared prefixes, mixed
    samplers), block size, pool bound, chunked prefill, scheduler."""
    block_size = int(rng.choice([8, 16]))
    shared = [
        int(t)
        for t in rng.integers(0, FUZZ.vocab, size=int(rng.integers(6, 16)))
    ]
    requests = []
    for i in range(int(rng.integers(4, 8))):
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
        top_k = None if rng.random() < 0.7 else int(rng.integers(1, 6))
        requests.append(Request(
            request_id=f"r{i}",
            prompt=prompt,
            max_new_tokens=int(rng.integers(4, 17)),
            sampling=SamplingParams(top_k=top_k, seed=i),
            priority=int(rng.integers(0, 3)),
        ))
    prefill_chunk = None if rng.random() < 0.5 else int(rng.choice([4, 8]))
    if rng.random() < 0.4:
        pool_blocks = None
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
        max_batch = len(requests)
    return requests, block_size, pool_blocks, prefill_chunk, max_batch


def _run_engine(schedule, backend, spec, kv_bits=4):
    requests, block_size, pool_blocks, prefill_chunk, max_batch = schedule
    model = DecoderModel(FUZZ, RuntimeConfig(
        weight_bits=4, kv_bits=kv_bits, backend=backend, max_seq_len=96,
        kv_block_size=block_size, kv_pool_blocks=pool_blocks,
        prefill_chunk=prefill_chunk, speculative=spec,
    ))
    engine = ServingEngine(model, max_batch_size=max_batch)
    for request in requests:
        engine.submit(request)
    results, stats = engine.run()
    streams = {r.request_id: tuple(r.tokens) for r in results}
    return streams, stats, engine


class TestSpecEngineFuzz:
    @pytest.mark.parametrize("backend", LUT_BACKENDS)
    def test_random_schedules_streams_bit_identical(
        self, backend, all_rows_streams
    ):
        """>= 20 random schedules across the LUT backends x 3 draft
        variants: spec-on token streams equal spec-off exactly, under
        shared prefixes, CoW, bounded pools, chunked prefill, and
        preemption — and spec-off equals the all-rows solo decode (the
        draft's catch-up prefill and replay compute no logits)."""
        preempted = shared = cow = drafted = skipped = 0
        for seed in (0, 2, 3, 4, 5, 6, 13, 15, 16, 17):
            schedule = _random_schedule(np.random.default_rng(seed))
            plain_streams, _, _ = _run_engine(schedule, backend, None)
            assert plain_streams == all_rows_streams(
                FUZZ,
                dict(weight_bits=4, kv_bits=4, backend=backend,
                     max_seq_len=96, kv_block_size=schedule[1]),
                schedule[0],
            ), f"seed {seed}: engine streams left the all-rows decode"
            spec = SPEC_VARIANTS[seed % len(SPEC_VARIANTS)]
            spec_streams, stats, engine = _run_engine(
                schedule, backend, spec
            )
            assert spec_streams == plain_streams, (
                f"seed {seed}: speculative token streams diverged"
            )
            preempted += stats.preemptions
            pool_stats = engine.model.kv_pool.stats
            shared += pool_stats["shared"]
            cow += pool_stats["cow"]
            drafted += sum(t.drafted for t in stats.trace)
            skipped += sum(
                1 for t in stats.trace
                if t.drafted == 0 and t.active > 0 and not t.prefilling
            )
        # The generator must exercise the hard cases, or the equality
        # above proves nothing about them.
        assert preempted > 0, "no schedule triggered a preemption"
        assert shared > 0, "no schedule shared a prefix block"
        assert cow > 0, "no schedule diverged through copy-on-write"
        assert drafted > 0, "no schedule actually speculated"
        assert skipped > 0, "no schedule hit the spec-skip fallback"

    def test_reference_backend_streams_identical(self):
        """On ``reference`` the verify logits sit within 1e-9 of the
        sequential decode's; over these seeded schedules no argmax or
        top-k draw flips, so the streams match exactly too."""
        for seed in (2, 5, 7):
            schedule = _random_schedule(np.random.default_rng(seed))
            plain, _, _ = _run_engine(schedule, "reference", None)
            spec, _, _ = _run_engine(
                schedule, "reference", SpeculativeConfig(k=3)
            )
            assert spec == plain, f"seed {seed}: reference diverged"

    def test_float_kv_target_streams_identical(self):
        """kv_bits=None target (the bench's high-acceptance variant):
        spec-on == spec-off bitwise on lut-blocked."""
        for seed in (1, 4):
            schedule = _random_schedule(np.random.default_rng(seed))
            plain, _, _ = _run_engine(
                schedule, "lut-blocked", None, kv_bits=None
            )
            spec_cfg = SpeculativeConfig(
                k=4, backend="reference", kv_bits=None
            )
            spec, stats, _ = _run_engine(
                schedule, "lut-blocked", spec_cfg, kv_bits=None
            )
            assert spec == plain, f"seed {seed}: float-KV diverged"
            # Top-k-sampled requests legitimately depress acceptance
            # (the draft proposes greedily); just require the draft to
            # be right more often than chance.
            assert stats.acceptance_rate > 0.2


def _simple_engine(spec, pool_blocks=None, max_new=12, nreq=3,
                   max_batch=4, kv_bits=4):
    model = DecoderModel(FUZZ, RuntimeConfig(
        weight_bits=4, kv_bits=kv_bits, backend="lut-blocked",
        max_seq_len=96, kv_block_size=8, kv_pool_blocks=pool_blocks,
        speculative=spec,
    ))
    engine = ServingEngine(model, max_batch_size=max_batch)
    rng = np.random.default_rng(11)
    for i in range(nreq):
        engine.submit(Request(
            f"r{i}",
            prompt=tuple(int(t) for t in
                         rng.integers(0, FUZZ.vocab,
                                      size=int(rng.integers(3, 10)))),
            max_new_tokens=max_new,
        ))
    return engine


class TestSpecAccounting:
    def test_acceptance_and_trace_consistency(self):
        engine = _simple_engine(SpeculativeConfig(k=3))
        results, stats = engine.run()
        drafted = sum(t.drafted for t in stats.trace)
        accepted = sum(t.accepted for t in stats.trace)
        assert drafted > 0
        assert 0 <= accepted <= drafted
        assert stats.acceptance_rate == pytest.approx(accepted / drafted)
        # Per-request acceptance counters sum to the trace total.
        assert sum(r.spec_accepted for r in results) == accepted
        # Identical-config draft on a LUT backend agrees everywhere;
        # the only shortfall is length-cap truncation of final steps.
        assert stats.acceptance_rate > 0.8
        assert stats.mean_tokens_per_step > 1.0
        assert engine.model.stats["verify_steps"] == stats.decode_steps

    def test_spec_off_trace_has_zero_draft_columns(self):
        engine = _simple_engine(None)
        _, stats = engine.run()
        assert all(t.drafted == 0 and t.accepted == 0
                   for t in stats.trace)
        assert stats.acceptance_rate == 0.0

    def test_draft_pool_drains_after_run(self):
        """Every retirement and preemption frees the sequence's draft
        caches — after the queue drains no draft block stays in use."""
        engine = _simple_engine(SpeculativeConfig(k=3))
        engine.run()
        assert engine.draft_model is not None
        assert engine.draft_model.kv_pool.used_blocks == 0

    def test_draft_freed_on_preemption_and_streams_survive(self):
        """A pool tight enough to preempt mid-decode: the preempted
        sequence's draft caches are dropped, the resume rebuilds them
        by decode-path replay, and streams still match spec-off."""
        worst = worst_case_blocks(10, 14, 8, FUZZ.layers)
        spec_engine = _simple_engine(
            SpeculativeConfig(k=3), pool_blocks=worst + 4,
            max_new=14, nreq=4,
        )
        s_results, s_stats = spec_engine.run()
        plain_engine = _simple_engine(
            None, pool_blocks=worst + 4, max_new=14, nreq=4
        )
        p_results, _ = plain_engine.run()
        assert s_stats.preemptions > 0
        assert {r.request_id: r.tokens for r in s_results} == \
               {r.request_id: r.tokens for r in p_results}
        assert spec_engine.draft_model.kv_pool.used_blocks == 0

    def test_spec_skip_under_tight_pool_still_identical(self):
        """When free blocks cannot cover k+1 rows for every active
        sequence the engine falls back to plain decode for that step —
        visible as drafted=0 trace rows — without changing output."""
        worst = worst_case_blocks(10, 14, 8, FUZZ.layers)
        engine = _simple_engine(
            SpeculativeConfig(k=6), pool_blocks=worst + 2,
            max_new=14, nreq=4,
        )
        results, stats = engine.run()
        decode_rows = [t for t in stats.trace
                       if t.active > 0 and not t.prefilling]
        assert any(t.drafted == 0 for t in decode_rows)
        plain = _simple_engine(None, pool_blocks=worst + 2,
                               max_new=14, nreq=4)
        p_results, _ = plain.run()
        assert {r.request_id: r.tokens for r in results} == \
               {r.request_id: r.tokens for r in p_results}

    def test_tpot_fields_populated(self):
        engine = _simple_engine(SpeculativeConfig(k=3))
        results, stats = engine.run()
        multi = [r for r in results if len(r.tokens) > 1]
        assert multi
        assert all(r.tpot_ms >= 0.0 for r in multi)
        assert stats.tpot_p95 >= stats.tpot_p50 >= 0.0

    def test_speculative_config_validation(self):
        with pytest.raises(ServingError):
            SpeculativeConfig(k=0)
        with pytest.raises(ServingError):
            SpeculativeConfig(k=2, layers=0)
        with pytest.raises(ServingError):
            SpeculativeConfig(k=2, weight_bits=9)
        with pytest.raises(ServingError):
            SpeculativeConfig(k=2, kv_bits="bogus")
