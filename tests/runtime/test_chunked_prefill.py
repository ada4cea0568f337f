"""Chunked prefill parity: any chunk split == one monolithic prefill.

The chunked-prefill claim has two layers. At the **model** level,
:meth:`DecoderModel.prefill` called over any split of the prompt must
produce the same computed logit rows *and* the same cached K/V as one
whole-prompt call — bit-identical on the LUT backends (every prefill
row's numerics depend only on its absolute position, never on the
chunk boundaries), 1e-9 on ``reference`` (batched BLAS regroups last
ulps). At the **engine** level, running the same request set with
``prefill_chunk`` set must emit token streams identical to the
monolithic engine — including under pool pressure, preemption (both of
decoding and of mid-prefill sequences) and prefix sharing.
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
)

LUT_BACKENDS = ("lut-naive", "lut-blocked")
BACKENDS = LUT_BACKENDS + ("reference",)

GQA = ModelConfig(
    "chunk-gqa", hidden=32, ffn=48, layers=2, heads=4, kv_heads=2,
    vocab=64, gated_ffn=True,
)
THIN = ModelConfig(
    "chunk-thin", hidden=32, ffn=48, layers=1, heads=4, kv_heads=2,
    vocab=64, gated_ffn=True,
)

#: Chunk splits of a 23-token prompt: token-at-a-time, small fixed,
#: exactly the block size, and ragged (none aligned to anything).
SPLITS = {
    "ones": [1] * 23,
    "threes": [3] * 7 + [2],
    "block": [16, 7],
    "ragged": [5, 11, 7],
}


def _model(backend, kv_bits=4, **kwargs):
    return DecoderModel(GQA, RuntimeConfig(
        weight_bits=4, kv_bits=kv_bits, backend=backend, max_seq_len=64,
        **kwargs,
    ))


def _chunked_prefill(model, prompt, split):
    caches = model.new_caches()
    logits = []
    pos = 0
    for take in split:
        logits.append(model.prefill(prompt[pos:pos + take], caches))
        pos += take
    assert pos == len(prompt)
    return np.concatenate(logits), caches


def _assert_close(got, want, backend, msg=""):
    if backend == "reference":
        np.testing.assert_allclose(got, want, atol=1e-9, err_msg=msg)
    else:
        np.testing.assert_array_equal(got, want, err_msg=msg)


class TestModelChunkParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("split", SPLITS.values(), ids=SPLITS.keys())
    @pytest.mark.parametrize("kv_bits", [4, None],
                             ids=["kv-int4", "kv-float"])
    def test_any_split_matches_monolithic(self, backend, split, kv_bits):
        """Same computed rows AND the same cached K/V for every split —
        the cache equality is what licenses the engine to mix chunked
        and monolithic prefills freely."""
        model = _model(backend, kv_bits=kv_bits)
        prompt = np.random.default_rng(3).integers(0, GQA.vocab, size=23)
        mono_logits, mono_caches = _chunked_prefill(
            model, prompt, [len(prompt)]
        )
        got_logits, got_caches = _chunked_prefill(model, prompt, split)
        _assert_close(got_logits, mono_logits, backend, "logits")
        for li, (a, b) in enumerate(zip(got_caches, mono_caches)):
            assert a.length == b.length
            _assert_close(a.k_view(), b.k_view(), backend, f"K layer {li}")
            _assert_close(a.v_view(), b.v_view(), backend, f"V layer {li}")

    @pytest.mark.parametrize("backend", LUT_BACKENDS)
    def test_decode_after_chunked_prefill_bit_identical(self, backend):
        """Decode steps after a chunked prefill continue bit-for-bit on
        the monolithic run's trajectory."""
        model = _model(backend)
        rng = np.random.default_rng(5)
        prompt = rng.integers(0, GQA.vocab, size=23)
        mono_logits, mono_caches = _chunked_prefill(
            model, prompt, [len(prompt)]
        )
        got_logits, got_caches = _chunked_prefill(model, prompt, [5, 11, 7])
        for token in rng.integers(0, GQA.vocab, size=6):
            a = model.decode_step(int(token), got_caches)
            b = model.decode_step(int(token), mono_caches)
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("backend", LUT_BACKENDS)
    def test_chunked_prefill_with_prefix_adoption(self, backend):
        """adopt_prompt_prefix before the first chunk adopts exactly
        what a monolithic prefill would, and the chunked remainder stays
        bit-identical."""
        model = _model(backend, prefix_sharing=True)
        rng = np.random.default_rng(8)
        prompt = rng.integers(0, GQA.vocab, size=23)
        donor = model.new_caches()
        model.prefill(prompt, donor)            # warm the prefix index
        mono = model.new_caches()
        mono_logits = model.prefill(prompt, mono)
        chunked = model.new_caches()
        adopted = model.adopt_prompt_prefix(prompt, chunked)
        assert adopted > 0, "donor blocks must be adoptable"
        logits = []
        pos = adopted
        for take in (1, 3, len(prompt)):
            take = min(take, len(prompt) - pos)
            if take:
                logits.append(model.prefill(prompt[pos:pos + take], chunked))
                pos += take
        np.testing.assert_array_equal(
            np.concatenate(logits), mono_logits
        )
        for a, b in zip(chunked, mono):
            assert a.length == b.length
            np.testing.assert_array_equal(a.k_view(), b.k_view())

    def test_adopt_prompt_prefix_gates(self):
        """No sharing config, non-empty caches, or single-token prompts
        adopt nothing."""
        model = _model("lut-blocked", prefix_sharing=False)
        prompt = np.arange(20) % GQA.vocab
        donor = model.new_caches()
        model.prefill(prompt, donor)
        assert model.adopt_prompt_prefix(prompt, model.new_caches()) == 0
        shared = _model("lut-blocked", prefix_sharing=True)
        warm = shared.new_caches()
        shared.prefill(prompt, warm)
        busy = shared.new_caches()
        shared.prefill(prompt[:4], busy)
        assert shared.adopt_prompt_prefix(prompt, busy) == 0
        assert shared.adopt_prompt_prefix(prompt[:1],
                                          shared.new_caches()) == 0

    def test_prefill_chunk_validation(self):
        with pytest.raises(ServingError, match="prefill_chunk"):
            RuntimeConfig(weight_bits=4, prefill_chunk=0)
        with pytest.raises(ServingError, match="prefill_chunk"):
            RuntimeConfig(weight_bits=4, prefill_chunk=-3)


def _run_engine(config, runtime_kwargs, engine_kwargs, requests):
    model = DecoderModel(config, RuntimeConfig(**runtime_kwargs))
    engine = ServingEngine(model, **engine_kwargs)
    for request in requests:
        engine.submit(request)
    results, stats = engine.run()
    return {r.request_id: tuple(r.tokens) for r in results}, stats


class TestEngineChunkParity:
    @pytest.mark.parametrize("backend", LUT_BACKENDS)
    def test_streams_identical_across_chunk_sizes(
        self, backend, all_rows_streams
    ):
        """Random request mixes (shared prefixes, mixed lengths) under
        the memory-aware scheduler: chunked streams == monolithic for
        every chunk size, and monolithic == the all-rows solo decode
        (only the final chunk asks the model for a logits row)."""
        for seed in range(3):
            rng = np.random.default_rng(seed)
            shared = tuple(int(t) for t in rng.integers(0, 64, 12))
            requests = []
            for i in range(6):
                prompt = tuple(
                    int(t)
                    for t in rng.integers(0, 64, int(rng.integers(1, 30)))
                )
                if i % 3 == 0:
                    prompt = shared + prompt
                requests.append(Request(
                    f"r{i}", prompt,
                    max_new_tokens=int(rng.integers(1, 10)),
                    sampling=SamplingParams(seed=i),
                ))
            solo = dict(weight_bits=4, kv_bits=4, backend=backend,
                        max_seq_len=96)
            rt = dict(solo, kv_pool_blocks=24)
            ek = dict(max_batch_size=4, scheduler="memory-aware",
                      preemption="latest-first")
            base, _ = _run_engine(GQA, dict(rt, prefill_chunk=None),
                                  ek, requests)
            assert base == all_rows_streams(GQA, solo, requests)
            for chunk in (1, 3, 16, 1000):
                got, _ = _run_engine(GQA, dict(rt, prefill_chunk=chunk),
                                     ek, requests)
                assert got == base, f"seed {seed} chunk {chunk}"

    def test_streams_identical_under_preemption(self):
        """A bounded FIFO pool that forces decode-growth preemption —
        including preemption of a *mid-prefill* sequence, which restarts
        from token zero — still yields identical streams."""
        rng = np.random.default_rng(7)
        requests = [
            Request("r0", tuple(int(t) for t in rng.integers(0, 64, 14)),
                    max_new_tokens=20, sampling=SamplingParams(seed=1)),
            Request("r1", tuple(int(t) for t in rng.integers(0, 64, 30)),
                    max_new_tokens=4, sampling=SamplingParams(seed=2)),
        ]
        rt = dict(weight_bits=4, kv_bits=4, backend="lut-blocked",
                  max_seq_len=64, kv_pool_blocks=3)
        ek = dict(max_batch_size=2, scheduler="fifo",
                  preemption="latest-first")
        base, base_stats = _run_engine(THIN, dict(rt, prefill_chunk=None),
                                       ek, requests)
        assert base_stats.preemptions > 0
        for chunk in (1, 3, 4, 16):
            got, stats = _run_engine(THIN, dict(rt, prefill_chunk=chunk),
                                     ek, requests)
            assert got == base, f"chunk {chunk}"
            assert stats.preemptions > 0
            assert stats.resumes == stats.preemptions

    def test_trace_reports_prefilling_sequences(self):
        """While one sequence decodes and another's prompt is still
        being chunked in, StepTrace.prefilling counts it."""
        rng = np.random.default_rng(11)
        requests = [
            Request("short", tuple(int(t) for t in rng.integers(0, 64, 2)),
                    max_new_tokens=12, sampling=SamplingParams(seed=3)),
            Request("long", tuple(int(t) for t in rng.integers(0, 64, 40)),
                    max_new_tokens=2, sampling=SamplingParams(seed=4)),
        ]
        _, stats = _run_engine(
            THIN,
            dict(weight_bits=4, kv_bits=4, backend="lut-blocked",
                 max_seq_len=64, prefill_chunk=4),
            dict(max_batch_size=2, scheduler="fifo"),
            requests,
        )
        assert any(t.prefilling > 0 for t in stats.trace)
        mono_model = DecoderModel(THIN, RuntimeConfig(
            weight_bits=4, kv_bits=4, backend="lut-blocked", max_seq_len=64,
        ))
        engine = ServingEngine(mono_model, max_batch_size=2,
                               scheduler="fifo")
        for request in requests:
            engine.submit(request)
        _, mono_stats = engine.run()
        assert all(t.prefilling == 0 for t in mono_stats.trace)

    def test_ttft_interleaving_bounds_decode_stall(self):
        """The point of chunking: with a long prompt arriving mid-run,
        chunked prefill keeps serving decode steps between chunks (the
        decode trace shows steps with the long prompt still prefilling),
        instead of one monolithic stall."""
        rng = np.random.default_rng(13)
        requests = [
            Request("active", tuple(int(t) for t in rng.integers(0, 64, 2)),
                    max_new_tokens=30, sampling=SamplingParams(seed=5)),
            Request("incoming",
                    tuple(int(t) for t in rng.integers(0, 64, 48)),
                    max_new_tokens=2, sampling=SamplingParams(seed=6)),
        ]
        _, stats = _run_engine(
            THIN,
            dict(weight_bits=4, kv_bits=4, backend="lut-blocked",
                 max_seq_len=64, prefill_chunk=4),
            dict(max_batch_size=2, scheduler="fifo"),
            requests,
        )
        overlapped = sum(
            1 for t in stats.trace if t.active and t.prefilling
        )
        assert overlapped >= 48 // 4 - 1, (
            "decode must keep stepping while the long prompt chunks in"
        )
