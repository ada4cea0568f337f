"""Speculative decoding parity: batched verify vs sequential decode,
and every verify row vs a from-scratch oracle.

``fused_paged_verify_attention`` must reproduce, for every candidate
row, the attention output a sequential decode step at that position
would have produced — bit-for-bit on the LUT backends (per-column K
plans and per-row zero-masked trailing V requantization make the verify
row a function of its causal prefix only), 1e-9 on reference and on
float-KV pools (batched BLAS/einsum padding associates differently in
the last ulp). Decode is that body at T = 1, so the sequential
comparison partly checks the body against itself;
:class:`TestVerifyRowsAgainstOracle` checks each row against
``tests/runtime/oracle.py``, which shares no code with it.
"""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.lut.attention import float_decode_attention
from repro.models.configs import ModelConfig
from repro.runtime.model import DecoderModel, RuntimeConfig
from repro.runtime.paging import (
    BlockAllocator,
    PagedLayerCache,
    fused_paged_decode_attention,
    fused_paged_verify_attention,
)
from tests.runtime.oracle import assert_parity, reference_paged_attention

LUT_BACKENDS = ("lut-naive", "lut-blocked")
KV_HEADS = 2
HEAD_DIM = 8
REPEAT = 2
HEADS = KV_HEADS * REPEAT


def _fill_cache(pool, rng, length):
    cache = PagedLayerCache(pool)
    if length:
        cache.append(
            rng.normal(size=(length, KV_HEADS, HEAD_DIM)),
            rng.normal(size=(length, KV_HEADS, HEAD_DIM)),
        )
    return cache


def _scenario(seed, bits, block_size=8):
    """Two mirrored (pool, caches, rows, queries) worlds: one for the
    batched verify, one replayed sequentially."""
    rng = np.random.default_rng(seed)
    b = int(rng.integers(1, 5))
    t = int(rng.integers(1, 6))
    base = [int(rng.integers(1, 3 * block_size)) for _ in range(b)]
    row_state = rng.bit_generator.state

    def build():
        r = np.random.default_rng()
        r.bit_generator.state = row_state
        pool = BlockAllocator(
            KV_HEADS, HEAD_DIM, block_size=block_size, bits=bits
        )
        caches = [_fill_cache(pool, r, length) for length in base]
        k_new = r.normal(size=(b, t, KV_HEADS, HEAD_DIM))
        v_new = r.normal(size=(b, t, KV_HEADS, HEAD_DIM))
        queries = r.normal(size=(b, t, HEADS, HEAD_DIM))
        return pool, caches, k_new, v_new, queries

    return base, build


def _sequential_reference(caches, k_new, v_new, queries, backend):
    """T fused decode steps: append row j everywhere, attend row j."""
    t = queries.shape[1]
    outs = []
    for j in range(t):
        for i, cache in enumerate(caches):
            cache.append(k_new[i, j], v_new[i, j])
        outs.append(
            fused_paged_decode_attention(
                queries[:, j], caches, repeat=REPEAT, backend=backend
            )
        )
    return np.stack(outs, axis=1)  # (B, T, heads, head_dim)


class TestVerifyAttentionParity:
    @pytest.mark.parametrize("backend", LUT_BACKENDS)
    def test_bitwise_identical_to_sequential_decode_lut(self, backend):
        for seed in range(8):
            base, build = _scenario(seed, bits=4)
            pool, caches, k_new, v_new, queries = build()
            for i, cache in enumerate(caches):
                cache.append(k_new[i], v_new[i])
            got = fused_paged_verify_attention(
                queries, caches, base, repeat=REPEAT, backend=backend
            )
            _, s_caches, sk, sv, sq = build()
            expect = _sequential_reference(s_caches, sk, sv, sq, backend)
            np.testing.assert_array_equal(got, expect)

    def test_reference_backend_within_1e9(self):
        for seed in range(6):
            base, build = _scenario(seed, bits=4)
            pool, caches, k_new, v_new, queries = build()
            for i, cache in enumerate(caches):
                cache.append(k_new[i], v_new[i])
            got = fused_paged_verify_attention(
                queries, caches, base, repeat=REPEAT, backend="reference"
            )
            _, s_caches, sk, sv, sq = build()
            expect = _sequential_reference(
                s_caches, sk, sv, sq, "reference"
            )
            np.testing.assert_allclose(got, expect, atol=1e-9, rtol=0)

    def test_float_kv_within_1e9(self):
        for seed in range(6):
            base, build = _scenario(seed, bits=None)
            pool, caches, k_new, v_new, queries = build()
            for i, cache in enumerate(caches):
                cache.append(k_new[i], v_new[i])
            got = fused_paged_verify_attention(
                queries, caches, base, repeat=REPEAT
            )
            _, s_caches, sk, sv, sq = build()
            expect = _sequential_reference(s_caches, sk, sv, sq, None)
            np.testing.assert_allclose(got, expect, atol=1e-9, rtol=0)

    def test_single_candidate_matches_decode_exactly(self):
        # T=1 verify is just a fused decode step in verify clothing.
        base, build = _scenario(3, bits=4)
        pool, caches, k_new, v_new, queries = build()
        k1, v1, q1 = k_new[:, :1], v_new[:, :1], queries[:, :1]
        for i, cache in enumerate(caches):
            cache.append(k1[i], v1[i])
        got = fused_paged_verify_attention(
            q1, caches, base, repeat=REPEAT, backend="lut-blocked"
        )
        _, s_caches, sk, sv, sq = build()
        expect = _sequential_reference(
            s_caches, k1, v1, q1, "lut-blocked"
        )
        np.testing.assert_array_equal(got, expect)

    def test_length_mismatch_rejected(self):
        base, build = _scenario(0, bits=4)
        pool, caches, k_new, v_new, queries = build()
        with pytest.raises(ServingError):
            fused_paged_verify_attention(
                queries, caches, base, repeat=REPEAT
            )


#: Prompt lengths over 8-token blocks. Across T = 1..5 a row's time-j
#: trailing block is partial (3), full (7 at j = 0, 6 at j = 1) or the
#: first row of a new block (7 at j = 1, 8 at j = 0); the last two
#: share one 13-token prompt, partial trailing block included, which the
#: first candidate append copy-on-writes.
ORACLE_BASES = (3, 6, 7, 8, 13, 13)


def _oracle_world(bits, t):
    """A verify batch over :data:`ORACLE_BASES` with *t* candidate rows
    per sequence appended. Returns ``(caches, histories, queries)``:
    each sequence's float ``(K, V)`` history, ``(length, kv_heads,
    head_dim)`` each, is all the oracle reads."""
    rng = np.random.default_rng(40 + t)
    pool = BlockAllocator(KV_HEADS, HEAD_DIM, block_size=8, bits=bits)
    shape = (KV_HEADS, HEAD_DIM)
    hist = [
        tuple(rng.normal(size=(n + t,) + shape) for _ in "kv")
        for n in ORACLE_BASES
    ]
    hist[5] = tuple(
        np.concatenate([owner[:13], own[13:]])
        for owner, own in zip(hist[4], hist[5])
    )
    caches = [PagedLayerCache(pool) for _ in ORACLE_BASES[:4]]
    caches += [PagedLayerCache(pool, layer=0) for _ in range(2)]
    prompt = np.arange(13)
    for cache, n, (k, v) in zip(caches[:5], ORACLE_BASES, hist):
        cache.append(k[:n], v[:n], token_ids=prompt[:n])
    caches[5].adopt_prefix(pool.match_prefix(0, prompt), prompt)
    assert caches[5].block_ids == caches[4].block_ids
    for cache, n, (k, v) in zip(caches, ORACLE_BASES, hist):
        cache.append(k[n:], v[n:])
    assert pool.stats["cow"] == 1
    queries = rng.normal(size=(len(caches), t, HEADS, HEAD_DIM))
    return caches, hist, queries


class TestVerifyRowsAgainstOracle:
    """Every verify row ``(b, j)`` against a from-scratch recomputation
    over sequence b's time-j float history — no pool arena, no decode
    call — so verify is not checked against itself now that decode is
    its T = 1 call."""

    @pytest.mark.parametrize("t", range(1, 6))
    @pytest.mark.parametrize("bits", [2, 4])
    @pytest.mark.parametrize("backend", LUT_BACKENDS + ("reference",))
    def test_rows_equal_the_from_scratch_recipe(self, backend, bits, t):
        caches, hist, queries = _oracle_world(bits, t)
        got = fused_paged_verify_attention(
            queries, caches, ORACLE_BASES, repeat=REPEAT, backend=backend
        )
        for b, (n, (k, v)) in enumerate(zip(ORACLE_BASES, hist)):
            for j in range(t):
                f = n + j + 1
                want = reference_paged_attention(
                    k[:f].transpose(1, 0, 2), v[:f].transpose(1, 0, 2),
                    queries[b, j], bits=bits, block_size=8,
                    lut_k=caches[b].lut_k, backend=backend, repeat=REPEAT,
                )
                assert_parity(got[b, j], want, backend, f"row ({b}, {j})")

    @pytest.mark.parametrize("t", range(1, 6))
    def test_float_kv_rows_within_1e9(self, t):
        caches, hist, queries = _oracle_world(None, t)
        got = fused_paged_verify_attention(
            queries, caches, ORACLE_BASES, repeat=REPEAT
        )
        for b, (n, (k, v)) in enumerate(zip(ORACLE_BASES, hist)):
            for j in range(t):
                f = n + j + 1
                want = float_decode_attention(
                    queries[b, j], k[:f].transpose(1, 0, 2),
                    v[:f].transpose(1, 0, 2), repeat=REPEAT,
                )
                np.testing.assert_allclose(
                    got[b, j], want, atol=1e-9, rtol=0,
                    err_msg=f"row ({b}, {j})",
                )


MODEL_CFG = ModelConfig(
    "spec-fuzz",
    hidden=32,
    ffn=48,
    layers=2,
    heads=4,
    kv_heads=2,
    vocab=64,
    gated_ffn=True,
)


def _make_model(backend, kv_bits=4):
    rt = RuntimeConfig(
        weight_bits=4,
        kv_bits=kv_bits,
        backend=backend,
        kv_block_size=8,
        max_seq_len=96,
    )
    return DecoderModel(MODEL_CFG, rt)


def _prefilled(model, prompts):
    caches = [model.new_caches() for _ in prompts]
    for prompt, cs in zip(prompts, caches):
        model.prefill(prompt, cs, share=False)
    return caches


class TestVerifyBatchParity:
    """``DecoderModel.verify_batch`` vs T sequential ``decode_batch``
    steps on identically-seeded twin models."""

    def _worlds(self, seed):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(1, 4))
        t = int(rng.integers(2, 5))
        prompts = [
            rng.integers(0, MODEL_CFG.vocab, size=int(rng.integers(2, 20)))
            for _ in range(b)
        ]
        cands = rng.integers(0, MODEL_CFG.vocab, size=(b, t))
        return prompts, cands

    @pytest.mark.parametrize("backend", LUT_BACKENDS)
    def test_bitwise_vs_sequential_decode_lut(self, backend):
        for seed in range(4):
            prompts, cands = self._worlds(seed)
            spec = _make_model(backend)
            sc = _prefilled(spec, prompts)
            got = spec.verify_batch(cands, sc)
            plain = _make_model(backend)
            pc = _prefilled(plain, prompts)
            rows = [
                plain.decode_batch(cands[:, j], pc)
                for j in range(cands.shape[1])
            ]
            np.testing.assert_array_equal(got, np.stack(rows, axis=1))

    @pytest.mark.parametrize("kv_bits", [4, None])
    def test_reference_and_float_kv_within_1e9(self, kv_bits):
        prompts, cands = self._worlds(9)
        spec = _make_model("reference", kv_bits=kv_bits)
        sc = _prefilled(spec, prompts)
        got = spec.verify_batch(cands, sc)
        plain = _make_model("reference", kv_bits=kv_bits)
        pc = _prefilled(plain, prompts)
        rows = [
            plain.decode_batch(cands[:, j], pc)
            for j in range(cands.shape[1])
        ]
        np.testing.assert_allclose(
            got, np.stack(rows, axis=1), atol=1e-9, rtol=0
        )

    @pytest.mark.parametrize("backend", LUT_BACKENDS)
    def test_rollback_then_decode_matches_plain(self, backend):
        # Accept m of the T candidates, truncate the rest, keep
        # decoding: the continuation must be bitwise the run that only
        # ever decoded the m accepted tokens.
        rng = np.random.default_rng(21)
        for trial in range(3):
            prompts, cands = self._worlds(30 + trial)
            b, t = cands.shape
            m = int(rng.integers(1, t + 1))
            extra = rng.integers(0, MODEL_CFG.vocab, size=(3, b))

            spec = _make_model(backend)
            sc = _prefilled(spec, prompts)
            spec.verify_batch(cands, sc)
            for caches in sc:
                for cache in caches:
                    cache.truncate_rows(t - m)
            got = [spec.decode_batch(extra[j], sc) for j in range(3)]

            plain = _make_model(backend)
            pc = _prefilled(plain, prompts)
            for j in range(m):
                plain.decode_batch(cands[:, j], pc)
            expect = [plain.decode_batch(extra[j], pc) for j in range(3)]
            for g, e in zip(got, expect):
                np.testing.assert_array_equal(g, e)
            for caches_s, caches_p in zip(sc, pc):
                assert caches_s[0].length == caches_p[0].length

    def test_over_long_candidates_rejected(self):
        model = _make_model("lut-blocked")
        caches = _prefilled(model, [np.arange(2, dtype=np.int64)])
        too_long = model.runtime.max_seq_len - caches[0][0].length + 1
        cands = np.zeros((1, too_long), dtype=np.int64)
        with pytest.raises(ServingError):
            model.verify_batch(cands, caches)
