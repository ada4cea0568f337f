"""The float attention: one definition, two bodies, one set of bytes.

Every float attention in the runtime — prefill on any pool, decode and
speculative verify on a float-KV pool — is
:func:`~repro.runtime.paging.paged_float_attention`: per row and query
head, scores summed in ascending head-dim order and scaled once, ``np.exp``
of their shift by the row max, the denominator summed in ascending key
order and the context likewise, over exactly the row's own causal keys.
A row is therefore a function of its query and its keys alone, which the
first class pins end to end on the LUT backends (whose linears are
row-wise batch invariant): a prefill row equals the decode step at its
position, and a verify row the sequential decodes, byte for byte — and
prefill reads the pool in place, never through the gathered
``k_view()`` / ``v_view()``. The property class holds the compiled body
(``attn_scores`` / ``attn_context`` in ``kernels/lut_block.c``) to the
numpy body by ``tobytes()`` over batch, rows, past, repeat, head_dim,
block size, ragged tables and adopted, copy-on-write-split and
freed-reused blocks, and both to
:func:`~repro.lut.attention.float_decode_attention` at 1e-9. This module
is in ``BOTH_BODIES``: every test runs on the compiled and the numpy body.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import native
from repro.lut.attention import float_decode_attention
from repro.models.configs import ModelConfig
from repro.runtime import DecoderModel, RuntimeConfig
from repro.runtime.paging import (
    BlockAllocator,
    PagedLayerCache,
    fused_paged_decode_attention,
    fused_paged_verify_attention,
    paged_float_attention,
)

LUT_BACKENDS = ("lut-naive", "lut-blocked")
MODEL = ModelConfig(
    "float-attn", hidden=32, ffn=64, layers=2, heads=4, kv_heads=2,
    vocab=64, gated_ffn=True,
)


def _model(backend, kv_bits=None, **kwargs):
    return DecoderModel(MODEL, RuntimeConfig(
        weight_bits=4, kv_bits=kv_bits, backend=backend, max_seq_len=64,
        **kwargs,
    ))


class TestOneDefinition:
    @pytest.mark.parametrize("backend", LUT_BACKENDS)
    def test_prefill_row_equals_the_decode_step(self, backend, lut_body):
        """Prefill a prompt plus the tokens decoded after it: each row's
        logits are the decode step's at that position, byte for byte."""
        model = _model(backend)
        prompt = np.random.default_rng(5).integers(0, MODEL.vocab, size=9)
        caches = model.new_caches()
        stream = [model.prefill(prompt, caches, share=False)[-1]]
        tokens = list(prompt)
        for _ in range(12):
            tokens.append(int(np.argmax(stream[-1])))
            stream.append(model.decode_step(tokens[-1], caches))
        assert model.kv_pool.last_attn_body == lut_body
        full = model.forward_full(np.array(tokens))
        assert full[len(prompt) - 1:].tobytes() == np.stack(stream).tobytes()

    @pytest.mark.parametrize("backend", LUT_BACKENDS)
    def test_verify_rows_equal_sequential_decodes(self, backend, lut_body):
        rng = np.random.default_rng(8)
        prompts = [rng.integers(0, MODEL.vocab, size=n) for n in (3, 17, 9)]
        cands = rng.integers(0, MODEL.vocab, size=(3, 4))
        worlds = []
        for _ in range(2):
            model = _model(backend)
            caches = [model.new_caches() for _ in prompts]
            for prompt, cache in zip(prompts, caches):
                model.prefill(prompt, cache)
            worlds.append((model, caches))
        (spec, sc), (plain, pc) = worlds
        got = spec.verify_batch(cands, sc)
        rows = [plain.decode_batch(cands[:, j], pc) for j in range(4)]
        assert got.tobytes() == np.stack(rows, axis=1).tobytes()

    def test_verify_attention_equals_decode_steps(self, lut_body):
        """The attention alone, on a float pool: one T = 4 verify against
        four T = 1 steps, ragged bases, a block boundary crossed."""
        rng = np.random.default_rng(2)
        base = [3, 14, 0]
        k_new, v_new = rng.normal(size=(2, 3, 4, 2, 8))
        queries = rng.normal(size=(3, 4, 6, 8))
        outs = []
        for verify in (True, False):
            pool = BlockAllocator(2, 8, block_size=8)
            caches = []
            for n in base:
                cache = PagedLayerCache(pool)
                if n:
                    cache.append(*np.random.default_rng(n).normal(
                        size=(2, n, 2, 8)))
                caches.append(cache)
            if verify:
                for i, cache in enumerate(caches):
                    cache.append(k_new[i], v_new[i])
                outs.append(fused_paged_verify_attention(
                    queries, caches, base, repeat=3
                ))
                continue
            steps = []
            for j in range(4):
                for i, cache in enumerate(caches):
                    cache.append(k_new[i, j], v_new[i, j])
                steps.append(fused_paged_decode_attention(
                    queries[:, j], caches, repeat=3
                ))
            outs.append(np.stack(steps, axis=1))
        assert outs[0].tobytes() == outs[1].tobytes()

    @pytest.mark.parametrize("kv_bits", [None, 4])
    @pytest.mark.parametrize("backend", LUT_BACKENDS)
    def test_prefill_reads_no_gathered_view(
        self, backend, kv_bits, lut_body, monkeypatch
    ):
        """Prefill — monolithic, chunked, adopted and narrowed — attends
        through the pool in place: ``k_view`` / ``v_view`` never run."""

        def gathered(self):
            raise AssertionError("prefill gathered the float history")

        monkeypatch.setattr(PagedLayerCache, "k_view", gathered)
        monkeypatch.setattr(PagedLayerCache, "v_view", gathered)
        model = _model(backend, kv_bits)
        prompt = np.random.default_rng(3).integers(0, MODEL.vocab, size=21)
        caches = model.new_caches()
        model.prefill(prompt, caches)
        model.decode_step(1, caches)
        again = model.new_caches()
        model.prefill(prompt[:18], again, logits_from=-1)
        model.prefill(prompt[18:], again, logits_from=-1)
        assert model.stats["shared_prefix_tokens"] > 0
        assert model.kv_pool.last_attn_body == lut_body


@st.composite
def _worlds(draw):
    """A float pool with B sequences of ``base + T`` rows each: private,
    adopted from a donor's prefix (its partial tail copy-on-write split
    by the appends), or on blocks a released cache freed."""
    kv = draw(st.integers(1, 2))
    return dict(
        kv=kv,
        repeat=draw(st.integers(1, 3)),
        head_dim=draw(st.sampled_from([1, 3, 8, 16])),
        block_size=draw(st.sampled_from([1, 3, 4, 8, 16])),
        t=draw(st.integers(1, 5)),
        seqs=draw(st.lists(
            st.tuples(
                st.sampled_from(["private", "adopted", "reused"]),
                st.integers(0, 40),
            ),
            min_size=1, max_size=4,
        )),
        seed=draw(st.integers(0, 2**16)),
    )


def _build(world):
    rng = np.random.default_rng(world["seed"])
    kv, hd, t = world["kv"], world["head_dim"], world["t"]
    pool = BlockAllocator(kv, hd, block_size=world["block_size"], lut_k=1)

    def rows(n):
        return rng.normal(size=(2, n, kv, hd))

    donor_ids = rng.integers(0, 50, size=30)
    donor = PagedLayerCache(pool, layer=0)
    donor.append(*rows(30), token_ids=donor_ids)
    caches, base = [], []
    for kind, past in world["seqs"]:
        if kind == "reused":
            junk = PagedLayerCache(pool)
            junk.append(*rows(past + t))
            junk.release()
        cache = PagedLayerCache(pool, layer=0 if kind == "adopted" else None)
        covered = 0
        if kind == "adopted" and past:
            ids = donor_ids[:min(past, 30)]
            chain = pool.match_prefix(0, ids)
            covered = sum(fill for _, fill in chain)
            cache.adopt_prefix(chain, ids[:covered])
        extra = past + t - covered
        cache.append(*rows(extra), token_ids=rng.integers(50, 60, extra))
        caches.append(cache)
        base.append(past)
    queries = rng.normal(size=(len(caches), t, kv * world["repeat"], hd))
    return pool, caches, base, queries


class TestTwoBodies:
    @settings(max_examples=60, deadline=None)
    @given(world=_worlds())
    def test_bodies_agree_and_match_the_per_head_reference(self, world):
        pool, caches, base, queries = _build(world)
        repeat = world["repeat"]
        got = paged_float_attention(queries, caches, base, repeat)
        with native.unloaded():
            want = paged_float_attention(queries, caches, base, repeat)
        assert got.tobytes() == want.tobytes()
        for i, cache in enumerate(caches):
            k, v = cache.k_view(), cache.v_view()
            for j in range(world["t"]):
                n = base[i] + j + 1
                np.testing.assert_allclose(
                    got[i, j],
                    float_decode_attention(
                        queries[i, j], k[:, :n], v[:, :n], repeat=repeat
                    ),
                    atol=1e-9, rtol=0,
                )

    @settings(max_examples=20, deadline=None)
    @given(world=_worlds(), at=st.integers(0, 99))
    def test_a_bad_block_id_raises_and_writes_nothing(self, world, at):
        pool, caches, base, queries = _build(world)
        cache = caches[at % len(caches)]
        cache.block_ids[at % len(cache.block_ids)] = pool.capacity + at
        before = pool._k.tobytes(), pool._v.tobytes()
        with pytest.raises(IndexError):
            paged_float_attention(queries, caches, base, world["repeat"])
        assert (pool._k.tobytes(), pool._v.tobytes()) == before

    def test_exp_is_elementwise_wherever_the_value_sits(self):
        """The compiled body hands ``np.exp`` its packed causal entries,
        the numpy body the padded ones: equal bytes because ``np.exp`` of a
        contiguous array maps each element alone."""
        rng = np.random.default_rng(0)
        for size in (1, 7, 8, 9, 63, 125, 1000):
            x = -np.abs(rng.normal(size=size)) * 30.0
            for lead in (0, 1, 5):
                padded = np.full(size + lead + 11, -np.inf)
                padded[lead:lead + size] = x
                np.exp(padded, out=padded)
                packed = x.copy()
                np.exp(packed, out=packed)
                assert padded[lead:lead + size].tobytes() == packed.tobytes()

    def test_cumsum_is_the_ascending_loop(self):
        """The numpy body's denominators: ``np.cumsum`` along a row reads,
        at ``f - 1``, the sequential sum the compiled body computes."""
        rng = np.random.default_rng(1)
        e = np.exp(rng.normal(size=(5, 3, 200)) * 4.0)
        sums = np.cumsum(e, axis=-1)
        for f in (1, 2, 9, 17, 128, 200):
            z = e[..., 0].copy()
            for n in range(1, f):
                z += e[..., n]
            assert sums[..., f - 1].tobytes() == z.tobytes()
