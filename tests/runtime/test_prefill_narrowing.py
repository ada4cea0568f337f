"""Consumed-rows narrowing: a forward pass that is asked for fewer
logits rows returns *those rows of the all-rows call* and leaves the
caches exactly as the all-rows call does.

``DecoderModel.prefill(..., logits_from=j)`` runs the last layer's
``wq`` / attention / ``wo`` / FFN, the final norm and the head on the
kept rows only; ``decode_batch(..., logits=False)`` stops after the
last layer's K/V append. Both are exact because every stage is
row-independent — numpy behaviour (``einsum`` / ``take`` per-row
results not depending on the row count), not contract, which is why
this file also runs on CI's oldest-numpy leg. The second part counts
dispatched rows per linear (counts, not clocks): the engine asks for
exactly the rows it reads. The last pins that a kernel fault in the
middle of a prefill chunk leaks no blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LutError
from repro.kernels import get_backend, register_backend, unregister_backend
from repro.models.configs import ModelConfig
from repro.runtime import (
    DecoderModel,
    QuantizedLinear,
    Request,
    RuntimeConfig,
    ServingEngine,
    SpeculativeConfig,
)

BACKENDS = ("lut-naive", "lut-blocked", "reference")

GQA = ModelConfig(
    "narrow-gqa", hidden=32, ffn=48, layers=2, heads=4, kv_heads=2,
    vocab=64, gated_ffn=True,
)

#: Pool arrays a prefill / decode append writes (float slabs always,
#: K-arena columns on a quantized pool).
_POOL_ARRAYS = ("_k", "_v", "_fill", "_ka_idx", "_ka_scale", "_ka_zero")


def _model(backend, kv_bits, sharing=True, **kwargs):
    return DecoderModel(GQA, RuntimeConfig(
        weight_bits=4, kv_bits=kv_bits, backend=backend, max_seq_len=80,
        prefix_sharing=sharing, **kwargs,
    ))


def _assert_rows(got, want, backend):
    assert got.shape == want.shape
    if backend == "reference":
        np.testing.assert_allclose(got, want, atol=1e-9)
    else:
        np.testing.assert_array_equal(got, want)


def _assert_same_kv(got_model, got_caches, want_model, want_caches):
    """Both models ran the same op sequence, so block ids line up and
    the pools compare array for array."""
    for got, want in zip(got_caches, want_caches):
        assert got.length == want.length
        assert got.block_ids == want.block_ids
        np.testing.assert_array_equal(got.k_view(), want.k_view())
        np.testing.assert_array_equal(got.v_view(), want.v_view())
    for name in _POOL_ARRAYS:
        want = getattr(want_model.kv_pool, name, None)
        if want is not None:
            np.testing.assert_array_equal(
                getattr(got_model.kv_pool, name), want, err_msg=name
            )


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 70))
    past = draw(st.integers(0, n - 1))
    t = n - past
    j = draw(st.integers(0, t - 1))
    return dict(
        prompt=draw(st.lists(st.integers(0, GQA.vocab - 1),
                             min_size=n, max_size=n)),
        past=past,
        logits_from=draw(st.sampled_from([0, j, -1, t, t + 3])),
        kv_bits=draw(st.sampled_from([None, 4])),
        sharing=draw(st.booleans()),
        # Leading tokens a live donor sequence holds, so that with
        # sharing on a cold chunk really adopts (and trims its rows).
        donor=draw(st.integers(0, n)),
    )


def _warm(model, case):
    """Donor + warm past, identically on either model; returns the
    chunk's caches."""
    prompt = np.array(case["prompt"])
    if case["donor"]:
        donor = np.append(prompt[:case["donor"]], (prompt[-1] + 1) % GQA.vocab)
        model.prefill(donor, model.new_caches())
    caches = model.new_caches()
    if case["past"]:
        model.prefill(prompt[:case["past"]], caches)
    return prompt[case["past"]:], caches


class TestNarrowedPrefill:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(case=_cases())
    @settings(max_examples=40, deadline=None)
    def test_rows_and_caches_equal_the_all_rows_call(self, backend, case):
        full_model = _model(backend, case["kv_bits"], case["sharing"])
        chunk, full_caches = _warm(full_model, case)
        full = full_model.prefill(chunk, full_caches)

        model = _model(backend, case["kv_bits"], case["sharing"])
        chunk, caches = _warm(model, case)
        got = model.prefill(chunk, caches, logits_from=case["logits_from"])

        # *full* holds the computed rows only: adoption trimmed the
        # leading ``shared`` inputs, and logits_from indexes inputs.
        t = len(chunk)
        shared = t - len(full)
        first = case["logits_from"]
        if first < 0:
            first += t
        _assert_rows(got, full[max(first - shared, 0):], backend)
        _assert_same_kv(model, caches, full_model, full_caches)
        assert model.stats == full_model.stats

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kv_bits", [None, 4])
    def test_adoption_trims_before_the_kept_rows(self, backend, kv_bits):
        """A donor covers 32 of 40 tokens: the all-rows call returns 8
        rows, ``logits_from=35`` the last 5, ``logits_from=10`` (inside
        the adopted span) all 8."""
        prompt = (np.arange(40) * 7) % GQA.vocab

        def run(logits_from):
            model = _model(backend, kv_bits)
            model.prefill(np.append(prompt[:33], 1), model.new_caches())
            return model.prefill(
                prompt, model.new_caches(), logits_from=logits_from
            )

        full = run(0)
        assert full.shape == (8, GQA.vocab)
        _assert_rows(run(35), full[3:], backend)
        _assert_rows(run(10), full, backend)
        _assert_rows(run(-1), full[-1:], backend)
        assert run(40).shape == (0, GQA.vocab)


class TestLogitsOffDecode:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=4),
        kv_bits=st.sampled_from([None, 4]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_caches_equal_the_logits_on_step(
        self, backend, lengths, kv_bits, seed
    ):
        rng = np.random.default_rng(seed)
        prompts = [rng.integers(0, GQA.vocab, size=n) for n in lengths]
        tokens = rng.integers(0, GQA.vocab, size=(2, len(lengths)))

        def run(logits):
            model = _model(backend, kv_bits)
            caches = [model.new_caches() for _ in prompts]
            for prompt, c in zip(prompts, caches):
                model.prefill(prompt, c)
            first = model.decode_batch(tokens[0], caches, logits=logits)
            # The step after reads what the first one appended.
            return model, caches, first, model.decode_batch(tokens[1], caches)

        want_model, want_caches, want_first, want_next = run(True)
        model, caches, first, nxt = run(False)
        assert want_first.shape == (len(lengths), GQA.vocab)
        assert first.shape == (0, GQA.vocab)
        _assert_same_kv(
            model, sum(caches, []), want_model, sum(want_caches, [])
        )
        np.testing.assert_array_equal(nxt, want_next)
        assert model.stats["decode_steps"] == want_model.stats["decode_steps"]


# ----------------------------------------------------------------------
# Counts, not clocks: rows dispatched per linear.


@pytest.fixture
def linear_rows(monkeypatch):
    """Record ``(linear, rows)`` for every ``QuantizedLinear`` call."""
    calls = []
    original = QuantizedLinear.__call__

    def counted(self, x):
        calls.append((self, len(x)))
        return original(self, x)

    monkeypatch.setattr(QuantizedLinear, "__call__", counted)
    return calls


def _rows(calls, linear):
    return [rows for called, rows in calls if called is linear]


def _tail(layer):
    return (layer.wq, layer.wo, layer.w_gate, layer.w_up, layer.w_down)


class TestDispatchedRows:
    def test_model_level_row_counts(self, linear_rows):
        model = _model("lut-blocked", 4, sharing=False)
        first, last = model.layers[0], model.layers[-1]
        caches = model.new_caches()

        model.prefill(np.arange(12), caches, logits_from=12)
        assert _rows(linear_rows, model.head) == []
        for linear in _tail(last):
            assert _rows(linear_rows, linear) == []
        assert _rows(linear_rows, last.wk) == [12]
        assert _rows(linear_rows, last.wv) == [12]
        for linear in _tail(first):
            assert _rows(linear_rows, linear) == [12]

        del linear_rows[:]
        model.prefill(np.arange(12, 19), caches, logits_from=-1)
        assert _rows(linear_rows, model.head) == [1]
        for linear in _tail(last):
            assert _rows(linear_rows, linear) == [1]
        assert _rows(linear_rows, last.wk) == [7]
        for linear in _tail(first):
            assert _rows(linear_rows, linear) == [7]

        del linear_rows[:]
        model.decode_batch(np.array([3]), [caches], logits=False)
        assert _rows(linear_rows, model.head) == []
        for linear in _tail(last):
            assert _rows(linear_rows, linear) == []
        assert _rows(linear_rows, last.wk) == [1]
        assert _rows(linear_rows, first.wq) == [1]

    @pytest.mark.parametrize("chunk", [None, 5])
    def test_engine_prefill_reads_one_row(self, linear_rows, chunk):
        """Monolithic admission and the final chunk dispatch one head
        row; non-final chunks dispatch none and skip the last layer's
        tail, whose wk / wv still see every prompt token."""
        model = _model("lut-blocked", 4, prefill_chunk=chunk)
        last = model.layers[-1]
        engine = ServingEngine(model, max_batch_size=1)
        engine.submit(Request("r", tuple(range(1, 14)), max_new_tokens=1))
        engine.run()
        want = [13] if chunk is None else [5, 5, 3]
        assert _rows(linear_rows, last.wk) == want
        assert _rows(linear_rows, last.wv) == want
        assert _rows(linear_rows, model.layers[0].wq) == want
        assert _rows(linear_rows, model.head) == [1]
        for linear in _tail(last):
            assert _rows(linear_rows, linear) == [1]

    def test_recompute_resume_calls_head_once(self, linear_rows):
        model = _model("lut-blocked", 4)
        engine = ServingEngine(model, max_batch_size=1)
        engine.submit(Request("r", tuple(range(1, 10)), max_new_tokens=12))
        for _ in range(6):
            engine.step()
        seq = engine.active[0]
        generated = len(seq.generated)
        assert generated >= 5
        engine._preempt(seq)
        assert seq.swap_record is None
        del linear_rows[:]
        engine._resume(engine.preempted.pop())
        assert _rows(linear_rows, model.head) == [1]
        # Prompt re-prefill (all but the never-adopted last token come
        # back through the prefix index) + one replay step per
        # generated token; only the last one runs the last layer's tail.
        last = model.layers[-1]
        assert _rows(linear_rows, last.wk)[-generated:] == [1] * generated
        assert _rows(linear_rows, last.wq) == [1]
        assert len(seq.generated) == generated + 1

    def test_draft_catch_up_computes_no_logits(self, linear_rows):
        """A fresh sequence's draft cache is rebuilt by a catch-up
        prefill + replay whose logits nobody reads: the draft head runs
        only for the k proposals of each speculative step."""
        model = _model(
            "lut-blocked", 4, speculative=SpeculativeConfig(k=2, seed=999)
        )
        engine = ServingEngine(model, max_batch_size=1)
        engine.submit(Request("r", tuple(range(1, 12)), max_new_tokens=6))
        _, stats = engine.run()
        spec_steps = sum(1 for t in stats.trace if t.drafted)
        assert spec_steps > 0
        assert _rows(linear_rows, engine.draft_model.head) == [1] * (
            2 * spec_steps
        )


# ----------------------------------------------------------------------
# A fault mid-chunk must not leak the sequence's blocks.


class _FaultyBackend:
    """``lut-blocked`` that raises on its n-th ``execute`` once armed."""

    name = "test-faulty"
    needs_table = True

    def __init__(self):
        self.inner = get_backend("lut-blocked")
        self.countdown = None

    def execute(self, plan, config, activations, table=None):
        if self.countdown is not None:
            self.countdown -= 1
            if self.countdown == 0:
                self.countdown = None
                raise LutError("injected kernel fault")
        return self.inner.execute(plan, config, activations, table)


class TestChunkFaultFreesBlocks:
    def test_kernel_fault_mid_chunk(self):
        faulty = _FaultyBackend()
        register_backend(faulty)
        try:
            requests = [
                Request("a", tuple(range(1, 4)), max_new_tokens=10),
                Request("b", tuple(range(20, 25)), max_new_tokens=10),
                Request("victim", tuple(range(5, 45)), max_new_tokens=4),
            ]

            def run(fault):
                model = _model("test-faulty", 4, prefill_chunk=8)
                pool = model.kv_pool
                engine = ServingEngine(model, max_batch_size=3)
                for request in requests[:2]:
                    engine.submit(request)
                while len(engine.active) < 2:
                    engine.step()
                engine.submit(requests[2])
                before = pool.used_blocks
                engine.step()                # victim's first chunk lands
                assert [s.request for s in engine.prefilling] == requests[2:]
                assert all(c.block_ids for c in engine.prefilling[0].caches)
                if fault:
                    # Past the first layer: the chunk's appends have
                    # already claimed blocks when the kernel raises.
                    faulty.countdown = 9
                    with pytest.raises(LutError, match="injected"):
                        engine.step()
                    assert not engine.prefilling
                    # (The siblings' 15 rows never leave their first
                    # block, so only the victim moved the count.)
                    assert pool.used_blocks == before
                results, _ = engine.run()
                assert pool.used_blocks == 0
                return {r.request_id: tuple(r.tokens) for r in results}

            faulted, clean = run(True), run(False)
            assert set(faulted) == {"a", "b"}
            assert faulted == {rid: clean[rid] for rid in faulted}
        finally:
            unregister_backend("test-faulty")
