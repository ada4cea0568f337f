"""A numeric decoder-only transformer over the kernels seam.

:class:`DecoderModel` is assembled from the *same*
:class:`~repro.models.configs.ModelConfig` the analytic cost model uses
(hidden/ffn/heads/kv-heads/gated-FFN), but it actually executes: every
linear projection is a :class:`~repro.runtime.linear.QuantizedLinear`
dispatching through the registered mpGEMM kernel backend, and decoding
is **incremental and paged** — per-layer, per-sequence
:class:`~repro.runtime.paging.PagedLayerCache` block tables over the
model's shared :class:`~repro.runtime.paging.BlockAllocator` are
extended token by token and attention runs over the cached context only.
Decode and speculative verify are one step over ``(B, T)`` tokens
(:meth:`DecoderModel._step`, T = 1 or ``k + 1``): one paged-attention
dispatch per layer for the whole batch, reading the pool's per-block
plan arenas when the KV cache is quantized and its float slabs
otherwise; prefill attends over the float slabs in place through the
same float body (:func:`~repro.runtime.paging.paged_float_attention`),
so on a float-KV pool a prefill row equals the decode step at its
position byte for byte. A
full-sequence forward per generated token never happens, and per-step
weight-plan work is O(1) amortized in the context; the parity tests
assert the incremental path reproduces the full forward's logits on
every registered backend.

Weights are random (seeded) — this is a *numeric serving substrate*, not
a pretrained checkpoint loader — which is exactly what the throughput
and parity claims need: real shapes, real kernels, real cache dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datatypes.formats import DataType
from repro.errors import ServingError
from repro.lut.table import DEFAULT_K
from repro.models.configs import ModelConfig
from repro.runtime.linear import QuantizedLinear
from repro.runtime.paging import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_PREFIX_CACHE_BLOCKS,
    BlockAllocator,
    PagedLayerCache,
    batched_decode_append,
    fused_paged_decode_attention,
    fused_paged_verify_attention,
    paged_float_attention,
)


@dataclass(frozen=True)
class SpeculativeConfig:
    """Draft-model speculative decoding knobs.

    The engine builds a *draft* :class:`DecoderModel` sharing the
    target's token space (same vocab, same tokenizer-free numeric
    tokens) and uses it to propose ``k`` greedy tokens per live
    sequence each step; the target then scores all ``k + 1`` candidate
    rows in one batched :meth:`DecoderModel.verify_batch` pass and
    keeps the longest agreeing prefix plus one bonus token. Rejected
    rows are rolled back with
    :meth:`~repro.runtime.paging.PagedLayerCache.truncate_rows`, so
    the token stream is exactly the non-speculative stream —
    bit-identical on the LUT backends.

    Shape overrides (``layers`` / ``heads`` / ``kv_heads`` / ``ffn`` /
    ``hidden``) and ``weight_bits`` make the draft cheaper than the
    target; ``None`` inherits the target's value. ``seed`` defaults to
    the target's weight seed — with no overrides at all the draft *is*
    the target (weights and all), which makes every greedy proposal
    agree: the acceptance-rate-1.0 configuration the engine tests pin.
    ``backend`` overrides the draft's kernel backend: drafting on
    ``"reference"`` (dequantize + BLAS) while the target verifies on a
    LUT backend is *self-speculation* — the draft runs the same
    quantized weights through the fast approximate executor, agrees
    with the exact LUT argmax except at 1e-9 ties, and the verify pass
    keeps the stream exactly the LUT stream. That is the
    high-acceptance configuration the serving bench guards.
    """

    k: int = 3
    layers: int | None = None
    heads: int | None = None
    kv_heads: int | None = None
    ffn: int | None = None
    hidden: int | None = None
    weight_bits: int | None = None
    seed: int | None = None
    backend: str | None = None
    #: Draft KV-cache width. ``"inherit"`` (default) copies the
    #: target's; an int quantizes the draft cache to that width;
    #: ``None`` keeps the draft cache in float — the float attention
    #: decode path, which skips all per-step quantize/plan work and is
    #: the usual choice for a cheap proposer (drafts only steer; the
    #: verify pass re-scores every candidate with target numerics).
    kv_bits: int | None | str = "inherit"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ServingError("speculative k must be >= 1")
        for name in ("layers", "heads", "kv_heads", "ffn", "hidden"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ServingError(f"speculative {name} must be >= 1")
        if self.weight_bits is not None and not 1 <= self.weight_bits <= 8:
            raise ServingError("speculative weight_bits must be in 1..8")
        if isinstance(self.kv_bits, str) and self.kv_bits != "inherit":
            raise ServingError(
                'speculative kv_bits must be an int, None, or "inherit"'
            )
        if isinstance(self.kv_bits, int) and not 1 <= self.kv_bits <= 8:
            raise ServingError("speculative kv_bits must be in 1..8")


@dataclass(frozen=True)
class RuntimeConfig:
    """Execution knobs of the serving runtime.

    Attributes
    ----------
    weight_bits:
        Width of the weight quantization applied to every linear
        projection (``None`` keeps FP weights — the baseline row).
    kv_bits:
        KV-cache quantization width for decode attention. ``None`` keeps
        the cache in float (the float attention over the pool's float
        slabs, read in place, as prefill); 2/4/8 quantize per the
        KIVI-style recipe and decode through the LUT kernels over the
        pool's plan arenas. Both run through
        :func:`~repro.runtime.paging.fused_paged_decode_attention`.
    lut_k:
        LUT activation group length (paper: 4).
    backend:
        mpGEMM kernel backend name for every dispatch (``None`` defers
        to ``REPRO_MPGEMM_BACKEND``, then the default).
    table_dtype:
        Optional LUT table quantization for the linear projections.
    max_seq_len:
        Positional-embedding capacity; prompt + generation must fit.
    kv_block_size:
        Tokens per paged-KV block (must be a multiple of ``lut_k``; a
        multiple of 16 keeps V context groups block-local, which is
        what lets full blocks freeze their quantization).
    kv_pool_blocks:
        Bound on the shared KV block pool. ``None`` (default) grows the
        pool on demand; a concrete bound makes allocation fail when
        exhausted — pair it with the memory-aware scheduler so
        admission blocks instead.
    prefix_sharing:
        Enable copy-on-write prefix sharing: prompts whose leading
        tokens match blocks already in the pool's prefix index (from
        live or recently-completed sequences) adopt those blocks
        read-only and only compute from the first divergent token.
        Bit-exact by construction; disable to force every sequence
        onto private blocks (the no-sharing baseline the bench
        compares against).
    prefix_cache_blocks:
        Bound on *parked* (recently-freed, still-indexed) blocks the
        pool retains for prefix reuse, evicted beyond it per
        ``prefix_eviction``. ``0`` disables recently-freed sharing
        entirely; ``None`` keeps every full indexed block until pool
        pressure reclaims it — unbounded memory growth on an unbounded
        pool, so only sensible with ``kv_pool_blocks`` set.
    prefix_eviction:
        Which parked block the pool reclaims first under pressure: a
        name from
        :data:`~repro.runtime.paging.PREFIX_EVICTION_POLICIES`
        (``"lru"`` — least-recently-parked, the default — or ``"lfu"``
        — least-frequently-adopted, which protects hot system-prompt
        blocks from a stream of one-off prompts). The router's shadow
        prefix indexes accept the same names.
    seed:
        Weight-initialization seed.
    prefill_chunk:
        Per-engine-step prompt-token budget for **chunked prefill**.
        ``None`` (default) prefills each admitted prompt monolithically
        inside admission; an integer makes the engine process at most
        that many prompt tokens per step, interleaved with decode
        steps, so one long prompt no longer stalls every active
        decode. Token streams are bit-identical either way on the LUT
        backends: chunked prefill computes the same rows (a row's
        attention depends only on its absolute position and its keys,
        never on the chunk split).
    speculative:
        Draft-model speculative decoding (:class:`SpeculativeConfig`);
        ``None`` (default) keeps plain one-token-per-step decoding.
        Output-identical by construction: the verify pass scores each
        candidate row exactly as a sequential decode step would, and
        rejected rows are truncated back out of the KV pool.
    swap_threshold_tokens:
        Enable **swap-to-host preemption** for sequences whose cached
        context is at least this many tokens: eviction serializes their
        KV blocks (:meth:`~repro.runtime.paging.PagedLayerCache.serialize`)
        to a host-side spill record and resumption restores the blocks
        into the pool — O(context) memcpy — instead of re-running
        prefill + decode replay (O(context) model FLOPs). Shorter
        contexts, and ``None`` (default), keep the cheaper
        recompute-on-resume path. Output-transparent either way: the
        restored slabs are bit-identical and a restore the pool cannot
        hold falls back to recompute.
    """

    weight_bits: int | None = 4
    kv_bits: int | None = None
    lut_k: int = DEFAULT_K
    backend: str | None = None
    table_dtype: DataType | None = None
    max_seq_len: int = 256
    kv_block_size: int = DEFAULT_BLOCK_SIZE
    kv_pool_blocks: int | None = None
    prefix_sharing: bool = True
    prefix_cache_blocks: int | None = DEFAULT_PREFIX_CACHE_BLOCKS
    prefix_eviction: str = "lru"
    seed: int = 0
    prefill_chunk: int | None = None
    speculative: SpeculativeConfig | None = None
    swap_threshold_tokens: int | None = None

    def __post_init__(self) -> None:
        if self.prefill_chunk is not None and self.prefill_chunk < 1:
            raise ServingError("prefill_chunk must be >= 1 or None")
        if self.max_seq_len < 1:
            raise ServingError("max_seq_len must be positive")
        if self.kv_bits is not None and not 1 <= self.kv_bits <= 8:
            raise ServingError("kv_bits must be in 1..8 or None")
        if self.kv_block_size < 1 or self.kv_block_size % self.lut_k:
            raise ServingError(
                "kv_block_size must be a positive multiple of lut_k"
            )
        if self.kv_pool_blocks is not None and self.kv_pool_blocks < 1:
            raise ServingError("kv_pool_blocks must be >= 1 or None")
        if self.prefix_cache_blocks is not None and self.prefix_cache_blocks < 0:
            raise ServingError("prefix_cache_blocks must be >= 0 or None")
        if (
            self.swap_threshold_tokens is not None
            and self.swap_threshold_tokens < 1
        ):
            raise ServingError(
                "swap_threshold_tokens must be >= 1 or None"
            )


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * gain + bias


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


class _DecoderLayer:
    """One pre-norm block: attention projections + (gated) FFN."""

    def __init__(
        self, cfg: ModelConfig, rt: RuntimeConfig, rng: np.random.Generator
    ) -> None:
        d, kv_dim, f = cfg.hidden, cfg.kv_dim, cfg.ffn
        scale = 1.0 / np.sqrt(d)

        def linear(shape: tuple[int, int], name: str) -> QuantizedLinear:
            return QuantizedLinear(
                rng.normal(scale=scale, size=shape),
                bits=rt.weight_bits,
                lut_k=rt.lut_k,
                backend=rt.backend,
                table_dtype=rt.table_dtype,
                name=name,
            )

        self.wq = linear((d, d), "wq")
        self.wk = linear((kv_dim, d), "wk")
        self.wv = linear((kv_dim, d), "wv")
        self.wo = linear((d, d), "wo")
        self.gated = cfg.gated_ffn
        if cfg.gated_ffn:
            self.w_gate = linear((f, d), "w_gate")
        self.w_up = linear((f, d), "w_up")
        self.w_down = linear((d, f), "w_down")
        self.ln1_g = np.ones(d)
        self.ln1_b = np.zeros(d)
        self.ln2_g = np.ones(d)
        self.ln2_b = np.zeros(d)

    def ffn(self, h: np.ndarray) -> np.ndarray:
        if self.gated:
            return self.w_down(_silu(self.w_gate(h)) * self.w_up(h))
        return self.w_down(np.maximum(self.w_up(h), 0.0))


class DecoderModel:
    """Numeric KV-cached decoder built from a :class:`ModelConfig`."""

    def __init__(
        self, config: ModelConfig, runtime: RuntimeConfig | None = None
    ) -> None:
        self.config = config
        self.runtime = runtime or RuntimeConfig()
        rt = self.runtime
        if config.head_dim % rt.lut_k != 0:
            raise ServingError(
                f"head_dim {config.head_dim} must be a multiple of "
                f"lut_k={rt.lut_k} for the LUT decode path"
            )
        rng = np.random.default_rng(rt.seed)
        #: Shared paged-KV pool: every sequence and every layer
        #: allocates fixed-size token blocks from here; completed
        #: requests return them for reuse.
        self.kv_pool = BlockAllocator(
            config.kv_heads,
            config.head_dim,
            block_size=rt.kv_block_size,
            num_blocks=rt.kv_pool_blocks,
            bits=rt.kv_bits,
            lut_k=rt.lut_k,
            prefix_cache_blocks=rt.prefix_cache_blocks,
            prefix_eviction=rt.prefix_eviction,
        )
        d = config.hidden
        self.tok_emb = rng.normal(scale=0.08, size=(config.vocab, d))
        self.pos_emb = rng.normal(scale=0.08, size=(rt.max_seq_len, d))
        self.layers = [
            _DecoderLayer(config, rt, rng) for _ in range(config.layers)
        ]
        self.ln_f_g = np.ones(d)
        self.ln_f_b = np.zeros(d)
        self.head = QuantizedLinear(
            rng.normal(scale=1.0 / np.sqrt(d), size=(config.vocab, d)),
            bits=rt.weight_bits,
            lut_k=rt.lut_k,
            backend=rt.backend,
            table_dtype=rt.table_dtype,
            name="head",
        )
        #: Execution counters: the engine/tests read these to prove the
        #: decode path is incremental (attention cost ~ cached context)
        #: and that prefix sharing actually skips prefill work.
        self.stats = {
            "prefill_tokens": 0,
            "decode_steps": 0,
            "verify_steps": 0,
            "attn_context_tokens": 0,
            "shared_prefix_tokens": 0,
        }

    # ------------------------------------------------------------------
    def new_caches(self) -> list[PagedLayerCache]:
        """Fresh per-layer block tables for one sequence.

        Blocks are claimed from the shared pool as tokens arrive; call
        :meth:`free_caches` when the sequence completes so they return
        for reuse (the engine does this automatically). With prefix
        sharing enabled the caches are layer-tagged so their blocks
        enter the pool's prefix index and prompts can adopt matches.
        """
        share = self.runtime.prefix_sharing
        return [
            PagedLayerCache(self.kv_pool, layer=(li if share else None))
            for li in range(self.config.layers)
        ]

    def free_caches(self, caches: list[PagedLayerCache]) -> None:
        """Return a sequence's blocks to the shared pool (idempotent)."""
        for cache in caches:
            cache.release()

    def _check_tokens(self, tokens: np.ndarray) -> np.ndarray:
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1 or tokens.size == 0:
            raise ServingError("tokens must be a non-empty 1-D sequence")
        if tokens.min() < 0 or tokens.max() >= self.config.vocab:
            raise ServingError(
                f"token ids must be in [0, {self.config.vocab})"
            )
        return tokens

    # ------------------------------------------------------------------
    def _match_chains(
        self, ids: list[int]
    ) -> tuple[int, list[list[tuple[int, int]]]]:
        """Per-layer prefix-index chains trimmed to one common coverage.

        Adoption must be symmetric across layers (decode reads one
        sequence length from the block tables), so every layer's chain
        is trimmed until all cover the same leading token count.
        Returns ``(common_tokens, chains)``; ``common_tokens == 0``
        means no usable match.
        """
        pool = self.kv_pool
        chains = [
            pool.match_prefix(li, ids) for li in range(self.config.layers)
        ]

        def cov(chain):
            return sum(fill for _, fill in chain)

        common = min(cov(chain) for chain in chains)
        while True:
            for chain in chains:
                while chain and cov(chain) > common:
                    chain.pop()
            trimmed = min(cov(chain) for chain in chains)
            if trimmed == common:
                break
            common = trimmed
        if common == 0 or any(cov(chain) != common for chain in chains):
            return 0, chains
        return common, chains

    def _adopt_prefix(
        self, tokens: np.ndarray, caches: list[PagedLayerCache]
    ) -> int:
        """Map indexed shared blocks as the leading prompt context.

        At least the final prompt token is always left to compute (its
        logits row feeds sampling), so adoption never covers the whole
        prompt. Returns the number of adopted (skipped) tokens.
        """
        ids = [int(t) for t in tokens[:-1]]
        if not ids:
            return 0
        common, chains = self._match_chains(ids)
        if common == 0:
            return 0
        for cache, chain in zip(caches, chains):
            cache.adopt_prefix(chain, ids[:common])
        self.stats["shared_prefix_tokens"] += common
        return common

    def adopt_prompt_prefix(
        self, tokens: np.ndarray, caches: list[PagedLayerCache]
    ) -> int:
        """Adopt a full prompt's indexed prefix ahead of chunked prefill.

        Chunked prefill feeds :meth:`prefill` one slice of the prompt
        at a time, but prefix adoption must see the *whole* prompt to
        adopt as much as a monolithic prefill would (matching inside
        the first chunk alone would stop at the chunk edge). The
        engine calls this once with the full prompt before the first
        chunk; the return value is the number of leading tokens
        already cached, so chunking starts from that offset. No-op
        (returns 0) unless the same gate a monolithic prefill applies
        holds: sharing enabled, empty caches, a multi-token prompt,
        and layer-tagged caches. Like monolithic adoption, the final
        prompt token is never adopted — its logits row feeds sampling.
        """
        tokens = self._check_tokens(tokens)
        if (
            not self.runtime.prefix_sharing
            or caches[0].length != 0
            or tokens.size <= 1
            or any(c.layer is None for c in caches)
        ):
            return 0
        return self._adopt_prefix(tokens, caches)

    def shareable_blocks(self, token_ids, live_only: bool = False) -> int:
        """Pool blocks a prompt could adopt from the prefix index now.

        Counts *full* matched blocks only, across all layers: a shared
        partial block is cloned on the first append past it, so it
        does not reduce the worst-case private footprint the admission
        and submit checks reason about.

        ``live_only`` restricts the count to blocks currently held by
        another table (refcount >= 1). Those are the only matches that
        reduce *capacity* demand — adopting a parked cached-free block
        moves it back in use, costing exactly as much pool headroom as
        a fresh allocation (it only saves the recompute). Every
        capacity gate (submit's never-fitting rejection, the resume
        check) must therefore use ``live_only=True``;
        ``live_only=False`` measures compute savings, e.g. for
        reporting.
        """
        if not self.runtime.prefix_sharing:
            return 0
        ids = [int(t) for t in token_ids][:-1]
        if not ids:
            return 0
        common, chains = self._match_chains(ids)
        if common == 0:
            return 0
        pool = self.kv_pool
        return sum(
            1
            for chain in chains
            for bid, fill in chain
            if fill == pool.block_size
            and (not live_only or pool.refcount(bid) >= 1)
        )

    def _run_layers(self, x, caches, append, attend, keep_from: int = 0):
        """The layer loop behind prefill / decode / verify.

        ``append(cache, k, v)`` lands a layer's K/V rows for all of *x*
        (the cache must be complete); ``attend(cache, q)`` returns the
        context of the rows in *q*. In the last layer only rows
        ``keep_from:`` — those whose logits somebody reads — continue
        past the append (none kept: stop there). Exact because every
        stage is row-independent.
        """
        for layer, cache in zip(self.layers, caches):
            h = _layer_norm(x, layer.ln1_g, layer.ln1_b)
            append(cache, layer.wk(h), layer.wv(h))
            if keep_from and layer is self.layers[-1]:
                if keep_from >= len(x):
                    return np.empty((0, self.config.vocab))
                x, h = x[keep_from:], h[keep_from:]
            x = x + layer.wo(attend(cache, layer.wq(h)))
            h2 = _layer_norm(x, layer.ln2_g, layer.ln2_b)
            x = x + layer.ffn(h2)
        return self.head(_layer_norm(x, self.ln_f_g, self.ln_f_b))

    def prefill(
        self,
        tokens: np.ndarray,
        caches: list[PagedLayerCache],
        share: bool = True,
        logits_from: int = 0,
    ) -> np.ndarray:
        """Process a prompt chunk, filling *caches*; returns the logits
        of the *computed* rows the caller consumes.

        Attention runs in float over the (past + chunk) context — the
        standard serving split where prefill stays high-precision and KV
        quantization applies to decode — through
        :func:`~repro.runtime.paging.paged_float_attention`: the pool's
        float slabs read in place through the block table, each row over
        its own ``past + i + 1`` causal keys and nothing else, so a row
        depends on its position, never on the chunk split (and on a
        float-KV pool equals the decode step there).

        When prefix sharing is enabled, *caches* are empty and *share*
        is true, leading tokens matching the pool's prefix index are
        adopted instead of computed; the output then covers only the
        suffix from the first divergent token (bit-identical rows to an
        unshared prefill — the parity tests pin this). Pass
        ``share=False`` to force full computation
        (the parity reference path). Only the computed rows whose index
        in *tokens* is >= *logits_from* are returned (``0`` all, ``-1``
        the row that feeds the first sampled token, ``len(tokens)`` or
        more none — a ``(0, vocab)`` array), each bit-identical to the
        all-rows call's; the caches fill completely either way.
        """
        tokens = self._check_tokens(tokens)
        cfg, rt = self.config, self.runtime
        past = caches[0].length
        first = logits_from + tokens.size if logits_from < 0 else logits_from
        if (
            share
            and rt.prefix_sharing
            and past == 0
            and tokens.size > 1
            and all(c.layer is not None for c in caches)
        ):
            shared = self._adopt_prefix(tokens, caches)
            if shared:
                tokens = tokens[shared:]
                past = shared
                first -= shared
        t = tokens.size
        if past + t > rt.max_seq_len:
            raise ServingError(
                f"sequence length {past + t} exceeds max_seq_len "
                f"{rt.max_seq_len}"
            )
        d, hd = cfg.hidden, cfg.head_dim
        rep = cfg.heads // cfg.kv_heads
        x = self.tok_emb[tokens] + self.pos_emb[past + np.arange(t)]

        def append(cache, k, v):
            shape = (t, cfg.kv_heads, hd)
            cache.append(k.reshape(shape), v.reshape(shape), token_ids=tokens)

        def attend(cache, q):
            # q holds the trailing rows the layer kept: row i of them sits
            # at position past + t - len(q) + i and sees that many keys + 1.
            rows = len(q)
            return paged_float_attention(
                q.reshape(1, rows, cfg.heads, hd), [cache],
                [past + t - rows], rep,
            ).reshape(rows, d)

        logits = self._run_layers(x, caches, append, attend, max(first, 0))
        self.stats["prefill_tokens"] += t
        return logits

    def forward_full(self, tokens: np.ndarray) -> np.ndarray:
        """Stateless full-sequence forward (the parity reference).

        Prefix adoption is disabled so every row is computed and the
        output always has one logits row per input token.
        """
        caches = self.new_caches()
        try:
            return self.prefill(tokens, caches, share=False)
        finally:
            self.free_caches(caches)

    # ------------------------------------------------------------------
    def decode_batch(
        self,
        tokens: np.ndarray,
        caches_per_seq: list[list[PagedLayerCache]],
        logits: bool = True,
    ) -> np.ndarray:
        """One KV-cached decode step for a batch of sequences: the
        shared step (:meth:`_step`) at T = 1.

        ``tokens[b]`` is sequence *b*'s most recent token; its position
        is that sequence's current cache length. Returns next-token
        logits of shape ``(B, vocab)``. ``logits=False`` (replaying
        known tokens) only advances the caches — identically — and
        returns a ``(0, vocab)`` array.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1 or tokens.size != len(caches_per_seq):
            raise ServingError("one token and one cache set per sequence")
        out = self._step(tokens[:, None], caches_per_seq, logits)
        self.stats["decode_steps"] += 1
        return out

    def decode_step(
        self, token: int, caches: list[PagedLayerCache]
    ) -> np.ndarray:
        """Single-sequence decode step; returns ``(vocab,)`` logits."""
        return self.decode_batch(np.array([token]), [caches])[0]

    def verify_batch(
        self,
        tokens: np.ndarray,
        caches_per_seq: list[list[PagedLayerCache]],
    ) -> np.ndarray:
        """Score ``k + 1`` speculative candidate rows per sequence in
        one batched step: the shared step (:meth:`_step`) at T = k + 1.

        ``tokens[b]`` holds sequence *b*'s candidate rows: its current
        last token followed by its draft proposals. Row ``j``'s logits
        are exactly what :meth:`decode_batch` would have returned after
        the sequence consumed rows ``0..j`` — bit-identical on the LUT
        backends, 1e-9 on ``reference`` and float-KV pools. The caller
        keeps the accepted prefix and rolls the rejected trailing rows
        back with
        :meth:`~repro.runtime.paging.PagedLayerCache.truncate_rows`.
        Returns logits of shape ``(B, T, vocab)``.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 2 or tokens.shape[0] != len(caches_per_seq):
            raise ServingError(
                "tokens must be (batch, candidates) with one row per "
                "sequence"
            )
        out = self._step(tokens, caches_per_seq)
        self.stats["verify_steps"] += 1
        return out.reshape(tokens.shape + (self.config.vocab,))

    def _step(
        self,
        tokens: np.ndarray,
        caches_per_seq: list[list[PagedLayerCache]],
        logits: bool = True,
    ) -> np.ndarray:
        """The KV-cached step over ``(B, T)`` *tokens* (row ``(b, j)`` at
        position ``length_b + j``): one ``(B · T, hidden)`` mpGEMM per
        projection — row-wise the backends are batch-composition
        invariant — and one fused attention dispatch per layer. At T = 1
        the rows land through one pool-level
        :func:`~repro.runtime.paging.batched_decode_append` and attend
        through :func:`~repro.runtime.paging.fused_paged_decode_attention`;
        at T > 1 each sequence's rows land with ``cache.append`` (they
        may cross a block boundary) and attend through
        :func:`~repro.runtime.paging.fused_paged_verify_attention`.
        Returns the ``(B · T, vocab)`` logits (``(0, vocab)`` with
        ``logits=False``).
        """
        cfg, rt = self.config, self.runtime
        b, t = tokens.shape
        d, hd = cfg.hidden, cfg.head_dim
        base = np.array([c[0].length for c in caches_per_seq])
        if int(base.max(initial=0)) + t > rt.max_seq_len:
            raise ServingError(
                f"a sequence's step exceeds max_seq_len {rt.max_seq_len}"
            )
        positions = base[:, None] + np.arange(t)[None, :]
        x = (self.tok_emb[tokens] + self.pos_emb[positions]).reshape(
            b * t, d
        )
        shape = (b, t, cfg.kv_heads, hd)
        kw = dict(
            repeat=cfg.heads // cfg.kv_heads,
            table_dtype=rt.table_dtype,
            backend=rt.backend,
        )
        # Each row's post-append context, summed over the step.
        step_context = int((positions + 1).sum())

        def append(caches, k, v):
            k, v = k.reshape(shape), v.reshape(shape)
            if t == 1:
                batched_decode_append(caches, k[:, 0], v[:, 0], tokens[:, 0])
                return
            for s, cache in enumerate(caches):
                cache.append(k[s], v[s], token_ids=tokens[s])

        def attend(caches, q):
            self.stats["attn_context_tokens"] += step_context
            q = q.reshape(b, t, cfg.heads, hd)
            if t == 1:
                out = fused_paged_decode_attention(q[:, 0], caches, **kw)
            else:
                out = fused_paged_verify_attention(q, caches, base, **kw)
            return out.reshape(b * t, d)

        layer_caches = list(zip(*caches_per_seq))
        return self._run_layers(
            x, layer_caches, append, attend, 0 if logits else b * t
        )

    # ------------------------------------------------------------------
    def kv_memory_bytes(self, caches: list[PagedLayerCache]) -> int:
        """KV footprint of one sequence's allocated blocks across layers.

        Pure shape arithmetic over the block tables — float bytes in
        float mode, packed ``kv_bits`` entries otherwise, full block
        capacity included (that is what the pool actually holds).
        """
        return sum(cache.memory_bytes() for cache in caches)


__all__ = ["DecoderModel", "RuntimeConfig", "SpeculativeConfig"]
