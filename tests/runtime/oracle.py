"""From-scratch oracles for the paged decode path.

Nothing here reads a pool's arenas. Attention re-quantizes the float
history a cache's ``k_view()`` / ``v_view()`` gathers and plans it with
``build_weight_plan``; a decode step appends one sequence at a time and
attends through that recompute. The runtime's one decode path — the
batched append plus :func:`~repro.runtime.paging.fused_paged_decode_attention`
over the arenas — is pinned against these: bitwise on the LUT backends,
1e-9 on ``reference``, where the runtime's attention still runs the LUT
mpGEMM but this oracle dequantizes (``reference``'s ``execute``).
"""

import numpy as np

from repro.kernels import build_weight_plan, get_backend
from repro.lut.attention import MASKED_SCORE, float_decode_attention
from repro.lut.mpgemm import LutMpGemmConfig, precompute_tables
from repro.numerics import softmax
from repro.quant.weight import quantize_weights
from repro.runtime.paging import KV_GROUP


def assert_parity(got, want, backend, msg=""):
    """Bytes on the LUT backends, 1e-9 on ``reference``."""
    if get_backend(backend).name == "reference":
        np.testing.assert_allclose(got, want, atol=1e-9, err_msg=msg)
    else:
        np.testing.assert_array_equal(got, want, err_msg=msg)


def reference_paged_attention(
    k_hist, v_hist, query, *, bits, block_size, lut_k, backend, repeat=1,
    full_k_plan=None, table_dtype=None,
):
    """From-scratch dense recomputation of the paged decode recipe.

    Everything is quantized and planned in one shot from the float
    ``(kv_heads, length, head_dim)`` history, every KV head's rows in one
    weight (scales are per row and lookup columns per output column, so
    stacking heads changes no value); query head ``qh`` reads its own KV
    head's columns. With ``full_k_plan`` the scores come from ONE
    full-context K plan — pinning the paged path's per-block score
    decomposition against a dense matmul, valid bit for bit on the LUT
    backends whose reduction order is pinned per output column —
    otherwise from per-block scratch-built plans (the reference
    backend's BLAS GEMM may associate differently across matmul shapes,
    a 1-ulp effect the LUT kernels by construction don't have). The
    default picks the full plan on every backend but ``reference``. V
    slabs are quantized from scratch per zero-padded block and the
    context partials accumulate in block order.
    """
    kv_heads, length, head_dim = k_hist.shape
    heads = kv_heads * repeat
    ctx_pad = -(-length // block_size) * block_size
    config = LutMpGemmConfig(k=lut_k, table_dtype=table_dtype, backend=backend)
    kernel = get_backend(config.backend)
    if full_k_plan is None:
        full_k_plan = kernel.name != "reference"
    k_group = KV_GROUP if head_dim % KV_GROUP == 0 else None
    v_group = KV_GROUP if block_size % KV_GROUP == 0 else None
    nblocks = ctx_pad // block_size
    v_pad = np.zeros((kv_heads, ctx_pad, head_dim))
    v_pad[:, :length] = v_hist
    inv_sqrt_d = 1.0 / np.sqrt(head_dim)

    def execute(rows, group, acts):
        """``acts @ W^T`` for the per-row quantized ``(n, K)`` *rows*."""
        weight = (
            quantize_weights(rows, bits, axis=1, group_size=group) if group
            else quantize_weights(rows, bits, axis=0)
        )
        table = precompute_tables(acts, config) if kernel.needs_table else None
        return kernel.execute(build_weight_plan(weight, lut_k), config, acts,
                              table)

    # Query head qh reads KV head qh // repeat.
    qh = np.arange(heads)
    scores = np.full((heads, ctx_pad), MASKED_SCORE)
    step = length if full_k_plan else block_size
    for lo in range(0, length, step):
        hi = min(lo + step, length)
        out = execute(k_hist[:, lo:hi].reshape(-1, head_dim), k_group, query)
        scores[:, lo:hi] = (
            out.reshape(heads, kv_heads, hi - lo)[qh, qh // repeat]
            * inv_sqrt_d
        )
    probs = np.stack([softmax(row) for row in scores])
    # Every block's V^T rows (block, KV head, channel) in one weight,
    # every block's probability segments (block, head) as the rows.
    v_t = v_pad.reshape(kv_heads, nblocks, block_size, head_dim)
    segs = probs.reshape(heads, nblocks, block_size).transpose(1, 0, 2)
    parts = execute(
        v_t.transpose(1, 0, 3, 2).reshape(-1, block_size), v_group,
        segs.reshape(-1, block_size),
    ).reshape(nblocks, heads, nblocks, kv_heads, head_dim)
    acc = None
    for blk in range(nblocks):
        part = parts[blk, qh, blk, qh // repeat]
        acc = part if acc is None else acc + part
    return acc


def oracle_attention(
    query, cache, *, repeat=1, backend=None, table_dtype=None
):
    """One sequence's decode attention from its float history alone:
    :func:`reference_paged_attention` on a quantized pool,
    ``float_decode_attention`` on a float one."""
    if cache.bits is None:
        return float_decode_attention(
            query, cache.k_view(), cache.v_view(), repeat=repeat
        )
    return reference_paged_attention(
        cache.k_view(), cache.v_view(), query, bits=cache.bits,
        block_size=cache.block_size, lut_k=cache.lut_k, backend=backend,
        repeat=repeat, table_dtype=table_dtype,
    )


def oracle_decode_batch(model, tokens, caches_per_seq):
    """``model.decode_batch``'s step with per-sequence ``cache.append``
    and :func:`oracle_attention`: same layers and weights, no batched
    append, no arena read. Returns ``(B, vocab)`` logits."""
    tokens = np.asarray(tokens, dtype=np.int64)
    cfg, rt = model.config, model.runtime
    b, hd = tokens.size, cfg.head_dim
    rep = cfg.heads // cfg.kv_heads
    positions = np.array([c[0].length for c in caches_per_seq])
    x = model.tok_emb[tokens] + model.pos_emb[positions]

    def append(caches, k, v):
        k = k.reshape(b, cfg.kv_heads, hd)
        v = v.reshape(b, cfg.kv_heads, hd)
        for s, cache in enumerate(caches):
            cache.append(k[s], v[s], token_ids=tokens[s:s + 1])

    def attend(caches, q):
        q = q.reshape(b, cfg.heads, hd)
        return np.stack([
            oracle_attention(
                q[s], cache, repeat=rep, backend=rt.backend,
                table_dtype=rt.table_dtype,
            ).reshape(cfg.hidden)
            for s, cache in enumerate(caches)
        ])

    return model._run_layers(x, list(zip(*caches_per_seq)), append, attend)
