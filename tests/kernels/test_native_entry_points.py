"""One object, five entry points, one fallback.

``lut_block.c`` exports the one LUT mpGEMM pass (``lut_block``: the weight
linears and the paged int4-KV attention), the int4-KV pool's writer
(``kv_append``, ``kv_refresh``) and the float attention's two passes
(``attn_scores``, ``attn_context``). ``native.status()`` names what the
loaded object exports, an object that lacks any of them is not used at
all — all routines or none — and ``native.unloaded()`` sends *every*
caller to its numpy body: it is how the tests and ``bench_backends`` get
there.
"""

import re
import shutil
import warnings

import numpy as np
import pytest

from repro.kernels import get_backend, native, paged_lut_execute
from repro.kernels.plan import build_weight_plan
from repro.lut.mpgemm import LutMpGemmConfig, precompute_tables
from repro.quant.weight import quantize_weights
from repro.runtime.paging import (
    BlockAllocator,
    PagedLayerCache,
    paged_float_attention,
)

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on PATH"
)
ALL = ("lut_block", "kv_append", "kv_refresh", "attn_scores", "attn_context")


def _dispatch_all():
    """One weight mpGEMM and one paged dispatch through ``lut-blocked`` --
    the one LUT routine, as one weight row and through a block table --
    one K/V append and one V-arena refresh on an int4 pool, one float
    attention over it: ``(last_body, last_paged_body, the pool's
    last_kv_body after the append, and after the refresh, its
    last_attn_body)``."""
    rng = np.random.default_rng(0)
    config = LutMpGemmConfig(backend="lut-blocked")
    plan = build_weight_plan(
        quantize_weights(rng.normal(size=(6, 16)), 4, axis=0), config.k
    )
    acts = rng.normal(size=(2, 16))
    table = precompute_tables(acts, config)
    backend = get_backend("lut-blocked")
    backend.execute(plan, config, acts, table)
    paged_lut_execute(
        backend, table, acts.reshape(2, 4, 4).sum(axis=-1),
        np.zeros((1, 1), np.int64),
        (plan.indices[None, None], plan.scale_gn[None, None].copy(),
         plan.zero_gn[None, None].copy()),
        repeat=2,
    )
    pool = BlockAllocator(2, 8, 16, bits=4)
    bids = [pool.allocate(), pool.allocate()]
    pool.append_rows(bids, *rng.normal(size=(2, 2, 2, 8)))
    appended = pool.last_kv_body
    pool.refresh_v_arenas(bids)
    cache = PagedLayerCache(pool)
    cache.append(*rng.normal(size=(2, 3, 2, 8)))
    paged_float_attention(rng.normal(size=(1, 3, 2, 8)), [cache], [0])
    return (
        backend.last_body, backend.last_paged_body, appended,
        pool.last_kv_body, pool.last_attn_body,
    )


@needs_cc
def test_status_names_every_entry_point():
    status = native.status()
    assert status["loaded"] is True, status["reason"]
    assert status["entry_points"] == ALL == tuple(native.ENTRY_POINTS)
    for name in ALL:
        assert getattr(native, name)() is not None, name
    assert _dispatch_all() == ("compiled",) * 5


def test_unloaded_reaches_the_numpy_body_of_every_routine():
    with native.unloaded():
        status = native.status()
        assert (status["loaded"], status["entry_points"]) == (False, ())
        assert all(getattr(native, name)() is None for name in ALL)
        assert _dispatch_all() == ("numpy",) * 5
    assert native.status()["entry_points"] == (
        ALL if native.status()["loaded"] else ()
    )


@needs_cc
@pytest.mark.parametrize("name", ALL)
def test_object_without_an_entry_point_is_not_used(
    monkeypatch, tmp_path, name
):
    """All routines or none: a source whose *name* is renamed builds,
    but the load fails as a whole and says why."""
    source, renamed = re.subn(
        rf"^(\w+ ){name}\(", rf"\1{name}_gone(",
        native.SOURCE.read_text(), flags=re.M,
    )
    assert renamed == 1
    cut = tmp_path / "lut_block.c"
    cut.write_text(source)
    monkeypatch.setattr(native, "SOURCE", cut)
    # Unoptimized: the load, not the code, is under test here.
    monkeypatch.setattr(
        native, "FLAGS", tuple(f for f in native.FLAGS if f != "-O3")
    )
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_state", None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _dispatch_all() == ("numpy",) * 5
    assert [w.category for w in caught] == [RuntimeWarning]
    status = native.status()
    assert status["loaded"] is False and status["entry_points"] == ()
    assert name in status["reason"]
