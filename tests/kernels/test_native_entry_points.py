"""One object, two entry points, one fallback.

``lut_block.c`` exports the weight loop (``lut_block``) and the paged
attention executor (``lut_rows_paged``). ``native.status()`` names what
the loaded object exports, an object that lacks either is not used at
all, and ``native.unloaded()`` sends *both* callers to their numpy
bodies — it is how the tests and ``bench_backends`` get there.
"""

import shutil
import warnings

import numpy as np
import pytest

from repro.kernels import get_backend, native, paged_lut_execute
from repro.kernels.plan import build_weight_plan
from repro.lut.mpgemm import LutMpGemmConfig, precompute_tables
from repro.quant.weight import quantize_weights

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on PATH"
)
BOTH = ("lut_block", "lut_rows_paged")


def _dispatch_both():
    """One weight mpGEMM and one paged dispatch through ``lut-blocked``:
    ``(last_body, last_paged_body)``."""
    rng = np.random.default_rng(0)
    config = LutMpGemmConfig(backend="lut-blocked")
    plan = build_weight_plan(
        quantize_weights(rng.normal(size=(6, 16)), 4, axis=0), config.k
    )
    acts = rng.normal(size=(2, 16))
    table = precompute_tables(acts, config)
    backend = get_backend("lut-blocked")
    backend.execute(plan, config, acts, table)
    flat = plan.flat_lookup_indices(table.shape[-1], True)[None, None]
    paged_lut_execute(
        backend, table, acts.reshape(2, 4, 4).sum(axis=-1),
        np.zeros((1, 1), np.int64),
        (flat, plan.scale_gn[None, None].copy(), plan.zero_gn[None, None].copy()),
        repeat=2,
    )
    return backend.last_body, backend.last_paged_body


@needs_cc
def test_status_names_both_entry_points():
    status = native.status()
    assert status["loaded"] is True, status["reason"]
    assert status["entry_points"] == BOTH == tuple(native.ENTRY_POINTS)
    assert native.lut_block() is not None
    assert native.lut_rows_paged() is not None
    assert _dispatch_both() == ("compiled", "compiled")


def test_unloaded_reaches_the_numpy_body_of_both_routines():
    with native.unloaded():
        status = native.status()
        assert (status["loaded"], status["entry_points"]) == (False, ())
        assert native.lut_block() is None and native.lut_rows_paged() is None
        assert _dispatch_both() == ("numpy", "numpy")
    assert native.status()["entry_points"] == (
        BOTH if native.status()["loaded"] else ()
    )


@needs_cc
def test_object_without_an_entry_point_is_not_used(monkeypatch, tmp_path):
    """Both routines or neither: a source that lost ``lut_rows_paged``
    builds, but the load fails as a whole and says why."""
    source = native.SOURCE.read_text()
    cut = tmp_path / "lut_block.c"
    cut.write_text(source[:source.index("#define SPLAT2")].rpartition("/*")[0])
    monkeypatch.setattr(native, "SOURCE", cut)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_state", None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _dispatch_both() == ("numpy", "numpy")
    assert [w.category for w in caught] == [RuntimeWarning]
    status = native.status()
    assert status["loaded"] is False and status["entry_points"] == ()
    assert "lut_rows_paged" in status["reason"]
