"""Regression pins for the shared exact-width softmax helper.

Two copies of the same idea once lived in the runtime —
``paging._grouped_softmax`` (per-sequence padded context widths) and
``model._causal_softmax`` (per-row causal widths) — both summing each
row's denominator over its exact valid width to keep numpy's pairwise
reduction tree stable. Both delegated to
:func:`repro.numerics.masked_width_softmax`; these tests pin the shared
helper bit-identical to verbatim copies of both former implementations.
The int4-KV attention (``paging.fused_paged_verify_attention``) calls
the helper directly with its per-row padded widths; the float attention,
prefill's included, now has its own one-definition softmax
(``paging.paged_float_attention``), so the causal case pins the helper
itself at per-row causal widths.
"""

from __future__ import annotations

import numpy as np

from repro.numerics import masked_width_softmax, softmax

MASKED = -1e30


def _legacy_grouped_softmax(scores: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Verbatim copy of the pre-dedupe ``paging._grouped_softmax``."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    denom = np.empty(scores.shape[:-1] + (1,))
    for w in np.unique(widths):
        rows = widths == w
        denom[rows] = e[rows][..., : int(w)].sum(axis=-1, keepdims=True)
    return e / denom


def _legacy_causal_softmax(scores: np.ndarray, past: int) -> np.ndarray:
    """Verbatim copy of the pre-dedupe ``model._causal_softmax``."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    denom = np.empty(shifted.shape[:-1] + (1,))
    past = int(past)
    for i in range(scores.shape[1]):
        denom[:, i, 0] = e[:, i, : past + i + 1].sum(axis=-1)
    return e / denom


def _padded_scores(rng, shape, widths):
    scores = rng.normal(size=shape) * 4.0
    idx = np.arange(shape[-1])
    mask = idx >= np.broadcast_to(
        np.asarray(widths)[..., None] if np.ndim(widths) else widths,
        shape[:-1] + (1,),
    )
    scores[np.broadcast_to(mask, shape)] = MASKED
    return scores


class TestMaskedWidthSoftmax:
    def test_bit_identical_to_legacy_grouped_softmax(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            b = int(rng.integers(1, 9))
            heads = int(rng.integers(1, 5))
            n = int(rng.integers(2, 40))
            widths = rng.integers(1, n + 1, size=b)
            scores = _padded_scores(rng, (b, heads, n), widths[:, None])
            expect = _legacy_grouped_softmax(scores, widths)
            got = masked_width_softmax(scores, widths[:, None])
            np.testing.assert_array_equal(got, expect)

    def test_bit_identical_to_legacy_causal_softmax(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            heads = int(rng.integers(1, 5))
            t = int(rng.integers(1, 12))
            past = int(rng.integers(0, 30))
            n = past + t
            widths = past + np.arange(t) + 1
            scores = _padded_scores(rng, (heads, t, n), widths)
            expect = _legacy_causal_softmax(scores, past)
            got = masked_width_softmax(scores, widths)
            np.testing.assert_array_equal(got, expect)

    def test_full_width_matches_plain_softmax_rowwise(self):
        # With every row at full width there is no padding and each row
        # must match the 1-D softmax bit-for-bit.
        rng = np.random.default_rng(2)
        scores = rng.normal(size=(3, 4, 17)) * 3.0
        got = masked_width_softmax(scores, 17)
        for i in range(3):
            for j in range(4):
                np.testing.assert_array_equal(
                    got[i, j], softmax(scores[i, j])
                )

    def test_each_row_matches_its_unpadded_softmax(self):
        # Row b's leading widths[b] entries must equal softmax over the
        # unpadded widths[b]-long vector exactly — the invariant both
        # call sites rely on for batch-composition bit-invariance.
        rng = np.random.default_rng(3)
        n = 24
        widths = np.array([1, 7, 24, 13])
        scores = _padded_scores(rng, (4, 2, n), widths[:, None])
        got = masked_width_softmax(scores, widths[:, None])
        for b, w in enumerate(widths):
            for h in range(2):
                np.testing.assert_array_equal(
                    got[b, h, :w], softmax(scores[b, h, :w])
                )
                assert np.all(got[b, h, w:] == 0.0)

    def test_scalar_and_broadcast_widths_agree(self):
        rng = np.random.default_rng(4)
        scores = _padded_scores(rng, (5, 3, 10), 6)
        full = np.full((5, 3), 6)
        np.testing.assert_array_equal(
            masked_width_softmax(scores, 6),
            masked_width_softmax(scores, full),
        )
