"""Shared numeric helpers used across the stack.

Small, dependency-free routines that several subsystems need with
*identical* numerics: the accuracy model, the LUT decode attention, and
the serving runtime all softmax the same way, so parity tests between
the full-sequence forward and the KV-cached decode compare like with
like instead of chasing copy-pasted variants.
"""

from __future__ import annotations

import numpy as np


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along *axis*.

    Shifts by the running max so ``exp`` never overflows; masked entries
    at ``-1e30`` (the causal-mask convention used throughout the repo)
    underflow to exactly ``0.0`` in float64, which the KV-cache padding
    in :mod:`repro.runtime` relies on.
    """
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def masked_width_softmax(scores: np.ndarray, widths) -> np.ndarray:
    """Last-axis softmax whose denominators sum each row's true width.

    ``scores`` is a padded layout in which every position at or past a
    row's valid width already sits at the masked-score sentinel
    (``-1e30``); *widths* is an integer array broadcastable against
    ``scores.shape[:-1]`` giving each row's valid leading width. The
    exponentials are elementwise, but each row's denominator sums only
    its own leading ``width`` entries: appending even *exact zeros* to a
    sum changes numpy's pairwise reduction tree (and hence the last
    ulp), so summing the full padded width would break bit-parity with
    :func:`softmax` over a ``width``-long vector. Rows are processed
    grouped by width; a row's contiguous leading slice reduces with the
    same pairwise tree as the 1-D case.

    The int4-KV paged attention's softmax delegates here (per-row padded
    context widths); the float attention has its own one-definition
    softmax (:func:`repro.runtime.paging.paged_float_attention`).
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[-1]
    width_rows = np.broadcast_to(
        np.asarray(widths, dtype=np.int64), scores.shape[:-1]
    ).reshape(-1)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    flat = e.reshape(-1, n)
    denom = np.empty((flat.shape[0], 1))
    for w in np.unique(width_rows):
        rows = width_rows == w
        denom[rows] = flat[rows][..., : int(w)].sum(axis=-1, keepdims=True)
    return (flat / denom).reshape(scores.shape)


__all__ = ["masked_width_softmax", "softmax"]
