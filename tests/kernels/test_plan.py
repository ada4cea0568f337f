"""Tests for the shared offline WeightPlan."""

import numpy as np
import pytest

from repro.errors import LutError, QuantizationError
from repro.kernels import build_weight_plan
from repro.kernels.plan import flat_lookup, fold_tables, lookup_indices
from repro.lut.table import remap_weight_bits_offline
from repro.quant.reinterpret import reinterpret_symmetric
from repro.quant.weight import QuantizedWeight, quantize_weights


def sample_weight(bits=2, n=8, kdim=16, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    return quantize_weights(rng.normal(size=(n, kdim)), bits, **kwargs)


class TestBuildWeightPlan:
    def test_shapes(self):
        plan = build_weight_plan(sample_weight(bits=3, n=8, kdim=16), k=4)
        assert (plan.n, plan.kdim, plan.ngroups, plan.bits) == (8, 16, 4, 3)
        assert plan.indices.shape == (3, 4, 8)
        low, sign = plan.sym_fold()
        assert low.shape == (3, 4, 8)
        assert sign.shape == (3, 4, 8)
        assert plan.scale_gn.shape == (4, 8)
        assert plan.zero_gn.shape == (4, 8)

    def test_sym_fold_matches_offline_remap(self):
        """The plan's (low, sign) pairs are Eq. 6's remap, pre-split."""
        plan = build_weight_plan(sample_weight(bits=4, seed=3), k=4)
        low, sign = plan.sym_fold()
        remapped = remap_weight_bits_offline(plan.indices, 4)
        half_mask = (1 << 3) - 1
        np.testing.assert_array_equal(remapped & half_mask, low)
        np.testing.assert_array_equal(
            np.where((remapped >> 3) & 1 == 1, -1.0, 1.0), sign
        )

    def test_indices_in_range(self):
        plan = build_weight_plan(sample_weight(bits=4, seed=1), k=4)
        assert plan.indices.min() >= 0 and plan.indices.max() < 16
        low, sign = plan.sym_fold()
        assert low.min() >= 0 and low.max() < 8
        assert set(np.unique(sign)) <= {-1.0, 1.0}

    def test_dequantized_cached_and_matches_source(self):
        qw = sample_weight(bits=2, seed=2)
        plan = build_weight_plan(qw, k=4)
        np.testing.assert_array_equal(plan.dequantized, qw.dequantize())
        assert plan.dequantized is plan.dequantized  # cached

    def test_accepts_reinterpreted_weight(self):
        qw = sample_weight(bits=2, seed=4)
        plan = build_weight_plan(reinterpret_symmetric(qw), k=4)
        assert plan.bits == 2

    def test_symmetric_weight_has_no_zero_point(self):
        plan = build_weight_plan(
            sample_weight(bits=2, seed=5, symmetric=True), k=4
        )
        assert not plan.has_zero_point
        assert np.all(plan.zero_gn == 0.0)

    def test_asymmetric_weight_has_zero_point(self):
        plan = build_weight_plan(sample_weight(bits=2, seed=6), k=4)
        assert plan.has_zero_point

    def test_lut_arrays_are_lazy_and_cached(self):
        """Table-less dispatch must not materialize LUT-side state.

        The dequant executors build plans for every linear weight but
        only ever read ``plan.dequantized``; the (bits, G, N) index and
        (G, N) affine arrays would dominate memory at k=1, so they stay
        unbuilt until a LUT backend asks — then build once.
        """
        from repro.kernels import get_backend
        from repro.lut.mpgemm import LutMpGemmConfig

        plan = build_weight_plan(sample_weight(bits=2, seed=9), k=4)
        acts = np.random.default_rng(9).normal(size=(2, 16))
        get_backend("reference").execute(
            plan, LutMpGemmConfig(k=4, backend="reference"), acts, None
        )
        assert plan._indices is None
        assert plan._scale_gn is None and plan._zero_gn is None
        first = plan.indices
        assert plan._indices is not None
        assert plan.indices is first

    def test_flat_lookup_indices_cached(self):
        plan = build_weight_plan(sample_weight(bits=2, seed=7), k=4)
        first = plan.flat_lookup_indices(8, True)
        assert plan.flat_lookup_indices(8, True) is first
        assert first.shape == plan.indices.shape
        # Symmetric extension doubles the per-group width.
        assert first.max() < plan.ngroups * 16

    def test_rejections(self):
        with pytest.raises(LutError):
            build_weight_plan(sample_weight(kdim=18), k=4)
        with pytest.raises(LutError):
            build_weight_plan(sample_weight(), k=0)
        with pytest.raises(LutError):
            build_weight_plan("not a weight", k=4)  # type: ignore[arg-type]
        rng = np.random.default_rng(0)
        with pytest.raises(LutError):
            build_weight_plan(quantize_weights(rng.normal(size=(8,)), 2), k=4)

    def test_group_varying_scale_rejected(self):
        qw = sample_weight(kdim=32, seed=8, axis=1, group_size=2)
        with pytest.raises(LutError):
            build_weight_plan(qw, k=4)


def _every_code_everywhere(bits, k, rng):
    """``(rows, 2·k)`` codes: every k-tuple when that is small, else
    every code at every position of a group beside random neighbours
    (lanes never interact, so that is exhaustive per lane)."""
    ncodes = 1 << bits
    if ncodes ** k <= 4096:
        groups = np.stack(
            np.meshgrid(*[np.arange(ncodes)] * k, indexing="ij"), axis=-1
        ).reshape(-1, k)
    else:
        groups = rng.integers(0, ncodes, size=(k * ncodes, k))
        for j in range(k):
            groups[j * ncodes:(j + 1) * ncodes, j] = np.arange(ncodes)
    return np.concatenate([groups, groups[::-1]], axis=1)


class TestIndexCore:
    """``lookup_indices`` / ``fold_tables`` / ``flat_lookup`` against
    the literal per-plane formulas they replaced."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("bits", range(1, 9))
    def test_spread_indices_equal_literal_bit_sum(self, bits, k):
        codes = _every_code_everywhere(bits, k, np.random.default_rng(bits))
        got = lookup_indices(codes, bits, k)
        assert got.shape == (bits, codes.shape[0], 2)
        grouped = codes.reshape(-1, 2, k)
        for i in range(bits):
            want = sum(((grouped[..., j] >> i) & 1) << j for j in range(k))
            np.testing.assert_array_equal(got[i], want, err_msg=f"plane {i}")

    def test_wide_codes_span_several_words(self):
        """bits·k past one int64's lanes: planes are packed in chunks."""
        rng = np.random.default_rng(16)
        codes = rng.integers(0, 1 << 16, size=(64, 8))
        got = lookup_indices(codes, 16, 8)
        for i in range(16):
            want = sum(((codes[:, j] >> i) & 1) << j for j in range(8))
            np.testing.assert_array_equal(got[i, :, 0], want)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_fold_tables_equal_msb_rule(self, k):
        """Eq. 5 spelled out with np.where over every K-bit index."""
        idx = np.arange(1 << k)
        half_mask = (1 << (k - 1)) - 1
        msb = (idx >> (k - 1)) & 1
        low = idx & half_mask
        want_low = np.where(msb == 1, (~low) & half_mask, low)
        want_sign = np.where(msb == 1, -1.0, 1.0)
        got_low, got_sign = fold_tables(k)
        np.testing.assert_array_equal(got_low, want_low)
        np.testing.assert_array_equal(got_sign, want_sign)
        assert got_sign.dtype == np.float64
        # Flat symmetric indices: sign folded in as the upper half of
        # the [T, -T] extension, group g offset by g·2·entries.
        entries = 1 << (k - 1)
        plain = np.stack([idx, idx[::-1]], axis=-1)  # (2**k, G=2)
        np.testing.assert_array_equal(
            flat_lookup(plain, k, entries, True),
            want_low[plain] + entries * (want_sign[plain] < 0)
            + np.array([0, 2 * entries]),
        )
        np.testing.assert_array_equal(
            flat_lookup(plain, k, 1 << k, False),
            plain + np.array([0, 1 << k]),
        )

    def test_shared_tables_are_read_only(self):
        low, sign = fold_tables(4)
        with pytest.raises(ValueError):
            low[0] = 1
        with pytest.raises(ValueError):
            sign[0] = 1.0

    def test_error_paths_keep_their_types(self):
        with pytest.raises(LutError):                # K % k
            lookup_indices(np.zeros((2, 6), dtype=np.int64), 2, 4)
        for bad in (4, -1):                          # code range
            with pytest.raises(QuantizationError):
                lookup_indices(np.full((2, 4), bad), 2, 4)
        with pytest.raises(QuantizationError):       # empty tensor
            quantize_weights(np.zeros((0, 4)), 2)
        plan = build_weight_plan(sample_weight(bits=2), k=4)
        object.__setattr__(plan.reinterpreted, "codes", np.full((8, 16), 9))
        with pytest.raises(QuantizationError):       # through the plan
            plan.indices


def _row_weights(bits, rows, kdim, seed, **kwargs):
    """Independent per-row quantized weights (the KV-cache shape)."""
    rng = np.random.default_rng(seed)
    return [
        quantize_weights(rng.normal(size=(1, kdim)), bits, **kwargs)
        for _ in range(rows)
    ]


class TestWeightPlanExtend:
    """extend() must be bit-identical to a from-scratch plan build."""

    @pytest.mark.parametrize("bits", [2, 4])
    @pytest.mark.parametrize("kwargs", [
        dict(axis=0),                          # per-row scales
        dict(axis=1, group_size=4),            # per-group along K
        dict(axis=0, symmetric=True),          # zero-point-free
    ], ids=("per-row", "grouped", "symmetric"))
    def test_extend_matches_scratch(self, bits, kwargs):
        rows = _row_weights(bits, 7, 16, seed=bits, **kwargs)
        plan = build_weight_plan(rows[0], k=4)
        # Materialize everything so extension exercises the concat path.
        plan.indices, plan.scale_gn, plan.zero_gn, plan.has_zero_point
        plan.flat_lookup_indices(1 << 3, True)
        _ = plan.dequantized
        for row in rows[1:]:
            plan.extend(row)
        scratch = build_weight_plan(
            QuantizedWeight(
                codes=np.concatenate([r.codes for r in rows], axis=0),
                scale=np.concatenate(
                    [np.broadcast_to(r.scale, r.shape) for r in rows], axis=0
                ),
                zero_point=np.concatenate(
                    [np.broadcast_to(r.zero_point, r.shape) for r in rows],
                    axis=0,
                ),
                bits=bits,
            ),
            k=4,
        )
        assert plan.n == scratch.n == 7
        np.testing.assert_array_equal(plan.indices, scratch.indices)
        np.testing.assert_array_equal(plan.scale_gn, scratch.scale_gn)
        np.testing.assert_array_equal(plan.zero_gn, scratch.zero_gn)
        assert plan.has_zero_point == scratch.has_zero_point
        np.testing.assert_array_equal(plan.dequantized, scratch.dequantized)
        np.testing.assert_array_equal(
            plan.flat_lookup_indices(1 << 3, True),
            scratch.flat_lookup_indices(1 << 3, True),
        )
        low, sign = plan.sym_fold()
        slow, ssign = scratch.sym_fold()
        np.testing.assert_array_equal(low, slow)
        np.testing.assert_array_equal(sign, ssign)

    def test_extended_plan_executes_bit_identically(self):
        """Every backend's output over an extended plan equals the
        from-scratch plan's output, bit for bit."""
        from repro.kernels import get_backend
        from repro.lut.mpgemm import LutMpGemmConfig, LutMpGemmEngine

        rows = _row_weights(4, 6, 16, seed=11, axis=1, group_size=4)
        plan = build_weight_plan(rows[0], k=4)
        for row in rows[1:]:
            plan.extend(row)
        stacked = QuantizedWeight(
            codes=np.concatenate([r.codes for r in rows], axis=0),
            scale=np.concatenate(
                [np.broadcast_to(r.scale, r.shape) for r in rows], axis=0
            ),
            zero_point=np.concatenate(
                [np.broadcast_to(r.zero_point, r.shape) for r in rows], axis=0
            ),
            bits=4,
        )
        acts = np.random.default_rng(12).normal(size=(3, 16))
        for name in ("reference", "lut-naive", "lut-blocked"):
            config = LutMpGemmConfig(k=4, backend=name)
            engine = LutMpGemmEngine(stacked, config)
            expected = engine.matmul(acts)
            backend = get_backend(name)
            table = engine.precompute(acts) if backend.needs_table else None
            got = backend.execute(plan, config, acts, table)
            np.testing.assert_array_equal(got, expected, err_msg=name)

    def test_extend_preserves_laziness(self):
        rows = _row_weights(2, 3, 16, seed=13, axis=0)
        plan = build_weight_plan(rows[0], k=4)
        plan.extend(rows[1]).extend(rows[2])
        assert plan._indices is None
        assert plan._scale_gn is None and plan._zero_gn is None
        assert plan.n == 3
        assert plan.indices.shape == (2, 4, 3)

    @pytest.mark.parametrize("bits", [2, 4])
    @pytest.mark.parametrize("kwargs", [
        dict(axis=0),                          # per-row scales
        dict(axis=1, group_size=4),            # per-group along K
        dict(axis=0, symmetric=True),          # zero-point-free
    ], ids=("per-row", "grouped", "symmetric"))
    def test_repeated_small_extensions_bit_identical_at_every_n(
        self, bits, kwargs
    ):
        """The paged-KV growth pattern: many small multi-column
        extensions whose cumulative widths land on no particular
        alignment (1, 3, 6, 11, 18, 19, 23 — crossing every power-of-2
        and LUT-group multiple in between). Unlike the end-state pins
        above, parity with a from-scratch build is asserted at EVERY
        intermediate N, on every backend, bit for bit."""
        from repro.kernels import get_backend
        from repro.lut.mpgemm import LutMpGemmConfig, LutMpGemmEngine

        rng = np.random.default_rng(100 * bits + len(kwargs))
        chunks = [
            quantize_weights(rng.normal(size=(width, 16)), bits, **kwargs)
            for width in (1, 2, 3, 5, 7, 1, 4)
        ]
        acts = rng.normal(size=(2, 16))
        plan = build_weight_plan(chunks[0], k=4)
        # Materialize so every extension exercises the concat path.
        plan.indices, plan.scale_gn, plan.zero_gn
        plan.flat_lookup_indices(1 << 3, True)
        _ = plan.dequantized
        for upto in range(1, len(chunks) + 1):
            if upto > 1:
                plan.extend(chunks[upto - 1])
            stacked = QuantizedWeight(
                codes=np.concatenate(
                    [c.codes for c in chunks[:upto]], axis=0
                ),
                scale=np.concatenate(
                    [np.broadcast_to(c.scale, c.shape)
                     for c in chunks[:upto]],
                    axis=0,
                ),
                zero_point=np.concatenate(
                    [np.broadcast_to(c.zero_point, c.shape)
                     for c in chunks[:upto]],
                    axis=0,
                ),
                bits=bits,
            )
            scratch = build_weight_plan(stacked, k=4)
            assert plan.n == scratch.n
            np.testing.assert_array_equal(plan.indices, scratch.indices)
            np.testing.assert_array_equal(plan.scale_gn, scratch.scale_gn)
            np.testing.assert_array_equal(plan.zero_gn, scratch.zero_gn)
            np.testing.assert_array_equal(
                plan.flat_lookup_indices(1 << 3, True),
                scratch.flat_lookup_indices(1 << 3, True),
            )
            for name in ("reference", "lut-naive", "lut-blocked"):
                config = LutMpGemmConfig(k=4, backend=name)
                engine = LutMpGemmEngine(stacked, config)
                backend = get_backend(name)
                table = (
                    engine.precompute(acts) if backend.needs_table else None
                )
                np.testing.assert_array_equal(
                    backend.execute(plan, config, acts, table),
                    engine.matmul(acts),
                    err_msg=f"{name} at n={plan.n}",
                )

    def test_extend_rejects_mismatches(self):
        plan = build_weight_plan(sample_weight(bits=2, n=4, kdim=16), k=4)
        with pytest.raises(LutError):
            plan.extend(sample_weight(bits=2, n=1, kdim=16), k=2)
        with pytest.raises(LutError):
            plan.extend(sample_weight(bits=2, n=1, kdim=12))
        with pytest.raises(LutError):
            plan.extend(sample_weight(bits=3, n=1, kdim=16))
