"""Tests for FP4 weights and KV-cache attention through the LUT path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes.formats import FP16, INT8
from repro.errors import LutError
from repro.lut.attention import (
    QuantizedKvCache,
    dequant_decode_attention,
    float_decode_attention,
    lut_decode_attention,
)
from repro.lut.fp_weights import (
    FP4_E2M1_VALUES,
    fp4_dequant_reference,
    fp4_lut_mpgemm,
    quantize_fp4,
)


class TestFp4Quantization:
    def test_codes_on_grid(self):
        fw = quantize_fp4(np.random.default_rng(0).normal(size=(8, 16)))
        magnitudes = np.unique(np.abs(fw.codes))
        assert set(magnitudes) <= set(FP4_E2M1_VALUES)

    def test_absmax_maps_to_six(self):
        fw = quantize_fp4(np.array([[3.0, -12.0, 1.0]]))
        assert np.abs(fw.codes).max() == 6.0
        assert fw.dequantize()[0, 1] == -12.0

    def test_empty_rejected(self):
        with pytest.raises(LutError):
            quantize_fp4(np.zeros((0,)))


class TestFp4Lut:
    def test_matches_dequant_reference(self):
        rng = np.random.default_rng(1)
        fw = quantize_fp4(rng.normal(size=(8, 16)))
        a = rng.normal(size=(3, 16))
        np.testing.assert_allclose(
            fp4_lut_mpgemm(a, fw),
            fp4_dequant_reference(a, fw),
            atol=1e-12,
        )

    def test_gemv(self):
        rng = np.random.default_rng(2)
        fw = quantize_fp4(rng.normal(size=(8, 16)))
        a = rng.normal(size=16)
        np.testing.assert_allclose(
            fp4_lut_mpgemm(a, fw), fp4_dequant_reference(a, fw), atol=1e-12
        )

    def test_with_fp16_activations(self):
        rng = np.random.default_rng(3)
        fw = quantize_fp4(rng.normal(size=(8, 16)))
        a = rng.normal(size=(2, 16))
        np.testing.assert_allclose(
            fp4_lut_mpgemm(a, fw, act_dtype=FP16),
            fp4_dequant_reference(a, fw, act_dtype=FP16),
            atol=1e-12,
        )

    def test_shape_checks(self):
        fw = quantize_fp4(np.ones((4, 16)))
        with pytest.raises(LutError):
            fp4_lut_mpgemm(np.zeros((2, 8)), fw)
        with pytest.raises(LutError):
            fp4_lut_mpgemm(np.zeros((2, 16)), fw, k=3)

    def test_zero_weights_contribute_nothing(self):
        codes = np.zeros((4, 8))
        codes[0, 0] = 1.0
        fw = quantize_fp4(codes)
        a = np.ones((1, 8))
        out = fp4_lut_mpgemm(a, fw)
        ref = fp4_dequant_reference(a, fw)
        np.testing.assert_allclose(out, ref, atol=1e-12)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equivalence_hypothesis(self, seed):
        rng = np.random.default_rng(seed)
        fw = quantize_fp4(rng.normal(size=(6, 8)) * rng.uniform(0.1, 10))
        a = rng.normal(size=(2, 8))
        np.testing.assert_allclose(
            fp4_lut_mpgemm(a, fw), fp4_dequant_reference(a, fw), atol=1e-9
        )


class TestKvAttention:
    HEADS, CONTEXT, DIM = 4, 32, 16

    def _caches(self, seed=0):
        rng = np.random.default_rng(seed)
        k = rng.normal(size=(self.HEADS, self.CONTEXT, self.DIM))
        v = rng.normal(size=(self.HEADS, self.CONTEXT, self.DIM))
        q = rng.normal(size=(self.HEADS, self.DIM))
        return q, k, v

    def test_lut_matches_dequant_exactly_without_table_quant(self):
        q, k, v = self._caches()
        cache = QuantizedKvCache.quantize(k, v, bits=4)
        lut = lut_decode_attention(q, cache, table_dtype=None)
        ref = dequant_decode_attention(q, cache)
        np.testing.assert_allclose(lut, ref, atol=1e-9)

    def test_int8_tables_small_extra_error(self):
        q, k, v = self._caches(seed=1)
        cache = QuantizedKvCache.quantize(k, v, bits=4)
        lut = lut_decode_attention(q, cache, table_dtype=INT8)
        ref = dequant_decode_attention(q, cache)
        rel = np.abs(lut - ref).max() / np.abs(ref).max()
        assert 0 < rel < 0.05

    def test_quantization_error_shrinks_with_bits(self):
        q, k, v = self._caches(seed=2)
        reference = float_decode_attention(q, k, v)
        errs = {}
        for bits in (2, 4, 8):
            cache = QuantizedKvCache.quantize(k, v, bits=bits)
            out = dequant_decode_attention(q, cache)
            errs[bits] = np.abs(out - reference).max()
        assert errs[8] < errs[4] < errs[2]

    def test_memory_accounting(self):
        _, k, v = self._caches()
        cache = QuantizedKvCache.quantize(k, v, bits=4)
        expected = 2 * self.HEADS * self.CONTEXT * self.DIM * 4 / 8
        assert cache.memory_bytes() == expected

    def test_memory_bytes_is_exact_int(self):
        _, k, v = self._caches()
        for bits in (2, 3, 4, 8):
            cache = QuantizedKvCache.quantize(k, v, bits=bits)
            got = cache.memory_bytes()
            assert isinstance(got, int)
            entry_bits = 2 * self.HEADS * self.CONTEXT * self.DIM * bits
            assert got == (entry_bits + 7) // 8

    def test_memory_bytes_rounds_partial_bytes_up(self):
        # 2 * 1 * 1 * 1 * 3 = 6 bits of payload must still occupy one
        # whole byte.
        rng = np.random.default_rng(0)
        k = rng.normal(size=(1, 1, 1))
        v = rng.normal(size=(1, 1, 1))
        cache = QuantizedKvCache.quantize(k, v, bits=3)
        assert cache.memory_bytes() == 1

    def test_shape_validation(self):
        q, k, v = self._caches()
        cache = QuantizedKvCache.quantize(k, v, bits=4)
        with pytest.raises(LutError):
            lut_decode_attention(q[:, :8], cache)
        with pytest.raises(LutError):
            QuantizedKvCache.quantize(k, v[:2], bits=4)


class TestPaddedAttention:
    """A history zero-padded to an aligned context, with ``context_valid``
    masking the padding — the shape a growing decode cache hands in."""

    def _padded(self, valid=9, context=16, seed=0):
        rng = np.random.default_rng(seed)
        k, v = np.zeros((2, 2, context, 8))
        k[:, :valid] = rng.normal(size=(2, valid, 8))
        v[:, :valid] = rng.normal(size=(2, valid, 8))
        q = rng.normal(size=(2, 8))
        return q, QuantizedKvCache.quantize(k, v, bits=4)

    def test_masked_lut_equals_masked_dequant(self):
        q, cache = self._padded(seed=4)
        lut = lut_decode_attention(q, cache, context_valid=9)
        ref = dequant_decode_attention(q, cache, context_valid=9)
        np.testing.assert_allclose(lut, ref, atol=1e-9)

    def test_padding_contributes_exactly_nothing(self):
        """Masked full computation == truncated computation.

        The padded rows' probabilities underflow to exactly 0.0, so the
        attention over the padded cache equals (to reduction-order
        noise) the attention computed over only the valid rows of the
        dequantized cache.
        """
        from repro.numerics import softmax

        q, cache = self._padded(seed=6)
        masked = dequant_decode_attention(q, cache, context_valid=9)
        for h in range(2):
            k = cache.k_quant[h].dequantize()[:9]
            v_t = cache.v_quant[h].dequantize()[:, :9]
            probs = softmax((k @ q[h]) / np.sqrt(8))
            np.testing.assert_allclose(masked[h], v_t @ probs, atol=1e-12)

    def test_context_valid_bounds_checked(self):
        q, cache = self._padded()
        with pytest.raises(LutError):
            lut_decode_attention(q, cache, context_valid=0)
        with pytest.raises(LutError):
            lut_decode_attention(q, cache, context_valid=cache.context + 1)
