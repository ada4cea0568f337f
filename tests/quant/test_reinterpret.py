"""Tests for weight reinterpretation (paper Eq. 2/3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.quant.reinterpret import (
    check_symmetry,
    reinterpret_params,
    reinterpret_symmetric,
)
from repro.quant.weight import quantize_weights


def random_weights(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestEquation2:
    def test_paper_example_4bit(self):
        # Figure 7: q in {0..15}, s=1, z=0 -> q' in {-15..15 odd}, s'=.5,
        # z'=-15.
        s_new, z_new = reinterpret_params(1.0, 0.0, 4)
        assert s_new == 0.5
        assert z_new == -15.0

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 8])
    def test_codes_are_symmetric_odd_grid(self, bits):
        qw = quantize_weights(random_weights((8, 16)), bits)
        rw = reinterpret_symmetric(qw)
        check_symmetry(rw)  # raises if not odd/in-range
        # Widened: 2q wraps in the codes' own unsigned storage dtype.
        expected = 2 * qw.codes.astype(np.int64) - ((1 << bits) - 1)
        np.testing.assert_array_equal(rw.codes, expected)

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_exact_value_preservation(self, bits):
        """Eq. 3: s'(q' - z') == s(q - z), bit-for-bit in float64."""
        qw = quantize_weights(random_weights((16, 32), seed=7), bits)
        rw = reinterpret_symmetric(qw)
        np.testing.assert_array_equal(rw.dequantize(), qw.dequantize())

    def test_symmetric_quant_gives_zero_zero_point(self):
        qw = quantize_weights(random_weights((8, 8)), 4, symmetric=True)
        rw = reinterpret_symmetric(qw)
        np.testing.assert_allclose(rw.zero_point, 0.0)

    def test_unsigned_codes_roundtrip(self):
        qw = quantize_weights(random_weights((8, 8)), 3)
        rw = reinterpret_symmetric(qw)
        np.testing.assert_array_equal(rw.unsigned_codes(), qw.codes)

    def test_paper_worked_example(self):
        """The paper's worked dot product: w=0100, s=2, z=0.5 -> -A+B-C-D."""
        acts = np.array([[1.0, 2.0, 4.0, 8.0]])  # A, B, C, D
        codes = np.array([[0, 1, 0, 0]])  # W0..W3 bit order along K
        from repro.quant.weight import QuantizedWeight

        qw = QuantizedWeight(
            codes=codes, scale=np.array(2.0), zero_point=np.array(0.5), bits=1
        )
        expected = -1.0 + 2.0 - 4.0 - 8.0
        assert float((acts @ qw.dequantize().T).item()) == expected
        rw = reinterpret_symmetric(qw)
        assert rw.scale == 1.0
        assert rw.zero_point == 0.0
        np.testing.assert_array_equal(rw.codes, [[-1, 1, -1, -1]])
        assert float((acts @ rw.dequantize().T).item()) == expected


class TestSymmetryChecks:
    def test_even_codes_rejected(self):
        from repro.quant.reinterpret import ReinterpretedWeight

        rw = ReinterpretedWeight(
            codes=np.array([[2]]), scale=np.array(1.0),
            zero_point=np.array(0.0), bits=2,
        )
        with pytest.raises(QuantizationError):
            check_symmetry(rw)

    def test_out_of_range_rejected(self):
        from repro.quant.reinterpret import ReinterpretedWeight

        rw = ReinterpretedWeight(
            codes=np.array([[5]]), scale=np.array(1.0),
            zero_point=np.array(0.0), bits=2,
        )
        with pytest.raises(QuantizationError):
            check_symmetry(rw)


class TestHypothesis:
    @given(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=-10.0, max_value=10.0),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=150, deadline=None)
    def test_value_preservation_any_affine(self, bits, scale, zero, code):
        """Eq. 2 preserves the real value for any (s, z, q)."""
        from repro.quant.weight import QuantizedWeight

        code = code % (1 << bits)
        qw = QuantizedWeight(
            codes=np.array([[code]]), scale=np.array(scale),
            zero_point=np.array(zero), bits=bits,
        )
        rw = reinterpret_symmetric(qw)
        # Exact in exact arithmetic; float64 evaluation order leaves at
        # most an ulp-level difference for non-representable z.
        np.testing.assert_allclose(
            rw.dequantize(), qw.dequantize(), rtol=1e-12, atol=1e-12
        )
