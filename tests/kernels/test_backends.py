"""Cross-backend equivalence and registry behavior.

The contract under test: ``lut-naive`` and ``lut-blocked`` are equal
*bit for bit* for every configuration (they perform the same scalar
operations in the same order), the ``reference`` backend is bit-equal
to :func:`dequant_mpgemm_reference`, and the LUT backends match the
reference to float accumulation noise whenever the pipeline is lossless
(``table_dtype=None``).
"""

import numpy as np
import pytest

from repro.datatypes.formats import FP16, INT8
from repro.errors import LutError
from repro.kernels import backends
from repro.kernels import (
    DEFAULT_BACKEND,
    ENV_VAR,
    LutBlockedBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend_name,
    unregister_backend,
)
from repro.lut.gemv import lut_gemv
from repro.lut.mpgemm import (
    LutMpGemmConfig,
    LutMpGemmEngine,
    dequant_mpgemm_reference,
    lut_mpgemm,
)
from repro.quant.weight import quantize_weights


def make_case(m=3, n=8, kdim=16, bits=2, seed=0, **quant_kwargs):
    rng = np.random.default_rng(seed)
    activations = rng.normal(size=(m, kdim))
    weights = rng.normal(size=(n, kdim))
    return activations, quantize_weights(weights, bits, **quant_kwargs)


GRANULARITIES = {
    "per-tensor": {},
    "per-channel": {"axis": 0},
    "per-group": {"axis": 1, "group_size": 8},
    "symmetric": {"symmetric": True},  # zero-point exactly zero
}


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    @pytest.mark.parametrize("granularity", sorted(GRANULARITIES))
    def test_naive_and_blocked_bit_identical(self, k, bits, granularity):
        a, qw = make_case(m=3, n=11, kdim=16, bits=bits, seed=bits * 7 + k,
                          **GRANULARITIES[granularity])
        for table_dtype in (None, INT8):
            cfg = dict(k=k, table_dtype=table_dtype)
            naive = lut_mpgemm(
                a, qw, LutMpGemmConfig(**cfg, backend="lut-naive")
            )
            blocked = lut_mpgemm(
                a, qw, LutMpGemmConfig(**cfg, backend="lut-blocked")
            )
            np.testing.assert_array_equal(naive, blocked)
            if table_dtype is None:
                ref = dequant_mpgemm_reference(a, qw)
                np.testing.assert_allclose(naive, ref, atol=1e-9)

    @pytest.mark.parametrize("symmetric_table", [True, False])
    def test_bit_identical_in_both_table_modes(self, symmetric_table):
        a, qw = make_case(bits=4, seed=42)
        cfg = dict(symmetric_table=symmetric_table)
        naive = lut_mpgemm(a, qw, LutMpGemmConfig(**cfg, backend="lut-naive"))
        blocked = lut_mpgemm(
            a, qw, LutMpGemmConfig(**cfg, backend="lut-blocked")
        )
        np.testing.assert_array_equal(naive, blocked)

    def test_reference_backend_equals_dequant_reference(self):
        for act_dtype in (None, FP16):
            a, qw = make_case(bits=3, seed=9)
            out = lut_mpgemm(
                a, qw,
                LutMpGemmConfig(act_dtype=act_dtype, backend="reference"),
            )
            ref = dequant_mpgemm_reference(a, qw, act_dtype=act_dtype)
            np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("backend", ["reference", "lut-naive", "lut-blocked"])
    def test_gemv_equals_single_row_mpgemm(self, backend):
        a, qw = make_case(m=1, bits=4, seed=11)
        gemv = lut_gemv(a[0], qw, backend=backend)
        row = lut_mpgemm(a, qw, backend=backend)[0]
        np.testing.assert_array_equal(gemv, row)

    @pytest.mark.parametrize(
        "block_rows, block_elems",
        [(1, 1), (1, 1 << 15), (8, 1), (3, 100), (5, 7 * 8 * 5), (8, 1 << 15)],
    )
    @pytest.mark.parametrize("m", [1, 7, 9, 177])
    def test_block_sizes_never_change_bits(
        self, monkeypatch, block_rows, block_elems, m
    ):
        """1 row, 1 column, odd and default blocks over ragged M."""
        monkeypatch.setattr(backends, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(backends, "BLOCK_ELEMS", block_elems)
        a, qw = make_case(m=m, n=37, kdim=32, bits=4, seed=13)
        naive = lut_mpgemm(a, qw, backend="lut-naive")
        blocked = lut_mpgemm(a, qw, backend="lut-blocked")
        np.testing.assert_array_equal(blocked, naive)

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(symmetric_table=False),
            dict(act_dtype=FP16),
            dict(table_dtype=INT8),
            dict(symmetric_table=False, act_dtype=FP16, table_dtype=INT8),
        ],
        ids=lambda cfg: "+".join(sorted(cfg)),
    )
    @pytest.mark.parametrize("granularity", ["per-group", "symmetric"])
    def test_configs_bit_identical_across_blocks(
        self, monkeypatch, cfg, granularity
    ):
        """Asymmetric tables, zero-points (per-group) and their absence
        (symmetric), act/table dtypes — over several row *and* column
        blocks, so every branch of the blocked kernel is crossed."""
        monkeypatch.setattr(backends, "BLOCK_ROWS", 4)
        monkeypatch.setattr(backends, "BLOCK_ELEMS", 4 * 4 * 5)
        a, qw = make_case(m=11, n=13, kdim=16, bits=3, seed=5,
                          **GRANULARITIES[granularity])
        plan = LutMpGemmEngine(qw).plan
        assert plan.has_zero_point == (granularity == "per-group")
        naive = lut_mpgemm(a, qw, LutMpGemmConfig(**cfg, backend="lut-naive"))
        blocked = lut_mpgemm(
            a, qw, LutMpGemmConfig(**cfg, backend="lut-blocked")
        )
        np.testing.assert_array_equal(blocked, naive)

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (8, 16), (64, 3)])
    def test_group_reduction_stays_ordered_at_large_g(self, m, n):
        """G = 256 groups of mixed-magnitude activations: a pairwise (or
        any reassociated) group reduction rounds differently from the
        ascending-g loop (next test), so strict equality with
        ``lut-naive`` pins the order. (1, 1) is the shape where numpy
        itself would go pairwise."""
        rng = np.random.default_rng(97)
        kdim = 1024
        a = rng.normal(size=(m, kdim)) * 10.0 ** rng.integers(
            -6, 7, size=(m, kdim)
        )
        qw = quantize_weights(rng.normal(size=(n, kdim)), 4, axis=0)
        naive = lut_mpgemm(a, qw, backend="lut-naive")
        blocked = lut_mpgemm(a, qw, backend="lut-blocked")
        np.testing.assert_array_equal(blocked, naive)

    def test_pairwise_group_reduction_would_be_caught(self):
        """The pin above has teeth: on the same kind of data numpy's 1-D
        (pairwise) sum differs from the ascending loop ``sum_groups``
        and ``sum_groups_leading`` both implement."""
        rng = np.random.default_rng(97)
        terms = rng.normal(size=(256, 6)) * 10.0 ** rng.integers(
            -6, 7, size=(256, 6)
        )
        ordered = backends.sum_groups(terms[None])[0]
        np.testing.assert_array_equal(
            backends.sum_groups_leading(terms), ordered
        )
        for j in range(terms.shape[1]):
            column = np.ascontiguousarray(terms[:, j])
            np.testing.assert_array_equal(
                backends.sum_groups_leading(column[:, None]), ordered[j : j + 1]
            )
        pairwise = np.array([terms[:, j].copy().sum() for j in range(6)])
        assert np.any(pairwise != ordered)

    @pytest.mark.parametrize("r", [1, 3, 8])
    @pytest.mark.parametrize("tile", [1, 5, 1024])
    @pytest.mark.parametrize("g", [1, 2, 32, 256])
    def test_group_axis_reduce_is_the_ascending_loop(self, g, tile, r):
        """What ``lut-blocked``'s numpy body leans on, pinned without a
        second numpy: on the ``(rows, max_blocks, kv, G, tile, r)`` blocks
        it produces — C-contiguous out of ``np.take``, ``r <= BLOCK_ROWS``
        lanes innermost — ``np.add.reduce(x, axis=3, initial=-0.0)`` adds
        the g-slices one after another from ``-0.0``, i.e. equals the
        explicit ascending-g loop from group 0 byte for byte, signed zeros
        included; the one-element slice, where numpy would go pairwise
        instead, is the case ``sum_groups_leading`` hands to the loop
        itself."""
        rng = np.random.default_rng(g * 131 + tile * 7 + r)
        lead = (3, 1, 2) if g * tile * r <= backends.BLOCK_ELEMS else (1, 1, 1)
        shape = lead + (g, tile, r)
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)
        x[..., ::3, :] = -0.0  # columns whose every term is -0.0
        ordered = x[..., 0, :, :].copy()
        for gi in range(1, g):
            ordered += x[..., gi, :, :]
        got = backends.sum_groups_leading(x, axis=3)
        assert got.tobytes() == ordered.tobytes()
        if tile * r > 1:
            raw = np.add.reduce(x, axis=3, initial=-0.0)
            assert raw.tobytes() == ordered.tobytes()
        first = backends.sum_groups_leading(np.ascontiguousarray(x[0, 0, 0]))
        assert first.tobytes() == ordered[0, 0, 0].tobytes()

    def test_dispatch_retains_only_the_flat_indices(self, lut_body):
        """After a blocked dispatch the only int64 array on the plan or
        either weight is the ``(bits, G, N)`` flat-index cache ``np.take``
        reads, one per (entries, symmetric) key — and the compiled body,
        which reads the one-byte plain indices itself, never builds even
        that. Codes and the plain indices sit at one byte per entry, and a
        per-channel weight's ``(G, N)`` affine arrays are stride-0 views
        that own no buffer — no per-plan table, scale or index array was
        added for speed."""
        a, qw = make_case(m=9, n=24, kdim=32, bits=4, seed=3, axis=0)
        backend = get_backend("lut-blocked")
        engine = LutMpGemmEngine(qw, LutMpGemmConfig(backend="lut-blocked"))
        plan = engine.plan
        assert plan._flat_cache == {} and plan._scale_gn is None
        engine.matmul(a)
        assert backend.last_body == lut_body
        engine.matmul(a[:1])
        bits, g, n = plan.bits, plan.ngroups, plan.n
        if lut_body == "compiled":
            assert plan._flat_cache == {}
        else:
            assert list(plan._flat_cache) == [(1 << (plan.k - 1), True)]
            flat = plan._flat_cache[(1 << (plan.k - 1), True)]
            assert flat.dtype == np.int64 and flat.shape == (bits, g, n)
        retained = {
            name: (value.dtype, value.nbytes)
            for name, value in vars(plan).items()
            if isinstance(value, np.ndarray)
        }
        assert retained == {
            "_indices": (np.uint8, bits * g * n),
            "_scale_gn": (np.float64, g * n * 8),
            "_zero_gn": (np.float64, g * n * 8),
        }
        for view, own in (
            (plan._scale_gn, plan.reinterpreted.scale),
            (plan._zero_gn, plan.reinterpreted.zero_point),
        ):
            assert view.strides[0] == 0 and not view.flags.owndata
            assert np.shares_memory(view, own) and own.nbytes == n * 8
        assert (qw.codes.dtype, qw.codes.nbytes) == (np.uint8, n * plan.kdim)
        assert plan.reinterpreted.codes.dtype == np.int8

    def test_act_dtype_agrees_across_backends(self):
        a, qw = make_case(bits=2, seed=17)
        cfg = dict(act_dtype=FP16)
        outs = [
            lut_mpgemm(a, qw, LutMpGemmConfig(**cfg, backend=b))
            for b in ("lut-naive", "lut-blocked")
        ]
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_allclose(
            outs[0], dequant_mpgemm_reference(a, qw, act_dtype=FP16),
            atol=1e-9,
        )


class TestRegistry:
    def test_builtins_registered(self):
        assert {"reference", "lut-naive", "lut-blocked"} <= set(
            available_backends()
        )

    def test_default_resolution(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend_name() == DEFAULT_BACKEND
        assert get_backend().name == "lut-blocked"

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "lut-naive")
        assert resolve_backend_name() == "lut-naive"
        assert get_backend().name == "lut-naive"
        # Engines resolve lazily, so the env applies without a rebuild.
        _, qw = make_case()
        assert LutMpGemmEngine(qw).backend.name == "lut-naive"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "lut-naive")
        assert resolve_backend_name("reference") == "reference"
        _, qw = make_case()
        engine = LutMpGemmEngine(qw, LutMpGemmConfig(backend="lut-blocked"))
        assert engine.backend.name == "lut-blocked"

    def test_empty_env_falls_through_to_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "  ")
        assert resolve_backend_name() == DEFAULT_BACKEND

    def test_unknown_backend_raises_with_choices(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        with pytest.raises(LutError, match="lut-blocked"):
            get_backend("no-such-kernel")
        a, qw = make_case()
        with pytest.raises(LutError):
            lut_mpgemm(a, qw, backend="no-such-kernel")

    def test_register_and_dispatch_custom_backend(self):
        class DoublingBackend:
            name = "test-doubling"
            needs_table = False

            def execute(self, plan, config, activations, table=None):
                return 2.0 * (activations @ plan.dequantized.T)

        register_backend(DoublingBackend())
        try:
            a, qw = make_case(seed=23)
            out = lut_mpgemm(a, qw, backend="test-doubling")
            np.testing.assert_array_equal(
                out, 2.0 * dequant_mpgemm_reference(a, qw)
            )
        finally:
            unregister_backend("test-doubling")
        with pytest.raises(LutError):
            get_backend("test-doubling")

    def test_duplicate_registration_requires_replace(self):
        with pytest.raises(LutError):
            register_backend(LutBlockedBackend())  # name already taken

    def test_invalid_backend_config_rejected(self):
        with pytest.raises(LutError):
            LutMpGemmConfig(backend=123)  # type: ignore[arg-type]

    def test_tableless_backend_rejects_table_dtype(self, monkeypatch):
        """A table-less backend must not silently skip the table loss."""
        a, qw = make_case(seed=31)
        cfg = LutMpGemmConfig(table_dtype=INT8, backend="reference")
        with pytest.raises(LutError, match="table_dtype"):
            lut_mpgemm(a, qw, cfg)
        # Same guard when the selection arrives via the environment.
        monkeypatch.setenv(ENV_VAR, "reference")
        with pytest.raises(LutError, match="table_dtype"):
            lut_mpgemm(a, qw, LutMpGemmConfig(table_dtype=INT8))
        # Ternary analogue.
        from repro.quant.ternary import quantize_ternary
        from repro.lut.ternary import ternary_lut_mpgemm

        rng = np.random.default_rng(3)
        tw = quantize_ternary(rng.normal(size=(6, 12)))
        with pytest.raises(LutError, match="table_dtype"):
            ternary_lut_mpgemm(
                rng.normal(size=(2, 12)), tw,
                table_dtype=INT8, backend="reference",
            )


class TestOtherLutPaths:
    """Backend selection on the non-bit-serial LUT paths."""

    def test_ternary_backends_agree(self):
        from repro.quant.ternary import quantize_ternary
        from repro.lut.ternary import (
            ternary_dequant_reference,
            ternary_lut_mpgemm,
        )

        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 24))
        tw = quantize_ternary(rng.normal(size=(10, 24)))
        naive = ternary_lut_mpgemm(a, tw, backend="lut-naive")
        blocked = ternary_lut_mpgemm(a, tw, backend="lut-blocked")
        ref = ternary_lut_mpgemm(a, tw, backend="reference")
        np.testing.assert_array_equal(naive, blocked)
        np.testing.assert_array_equal(ref, ternary_dequant_reference(a, tw))
        np.testing.assert_allclose(naive, ref, atol=1e-9)
        with pytest.raises(LutError):
            ternary_lut_mpgemm(a, tw, backend="no-such-kernel")

    def test_fp4_backends_agree(self):
        from repro.lut.fp_weights import (
            fp4_dequant_reference,
            fp4_lut_mpgemm,
            quantize_fp4,
        )

        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 16))
        fw = quantize_fp4(rng.normal(size=(9, 16)))
        naive = fp4_lut_mpgemm(a, fw, backend="lut-naive")
        blocked = fp4_lut_mpgemm(a, fw, backend="lut-blocked")
        ref = fp4_lut_mpgemm(a, fw, backend="reference")
        np.testing.assert_allclose(naive, blocked, atol=1e-12)
        np.testing.assert_array_equal(ref, fp4_dequant_reference(a, fw))
        np.testing.assert_allclose(naive, ref, atol=1e-9)
        with pytest.raises(LutError):
            fp4_lut_mpgemm(a, fw, backend="no-such-kernel")

    def test_global_custom_backend_falls_back_on_special_paths(self, monkeypatch):
        """A registered custom backend selected via the environment must
        not break the ternary/FP4 paths, which cannot dispatch it."""
        from repro.quant.ternary import quantize_ternary
        from repro.lut.fp_weights import fp4_lut_mpgemm, quantize_fp4
        from repro.lut.ternary import ternary_lut_mpgemm

        class NullBackend:
            name = "test-null"
            needs_table = False

            def execute(self, plan, config, activations, table=None):
                return np.zeros((activations.shape[0], plan.n))

        register_backend(NullBackend())
        try:
            monkeypatch.setenv(ENV_VAR, "test-null")
            rng = np.random.default_rng(5)
            a = rng.normal(size=(2, 24))
            tw = quantize_ternary(rng.normal(size=(6, 24)))
            expected = ternary_lut_mpgemm(a, tw, backend="lut-blocked")
            np.testing.assert_array_equal(ternary_lut_mpgemm(a, tw), expected)
            a4 = rng.normal(size=(2, 16))
            fw = quantize_fp4(rng.normal(size=(6, 16)))
            np.testing.assert_array_equal(
                fp4_lut_mpgemm(a4, fw),
                fp4_lut_mpgemm(a4, fw, backend="lut-blocked"),
            )
        finally:
            unregister_backend("test-null")

    def test_accuracy_lut_executor_rejects_tableless_backend(self, monkeypatch):
        """The INT8-table accuracy mode must fail loudly rather than let
        the table-less reference backend skip the loss it measures."""
        from repro.accuracy.model import TransformerConfig, TransformerLM
        from repro.accuracy.quantize_model import LinearMode, make_executor
        from repro.errors import AccuracyError

        model = TransformerLM(
            TransformerConfig(vocab=16, dim=8, blocks=1, ctx=8), seed=0
        )
        with pytest.raises(AccuracyError, match="reference"):
            make_executor(
                model, LinearMode.LUT_INT8_TABLE, backend="reference"
            )
        monkeypatch.setenv(ENV_VAR, "reference")
        with pytest.raises(AccuracyError):
            make_executor(model, LinearMode.LUT_INT8_TABLE)
        # The env choice is pinned at build time: flipping it afterwards
        # must not reroute the executor off the LUT path.
        monkeypatch.setenv(ENV_VAR, "lut-naive")
        executor = make_executor(model, LinearMode.LUT_INT8_TABLE)
        monkeypatch.setenv(ENV_VAR, "reference")
        weight = model.linear_weights()[0]
        x = np.random.default_rng(0).normal(size=(2, weight.value.shape[1]))
        lut_out = executor(x, weight)
        assert np.abs(lut_out - x @ weight.value.T).max() > 0  # quantized

    def test_lutgemm_software_baseline_matches_reference(self):
        from repro.baselines import lutgemm_software_mpgemm

        a, qw = make_case(bits=4, seed=29)
        ref = dequant_mpgemm_reference(a, qw)
        for backend in ("lut-naive", "lut-blocked"):
            np.testing.assert_allclose(
                lutgemm_software_mpgemm(a, qw, backend=backend), ref,
                atol=1e-9,
            )
