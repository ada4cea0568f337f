"""Tests for the public package surface."""

import pytest


class TestPublicApi:
    def test_top_level_exports_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("package", [
        "repro.datatypes", "repro.quant", "repro.lut", "repro.isa",
        "repro.hw", "repro.compiler", "repro.sim", "repro.models",
        "repro.baselines", "repro.accuracy", "repro.kernels",
    ])
    def test_subpackage_all_exports_resolve(self, package):
        import importlib

        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name}"

    def test_quickstart_snippet_from_readme(self):
        """The README's quickstart code runs as written."""
        import numpy as np

        from repro import (
            LutMpGemmEngine,
            dequant_mpgemm_reference,
            quantize_weights,
        )
        from repro.datatypes import FP16, INT8
        from repro.lut.mpgemm import LutMpGemmConfig

        w = np.random.default_rng(0).normal(size=(64, 128))
        a = np.random.default_rng(1).normal(size=(8, 128))
        qw = quantize_weights(w, bits=2, axis=0)
        engine = LutMpGemmEngine(
            qw, LutMpGemmConfig(act_dtype=FP16, table_dtype=INT8)
        )
        out = engine.matmul(a)
        ref = dequant_mpgemm_reference(a, qw, act_dtype=FP16)
        rel = np.abs(out - ref).max() / np.abs(ref).max()
        assert rel < 0.01
