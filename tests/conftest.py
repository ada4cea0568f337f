"""Fixtures shared by every test directory."""

import pytest

from repro.kernels import native

LUT_BODIES = ("compiled", "numpy")

#: Test classes and modules that run once per body of ``lut-blocked``:
#: the kernel equivalence class and the runtime parity suites.
BOTH_BODIES = {
    "TestCrossBackendEquivalence",
    "test_decode_parity",
    "test_fused_parity",
    "test_linear",
    "test_prefill_narrowing",
}


@pytest.fixture(autouse=True)
def lut_body(request):
    """Pin which body ``LutBlockedBackend.execute`` runs for one test.

    Unparametrized (every test outside :data:`BOTH_BODIES`) it changes
    nothing: the process's own load attempt decides, as in the product.
    ``"numpy"`` runs the test under :func:`native.unloaded`;
    ``"compiled"`` skips where the routine never loaded (no compiler).
    A test fixture, not a product switch: no configuration reaches it.
    """
    body = getattr(request, "param", None)
    if body == "compiled" and not native.status()["loaded"]:
        pytest.skip(f"compiled routine not loaded: {native.status()['reason']}")
    if body == "numpy":
        with native.unloaded():
            yield body
    else:
        yield body


def pytest_generate_tests(metafunc):
    owners = {
        metafunc.module.__name__.rpartition(".")[2],
        getattr(metafunc.cls, "__name__", None),
    }
    if owners & BOTH_BODIES:
        metafunc.parametrize("lut_body", LUT_BODIES, indirect=True)
