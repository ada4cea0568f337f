"""Fixtures shared by every test directory."""

import pytest
from hypothesis import HealthCheck, settings

from repro.kernels import native

LUT_BODIES = ("compiled", "numpy")

#: Test classes and modules that run once per body of the compiled
#: routines (weight loop, paged attention executor, the int4-KV pool's
#: writer and the float attention alike): the kernel equivalence class and
#: the runtime parity, speculation, arena, pool-state and float-attention
#: suites.
BOTH_BODIES = {
    "TestCrossBackendEquivalence",
    "TestSharedLutRows",
    "test_batched_append",
    "test_decode_parity",
    "test_float_attention",
    "test_fused_parity",
    "test_golden_digests",
    "test_kv_state_bodies",
    "test_linear",
    "test_paged_bounds",
    "test_paged_kv_state",
    "test_prefill_narrowing",
    "test_spec_engine",
    "test_speculative",
    "test_v_arena_refresh",
}

# pytest builds one instance of a test class per parameter, so a property
# method in a BOTH_BODIES module runs on two ``self``s: the parametrization,
# not the shared-state hazard this health check looks for.
settings.register_profile(
    "both-bodies", suppress_health_check=[HealthCheck.differing_executors]
)
settings.load_profile("both-bodies")


@pytest.fixture(autouse=True)
def lut_body(request):
    """Pin which body ``LutBlockedBackend.execute``,
    ``paged_lut_execute`` and the int4-KV pool's writer run for one test.

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
