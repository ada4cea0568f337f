"""Failure is an input to the loader of the compiled ``lut-blocked`` loop.

Whatever goes wrong between "is there a compiler" and "the routine is
loaded" — and whatever state an earlier process left in the cache — a
dispatch returns the numpy body's bytes, the caller sees no exception and
at most one warning says why. Each test gets a loader that has not tried
yet and an empty private cache directory.
"""

import json
import os
import platform
import shutil
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.kernels import get_backend, native
from repro.lut.mpgemm import LutMpGemmConfig, LutMpGemmEngine, precompute_tables
from repro.quant.weight import quantize_weights

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on PATH"
)
FAKE_CC = """#!/bin/sh
if [ "$1" = --version ]; then echo "fake cc 0.0"; exit 0; fi
echo "fake cc: refusing to compile" >&2
exit 1
"""


@pytest.fixture
def cache(monkeypatch, tmp_path):
    """An untried loader whose cache directory is ``tmp_path/cache``."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_state", None)
    return tmp_path / "cache" / "repro-lut-kernels"


def dispatch():
    """One ``lut-blocked`` dispatch, a second one, and their oracle:
    ``(body, warnings raised, outputs equal lut-naive's bytes)``."""
    rng = np.random.default_rng(0)
    weight = quantize_weights(rng.normal(size=(11, 32)), 4, axis=0)
    config = LutMpGemmConfig(backend="lut-blocked")
    plan = LutMpGemmEngine(weight, config).plan
    acts = rng.normal(size=(9, 32))
    table = precompute_tables(acts, config)
    backend = get_backend("lut-blocked")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outs = [backend.execute(plan, config, acts, table) for _ in range(2)]
    want = get_backend("lut-naive").execute(plan, config, acts, table)
    return backend.last_body, caught, all(
        out.tobytes() == want.tobytes() for out in outs
    )


def assert_fell_back(reason_part):
    body, caught, equal = dispatch()
    assert body == "numpy" and equal
    assert [w.category for w in caught] == [RuntimeWarning]
    assert reason_part in str(caught[0].message)
    status = native.status()
    assert status["loaded"] is False and status["object_path"] is None
    assert reason_part in status["reason"]


def assert_loaded(cache):
    body, caught, equal = dispatch()
    assert (body, caught, equal) == ("compiled", [], True)
    status = native.status()
    assert status["loaded"] is True and status["reason"] is None
    assert "-ffp-contract=off" in status["flags"]
    assert "fast-math" not in status["flags"] and "Ofast" not in status["flags"]
    objects = sorted(cache.iterdir())
    assert [str(path) for path in objects] == [status["object_path"]]
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    return objects[0]


def damage(path, content):
    """Swap *content* in under *path*'s name. Not in place: this process
    has the object mapped, and shrinking a mapped file is its own crash."""
    scratch = path.with_suffix(".damaged")
    scratch.write_bytes(content)
    os.replace(scratch, path)


def put_on_path(monkeypatch, tmp_path, script):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    fake = bin_dir / "cc"
    fake.write_text(script)
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))


def test_no_compiler_on_path(cache, monkeypatch, tmp_path):
    monkeypatch.setenv("PATH", str(tmp_path))
    assert_fell_back("no `cc` on PATH")
    assert not cache.exists()


def test_compiler_exits_non_zero(cache, monkeypatch, tmp_path):
    put_on_path(monkeypatch, tmp_path, FAKE_CC)
    assert_fell_back("refusing to compile")
    assert list(cache.iterdir()) == []  # no temporary left behind


def test_compiler_that_cannot_report_its_version(cache, monkeypatch, tmp_path):
    put_on_path(monkeypatch, tmp_path, "#!/bin/sh\nexit 3\n")
    assert_fell_back("CalledProcessError")


@needs_cc
def test_cache_directory_cannot_be_created(cache, monkeypatch, tmp_path):
    (tmp_path / "a-file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "a-file" / "cache"))
    assert_fell_back("NotADirectoryError")


@needs_cc
def test_builds_once_then_loads_from_the_cache(cache, monkeypatch):
    built = assert_loaded(cache)
    stamp = built.stat().st_mtime_ns
    monkeypatch.setattr(native, "_state", None)
    monkeypatch.setattr(native, "_build", None)  # a rebuild would raise
    assert assert_loaded(cache).stat().st_mtime_ns == stamp


@needs_cc
@pytest.mark.parametrize("how", ["truncated", "garbage", "empty"])
def test_damaged_cached_object_is_rebuilt_once(cache, monkeypatch, how):
    """``dlopen`` on a truncated object kills the process (SIGBUS), so
    the loader must see the damage before it tries."""
    built = assert_loaded(cache)
    whole = built.read_bytes()
    damage(built, {
        "truncated": whole[: len(whole) // 2],
        "garbage": os.urandom(len(whole)),
        "empty": b"",
    }[how])
    monkeypatch.setattr(native, "_state", None)
    assert assert_loaded(cache).read_bytes() == whole


@needs_cc
def test_damaged_object_and_failing_compiler_fall_back(
    cache, monkeypatch, tmp_path
):
    built = assert_loaded(cache)
    damage(built, built.read_bytes()[:1000])
    # Same compiler identity, so the same key — but it no longer builds.
    version = subprocess.run(
        ["cc", "--version"], capture_output=True, text=True
    ).stdout.partition("\n")[0]
    put_on_path(
        monkeypatch, tmp_path,
        FAKE_CC.replace("fake cc 0.0", version),
    )
    monkeypatch.setattr(native, "_state", None)
    assert_fell_back("refusing to compile")


@needs_cc
@pytest.mark.parametrize("flaw", ["group-writable", "world-writable", "owner"])
def test_cache_directory_that_is_not_private_is_refused(
    cache, monkeypatch, flaw
):
    """Even a whole, correctly named object is not loaded out of it."""
    assert_loaded(cache)
    if flaw == "owner":
        monkeypatch.setattr(os, "getuid", lambda: cache.stat().st_uid + 1)
    else:
        cache.chmod(0o770 if flaw == "group-writable" else 0o707)
    monkeypatch.setattr(native, "_state", None)
    assert_fell_back("is not private to this user")


@needs_cc
def test_object_is_not_loaded_on_a_cpu_with_other_features(cache, monkeypatch):
    first = assert_loaded(cache)
    real = native._cpu_flags()
    monkeypatch.setattr(native, "_cpu_flags", lambda: (real or "") + " extra")
    monkeypatch.setattr(native, "_state", None)
    body, caught, equal = dispatch()
    assert (body, caught, equal) == ("compiled", [], True)
    second = Path(native.status()["object_path"])
    assert second != first and first.exists()
    assert second.name.split(".")[0] != first.name.split(".")[0]  # the key


@needs_cc
def test_two_processes_building_at_once(cache):
    """Both end with a loaded, whole object; no partial file is ever
    visible under a loadable name and no temporary is left."""
    script = (
        "import json; from repro.kernels import native; "
        "print(json.dumps(native.status()))"
    )
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(repro.__file__).parents[1]),
        "PYTHONWARNINGS": "error",
    }
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for _ in range(2)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        status = json.loads(out)
        assert status["loaded"] is True, status
        path = Path(status["object_path"])
        assert path.name.endswith(f".{native._digest(path)}.so")
    assert all(path.suffix == ".so" for path in cache.iterdir())
    # And this process loads what they left without building.
    assert_loaded(cache)


@needs_cc
def test_source_refuses_excess_precision():
    """Bit-identity needs double arithmetic evaluated in double: built for
    x87 arithmetic (``FLT_EVAL_METHOD == 2``) the source must not compile."""
    version = subprocess.run(
        ["cc", "--version"], capture_output=True, text=True
    ).stdout
    if platform.machine() not in ("x86_64", "AMD64") or "Free Software" not in version:
        pytest.skip("needs gcc on x86-64 for -mfpmath=387")
    proc = subprocess.run(
        ["cc", "-std=c11", "-mfpmath=387", "-fsyntax-only", str(native.SOURCE)],
        capture_output=True, text=True,
    )
    assert proc.returncode != 0
    assert "needs FLT_EVAL_METHOD == 0" in proc.stderr
