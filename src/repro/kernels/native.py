"""Build, cache and load ``lut_block.c``, the compiled ``lut-blocked`` loops.

One object, five entry points (:data:`ENTRY_POINTS`): ``lut_block``, the
one LUT mpGEMM pass, which runs both the weight linears (one weight row,
a one-entry block table) and the int4-KV attention (the pool's index
arenas through the block table); ``kv_append`` / ``kv_refresh``, the
int4-KV pool's quantized-state writer; and ``attn_scores`` /
``attn_context``, the two passes of the float attention (``np.exp`` runs
between them, in numpy). An object that lacks any of them is not used at
all. The first call of a
process to one of the accessors below or to :func:`status` finds ``cc``
on ``PATH``, builds the source next to this file into a private per-user
cache directory and loads it with :mod:`ctypes`. An object's name carries a
key over all that decides its bytes (source, flags, compiler version, CPU
feature flags: never loaded on another kind of CPU) and a hash of the
bytes, checked before every load because ``dlopen`` of a truncated object
kills the process. Builds are renamed into place, so concurrent processes
each end with a whole file. Any failure leaves the routines unloaded, the
reason in :func:`status` and one warning; every caller then runs its
numpy body, which computes the same bytes. Nothing selects between the
two but whether this load worked.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from contextlib import contextmanager
from pathlib import Path

SOURCE = Path(__file__).with_name("lut_block.c")
#: Never -ffast-math / -Ofast, and no contraction: ``z·Σa`` and ``acc·s``
#: round before the add that follows them (ARCHITECTURE section 6), the
#: KV writer's ``w / scale`` stays a division and every product of the
#: float attention rounds before its sum (section 8).
FLAGS = ("-std=c11", "-O3", "-ffp-contract=off", "-shared", "-fPIC")
#: After the source: ``nearbyint`` where the target cannot inline it.
LIBS = ("-lm",)

_PTR, _STEP, _SIZE = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_int64
#: ``name -> (restype, argtypes)``, lut_block.c's parameter lists line by
#: line.
ENTRY_POINTS = {
    "lut_block": (ctypes.c_int, [_PTR] * 11),
    "kv_append": (ctypes.c_int, (
        [_PTR, _PTR] + [_PTR, _PTR] + [_PTR, _PTR, _SIZE]
    )),
    "kv_refresh": (ctypes.c_int, [_PTR, _PTR] + [_PTR, _SIZE]),
    "attn_scores": (ctypes.c_int, (
        [_PTR, _PTR, _PTR] + [_PTR, ctypes.c_double, _PTR, _PTR]
    )),
    "attn_context": (ctypes.c_int, [_PTR, _PTR, _PTR] + [_PTR, _PTR, _PTR]),
}
_STATUS_KEYS = ("loaded", "reason", "object_path", "flags", "compiler")
_lock = threading.Lock()
_state: dict | None = None  # this process's one load attempt


def _cpu_flags() -> str | None:
    """This CPU's feature flags, or None where they cannot be read."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return None


def _cache_dir() -> Path:
    """Refused when someone else owns it or could write to it: loading an
    object runs its code."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    path = Path(root) / "repro-lut-kernels"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = path.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{path} is not private to this user")
    return path


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _build(cc: str, flags: tuple[str, ...], cache: Path, stem: str) -> Path:
    fd, tmp = tempfile.mkstemp(dir=cache, prefix=stem, suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *flags, "-o", tmp, str(SOURCE), *LIBS],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode:
            raise RuntimeError(f"{cc} failed: {proc.stderr.strip()[-300:]}")
        final = cache / f"{stem}.{_digest(Path(tmp))}.so"
        os.replace(tmp, final)
        return final
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> dict:
    state = dict.fromkeys(_STATUS_KEYS)
    state.update(loaded=False, fns={})
    try:
        cc = shutil.which("cc")
        if cc is None:
            raise FileNotFoundError("no `cc` on PATH")
        version = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30,
            check=True,
        ).stdout.partition("\n")[0]
        cpu = _cpu_flags()
        # Tune for this CPU only where its features can go into the key.
        flags = FLAGS + (("-march=native",) if cpu else ())
        state.update(compiler=f"{cc} ({version})", flags=" ".join(flags))
        key = hashlib.sha256("\0".join(
            (SOURCE.read_text(), *flags, *LIBS, version, cpu or "")
        ).encode()).hexdigest()[:16]
        cache, stem = _cache_dir(), f"lut_block-{key}"
        whole = [
            path for path in sorted(cache.glob(f"{stem}.*.so"))
            if path.name == f"{stem}.{_digest(path)}.so"
        ]
        path = whole[0] if whole else _build(cc, flags, cache, stem)
        lib, fns = ctypes.CDLL(str(path)), {}
        for name, signature in ENTRY_POINTS.items():
            fns[name] = getattr(lib, name)  # AttributeError: not exported
            fns[name].restype, fns[name].argtypes = signature
        state.update(loaded=True, object_path=str(path), fns=fns)
    except Exception as exc:  # whatever it was, the numpy body still runs
        state["reason"] = f"{type(exc).__name__}: {exc}"
        warnings.warn(
            "compiled lut-blocked loops unavailable, using the numpy bodies "
            f"({state['reason']})", RuntimeWarning, stacklevel=4,
        )
    return state


def _ensure() -> dict:
    global _state
    if _state is None:
        with _lock:
            if _state is None:
                _state = _load()
    return _state


def status() -> dict:
    """``{loaded, reason, object_path, flags, compiler, entry_points}`` of
    this process's load attempt (made now if nothing has dispatched yet);
    ``entry_points`` names the routines the loaded object exports."""
    state = _ensure()
    return {key: state[key] for key in _STATUS_KEYS} | {
        "entry_points": tuple(state["fns"])
    }


def lut_block():
    """The loaded LUT mpGEMM pass, or None when this process runs the numpy
    bodies."""
    return _ensure()["fns"].get("lut_block")


def kv_append():
    """The loaded K/V row writer of the int4-KV pool, or None likewise."""
    return _ensure()["fns"].get("kv_append")


def kv_refresh():
    """The loaded V-arena writer of the int4-KV pool, or None likewise."""
    return _ensure()["fns"].get("kv_refresh")


def attn_scores():
    """The loaded first pass of the float attention, or None likewise."""
    return _ensure()["fns"].get("attn_scores")


def attn_context():
    """The loaded second pass of the float attention, or None likewise."""
    return _ensure()["fns"].get("attn_context")


@contextmanager
def unloaded():
    """Dispatch inside the block as a process with no compiler would: how
    the tests and the kernel microbenchmark reach the numpy bodies on a host
    that has one. Process-wide, so not for code that serves requests."""
    global _state
    saved = _ensure()
    _state = dict(saved, loaded=False, fns={}, reason="unloaded by the caller")
    try:
        yield
    finally:
        _state = saved
