"""The four benchmark workloads, their load generators and output check.

Every workload runs the one fixed bench model through public API only
(``DecoderModel``, ``ServingEngine.submit/step/run/has_work``,
``AsyncRouter.run_sync/stats``, ``generate_trace``) from a single thread.

A workload's *shape* — how many requests, their prompt and output
lengths, which prompts share a system prompt, the order and (open loop)
the arrival times — is fixed by :data:`SHAPE_SEED` and is part of the
workload's definition, and so is which requests are checked against
the solo reference. ``--seed`` draws every token id. So two seeds offer
exactly the same load with different content, and the spread between
seeds is machine noise, not input variance; bench/README.md says why.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.errors import ServingError
from repro.models.configs import ModelConfig
from repro.runtime import (
    AsyncRouter,
    DecoderModel,
    EngineStats,
    Request,
    RequestResult,
    RuntimeConfig,
    ServingEngine,
    SloClass,
    SloSpec,
    WorkloadSpec,
    generate_trace,
)

from bench.trace import ROOT, Tracer

#: The one model every workload serves. At hidden 128 the weight-linear
#: kernel is ~80 % of float-KV decode wall (at hidden 64 only ~58 %; the
#: rest is per-call dispatch), the regime the paper is about.
BENCH_MODEL = ModelConfig(
    "bench-128", hidden=128, ffn=256, layers=4, heads=8, kv_heads=4,
    vocab=512, gated_ffn=True,
)
#: Pinned so REPRO_MPGEMM_BACKEND cannot change the load.
BACKEND = "lut-blocked"
SHAPE_SEED = 2025
SAMPLES = 4
WARMUP_REQUESTS = 4
#: Latency limits of a limit-carrying request (wall ms).
TTFT_LIMIT_MS = 1500.0
TPOT_LIMIT_MS = 150.0
#: Open loop: a run still draining this long after its last due time is
#: overloaded; what has not finished by then counts as failed.
DRAIN_CAP_S = 10.0


def _runtime(**overrides) -> RuntimeConfig:
    return RuntimeConfig(weight_bits=4, lut_k=4, backend=BACKEND, **overrides)


def _scaled(value: float, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


@dataclass(frozen=True)
class Shape:
    """One request before its tokens are drawn."""

    request_id: str
    own_tokens: int
    out_tokens: int
    system: int | None = None     # index of the shared system prompt
    priority: int = 0
    limited: bool = False         # carries the TTFT/TPOT limits
    due_s: float = 0.0            # open loop: offset from pass start


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str                     # "closed" | "router" | "open"
    runtime: RuntimeConfig
    engine: dict                  # ServingEngine keyword arguments
    shapes: Callable[[np.random.Generator, float, float], list[Shape]]
    clients: int = 0              # closed loop: requests kept in flight
    router: dict = field(default_factory=dict)
    systems: int = 0              # shared system prompts
    system_tokens: int = 0


def _decode_shapes(rng, scale, rate_scale):
    return [
        Shape(f"dec-{i:03d}", 16, _scaled(64, scale, 4))
        for i in range(_scaled(16, scale, 4))
    ]


def _prefill_shapes(rng, scale, rate_scale):
    n = _scaled(12, scale, 8)
    n_shared = int(round(0.75 * n))
    # Evenly spaced lengths in shuffled order: the total is the same for
    # every shape seed, only who gets which length changes.
    suffix = rng.permutation(np.linspace(16, 48, n_shared))
    unique = rng.permutation(np.linspace(144, 176, n - n_shared))
    system = rng.permutation(np.arange(n_shared) % 4)
    shapes = [
        Shape(f"pre-s{i:03d}", _scaled(suffix[i], scale, 2), 4, int(system[i]))
        for i in range(n_shared)
    ] + [
        Shape(f"pre-u{i:03d}", _scaled(unique[i], scale, 4), 4)
        for i in range(n - n_shared)
    ]
    return [shapes[i] for i in rng.permutation(n)]


def _burst_shapes(rng, scale, rate_scale):
    """Two bursts in 8 s: 2 s at 6 requests/s, 4 s at 0.6, 2 s at 6 —
    the second burst lands on what the first left behind.
    *scale* compresses time as it shortens the requests, so the count
    stays."""
    spec = WorkloadSpec(
        name="burst",
        classes=(
            SloClass(
                "interactive", weight=3.0, priority=2,
                prompt_mu=3.0, prompt_sigma=0.5, prompt_min=4, prompt_max=64,
                output_buckets=(8, 16, 32),
            ),
            SloClass(
                "batch", weight=1.0, priority=0,
                prompt_mu=4.2, prompt_sigma=0.4, prompt_min=32, prompt_max=128,
                output_buckets=(32, 64),
            ),
        ),
        arrival="burst",
        rate_rps=0.6 * rate_scale / scale,
        burst_rate_rps=6.0 * rate_scale / scale,
        on_s=2.0 * scale,
        off_s=4.0 * scale,
        duration_s=8.0 * scale,
        tenants=1,
        vocab=BENCH_MODEL.vocab,
        max_total_tokens=192,
    )
    shapes = []
    for entry in generate_trace(spec, SHAPE_SEED).entries:
        interactive = entry.slo_class == "interactive"
        shares = interactive and rng.random() < 0.7
        shapes.append(Shape(
            entry.request_id,
            _scaled(len(entry.prompt), scale, 2),
            _scaled(entry.max_new_tokens, scale, 2),
            system=int(rng.integers(3)) if shares else None,
            priority=entry.priority,
            limited=interactive,
            due_s=entry.arrival_s,
        ))
    return shapes


#: Why each was chosen is in BENCHMARK.json (``workloads[].why``) and, at
#: length, in bench/README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "decode-fp",
            loop="closed",
            runtime=_runtime(kv_bits=None),
            engine=dict(max_batch_size=8, scheduler="fifo"),
            shapes=_decode_shapes,
            clients=8,
        ),
        Workload(
            "decode-int4kv",
            loop="closed",
            runtime=_runtime(kv_bits=4),
            engine=dict(max_batch_size=8, scheduler="fifo"),
            shapes=_decode_shapes,
            clients=8,
        ),
        Workload(
            "prefill-shared-2w",
            loop="router",
            runtime=_runtime(kv_bits=4),
            engine=dict(max_batch_size=4, scheduler="fifo"),
            shapes=_prefill_shapes,
            router=dict(
                workers=2, routing="prefix-aware", transport="inline",
                max_pending=8,
            ),
            systems=4,
            system_tokens=128,
        ),
        Workload(
            "trace-burst",
            loop="open",
            runtime=_runtime(
                kv_bits=4, kv_pool_blocks=96, prefill_chunk=32,
                swap_threshold_tokens=64,
            ),
            engine=dict(
                max_batch_size=6, scheduler="slo-aware",
                preemption="slo-aware",
            ),
            shapes=_burst_shapes,
            systems=3,
            system_tokens=64,
        ),
    )
}


@dataclass
class Inputs:
    """Everything one workload run needs, generated from the seed."""

    requests: list[Request]
    due_s: list[float]
    limited: frozenset[str]
    shared: frozenset[str]
    samples: list[Request]
    warmup: list[Request]
    #: Token streams of the samples decoded alone (:func:`solo_reference`).
    reference: dict[str, list[int]] = field(default_factory=dict)


def generate_inputs(
    workload: Workload,
    seed: int,
    scale: float = 1.0,
    rate_scale: float = 1.0,
) -> Inputs:
    shape_rng = np.random.default_rng(SHAPE_SEED)
    shapes = workload.shapes(shape_rng, scale, rate_scale)
    # Which requests are checked is part of the shape too: the solo decode
    # of a long request costs more set-up time than that of a short one.
    picks = shape_rng.choice(
        len(shapes), size=min(SAMPLES, len(shapes)), replace=False
    )
    rng = np.random.default_rng(seed)
    vocab = BENCH_MODEL.vocab

    def tokens(n: int) -> tuple[int, ...]:
        return tuple(int(t) for t in rng.integers(0, vocab, size=n))

    system_tokens = _scaled(workload.system_tokens, scale, 16)
    systems = [tokens(system_tokens) for _ in range(workload.systems)]
    slo = SloSpec(ttft_ms=TTFT_LIMIT_MS, tpot_ms=TPOT_LIMIT_MS)
    requests = [
        Request(
            s.request_id,
            (systems[s.system] if s.system is not None else ())
            + tokens(s.own_tokens),
            s.out_tokens,
            priority=s.priority,
            slo=slo if s.limited else None,
        )
        for s in shapes
    ]
    return Inputs(
        requests=requests,
        due_s=[s.due_s for s in shapes],
        limited=frozenset(s.request_id for s in shapes if s.limited),
        shared=frozenset(
            s.request_id for s in shapes if s.system is not None
        ),
        samples=[requests[i] for i in sorted(picks)],
        warmup=[
            Request(f"warm-{i}", tokens(16), _scaled(8, scale, 2))
            for i in range(WARMUP_REQUESTS)
        ],
    )


def solo_reference(workload: Workload, inputs: Inputs) -> dict[str, list[int]]:
    """Decode each sample alone: fresh engine, batch of one, unbounded
    pool, no chunking, no sharing. The batched, shared, preempted run
    must reproduce these token streams exactly."""
    runtime = replace(
        workload.runtime, kv_pool_blocks=None, prefill_chunk=None,
        prefix_sharing=False, swap_threshold_tokens=None,
    )
    model = DecoderModel(BENCH_MODEL, runtime)
    reference = {}
    for request in inputs.samples:
        engine = ServingEngine(model, max_batch_size=1)
        engine.submit(request)
        (result,), _ = engine.run()
        reference[request.request_id] = list(result.tokens)
    return reference


class TimedEngine(ServingEngine):
    """A ``ServingEngine`` that keeps the wall time of every ``step()``,
    the gap every running stream sees. Two clock reads per step; used
    with tracing off and on alike. It also remembers where the (already
    warmed) model's and pool's counters stood when it was built, so a
    pass reports only what it moved itself."""

    def __init__(self, model: DecoderModel, **kwargs) -> None:
        super().__init__(model, **kwargs)
        self.step_walls: list[float] = []
        self.baseline = (dict(model.stats), dict(model.kv_pool.stats))

    def step(self):
        started = time.perf_counter()
        try:
            return super().step()
        finally:
            self.step_walls.append(time.perf_counter() - started)


def build_engine(workload: Workload, inputs: Inputs) -> TimedEngine:
    """A fresh model, warmed by the throw-away requests (lazy plan
    caches fill, the pool grows), behind a fresh engine."""
    model = DecoderModel(BENCH_MODEL, workload.runtime)
    warm = ServingEngine(model, max_batch_size=len(inputs.warmup))
    for request in inputs.warmup:
        warm.submit(request)
    results, _ = warm.run()
    if len(results) != len(inputs.warmup):
        raise ServingError("warm-up did not complete")
    return TimedEngine(model, **workload.engine)


def setup(
    workload: Workload,
    seed: int,
    scale: float = 1.0,
    rate_scale: float = 1.0,
) -> tuple[Inputs, list[TimedEngine]]:
    """Set-up as ``setup_s`` times it: inputs, the solo reference decode,
    and the first pass's warmed engines."""
    inputs = generate_inputs(workload, seed, scale, rate_scale)
    inputs.reference = solo_reference(workload, inputs)
    return inputs, build_engines(workload, inputs)


def build_engines(workload: Workload, inputs: Inputs) -> list[TimedEngine]:
    workers = workload.router.get("workers", 1)
    return [build_engine(workload, inputs) for _ in range(workers)]


@dataclass
class PassResult:
    """What one pass over a workload's requests produced. Holds numbers
    only — the engines (models, pools) are dropped when the pass ends, so
    memory does not grow with the number of passes."""

    wall_s: float
    results: dict[str, RequestResult]
    sent: int
    failed: list[str]             # refused, errored, unfinished, mismatched
    error: str | None
    digest: str
    #: Milliseconds between a request's due time and its submission
    #: (open loop; empty on the closed loops, which have no schedule).
    late_ms: dict[str, float]
    drain_s: float
    overloaded: bool
    step_ms: np.ndarray           # wall of every engine.step(), all engines
    stats: list[EngineStats]      # per drained engine (counters, step trace)
    #: How far the pass moved the models' and pools' own counters.
    model_moved: dict[str, float]
    pool_moved: dict[str, float]

    def ttft_ms(self, request_id: str) -> float:
        """First-token latency from the due time (open loop) or from the
        worker's submit (closed loops)."""
        return (
            self.late_ms.get(request_id, 0.0)
            + self.results[request_id].first_token_ms
        )


def output_digest(results: dict[str, RequestResult]) -> str:
    """sha256 over the sorted ``request id + tokens`` of a pass."""
    h = hashlib.sha256()
    for request_id in sorted(results):
        h.update(request_id.encode())
        h.update(np.asarray(results[request_id].tokens, dtype=np.int64).tobytes())
    return h.hexdigest()


def _drive_closed(engine, inputs, clients):
    pending = deque(inputs.requests)

    def send_next():
        # A refused request never gets a result, which is how it is counted.
        while pending:
            try:
                engine.submit(pending.popleft())
                return
            except ServingError:
                pass

    for _ in range(clients):
        send_next()
    while engine.has_work:
        # A client sends its next request when its previous one completes.
        for _ in engine.step():
            send_next()


def _drive_open(engine, inputs, tracer, late_ms):
    """Submit every request whose due time has passed, step while there
    is work, else sleep to the next due time. Returns ``(drain_s,
    overloaded)``."""
    requests, due = inputs.requests, inputs.due_s
    n = len(requests)
    give_up = due[-1] + DRAIN_CAP_S
    overloaded = False
    i = 0
    started = time.perf_counter()
    while i < n or engine.has_work:
        now = time.perf_counter() - started
        while i < n and due[i] <= now:
            try:
                engine.submit(requests[i])
                late_ms[requests[i].request_id] = (now - due[i]) * 1e3
            except ServingError:
                pass  # refused: no result, counted as failed
            i += 1
        if engine.has_work:
            if now > give_up:
                overloaded = True
                break
            engine.step()
        elif i < n:
            idle = tracer.span("loadgen.idle") if tracer else nullcontext()
            with idle:
                time.sleep(max(0.0, due[i] - (time.perf_counter() - started)))
    return (time.perf_counter() - started) - due[-1], overloaded


def _moved(engines: list[TimedEngine], index: int) -> dict[str, float]:
    """Model (0) or pool (1) counters now, minus their post-warm-up
    values, summed over the engines."""
    moved: dict[str, float] = {}
    for engine in engines:
        now = (engine.model.stats, engine.model.kv_pool.stats)[index]
        for key, value in now.items():
            moved[key] = moved.get(key, 0) + value - engine.baseline[index][key]
    return moved


def run_pass(
    workload: Workload,
    inputs: Inputs,
    engines: list[TimedEngine],
    tracer: Tracer | None = None,
) -> PassResult:
    """One pass of *inputs* over freshly built *engines*; never raises
    for a failure of the program under test — it is counted."""
    late_ms: dict[str, float] = {}
    drain_s, overloaded, error = 0.0, False, None
    root = tracer.span(ROOT) if tracer else nullcontext()
    started = time.perf_counter()
    try:
        with root:
            if workload.loop == "router":
                queue = iter(engines)
                router = AsyncRouter(lambda: next(queue), **workload.router)
                try:
                    router.run_sync(inputs.requests)
                finally:
                    router.close()
            elif workload.loop == "open":
                drain_s, overloaded = _drive_open(
                    engines[0], inputs, tracer, late_ms
                )
            else:
                _drive_closed(engines[0], inputs, workload.clients)
    except Exception:  # the program under test failed: count, don't crash
        error = traceback.format_exc()
    wall_s = time.perf_counter() - started
    results = {r.request_id: r for e in engines for r in e.finished}
    failed = [r.request_id for r in inputs.requests
              if r.request_id not in results]
    failed += [
        r.request_id for r in inputs.samples
        if r.request_id in results
        and list(results[r.request_id].tokens) != inputs.reference[r.request_id]
    ]
    return PassResult(
        wall_s=wall_s,
        results=results,
        sent=len(inputs.requests),
        failed=failed,
        error=error,
        digest=output_digest(results),
        late_ms=late_ms,
        drain_s=drain_s,
        overloaded=overloaded,
        step_ms=np.array([w * 1e3 for e in engines for w in e.step_walls]),
        # run() on a drained engine only sums up; one that stopped on an
        # error or at the drain cap is left as it is.
        stats=[e.run()[1] for e in engines if not e.has_work],
        model_moved=_moved(engines, 0),
        pool_moved=_moved(engines, 1),
    )
