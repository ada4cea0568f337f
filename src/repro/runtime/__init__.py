"""Numeric serving runtime: KV-cached decode + continuous batching.

The executable layer that ties the kernel seam (:mod:`repro.kernels`),
the quantized KV cache (:mod:`repro.lut.attention`), and the model
configs (:mod:`repro.models.configs`) into a real inference engine:

- :class:`QuantizedLinear` — quantize once, plan once, dispatch every
  matmul through the registered mpGEMM backend;
- :class:`BlockAllocator` / :class:`PagedLayerCache` — paged KV
  allocation: fixed-size refcounted token blocks from a shared pool,
  freed and reused across requests, with per-block plan arenas written
  as rows arrive (O(1) plan work per decoded token), per-block frozen V
  quantization, and a prefix index that lets new prompts adopt
  matching blocks read-only (copy-on-write on divergence);
- :class:`DecoderModel` — a numeric decoder built from the same
  :class:`~repro.models.configs.ModelConfig` the cost model prices,
  with prefill and one KV-cached step over ``(B, T)`` tokens for
  batched decode (T = 1) and speculative verify (T = k + 1): one paged
  attention body, :func:`fused_paged_verify_attention`, of which
  :func:`fused_paged_decode_attention` is the T = 1 call, dispatched
  once per layer per step — on an int4 pool a LUT mpGEMM over the
  arenas whatever backend the linears use (``reference`` included);
- :class:`ServingEngine` — continuous batching over a request queue
  with pluggable admission scheduling (``fifo`` / ``sjf`` /
  ``memory-aware``), pluggable preemption (``priority-remaining`` /
  ``latest-first``) that evicts and later resumes sequences when a
  bounded pool runs hot, greedy/top-k sampling, per-step
  :class:`StepTrace` history, and throughput/latency stats;
- :class:`AsyncRouter` — N shared-nothing engine replicas behind an
  asyncio front end with per-request token streams, bounded-queue
  backpressure, and pluggable placement (``round-robin`` /
  ``least-loaded`` / ``prefix-aware`` shadow-index routing).

Quickstart::

    from repro.models.configs import ModelConfig
    from repro.runtime import (
        DecoderModel, Request, RuntimeConfig, ServingEngine,
    )

    cfg = ModelConfig("tiny", hidden=64, ffn=128, layers=2,
                      heads=4, kv_heads=2, vocab=256, gated_ffn=True)
    model = DecoderModel(cfg, RuntimeConfig(weight_bits=4, kv_bits=4))
    engine = ServingEngine(model, max_batch_size=8)
    engine.submit(Request("r0", prompt=(1, 2, 3), max_new_tokens=16))
    results, stats = engine.run()
"""

from repro.runtime.cluster import (
    AsyncRouter,
    ClusterStats,
    InlineWorkerHandle,
    ThreadWorkerHandle,
    TokenStream,
    WorkerHandle,
)
from repro.runtime.engine import (
    EngineStats,
    Request,
    RequestResult,
    SamplingParams,
    ServingEngine,
    StepTrace,
)
from repro.runtime.linear import QuantizedLinear
from repro.runtime.model import DecoderModel, RuntimeConfig, SpeculativeConfig
from repro.runtime.paging import (
    PREFIX_EVICTION_POLICIES,
    BlockAllocator,
    PagedLayerCache,
    PrefixEvictionPolicy,
    batched_decode_append,
    fused_paged_decode_attention,
    fused_paged_verify_attention,
    get_prefix_eviction_policy,
)
from repro.runtime.routing import (
    ROUTING_POLICIES,
    RoutingContext,
    RoutingPolicy,
    ShadowPrefixIndex,
    get_routing_policy,
)
from repro.runtime.scheduler import (
    PREEMPTION_POLICIES,
    SCHEDULERS,
    PreemptionPolicy,
    SchedulerPolicy,
    SchedulingContext,
    SloAwareAdmissionPolicy,
    SloAwarePreemptionPolicy,
    SloSpec,
    WaitingRequest,
    deadline_slack_ms,
    get_preemption_policy,
    get_scheduler,
)
from repro.runtime.stats import percentiles
from repro.runtime.workload import (
    ARRIVALS,
    SloClass,
    Trace,
    TraceEntry,
    WorkloadSpec,
    evaluate_slo,
    generate_trace,
    replay_trace,
    replay_trace_router,
)

__all__ = [
    "ARRIVALS",
    "AsyncRouter",
    "BlockAllocator",
    "ClusterStats",
    "DecoderModel",
    "EngineStats",
    "InlineWorkerHandle",
    "PREEMPTION_POLICIES",
    "PREFIX_EVICTION_POLICIES",
    "PagedLayerCache",
    "PreemptionPolicy",
    "PrefixEvictionPolicy",
    "QuantizedLinear",
    "ROUTING_POLICIES",
    "Request",
    "RequestResult",
    "RoutingContext",
    "RoutingPolicy",
    "RuntimeConfig",
    "SCHEDULERS",
    "SamplingParams",
    "SchedulerPolicy",
    "SchedulingContext",
    "ServingEngine",
    "ShadowPrefixIndex",
    "SloAwareAdmissionPolicy",
    "SloAwarePreemptionPolicy",
    "SloClass",
    "SloSpec",
    "SpeculativeConfig",
    "StepTrace",
    "ThreadWorkerHandle",
    "TokenStream",
    "Trace",
    "TraceEntry",
    "WaitingRequest",
    "WorkerHandle",
    "WorkloadSpec",
    "batched_decode_append",
    "deadline_slack_ms",
    "evaluate_slo",
    "fused_paged_decode_attention",
    "fused_paged_verify_attention",
    "generate_trace",
    "get_preemption_policy",
    "get_prefix_eviction_policy",
    "get_routing_policy",
    "get_scheduler",
    "percentiles",
    "replay_trace",
    "replay_trace_router",
]
