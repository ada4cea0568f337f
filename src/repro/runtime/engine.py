"""Continuous-batching serving engine over the numeric runtime.

Request lifecycle::

    submit() -> WAITING -> (admission) -> prefill -> ACTIVE
        -> batched decode steps (continuous batching) -> FINISHED
        -> KV blocks freed back to the shared pool

The scheduler admits waiting requests whenever a decode slot is free —
sequences join and leave the running batch *between steps*, they never
wait for a whole batch to drain (continuous batching, vLLM-style, at
numeric scale). *Which* waiting request is admitted is delegated to a
pluggable :class:`~repro.runtime.scheduler.SchedulerPolicy` (``fifo``
by default; ``sjf`` and ``memory-aware`` built in — the latter gates
admission on KV block-pool headroom so a bounded pool back-pressures
instead of failing mid-decode). Each decode step runs the model's
batched step: linear projections execute as one ``(B, hidden)`` mpGEMM
per projection on the registered kernel backend, attention runs per
sequence over its own incrementally extended paged KV cache. When a
request completes, its KV blocks return to the pool for reuse.

When a *bounded* pool cannot cover the next decode step's block needs
(boundary allocations plus copy-on-write clones), the engine
**preempts**: a pluggable
:class:`~repro.runtime.scheduler.PreemptionPolicy`
(``priority-remaining`` by default) ranks the active sequences, and
victims are evicted front-first until the step fits. A victim's
non-shared blocks return to the pool (shared blocks survive for their
other holders, full prompt blocks stay parked in the prefix index), and
its state collapses to a recompute-on-resume record — the request, its
generated tokens and its sampling RNG. Resumption re-prefills the
prompt through the prefix index (mostly block-table reconstruction
when the index is warm) and replays the generated tokens through the
decode path, rebuilding exactly the KV state the unpreempted run had —
preemption is output-transparent on the batch-invariant LUT backends.
Preempted requests resume ahead of new admissions.

With :attr:`~repro.runtime.model.RuntimeConfig.swap_threshold_tokens`
set, a victim whose cached context reaches the threshold is **swapped
to host** instead: eviction serializes its KV blocks (float slabs +
K codes + fill metadata, via
:meth:`~repro.runtime.paging.PagedLayerCache.serialize`) into a
host-side spill record, and resumption restores the blocks into the
pool — turning resume cost from O(context) model FLOPs into
O(context) memcpy plus one decode step. The restored slabs are the
evicted bits verbatim (frozen K plans and V caches rebuild lazily
from identical codes, the CoW guarantee), so swapped resumption is
just as output-transparent; a restore the pool cannot hold right now
falls back to recompute-on-resume, which can adopt shared blocks
instead of allocating. Swap traffic lands in
:attr:`EngineStats.swaps` / :attr:`EngineStats.swap_resumes` /
:attr:`EngineStats.swap_bytes`. Per-request
preemption counts land in
:class:`RequestResult`, per-step preemption-queue depth and shared
block counts in :class:`StepTrace`, and event totals plus resume
latency in :class:`EngineStats`.

With :attr:`~repro.runtime.model.RuntimeConfig.prefill_chunk` set, the
engine runs **chunked prefill**: admission only creates the sequence,
and each step spends at most ``prefill_chunk`` prompt tokens across
the in-progress prompts (fair-share split, so a short prompt is never
stuck behind a long one) before the batched decode runs. A partially
prefilled sequence holds its blocks between steps and counts against
batch slots and reserved pool headroom; under pool pressure it can be
preempted mid-prefill (its blocks are released and it restarts from
token zero through the warm prefix index, ahead of new admissions).
The full prompt's prefix adoption happens before the first chunk, so
chunking adopts exactly what a monolithic prefill would — and because
every prefill row's numerics depend only on its absolute position
(never the chunk split), token streams with chunking on and off are
bit-identical on the LUT backends. The same property lets the engine
ask the model only for the logits rows it reads
(:meth:`DecoderModel.prefill`'s ``logits_from``): the row it samples
from on monolithic admission and the final chunk, none on non-final
chunks, the recompute-resume re-prefill and replay, and the draft's
catch-up.

Every decode step also appends a :class:`StepTrace` record (occupancy,
queue depth, context tokens, pool usage) to the run's
:class:`EngineStats`, so occupancy percentiles and pool behavior are
observable after the fact instead of lost.

With :attr:`~repro.runtime.model.RuntimeConfig.speculative` set, the
engine runs **output-identical speculative decoding**: a configurable
smaller draft model greedily proposes ``k`` tokens per live sequence,
the target scores all ``k + 1`` candidate rows in one batched
:meth:`~repro.runtime.model.DecoderModel.verify_batch` pass (each row
bit-identical to the sequential decode step at that position on the
LUT backends), and acceptance keeps the longest prefix of rows whose
sampled token matches the next candidate — plus that step's one bonus
token. Rejected rows are rolled back with
:meth:`~repro.runtime.paging.PagedLayerCache.truncate_rows`, which
restores the shared pool bit-for-bit, so the token stream equals the
non-speculative stream exactly; only the step count shrinks. A step
that cannot afford speculation (bounded-pool pressure on the transient
``k + 1``-row append, or no positional headroom) silently falls back
to a plain decode step, and preemption simply drops the draft's
private KV (rebuilt by a catch-up prefill on resume). Per-step
``drafted``/``accepted`` counts land in :class:`StepTrace`;
:attr:`EngineStats.acceptance_rate` and
:attr:`EngineStats.mean_tokens_per_step` summarize the run.

Sampling is greedy by default; ``top_k``/``temperature`` with a
per-request seed gives reproducible stochastic decoding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ServingError
from repro.models.configs import ModelConfig
from repro.numerics import softmax
from repro.runtime.model import DecoderModel, SpeculativeConfig
from repro.runtime.paging import PagedLayerCache, spill_nbytes
from repro.runtime.scheduler import (
    PreemptionPolicy,
    SchedulerPolicy,
    SchedulingContext,
    SloSpec,
    WaitingRequest,
    get_preemption_policy,
    get_scheduler,
    resume_blocks_needed,
    worst_case_blocks,
)
from repro.runtime.stats import percentiles


@dataclass(frozen=True)
class SamplingParams:
    """How next tokens are drawn from the logits.

    ``top_k=None`` selects greedy argmax decoding; ``temperature`` then
    has no effect (argmax is invariant under positive scaling). With
    ``top_k`` set, sampling draws from the temperature-scaled softmax
    over the k highest logits, seeded per request for reproducibility.
    """

    top_k: int | None = None      # None => greedy argmax
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.top_k is not None and self.top_k < 1:
            raise ServingError("top_k must be >= 1")
        if self.temperature <= 0:
            raise ServingError("temperature must be positive")

    def to_dict(self) -> dict:
        """JSON-ready form; :meth:`from_dict` round-trips it exactly."""
        return {
            "top_k": self.top_k,
            "temperature": self.temperature,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SamplingParams":
        return cls(
            top_k=data.get("top_k"),
            temperature=float(data.get("temperature", 1.0)),
            seed=int(data.get("seed", 0)),
        )


@dataclass(frozen=True)
class Request:
    """One inference request.

    ``priority`` feeds the preemption policy: when a bounded pool runs
    hot, lower-priority sequences are evicted first (default 0; higher
    values are safer from eviction). ``slo`` optionally attaches
    latency budgets (:class:`~repro.runtime.scheduler.SloSpec`):
    deadline-aware policies order admission/eviction by them, and SLO
    evaluation counts the request's tokens toward goodput only when
    both budgets are met. A request without one is best-effort.
    """

    request_id: str
    prompt: tuple[int, ...]
    max_new_tokens: int
    sampling: SamplingParams = SamplingParams()
    eos_token_id: int | None = None
    priority: int = 0
    slo: SloSpec | None = None

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ServingError(f"request {self.request_id}: empty prompt")
        if self.max_new_tokens < 1:
            raise ServingError(
                f"request {self.request_id}: max_new_tokens must be >= 1"
            )

    def to_dict(self) -> dict:
        """JSON-ready form — the wire format requests cross the
        router/worker seam in; :meth:`from_dict` round-trips it."""
        return {
            "request_id": self.request_id,
            "prompt": [int(t) for t in self.prompt],
            "max_new_tokens": self.max_new_tokens,
            "sampling": self.sampling.to_dict(),
            "eos_token_id": self.eos_token_id,
            "priority": self.priority,
            "slo": None if self.slo is None else self.slo.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Request":
        slo = data.get("slo")
        return cls(
            request_id=data["request_id"],
            prompt=tuple(int(t) for t in data["prompt"]),
            max_new_tokens=int(data["max_new_tokens"]),
            sampling=SamplingParams.from_dict(data.get("sampling", {})),
            eos_token_id=data.get("eos_token_id"),
            priority=int(data.get("priority", 0)),
            slo=None if slo is None else SloSpec.from_dict(slo),
        )


@dataclass
class RequestResult:
    """Completion record returned for every finished request."""

    request_id: str
    prompt: tuple[int, ...]
    tokens: list[int]
    finish_reason: str            # "length" | "eos"
    prefill_ms: float
    first_token_ms: float         # submit -> first sampled token
    latency_ms: float             # submit -> completion
    decode_steps: int
    preemptions: int = 0          # times this request was evicted
    #: Mean time-per-output-token after the first (0.0 for one-token
    #: completions): (last token - first token) / (tokens - 1).
    tpot_ms: float = 0.0
    #: Draft tokens this request accepted across its speculative steps
    #: (excluding each step's guaranteed bonus token); 0 when the
    #: engine runs without speculative decoding.
    spec_accepted: int = 0

    def to_dict(self) -> dict:
        """JSON-ready form — crosses the worker seam and persists from
        bench runs; :meth:`from_dict` round-trips it exactly."""
        return {
            "request_id": self.request_id,
            "prompt": [int(t) for t in self.prompt],
            "tokens": [int(t) for t in self.tokens],
            "finish_reason": self.finish_reason,
            "prefill_ms": self.prefill_ms,
            "first_token_ms": self.first_token_ms,
            "latency_ms": self.latency_ms,
            "decode_steps": self.decode_steps,
            "preemptions": self.preemptions,
            "tpot_ms": self.tpot_ms,
            "spec_accepted": self.spec_accepted,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RequestResult":
        return cls(
            request_id=data["request_id"],
            prompt=tuple(int(t) for t in data["prompt"]),
            tokens=[int(t) for t in data["tokens"]],
            finish_reason=data["finish_reason"],
            prefill_ms=float(data["prefill_ms"]),
            first_token_ms=float(data["first_token_ms"]),
            latency_ms=float(data["latency_ms"]),
            decode_steps=int(data["decode_steps"]),
            preemptions=int(data.get("preemptions", 0)),
            tpot_ms=float(data.get("tpot_ms", 0.0)),
            spec_accepted=int(data.get("spec_accepted", 0)),
        )


@dataclass(frozen=True)
class StepTrace:
    """Snapshot of one batched decode step (taken at step entry).

    Attributes
    ----------
    step:
        0-based decode-step index within the run.
    active:
        Sequences in the decode batch this step (== occupancy).
    waiting:
        Requests still queued for admission.
    finished:
        Requests completed so far.
    context_tokens:
        Summed cached context length of the active sequences.
    kv_blocks_used:
        Blocks currently allocated from the shared pool (all sequences,
        all layers).
    kv_blocks_free:
        Blocks still allocatable; ``None`` when the pool is unbounded.
    preempted:
        Requests currently swapped out awaiting resumption.
    kv_blocks_shared:
        In-use blocks referenced by more than one block table (the
        prefix-sharing savings visible this step).
    prefilling:
        Sequences mid-way through a chunked prefill (holding blocks
        and a batch slot, not yet decoding). Always 0 without
        ``prefill_chunk``.
    drafted:
        Draft tokens proposed this step (``batch * k`` on a
        speculative step, 0 on a plain decode or when speculation is
        off).
    accepted:
        Draft tokens the verify pass accepted this step (excluding
        each sequence's guaranteed bonus token), so
        ``accepted / drafted`` is the step's acceptance rate.
    """

    step: int
    active: int
    waiting: int
    finished: int
    context_tokens: int
    kv_blocks_used: int
    kv_blocks_free: int | None
    preempted: int = 0
    kv_blocks_shared: int = 0
    prefilling: int = 0
    drafted: int = 0
    accepted: int = 0


@dataclass
class EngineStats:
    """Aggregate throughput/latency statistics of one engine run."""

    requests: int
    prompt_tokens: int
    generated_tokens: int
    decode_steps: int
    wall_s: float
    #: Preemption relief-valve traffic: eviction events, completed
    #: resumptions, and total wall time spent in resume re-prefills.
    preemptions: int = 0
    resumes: int = 0
    resume_ms_total: float = 0.0
    #: Swap-to-host traffic: preemptions that spilled their KV blocks,
    #: resumptions served by restoring a spill (the rest recomputed),
    #: and total bytes serialized to the spill store.
    swaps: int = 0
    swap_resumes: int = 0
    swap_bytes: int = 0
    #: Per-request time-per-output-token percentiles (ms), over the
    #: requests that generated more than one token.
    tpot_p50: float = 0.0
    tpot_p95: float = 0.0
    tpot_p99: float = 0.0
    #: Per-request time-to-first-token percentiles (ms), over every
    #: completed request (submit -> first sampled token, queue wait
    #: included).
    ttft_p50: float = 0.0
    ttft_p95: float = 0.0
    ttft_p99: float = 0.0
    #: Per-decode-step history — occupancy, queue depth, pool usage —
    #: so a finished run can be audited instead of reduced to means.
    trace: list[StepTrace] = field(default_factory=list)

    @property
    def batch_occupancy(self) -> list[int]:
        """Decode-batch size per step (derived from the trace)."""
        return [t.active for t in self.trace]

    @property
    def mean_batch(self) -> float:
        if not self.batch_occupancy:
            return 0.0
        return float(np.mean(self.batch_occupancy))

    def occupancy_percentile(self, q: float) -> float:
        """Batch-occupancy percentile over the run's decode steps."""
        return percentiles(self.batch_occupancy, (q,))[0]

    @property
    def occupancy_p50(self) -> float:
        return self.occupancy_percentile(50)

    @property
    def occupancy_p95(self) -> float:
        return self.occupancy_percentile(95)

    @property
    def throughput_tok_s(self) -> float:
        return self.generated_tokens / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def mean_resume_ms(self) -> float:
        """Mean re-prefill latency of one preemption resumption."""
        return self.resume_ms_total / self.resumes if self.resumes else 0.0

    @property
    def acceptance_rate(self) -> float:
        """Accepted fraction of all drafted tokens over the run (0.0
        when nothing was drafted — speculation off or never viable)."""
        drafted = sum(t.drafted for t in self.trace)
        if drafted == 0:
            return 0.0
        return sum(t.accepted for t in self.trace) / drafted

    @property
    def mean_tokens_per_step(self) -> float:
        """Generated tokens per batched step — above 1.0 per sequence
        only when speculative verification lands multi-token steps
        (includes prefill-sampled first tokens in the numerator)."""
        if self.decode_steps == 0:
            return 0.0
        return self.generated_tokens / self.decode_steps

    @property
    def shared_block_ratio(self) -> float:
        """Fraction of in-use block observations that were shared
        (refcount > 1), aggregated over the decode-step trace."""
        used = sum(t.kv_blocks_used for t in self.trace)
        if used == 0:
            return 0.0
        return sum(t.kv_blocks_shared for t in self.trace) / used


class _Sequence:
    """Mutable in-flight state of one admitted request."""

    def __init__(
        self, request: Request, model: DecoderModel, submit_time: float
    ) -> None:
        self.request = request
        self.caches = model.new_caches()
        self.generated: list[int] = []
        self.rng = np.random.default_rng(request.sampling.seed)
        # Wall-clock origin of the latency fields: when the request was
        # *submitted*, so queue-wait time counts toward ttft/latency.
        self.submit_time = submit_time
        self.prefill_ms = 0.0
        #: Prompt tokens already prefilled (chunked prefill progress);
        #: equals ``len(request.prompt)`` once the sequence is active.
        self.prefill_pos = 0
        self.first_token_ms = 0.0
        self.decode_steps = 0
        self.preemptions = 0
        self.finish_reason: str | None = None
        #: Draft-model block tables (speculative decoding only). Built
        #: lazily by the engine's draft catch-up, freed on preemption
        #: (the draft KV is recomputed on resume) and at retirement.
        self.draft_caches: list | None = None
        self.spec_accepted = 0
        #: Serialized KV blocks captured at preemption when the context
        #: cleared ``swap_threshold_tokens`` — one payload per layer
        #: cache. ``None`` means recompute-on-resume.
        self.swap_record: list[dict] | None = None
        #: Wall-clock stamp of the most recent accepted token, so TPOT
        #: measures first-token -> last-token without re-reading the
        #: clock at retirement.
        self.last_token_time = submit_time

    @property
    def last_token(self) -> int:
        if self.generated:
            return self.generated[-1]
        return self.request.prompt[-1]

    @property
    def priority(self) -> int:
        """Request priority, exposed for preemption policies."""
        return self.request.priority

    @property
    def remaining_tokens(self) -> int:
        """Generation budget still outstanding."""
        return self.request.max_new_tokens - len(self.generated)

    @property
    def observed_tpot_ms(self) -> float:
        """Live mean time-per-output-token after the first (ms); 0.0
        until a second token exists. Feeds deadline-slack estimates."""
        n = len(self.generated)
        if n < 2:
            return 0.0
        generated_ms = (
            (self.last_token_time - self.submit_time) * 1e3
            - self.first_token_ms
        )
        return max(0.0, generated_ms) / (n - 1)

    @property
    def resume_tokens(self) -> tuple[int, ...]:
        """Token prefix a recompute-on-resume prefill must rebuild."""
        return self.request.prompt + tuple(self.generated)

    def sample(self, logits: np.ndarray) -> int:
        params = self.request.sampling
        if params.top_k is None:
            return int(np.argmax(logits))
        k = min(params.top_k, logits.size)
        top = np.argpartition(logits, -k)[-k:]
        probs = softmax(logits[top] / params.temperature)
        return int(self.rng.choice(top, p=probs))

    def accept(self, token: int, now: float | None = None) -> None:
        """Record a sampled token; *now* lets a batched caller stamp the
        whole step with one clock read instead of one per sequence."""
        if now is None:
            now = time.perf_counter()
        if not self.generated:
            self.first_token_ms = (now - self.submit_time) * 1e3
        self.last_token_time = now
        self.generated.append(token)
        req = self.request
        if req.eos_token_id is not None and token == req.eos_token_id:
            self.finish_reason = "eos"
        elif len(self.generated) >= req.max_new_tokens:
            self.finish_reason = "length"

    def result(self) -> RequestResult:
        n = len(self.generated)
        generated_ms = (
            (self.last_token_time - self.submit_time) * 1e3
            - self.first_token_ms
        )
        return RequestResult(
            request_id=self.request.request_id,
            prompt=self.request.prompt,
            tokens=list(self.generated),
            finish_reason=self.finish_reason or "length",
            prefill_ms=self.prefill_ms,
            first_token_ms=self.first_token_ms,
            latency_ms=(time.perf_counter() - self.submit_time) * 1e3,
            decode_steps=self.decode_steps,
            preemptions=self.preemptions,
            tpot_ms=max(0.0, generated_ms) / (n - 1) if n > 1 else 0.0,
            spec_accepted=self.spec_accepted,
        )


def _build_draft_model(
    target: DecoderModel, spec: SpeculativeConfig
) -> DecoderModel:
    """Construct the speculative draft model from the target plus the
    :class:`~repro.runtime.model.SpeculativeConfig` overrides.

    The draft shares the target's token space (same vocab) and KV
    numerics, but runs on its own *unbounded* private pool: draft KV
    never competes with target sequences for bounded-pool headroom, it
    is simply freed on preemption and recomputed on resume. Prefix
    sharing is off — draft caches are cheap, short-lived, and never
    donate blocks. With no overrides the draft is weight-identical to
    the target (same seed, same shape), which makes greedy proposals
    always agree — the acceptance-rate-1.0 bench configuration.
    """
    cfg, rt = target.config, target.runtime

    def pick(override, inherited):
        return inherited if override is None else override

    draft_cfg = ModelConfig(
        name=f"{cfg.name}-draft",
        hidden=pick(spec.hidden, cfg.hidden),
        ffn=pick(spec.ffn, cfg.ffn),
        layers=pick(spec.layers, cfg.layers),
        heads=pick(spec.heads, cfg.heads),
        kv_heads=pick(spec.kv_heads, cfg.kv_heads),
        vocab=cfg.vocab,
        gated_ffn=cfg.gated_ffn,
    )
    draft_rt = replace(
        rt,
        weight_bits=pick(spec.weight_bits, rt.weight_bits),
        kv_bits=(
            rt.kv_bits if spec.kv_bits == "inherit" else spec.kv_bits
        ),
        seed=pick(spec.seed, rt.seed),
        backend=pick(spec.backend, rt.backend),
        kv_pool_blocks=None,
        prefix_sharing=False,
        prefix_cache_blocks=0,
        prefill_chunk=None,
        speculative=None,
    )
    return DecoderModel(draft_cfg, draft_rt)


class ServingEngine:
    """Continuous-batching scheduler over a :class:`DecoderModel`.

    ``scheduler`` selects the admission policy: a name from
    :data:`~repro.runtime.scheduler.SCHEDULERS` (``"fifo"``, ``"sjf"``,
    ``"memory-aware"``) or any :class:`SchedulerPolicy` instance.
    ``preemption`` selects the eviction policy consulted when a bounded
    pool cannot cover the next decode step: a name from
    :data:`~repro.runtime.scheduler.PREEMPTION_POLICIES`
    (``"priority-remaining"``, ``"latest-first"``) or any
    :class:`PreemptionPolicy` instance.
    """

    def __init__(
        self,
        model: DecoderModel,
        max_batch_size: int = 8,
        scheduler: str | SchedulerPolicy = "fifo",
        preemption: str | PreemptionPolicy = "priority-remaining",
    ) -> None:
        if max_batch_size < 1:
            raise ServingError("max_batch_size must be >= 1")
        self.model = model
        self.max_batch_size = max_batch_size
        self.scheduler = get_scheduler(scheduler)
        self.preemption = get_preemption_policy(preemption)
        #: (request, submit wall-clock time) pairs in arrival order; the
        #: scheduler policy picks which index is admitted next.
        self.waiting: list[tuple[Request, float]] = []
        self.active: list[_Sequence] = []
        #: Admitted sequences mid-way through a chunked prefill: they
        #: hold blocks and a batch slot and advance by at most
        #: ``prefill_chunk`` prompt tokens per step (empty unless the
        #: runtime sets ``prefill_chunk``).
        self.prefilling: list[_Sequence] = []
        #: Swapped-out sequences in eviction order (recompute-on-resume
        #: records: request, generated tokens, sampling RNG, timings).
        self.preempted: list[_Sequence] = []
        self.finished: list[RequestResult] = []
        self._trace: list[StepTrace] = []
        self._prompt_tokens = 0
        self._preemptions = 0
        self._resumes = 0
        self._resume_ms = 0.0
        self._swaps = 0
        self._swap_resumes = 0
        self._swap_bytes = 0
        self._ids: set[str] = set()
        #: Speculative decoding: the draft proposer model and its
        #: per-step proposal count, built from
        #: ``model.runtime.speculative`` (``None`` => plain decoding).
        spec = model.runtime.speculative
        self.draft_model: DecoderModel | None = (
            _build_draft_model(model, spec) if spec is not None else None
        )
        self.spec_k = spec.k if spec is not None else 0

    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Queue a request for admission."""
        limit = self.model.runtime.max_seq_len
        if len(request.prompt) + request.max_new_tokens > limit:
            raise ServingError(
                f"request {request.request_id}: prompt + max_new_tokens "
                f"({len(request.prompt)} + {request.max_new_tokens}) "
                f"exceeds max_seq_len {limit}"
            )
        pool = self.model.kv_pool
        if pool.num_blocks is not None:
            needed = worst_case_blocks(
                len(request.prompt), request.max_new_tokens,
                pool.block_size, self.model.config.layers,
            )
            # A prompt whose leading blocks are held by live sequences
            # never materializes them privately — discount them before
            # declaring the request unservable against its worst-case
            # footprint. Live-only: adopting a *parked* block would
            # re-occupy pool capacity, so counting it here would admit
            # requests that cannot fit even into an empty pool.
            shareable = self.model.shareable_blocks(
                request.prompt, live_only=True
            )
            if needed - shareable > pool.num_blocks:
                raise ServingError(
                    f"request {request.request_id}: needs {needed} KV "
                    f"blocks at full length ({shareable} shareable), "
                    f"pool holds {pool.num_blocks}"
                )
        if request.request_id in self._ids:
            raise ServingError(
                f"duplicate request id {request.request_id!r}"
            )
        self._ids.add(request.request_id)
        self.waiting.append((request, time.perf_counter()))

    @property
    def has_work(self) -> bool:
        return bool(
            self.waiting or self.active or self.prefilling
            or self.preempted
        )

    def _scheduling_context(self) -> SchedulingContext:
        pool = self.model.kv_pool
        free = pool.free_blocks
        if free is not None:
            # Report *unreserved* headroom: blocks the pool still owes
            # already-admitted sequences at their worst-case length
            # (prompt + max_new_tokens) are spoken for, even though
            # they are not allocated yet. Without this, admitting into
            # the interim gap lets an active sequence exhaust the pool
            # at its next block boundary — mid-decode, where it is a
            # hard error instead of back-pressure. A shared partial
            # trailing block carries one extra reserved block per
            # layer: its first append clones it (copy-on-write) while
            # the original stays with its other holders.
            # Mid-prefill sequences reserve like active ones: their
            # partial footprint is already allocated and the rest of
            # their worst case is still owed.
            reserved = 0
            layers = self.model.config.layers
            for seq in self.active + self.prefilling:
                request = seq.request
                worst = worst_case_blocks(
                    len(request.prompt), request.max_new_tokens,
                    pool.block_size, layers,
                )
                allocated = 0
                cow_debt = 0
                for cache in seq.caches:
                    allocated += len(cache.block_ids)
                    if (
                        cache.block_ids
                        and pool.refcount(cache.block_ids[-1]) > 1
                        and cache.length < cache.padded_context()
                    ):
                        cow_debt += 1
                reserved += max(0, worst - allocated) + cow_debt
            free = max(0, free - reserved)
        return SchedulingContext(
            free_slots=(
                self.max_batch_size - len(self.active)
                - len(self.prefilling)
            ),
            free_blocks=free,
            block_size=pool.block_size,
            layers=self.model.config.layers,
            live_shareable=lambda prompt: self.model.shareable_blocks(
                prompt, live_only=True
            ),
        )

    def _free_draft(self, seq: _Sequence) -> None:
        """Return a sequence's draft-model blocks (no-op without any)."""
        if seq.draft_caches is not None:
            self.draft_model.free_caches(seq.draft_caches)
            seq.draft_caches = None

    def _retire(self, seq: _Sequence) -> RequestResult:
        """Record a finished sequence and return its blocks to the pool."""
        result = seq.result()
        self.finished.append(result)
        self.model.free_caches(seq.caches)
        self._free_draft(seq)
        return result

    # ------------------------------------------------------------------
    def _preempt(self, seq: _Sequence) -> None:
        """Evict an active or mid-prefill sequence: release its block
        references and collapse it to a recompute-on-resume record.

        Shared blocks survive for their other holders; this sequence's
        full prompt blocks stay parked in the prefix index, so its own
        resumption re-prefill usually re-adopts them. A sequence
        evicted mid-prefill restarts its prompt from token zero on
        resumption (no decode state exists yet to replay).

        When the runtime sets ``swap_threshold_tokens`` and the cached
        context clears it, the KV blocks are serialized to a swap
        record *before* the pool frees them — resumption then restores
        the slabs (O(context) memcpy) instead of replaying the model
        (O(context) FLOPs). Mid-prefill sequences never swap: they
        have no decode state to preserve and restart from token zero
        either way.
        """
        threshold = self.model.runtime.swap_threshold_tokens
        if (
            threshold is not None
            and seq.generated
            and seq.caches
            and seq.caches[0].length >= threshold
        ):
            seq.swap_record = [cache.serialize() for cache in seq.caches]
            self._swaps += 1
            self._swap_bytes += sum(
                spill_nbytes(p) for p in seq.swap_record
            )
        self.model.free_caches(seq.caches)
        self._free_draft(seq)
        seq.caches = []
        seq.prefill_pos = 0
        seq.preemptions += 1
        self._preemptions += 1
        if seq in self.active:
            self.active.remove(seq)
        else:
            self.prefilling.remove(seq)
        self.preempted.append(seq)

    def _requeue_prefill(self, seq: _Sequence) -> None:
        """Re-admit a sequence that was preempted mid-prefill.

        Nothing was generated yet, so there is no decode state to
        replay — the sequence rejoins the chunked-prefill queue from
        token zero (recompute-on-resume for the prompt; a warm prefix
        index usually turns the recompute back into block-table
        adoption).
        """
        seq.caches = []
        seq.prefill_pos = 0
        self.prefilling.append(seq)
        self._resumes += 1

    def _can_resume(self, seq: _Sequence) -> bool:
        """Does the pool's unreserved headroom cover a resumption?

        The resumed sequence's worst case is its full original
        footprint (``prompt + generated`` rebuilt now, the rest of the
        generation later), minus the full blocks *live* holders are
        already keeping in the pool — parked cached-free matches do
        not count: adopting one costs the same headroom as a fresh
        allocation. A swapped sequence restores into private blocks
        and never adopts, so its headroom is the undiscounted worst
        case (see :func:`resume_blocks_needed`).
        """
        context = self._scheduling_context()
        if context.free_blocks is None:
            return True
        tokens = seq.resume_tokens
        needed = resume_blocks_needed(
            len(tokens), seq.remaining_tokens,
            context.block_size, context.layers,
            live_shareable=self.model.shareable_blocks(
                tokens, live_only=True
            ),
            swapped=seq.swap_record is not None,
        )
        return needed <= context.free_blocks

    def _resume(self, seq: _Sequence) -> RequestResult | None:
        """Re-admit a preempted sequence.

        A sequence carrying a swap record restores its serialized KV
        blocks into freshly allocated pool blocks — O(context) memcpy,
        zero model FLOPs — then runs **one** decode step on its last
        generated token, which yields exactly the logits the eviction
        interrupted (the restored cache holds ``prompt +
        generated[:-1]`` rows, the same state the unpreempted run had
        before that step). If the pool cannot host the restore or the
        follow-up step (:class:`ServingError`), the record is dropped
        and the sequence falls back to recompute-on-resume below,
        which can adopt live shared blocks instead of allocating.

        Recompute-on-resume: the prompt is re-prefilled through the
        prefix index (adopting
        any still-indexed blocks — mostly block-table reconstruction
        for a warm index), then the already-generated tokens are
        **replayed through the decode path**. Replaying rebuilds
        exactly the KV state the unpreempted run had — decode-path
        attention (quantized when ``kv_bits`` is set) writes the same
        rows it wrote the first time — so the next token is sampled
        from the same logits the eviction interrupted and preemption
        is output-transparent (bit-for-bit on the batch-invariant LUT
        backends; the reference backend's BLAS is batch-shape
        sensitive at the ulp level). Returns the completion record if
        that token finished the request, else ``None``.
        """
        if seq.swap_record is not None:
            started = time.perf_counter()
            caches: list[PagedLayerCache] = []
            try:
                for payload in seq.swap_record:
                    caches.append(
                        PagedLayerCache.restore(self.model.kv_pool, payload)
                    )
                seq.caches = caches
                logits = self.model.decode_step(
                    seq.generated[-1], seq.caches
                )
            except ServingError:
                # The pool cannot host the restore right now (another
                # holder may have grown since _can_resume was checked).
                # Release whatever was rebuilt and drop to the
                # recompute path, whose re-prefill adopts live shares.
                self.model.free_caches(caches)
                seq.caches = []
                seq.swap_record = None
            else:
                seq.swap_record = None
                self._resume_ms += (time.perf_counter() - started) * 1e3
                self._resumes += 1
                self._swap_resumes += 1
                seq.accept(seq.sample(logits))
                if seq.finish_reason is not None:
                    return self._retire(seq)
                self.active.append(seq)
                return None
        seq.caches = self.model.new_caches()
        started = time.perf_counter()
        try:
            prompt = np.array(seq.request.prompt)
            self.model.prefill(prompt, seq.caches, logits_from=prompt.size)
            # Replay: the first generated token was sampled at prefill,
            # so every generated token is a decode-step *input*; only
            # the last replay step's logits — the ones the preemption
            # interrupted — are read, so only that step computes them.
            for token in seq.generated[:-1]:
                self.model.decode_batch(
                    np.array([token]), [seq.caches], logits=False
                )
            logits = self.model.decode_step(seq.generated[-1], seq.caches)
        except Exception:
            # A failed resume (true pool exhaustion) must not leak the
            # partially rebuilt blocks.
            self.model.free_caches(seq.caches)
            raise
        self._resume_ms += (time.perf_counter() - started) * 1e3
        self._resumes += 1
        seq.accept(seq.sample(logits))
        if seq.finish_reason is not None:
            return self._retire(seq)
        self.active.append(seq)
        return None

    def _step_block_need(self, seq: _Sequence, rows: int = 1) -> int:
        """Pool blocks a step appending *rows* tokens must allocate for
        *seq*: boundary growth per layer (possibly several blocks for a
        speculative multi-row append), plus one per layer whose shared
        partial trailing block will be copy-on-written first."""
        pool = self.model.kv_pool
        bs = pool.block_size
        need = 0
        for cache in seq.caches:
            grown = -(-(cache.length + rows) // bs) - len(cache.block_ids)
            need += max(0, grown)
            if (
                cache.block_ids
                and pool.refcount(cache.block_ids[-1]) > 1
                and cache.length < cache.padded_context()
            ):
                need += 1
        return need

    # ------------------------------------------------------------------
    def _spec_step_k(self) -> int:
        """Draft tokens this step can speculate per sequence.

        0 means "run a plain decode step": speculation disabled, no
        positional headroom for even one draft row, or a bounded pool
        whose free blocks cannot cover every sequence's transient
        ``k + 1``-row append (the accepted prefix keeps at most that
        many; the rest is truncated back within the step, so the gate
        is actual free blocks, never the admission reservation).
        Falling back never changes the output stream — speculative
        steps are output-identical to plain ones by construction.
        """
        if self.draft_model is None or not self.active:
            return 0
        limit = self.model.runtime.max_seq_len
        k = self.spec_k
        for seq in self.active:
            k = min(k, limit - 1 - seq.caches[0].length)
        if k < 1:
            return 0
        pool = self.model.kv_pool
        if pool.num_blocks is not None:
            needed = sum(
                self._step_block_need(seq, rows=k + 1)
                for seq in self.active
            )
            if needed > pool.free_blocks:
                return 0
        return k

    def _draft_catch_up(self, seqs: list[_Sequence]) -> None:
        """Bring every sequence's draft cache to its decode frontier.

        Each draft must have consumed exactly ``prompt + generated``
        minus the final token (the next decode input). A fresh or
        post-preemption sequence rebuilds the whole history; after a
        fully-accepted speculative step or a plain fallback step the
        gap is one token. The rebuild mirrors how the *target* built
        its cache — prompt tokens through prefill, generated tokens
        through the decode path — so a draft configured identically to
        the target holds the exact same cache bits and its greedy
        proposals always agree. Replay decodes are batched across the
        lagging sequences (the usual case is everyone exactly one
        token behind: one batched step).
        """
        draft = self.draft_model
        histories = []
        for seq in seqs:
            if seq.draft_caches is None:
                seq.draft_caches = draft.new_caches()
            history = seq.request.prompt + tuple(seq.generated)
            have = seq.draft_caches[0].length
            prompt_len = len(seq.request.prompt)
            frontier = len(history) - 1
            if have < prompt_len and have < frontier:
                chunk = np.array(history[have:min(prompt_len, frontier)])
                draft.prefill(chunk, seq.draft_caches, logits_from=chunk.size)
            histories.append(history)
        while True:
            behind = [
                (seq, hist)
                for seq, hist in zip(seqs, histories)
                if seq.draft_caches[0].length < len(hist) - 1
            ]
            if not behind:
                return
            tokens = np.array([
                hist[seq.draft_caches[0].length] for seq, hist in behind
            ])
            draft.decode_batch(
                tokens, [seq.draft_caches for seq, _ in behind], logits=False
            )

    def _spec_step(self, k: int) -> tuple[int, int, list[RequestResult]]:
        """One speculative decode step over the active batch.

        Per sequence: the draft greedily proposes ``k`` tokens, the
        target scores all ``k + 1`` candidate rows (current last token
        + proposals) in one :meth:`DecoderModel.verify_batch` pass, and
        sampling walks the rows exactly as sequential decoding would —
        each row's token is sampled (consuming the same per-request RNG
        draws in the same order), and the walk continues only while the
        sampled token equals the next candidate row's input. Rejected
        rows are rolled back with ``truncate_rows`` on the target *and*
        draft caches, so both pools hold exactly the state a plain run
        would. Returns ``(drafted, accepted_drafts, completions)``.
        """
        draft = self.draft_model
        seqs = list(self.active)
        b = len(seqs)
        self._draft_catch_up(seqs)
        draft_caches = [seq.draft_caches for seq in seqs]
        last = np.array([seq.last_token for seq in seqs])
        proposals = np.empty((b, k), dtype=np.int64)
        cur = last
        for j in range(k):
            logits = draft.decode_batch(cur, draft_caches)
            cur = np.argmax(logits, axis=1)
            proposals[:, j] = cur
        candidates = np.concatenate([last[:, None], proposals], axis=1)
        try:
            logits = self.model.verify_batch(
                candidates, [seq.caches for seq in seqs]
            )
        except Exception:
            # Mirror the plain decode path: a failed batched step
            # leaves per-layer state inconsistent — return all blocks
            # instead of leaking them.
            for seq in seqs:
                self.model.free_caches(seq.caches)
                self._free_draft(seq)
            self.active = []
            raise
        done: list[RequestResult] = []
        still_active: list[_Sequence] = []
        accepted_drafts = 0
        now = time.perf_counter()
        for i, seq in enumerate(seqs):
            m = 0
            for j in range(k + 1):
                token = seq.sample(logits[i, j])
                seq.accept(token, now=now)
                m += 1
                if seq.finish_reason is not None or j == k:
                    break
                if token != int(proposals[i, j]):
                    break
            seq.decode_steps += 1
            seq.spec_accepted += m - 1
            accepted_drafts += m - 1
            # Roll back the rejected candidate rows. The target keeps
            # m consumed rows of the k+1 appended; the draft consumed
            # last + proposals[:k-1] and must keep m of those k rows
            # (when every row was accepted it is one token *behind*
            # instead — the next catch-up prefills it).
            if k + 1 - m:
                for cache in seq.caches:
                    cache.truncate_rows(k + 1 - m)
            if k - m > 0:
                for cache in seq.draft_caches:
                    cache.truncate_rows(k - m)
            if seq.finish_reason is not None:
                done.append(self._retire(seq))
            else:
                still_active.append(seq)
        self.active = still_active
        return b * k, accepted_drafts, done

    # ------------------------------------------------------------------
    def _admit(self) -> list[RequestResult]:
        """Resume preempted sequences, then admit scheduler-selected
        waiting requests into free slots (monolithic prefill inline;
        with ``prefill_chunk`` set, admission only queues the sequence
        for budgeted chunked prefill and sequences preempted
        mid-prefill rejoin that queue).

        Preempted requests hold completed work, so they re-enter ahead
        of new admissions whenever the pool's unreserved headroom
        covers them. The admission policy is re-consulted after every
        admission (pool headroom and slot counts change); ``None``
        stops admission for this step. If nothing is active afterwards
        but preempted work remains, the head resumption is forced —
        the progress guarantee that turns PR 4's stall into forward
        motion (a truly unservable resumption raises instead of
        spinning). Returns requests that completed already at prefill
        or at resumption.
        """
        done: list[RequestResult] = []
        chunked = self.model.runtime.prefill_chunk is not None

        def occupied() -> int:
            return len(self.active) + len(self.prefilling)

        while self.preempted and occupied() < self.max_batch_size:
            if not self._can_resume(self.preempted[0]):
                break
            head = self.preempted.pop(0)
            if head.generated:
                result = self._resume(head)
                if result is not None:
                    done.append(result)
            else:
                # Preempted mid-prefill: no decode state to replay —
                # rejoin the chunked-prefill queue from token zero.
                self._requeue_prefill(head)
        while self.waiting and occupied() < self.max_batch_size:
            choice = self.scheduler.select(
                [
                    WaitingRequest(request, submitted)
                    for request, submitted in self.waiting
                ],
                self._scheduling_context(),
            )
            if choice is None:
                break
            request, submitted = self.waiting.pop(choice)
            seq = _Sequence(request, self.model, submitted)
            if chunked:
                # Chunked prefill: admission only claims the slot; the
                # prompt is processed by _prefill_step under the
                # per-step token budget, interleaved with decodes.
                self.prefilling.append(seq)
                continue
            started = time.perf_counter()
            try:
                logits = self.model.prefill(
                    np.array(request.prompt), seq.caches, logits_from=-1
                )
            except Exception:
                # Return the partially prefilled sequence's blocks so a
                # failed admission (e.g. pool exhaustion under FIFO)
                # doesn't leak pool capacity; the request itself is
                # dropped, active sequences stay resumable.
                self.model.free_caches(seq.caches)
                raise
            seq.prefill_ms = (time.perf_counter() - started) * 1e3
            seq.prefill_pos = len(request.prompt)
            self._prompt_tokens += len(request.prompt)
            seq.accept(seq.sample(logits[-1]))
            if seq.finish_reason is not None:
                done.append(self._retire(seq))
            else:
                self.active.append(seq)
        if not self.active and not self.prefilling and self.preempted:
            head = self.preempted.pop(0)
            if head.generated:
                result = self._resume(head)
                if result is not None:
                    done.append(result)
            else:
                self._requeue_prefill(head)
        if (
            self.waiting and not self.active and not self.prefilling
            and not self.preempted
        ):
            # Nothing is in flight, so no future step can free blocks
            # or change a slot count — if the policy still declines the
            # queue, it declines it forever. Surface the deadlock
            # instead of letting run() spin (reachable when a request
            # admitted through the sharing discount outlives its
            # donors).
            head = self.waiting[0][0]
            raise ServingError(
                f"admission deadlock: {len(self.waiting)} waiting "
                f"request(s), nothing active, and the {self.scheduler.name!r}"
                f" policy declines the head ({head.request_id!r}); the "
                "pool can never satisfy it"
            )
        return done

    def _prefill_chunk(
        self, seq: _Sequence, budget: int
    ) -> tuple[RequestResult | None, int]:
        """Advance one mid-prefill sequence by at most *budget* prompt
        tokens; returns ``(completion, tokens_spent)``.

        The first chunk is preceded by whole-prompt prefix adoption
        (:meth:`DecoderModel.adopt_prompt_prefix`), so chunking adopts
        exactly what a monolithic prefill would. When the final chunk
        lands, the first token is sampled and the sequence joins the
        active batch (or retires if one token was all it needed) —
        only that chunk asks the model for a logits row. On pool
        exhaustion mid-chunk the sequence self-preempts — its blocks
        are released and it restarts later — unless it is the only
        sequence holding anything, in which case the exhaustion is
        genuine and re-raised. Any other failure frees the sequence's
        blocks, drops it from the queue and re-raises.
        """
        prompt = seq.request.prompt
        model = self.model
        started = time.perf_counter()
        try:
            if not seq.caches:
                seq.caches = model.new_caches()
            if seq.prefill_pos == 0:
                seq.prefill_pos = model.adopt_prompt_prefix(
                    np.array(prompt), seq.caches
                )
            take = min(budget, len(prompt) - seq.prefill_pos)
            end = seq.prefill_pos + take
            logits = model.prefill(
                np.array(prompt[seq.prefill_pos:end]),
                seq.caches,
                logits_from=-1 if end == len(prompt) else take,
            )
        except Exception as exc:
            # Pool exhaustion mid-chunk (ServingError): if any other
            # sequence holds blocks, theirs will drain — self-preempt
            # and retry later; alone, nothing can ever free the
            # shortfall. That, and any other fault (a kernel or
            # quantization error), must not leave the sequence queued
            # and holding blocks.
            if isinstance(exc, ServingError) and (
                self.active or len(self.prefilling) > 1
            ):
                self._preempt(seq)
                return None, 0
            self.model.free_caches(seq.caches)
            self.prefilling.remove(seq)
            raise
        seq.prefill_ms += (time.perf_counter() - started) * 1e3
        seq.prefill_pos += take
        if seq.prefill_pos < len(prompt):
            return None, take
        self.prefilling.remove(seq)
        self._prompt_tokens += len(prompt)
        seq.accept(seq.sample(logits[-1]))
        if seq.finish_reason is not None:
            return self._retire(seq), take
        self.active.append(seq)
        return None, take

    def _prefill_step(self) -> list[RequestResult]:
        """Spend this step's ``prefill_chunk`` token budget across the
        in-progress prompts (chunked prefill).

        The budget is split fair-share over the prefilling queue —
        ``max(1, remaining // needy)`` tokens each, re-divided until
        the budget is spent or every prompt is done — so one long
        prompt cannot monopolize the step while short prompts wait
        (head-of-line TTFT). Sequences whose final chunk lands join
        the active batch immediately and decode in this same step.
        """
        done: list[RequestResult] = []
        budget = self.model.runtime.prefill_chunk
        if budget is None or not self.prefilling:
            return done
        remaining = budget
        while remaining > 0 and self.prefilling:
            queue = list(self.prefilling)
            progressed = False
            share = max(1, remaining // len(queue))
            for seq in queue:
                if remaining <= 0:
                    break
                result, spent = self._prefill_chunk(
                    seq, min(share, remaining)
                )
                remaining -= spent
                if spent:
                    progressed = True
                if result is not None:
                    done.append(result)
            if not progressed:
                break
        return done

    def step(self) -> list[RequestResult]:
        """Admit, run one batched decode step, retire finished sequences.

        Before the decode, a bounded pool is checked against the
        step's block needs (boundary allocations + copy-on-write
        clones); if they do not fit, the preemption policy's victims
        are evicted until they do. Returns the requests that finished
        during this step — at the decode step, at prefill, or at a
        resumption.
        """
        done = self._admit()
        done.extend(self._prefill_step())
        if not self.active:
            return done
        pool = self.model.kv_pool
        if pool.num_blocks is not None:
            # Relief valve: preempt until this step's allocations fit.
            # Block-holding mid-prefill sequences go first (latest
            # first — they lose the least completed work and re-adopt
            # most of it through the prefix index); then the preemption
            # policy ranks the active batch. A single remaining active
            # sequence is never preempted — evicting it cannot create
            # headroom its own resumption wouldn't need again, so a
            # genuine exhaustion surfaces in the decode as before.
            while True:
                needed = sum(
                    self._step_block_need(seq) for seq in self.active
                )
                if needed <= pool.free_blocks:
                    break
                holders = [
                    seq for seq in self.prefilling
                    if any(c.block_ids for c in seq.caches)
                ]
                if holders:
                    self._preempt(holders[-1])
                    continue
                if len(self.active) <= 1:
                    break
                order = self.preemption.select_victims(
                    self.active, self._scheduling_context()
                )
                if not order:
                    break
                self._preempt(self.active[order[0]])
        # Entry snapshot for the step trace; appended *after* the step
        # so a speculative step can record its drafted/accepted counts.
        entry = dict(
            step=len(self._trace),
            active=len(self.active),
            waiting=len(self.waiting),
            finished=len(self.finished),
            context_tokens=sum(
                seq.caches[0].length for seq in self.active
            ),
            kv_blocks_used=pool.used_blocks,
            kv_blocks_free=pool.free_blocks,
            preempted=len(self.preempted),
            kv_blocks_shared=pool.shared_in_use,
            prefilling=len(self.prefilling),
        )
        spec_k = self._spec_step_k()
        if spec_k:
            drafted, accepted, spec_done = self._spec_step(spec_k)
            done.extend(spec_done)
            self._trace.append(
                StepTrace(**entry, drafted=drafted, accepted=accepted)
            )
            return done
        tokens = np.array([seq.last_token for seq in self.active])
        caches = [seq.caches for seq in self.active]
        try:
            logits = self.model.decode_batch(tokens, caches)
        except Exception:
            # A failed batched step leaves per-layer cache state
            # inconsistent across the batch; the sequences cannot be
            # resumed, so return their blocks instead of leaking them
            # from the model's shared pool.
            for seq in self.active:
                self.model.free_caches(seq.caches)
                self._free_draft(seq)
            self.active = []
            raise
        # Vectorized accept/trace accounting: one argmax over the whole
        # logits batch (greedy sequences read their row of it — equal to
        # per-row argmax) and one wall-clock read for every acceptance.
        still_active: list[_Sequence] = []
        greedy = np.argmax(logits, axis=1)
        now = time.perf_counter()
        for i, seq in enumerate(self.active):
            seq.decode_steps += 1
            if seq.request.sampling.top_k is None:
                token = int(greedy[i])
            else:
                token = seq.sample(logits[i])
            seq.accept(token, now=now)
            if seq.finish_reason is not None:
                done.append(self._retire(seq))
            else:
                still_active.append(seq)
        self.active = still_active
        self._trace.append(StepTrace(**entry))
        return done

    def run(self, feed=None) -> tuple[list[RequestResult], EngineStats]:
        """Drive the engine until every submitted request completes.

        With *feed* set, the run is **open-loop**: before each step,
        ``feed(step)`` is called with the loop-iteration index and
        returns the requests arriving *now* (submitted before the step
        runs), or ``None`` once the arrival process is exhausted — the
        engine then drains the in-flight work and stops. The step index
        advances every loop iteration, including idle ones where
        nothing is in flight yet, so a feed can map wall-clock arrival
        offsets onto a virtual step clock (trace replay does exactly
        that). Without *feed* the behavior is unchanged: drain whatever
        was submitted beforehand.
        """
        started = time.perf_counter()
        if feed is None:
            while self.has_work:
                self.step()
        else:
            step = 0
            draining = False
            while True:
                if not draining:
                    batch = feed(step)
                    if batch is None:
                        draining = True
                    else:
                        for request in batch:
                            self.submit(request)
                if self.has_work:
                    self.step()
                elif draining:
                    break
                step += 1
        wall = time.perf_counter() - started
        results = list(self.finished)
        tpots = [r.tpot_ms for r in results if len(r.tokens) > 1]
        ttfts = [r.first_token_ms for r in results]
        tpot_p50, tpot_p95, tpot_p99 = percentiles(tpots, (50, 95, 99))
        ttft_p50, ttft_p95, ttft_p99 = percentiles(ttfts, (50, 95, 99))
        stats = EngineStats(
            requests=len(results),
            prompt_tokens=self._prompt_tokens,
            generated_tokens=sum(len(r.tokens) for r in results),
            # Only steps that actually ran a batched decode count; a
            # request finishing at prefill adds no decode step.
            decode_steps=len(self._trace),
            wall_s=wall,
            preemptions=self._preemptions,
            resumes=self._resumes,
            resume_ms_total=self._resume_ms,
            swaps=self._swaps,
            swap_resumes=self._swap_resumes,
            swap_bytes=self._swap_bytes,
            tpot_p50=tpot_p50,
            tpot_p95=tpot_p95,
            tpot_p99=tpot_p99,
            ttft_p50=ttft_p50,
            ttft_p95=ttft_p95,
            ttft_p99=ttft_p99,
            trace=list(self._trace),
        )
        return results, stats


__all__ = [
    "EngineStats",
    "Request",
    "RequestResult",
    "SamplingParams",
    "ServingEngine",
    "StepTrace",
]
