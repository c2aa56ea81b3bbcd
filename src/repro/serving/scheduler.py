"""Continuous-batching scheduler (vLLM-style iteration-level scheduling).

Each engine iteration the scheduler emits one :class:`ScheduledBatch`:

* **prefill batch** — waiting/preempted requests are admitted FCFS while
  the KV pool can hold their prompts and the token budget
  (``max_num_batched_tokens``) is not exceeded;
* otherwise a **decode batch** — every running sequence advances one token.

When a decode step cannot grow some sequence (KV pool dry), the most
recently admitted sequence is preempted by recomputation and requeued —
exactly vLLM's default policy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.serving.kv_cache import PagedKVCache
from repro.serving.request import Request, RequestState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.instrument import Instrumentation

__all__ = ["SchedulerConfig", "ScheduledBatch", "Scheduler"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduler limits (vLLM knob names).

    ``policy`` selects which phase an iteration prefers when both are
    possible: ``"prefill_first"`` (vLLM v0 — new requests jump the queue,
    best TTFT) or ``"decode_first"`` (running sequences advance before new
    admissions, best ITL/tail-token latency).
    """

    max_num_seqs: int = 256
    max_num_batched_tokens: int = 8192
    watermark_blocks: int = 1
    enable_chunked_prefill: bool = False
    chunk_size: int = 2048
    policy: str = "prefill_first"

    def __post_init__(self) -> None:
        if self.max_num_seqs <= 0:
            raise ValueError("max_num_seqs must be positive")
        if self.max_num_batched_tokens <= 0:
            raise ValueError("max_num_batched_tokens must be positive")
        if self.watermark_blocks < 0:
            raise ValueError("watermark_blocks must be non-negative")
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.policy not in ("prefill_first", "decode_first"):
            raise ValueError(
                f"policy must be 'prefill_first' or 'decode_first', "
                f"got {self.policy!r}"
            )


@dataclass
class ScheduledBatch:
    """One engine iteration's work."""

    phase: str  # "prefill" | "decode"
    requests: list[Request]
    num_tokens: int
    """New tokens processed this iteration (prompt tokens or one per seq)."""
    preempted: list[Request] = field(default_factory=list)

    @property
    def batch_size(self) -> int:
        return len(self.requests)

    @property
    def is_empty(self) -> bool:
        return not self.requests


class Scheduler:
    """FCFS continuous-batching scheduler over a paged KV pool."""

    def __init__(self, config: SchedulerConfig, kv_cache: PagedKVCache,
                 instrumentation: "Instrumentation | None" = None) -> None:
        self.config = config
        self.kv = kv_cache
        self.waiting: deque[Request] = deque()
        self.running: list[Request] = []
        self.obs = instrumentation

    # ------------------------------------------------------------------ #

    def add_request(self, request: Request) -> None:
        if request.state not in (RequestState.WAITING, RequestState.PREEMPTED):
            raise ValueError(
                f"request {request.request_id} in state {request.state} cannot be queued"
            )
        self.waiting.append(request)

    @property
    def has_unfinished(self) -> bool:
        return bool(self.waiting or self.running)

    @property
    def num_running(self) -> int:
        return len(self.running)

    # ------------------------------------------------------------------ #

    def schedule(self) -> ScheduledBatch:
        """Produce the next iteration's batch (may be empty if starved)."""
        if self.config.policy == "decode_first" and self.running:
            decode = self._schedule_decode()
            if not decode.is_empty:
                return decode
        prefill = self._schedule_prefill()
        if not prefill.is_empty:
            return prefill
        return self._schedule_decode()

    def _prefill_tokens_for(self, req: Request) -> int:
        """Tokens of ``req`` to prefill this iteration (whole prompt, or one
        chunk under chunked prefill)."""
        remaining = req.remaining_prefill
        if self.config.enable_chunked_prefill:
            return min(remaining, self.config.chunk_size)
        return remaining

    def _schedule_prefill(self) -> ScheduledBatch:
        batch: list[Request] = []
        tokens = 0
        # FCFS scan with one exception: once the queue head cannot be
        # admitted (KV pressure), requests that already HOLD their
        # allocation — chunked-prefill continuations requeued behind a
        # preempted head — may still continue, since they need no new
        # blocks.  Strict head-blocking here deadlocks: the preempted head
        # cannot allocate precisely because the continuations behind it
        # hold the blocks it is waiting for, and with nothing running the
        # engine starves (latent bug surfaced by the chaos invariant
        # suite).  When nothing is allocation-blocked the scan is
        # identical to plain FCFS.
        blocked = False
        scheduled: list[Request] = []
        for req in self.waiting:
            holds_allocation = self.kv.has_sequence(req.request_id)
            if blocked and not holds_allocation:
                continue
            take = self._prefill_tokens_for(req)
            if batch and tokens + take > self.config.max_num_batched_tokens:
                break
            if len(self.running) + len(batch) + 1 > self.config.max_num_seqs:
                break
            if not holds_allocation:
                # admit: the whole prompt's KV must fit (vLLM allocates the
                # full prompt at admission even under chunked prefill)
                if not self.kv.can_allocate(
                    req.prefill_target, self.config.watermark_blocks
                ):
                    blocked = True
                    continue
                if req.prompt_block_hashes and hasattr(self.kv, "allocate_with_prefix"):
                    cached = self.kv.allocate_with_prefix(
                        req.request_id, req.prefill_target,
                        req.prompt_block_hashes,
                    )
                    # at least the final position must be recomputed so the
                    # engine has logits to sample the first token from
                    req.kv_tokens = min(cached, req.prefill_target - 1)
                    take = self._prefill_tokens_for(req)
                else:
                    self.kv.allocate(req.request_id, req.prefill_target)
            scheduled.append(req)
            req.state = RequestState.RUNNING
            obs = self.obs
            if obs is not None and obs.active and req.first_scheduled_time is None:
                obs.metrics.counter(
                    "scheduler_admissions_total",
                    "requests admitted from the waiting queue",
                ).inc()
                obs.metrics.histogram(
                    "queue_wait_seconds",
                    "arrival-to-first-schedule wait",
                ).observe(max(0.0, obs.now - req.arrival_time))
            batch.append(req)
            tokens += take
            if not self.config.enable_chunked_prefill and tokens >= self.config.max_num_batched_tokens:
                break
        if scheduled:
            taken = set(map(id, scheduled))
            self.waiting = deque(r for r in self.waiting if id(r) not in taken)
        return ScheduledBatch(phase="prefill", requests=batch, num_tokens=tokens)

    def _schedule_decode(self) -> ScheduledBatch:
        # grow each running sequence by one slot, preempting LIFO on pressure
        kv = self.kv
        obs = self.obs
        metered = obs is not None and obs.active
        runnable: list[Request] = list(self.running)
        victims: list[Request] = []
        idle: list[Request] = []  # visited without appending (preempted)
        # the pass's appends are metered in bulk: runnable[start:] minus
        # ``idle`` appended since the last commit, popping the blocks the
        # pool lost since ``free_mark``.  The appends counted so far are
        # committed before each preemption's free, so metrics see the KV
        # operations in the order they ran.
        start = 0
        free_mark = kv.free_blocks if metered else 0
        for req in runnable:
            if req in victims:
                idle.append(req)
                continue
            while not kv.try_append_slot(req.request_id):
                # free the most recently admitted other sequence; if none is
                # left, this sequence itself yields (recompute later)
                victim = next((r for r in reversed(runnable)
                               if r is not req and r not in victims), req)
                victims.append(victim)
                if metered:
                    pos = next(i for i, r in enumerate(runnable) if r is req)
                    self._observe_appends(runnable[start:pos], idle, free_mark)
                    start = pos
                self._preempt(victim)
                free_mark = kv.free_blocks
                if victim is req:
                    idle.append(req)
                    break
        if metered:
            self._observe_appends(runnable[start:], idle, free_mark)
        if victims:
            self.running = [r for r in self.running if r not in victims]
        return ScheduledBatch(
            phase="decode",
            requests=list(self.running),
            num_tokens=len(self.running),
            preempted=victims,
        )

    def _observe_appends(self, visited: list[Request], idle: list[Request],
                         free_mark: int) -> None:
        """Commit the appends of ``visited`` (bar the ``idle`` ones) as
        one KV metering call, ``free_mark`` being the free-block count
        before them."""
        self.kv.observe_appends(
            [r.request_id for r in visited if r not in idle],
            free_mark - self.kv.free_blocks)

    def _preempt(self, req: Request) -> None:
        self.kv.free(req.request_id)
        req.reset_for_recompute()
        self.waiting.appendleft(req)
        obs = self.obs
        if obs is not None and obs.active:
            obs.metrics.counter(
                "scheduler_preemptions_total",
                "recompute preemptions under KV pressure",
            ).inc()
            obs.tracer.instant("preempt", obs.now, cat="scheduler",
                               request_id=req.request_id)
            if obs.reqtrace is not None:
                obs.reqtrace.on_preempt(req, obs.now)

    # ------------------------------------------------------------------ #

    def on_prefill_done(self, batch: ScheduledBatch) -> None:
        """Advance KV bookkeeping after a prefill iteration."""
        for req in batch.requests:
            take = self._prefill_tokens_for(req)
            req.kv_tokens += take
            if req.is_prefill_pending:
                # chunked prefill: requeue at the front to continue next time
                req.state = RequestState.WAITING
                self.waiting.appendleft(req)
            else:
                self.running.append(req)

    def on_decode_done(self, batch: ScheduledBatch, finished: list[Request]) -> None:
        """Remove finished sequences and release their KV."""
        for req in finished:
            req.state = RequestState.FINISHED
            self.kv.free(req.request_id)
            self.running.remove(req)

    # ------------------------------------------------------------------ #
    # fault-injection support
    # ------------------------------------------------------------------ #

    def evict(self, req: Request) -> None:
        """Forcibly remove ``req`` from the scheduler (fault kill),
        releasing any KV it holds.  The caller decides what happens to the
        request next (retry resubmission or terminal failure)."""
        if any(r is req for r in self.running):
            self.running = [r for r in self.running if r is not req]
        elif any(r is req for r in self.waiting):
            self.waiting = deque(r for r in self.waiting if r is not req)
        if self.kv.has_sequence(req.request_id):
            self.kv.free(req.request_id)

    def never_schedulable(self) -> list[Request]:
        """Waiting requests that cannot be admitted even by an otherwise
        empty pool (shape vs. ``num_blocks`` net of the fault reservation
        and watermark) — candidates for fail-with-reason instead of an
        engine livelock."""
        usable = self.kv.num_blocks - self.kv.reserved_blocks \
            - self.config.watermark_blocks
        doomed = []
        for req in self.waiting:
            if self.kv.has_sequence(req.request_id):
                continue  # holds its allocation; always resumable
            if self.kv.blocks_needed(req.prefill_target) > usable:
                doomed.append(req)
        return doomed
