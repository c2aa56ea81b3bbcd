"""Regression tests for latent serving bugs surfaced by the chaos suite.

Two preemption-path bugs, both found by the property-based invariant
suite rather than the feature tests:

* **chunked-prefill head-of-line deadlock** — a preempted request at the
  head of the waiting queue that cannot re-allocate (KV pressure) used to
  block the chunked-prefill continuations queued behind it; those
  continuations hold the very blocks the head is waiting for, so the
  engine starved with work still queued.
* **recompute token over-count** — re-prefilling a preempted sequence
  also wrote the newest sampled token's KV slot, which the next decode
  step then appended again: the sequence ran one slot ahead of token
  accounting (``kv_tokens == prompt + generated`` instead of
  ``prompt + generated - 1``) for the rest of its life.
"""

from __future__ import annotations

from collections import deque

import pytest

from tests.invariants import drain_checked
from repro.hardware.gpus import H100_SXM
from repro.models.zoo import get_model
from repro.perfmodel.inference import InferencePerfModel
from repro.serving.engine import ServingEngine
from repro.serving.kv_cache import PagedKVCache
from repro.serving.request import Request, RequestState, SamplingParams
from repro.serving.scheduler import Scheduler, SchedulerConfig

MODEL = "OLMoE-1B-7B"


@pytest.fixture(scope="module")
def perf():
    return InferencePerfModel(get_model(MODEL), H100_SXM)


class TestChunkedPrefillDeadlock:
    def test_allocation_holder_passes_blocked_head(self):
        """The FCFS exception: a blocked (cannot-allocate) head must not
        stop a chunked continuation that already holds its blocks."""
        kv = PagedKVCache(num_blocks=6, block_size=16)
        sched = Scheduler(SchedulerConfig(
            enable_chunked_prefill=True, chunk_size=32, max_num_seqs=4,
        ), kv)
        # continuation: mid-chunk, holds its full-prompt allocation
        cont = Request(request_id=1, prompt_tokens=64,
                       sampling=SamplingParams(max_tokens=8))
        kv.allocate(1, cont.prefill_target)
        cont.kv_tokens = 32
        # head: preempted, and the pool (2 free blocks) can't readmit it
        head = Request(request_id=0, prompt_tokens=64,
                       sampling=SamplingParams(max_tokens=8))
        head.state = RequestState.PREEMPTED
        sched.waiting = deque([head, cont])

        batch = sched._schedule_prefill()
        assert [r.request_id for r in batch.requests] == [1]
        assert any(r is head for r in sched.waiting)  # head stays queued

    def test_blocked_head_still_blocks_new_admissions(self):
        """The exception is narrow: requests WITHOUT an allocation stay
        FCFS-blocked behind the head (no starvation inversion)."""
        kv = PagedKVCache(num_blocks=6, block_size=16)
        sched = Scheduler(SchedulerConfig(
            enable_chunked_prefill=True, chunk_size=32, max_num_seqs=4,
        ), kv)
        head = Request(request_id=0, prompt_tokens=96,
                       sampling=SamplingParams(max_tokens=8))
        head.state = RequestState.PREEMPTED
        small = Request(request_id=1, prompt_tokens=16,
                        sampling=SamplingParams(max_tokens=8))
        sched.waiting = deque([head, small])

        batch = sched._schedule_prefill()
        assert batch.is_empty
        assert len(sched.waiting) == 2

    def test_chunked_prefill_under_pressure_drains(self, perf):
        """End-to-end shape of the original deadlock: chunked prefill,
        decode-first policy, pool sized to force preemption mid-run."""
        engine = ServingEngine(
            perf,
            scheduler_config=SchedulerConfig(
                max_num_seqs=8, enable_chunked_prefill=True, chunk_size=64,
                policy="decode_first",
            ),
            kv_pool_tokens=1024,
        )
        for i in range(6):
            engine.submit(Request(
                request_id=i, prompt_tokens=192,
                sampling=SamplingParams(max_tokens=32),
                arrival_time=0.0,
            ))
        result = drain_checked(engine)
        assert result.availability == 1.0


class TestRecomputeTokenConservation:
    def test_preempted_and_resumed_requests_conserve_tokens(self, perf):
        """A run that preempts must still satisfy
        ``kv_tokens == prompt + generated - 1`` for every finished request
        (drain_checked enforces it; this test additionally demands that
        preemption actually happened, so the regression cannot pass
        vacuously)."""
        engine = ServingEngine(
            perf,
            scheduler_config=SchedulerConfig(max_num_seqs=8),
            kv_pool_tokens=768,
        )
        for i in range(5):
            engine.submit(Request(
                request_id=i, prompt_tokens=128,
                sampling=SamplingParams(max_tokens=64),
                arrival_time=0.0,
            ))
        result = drain_checked(engine)
        assert result.num_preemptions > 0
        for req in result.requests:
            assert req.is_finished
            assert req.kv_tokens == req.prompt_tokens + req.generated_tokens - 1

    def test_resumed_request_does_not_replay_first_token(self, perf):
        """After a recompute the resumed sequence must not re-sample its
        'first token' (generated_tokens stays monotone through preemption)."""
        engine = ServingEngine(
            perf,
            scheduler_config=SchedulerConfig(max_num_seqs=8),
            kv_pool_tokens=768,
        )
        for i in range(5):
            engine.submit(Request(
                request_id=i, prompt_tokens=128,
                sampling=SamplingParams(max_tokens=64),
                arrival_time=0.0,
            ))
        result = drain_checked(engine)
        preempted = [r for r in result.requests if r.num_preemptions > 0]
        assert preempted
        for req in preempted:
            assert req.generated_tokens == req.sampling.max_tokens
