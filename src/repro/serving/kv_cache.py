"""Paged KV-cache block manager (the PagedAttention substrate).

Device KV memory is divided into fixed-size blocks of ``block_size`` token
slots.  Each sequence owns a block table; blocks are allocated on demand as
the sequence grows and returned on free.  This is the allocator behind
vLLM's continuous batching: the scheduler asks ``can_allocate`` /
``can_append_slot`` before admitting or stepping sequences and preempts
when the pool runs dry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.instrument import Instrumentation

__all__ = ["BlockTable", "PagedKVCache", "DEFAULT_BLOCK_SIZE"]

DEFAULT_BLOCK_SIZE = 16


@dataclass
class BlockTable:
    """Blocks owned by one sequence plus its filled-slot count."""

    blocks: list[int]
    num_tokens: int = 0

    def slots(self, block_size: int) -> int:
        return len(self.blocks) * block_size


class PagedKVCache:
    """Fixed-pool block allocator with per-sequence block tables."""

    def __init__(self, num_blocks: int, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if num_blocks <= 0:
            raise ValueError(f"num_blocks must be positive, got {num_blocks}")
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.num_blocks = num_blocks
        self.block_size = block_size
        self._free: list[int] = list(range(num_blocks - 1, -1, -1))
        self._tables: dict[int, BlockTable] = {}
        self.reserved_blocks = 0
        """Blocks withheld from allocation (fault injection: a lost
        device's share of the pool, or a transient pressure spike).  The
        reservation is logical — already-allocated blocks stay valid, but
        new allocations only see ``available_blocks``.  Always 0 outside
        fault experiments, so the default path is untouched."""
        self.obs: Instrumentation | None = None
        """Optional observability handle (set by the owning engine); when
        active, ``allocate``, ``append_slots`` and ``free`` each emit a
        span at the simulated time the handle mirrors and meter the KV
        metrics as one operation.  ``try_append_slot`` does neither: the
        scheduler meters a decode pass's appends through
        :meth:`observe_appends`, so the unobserved decode hot call pays
        nothing for the hook."""

    def _observe(self, op: str, seq_id: int, blocks: int) -> None:
        obs = self.obs
        if obs is None or not obs.active:
            return
        tracer = obs.tracer
        tracer.begin(f"kv.{op}", obs.now, cat="kv", seq_id=seq_id, blocks=blocks)
        tracer.end(obs.now)
        obs.record_iterations(kv_op=op, kv_blocks=blocks,
                              kv_utilization=self.utilization)

    def observe_appends(self, seq_ids: list[int], blocks: int) -> None:
        """Meter a run of successful :meth:`try_append_slot` calls —
        ``seq_ids`` in call order, ``blocks`` popped among them — as one
        ``record_iterations`` commit: the same counter values, final
        utilization and metric creation order as one ``append`` hook per
        call, provided no other KV operation ran in between and an
        allocation has already created ``kv_utilization`` (every sequence
        is allocated before it grows).  An enabled span tracer still gets
        one ``kv.append`` span per call."""
        obs = self.obs
        if not seq_ids or obs is None or not obs.active:
            return
        tracer = obs.tracer
        if tracer.enabled:
            tables = self._tables
            block_size = self.block_size
            for seq_id in seq_ids:
                # no table holds a whole spare block, so a one-slot append
                # popped one exactly when it filled that block's first slot
                popped = int((tables[seq_id].num_tokens - 1) % block_size == 0)
                tracer.begin("kv.append", obs.now, cat="kv", seq_id=seq_id,
                             blocks=popped)
                tracer.end(obs.now)
        obs.record_iterations(kv_op="append", kv_ops=len(seq_ids),
                              kv_blocks=blocks,
                              kv_utilization=self.utilization)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def used_blocks(self) -> int:
        return self.num_blocks - self.free_blocks

    @property
    def available_blocks(self) -> int:
        """Free blocks net of the fault reservation (what allocation and
        growth may actually consume)."""
        return max(0, self.free_blocks - self.reserved_blocks)

    @property
    def utilization(self) -> float:
        return self.used_blocks / self.num_blocks

    def reserve(self, num_blocks: int) -> None:
        """Withhold ``num_blocks`` more blocks from future allocation (the
        reservation may exceed what is currently free; in-use blocks drain
        into it as sequences free)."""
        if num_blocks < 0:
            raise ValueError("num_blocks must be non-negative")
        self.reserved_blocks += num_blocks

    def release_reserved(self, num_blocks: int) -> None:
        """Return previously reserved blocks to the allocatable pool."""
        if num_blocks < 0 or num_blocks > self.reserved_blocks:
            raise ValueError(
                f"cannot release {num_blocks} blocks: {self.reserved_blocks} reserved"
            )
        self.reserved_blocks -= num_blocks

    def blocks_needed(self, num_tokens: int) -> int:
        return math.ceil(num_tokens / self.block_size)

    def can_allocate(self, num_tokens: int, watermark_blocks: int = 0) -> bool:
        """Whether a new sequence of ``num_tokens`` fits, keeping a reserve
        of ``watermark_blocks`` free (vLLM's anti-thrash watermark)."""
        return self.blocks_needed(num_tokens) + watermark_blocks <= self.available_blocks

    def has_sequence(self, seq_id: int) -> bool:
        return seq_id in self._tables

    def num_tokens(self, seq_id: int) -> int:
        return self._table(seq_id).num_tokens

    def block_table(self, seq_id: int) -> tuple[int, ...]:
        return tuple(self._table(seq_id).blocks)

    def _table(self, seq_id: int) -> BlockTable:
        try:
            return self._tables[seq_id]
        except KeyError:
            raise KeyError(f"sequence {seq_id} has no allocation") from None

    def _take_free_block(self) -> int:
        """Pop one free block (subclasses may evict cached content here)."""
        return self._free.pop()

    def _take_free_blocks(self, need: int) -> list[int]:
        """Pop ``need`` free blocks, bulk-slicing the free list for the
        common all-free case.  The slice reproduces the exact id sequence
        ``need`` successive :meth:`_take_free_block` calls would return
        (both the base pool and the prefix cache drain ``_free`` before
        evicting), so allocation order — and with it every downstream
        digest — is unchanged."""
        free = self._free
        n = min(need, len(free))
        blocks = free[-1 : -n - 1 : -1] if n else []
        del free[len(free) - n:]
        for _ in range(need - n):
            blocks.append(self._take_free_block())
        return blocks

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def allocate(self, seq_id: int, num_tokens: int) -> None:
        """Allocate blocks for a new sequence holding ``num_tokens``."""
        if seq_id in self._tables:
            raise ValueError(f"sequence {seq_id} already allocated")
        if num_tokens <= 0:
            raise ValueError("num_tokens must be positive")
        need = self.blocks_needed(num_tokens)
        if need > self.available_blocks:
            raise MemoryError(
                f"KV pool exhausted: need {need} blocks, "
                f"{self.available_blocks} available"
            )
        blocks = self._take_free_blocks(need)
        self._tables[seq_id] = BlockTable(blocks=blocks, num_tokens=num_tokens)
        self._observe("allocate", seq_id, need)

    def can_append_slots(self, seq_id: int, num_new_tokens: int = 1) -> bool:
        table = self._table(seq_id)
        free_slots = table.slots(self.block_size) - table.num_tokens
        extra = max(0, num_new_tokens - free_slots)
        return self.blocks_needed(extra) <= self.available_blocks if extra else True

    def append_slots(self, seq_id: int, num_new_tokens: int = 1) -> None:
        """Grow a sequence by ``num_new_tokens`` slots (decode step or
        chunked-prefill continuation)."""
        if num_new_tokens <= 0:
            raise ValueError("num_new_tokens must be positive")
        table = self._table(seq_id)
        free_slots = table.slots(self.block_size) - table.num_tokens
        extra_tokens = max(0, num_new_tokens - free_slots)
        need = self.blocks_needed(extra_tokens)
        if need > self.available_blocks:
            raise MemoryError(
                f"KV pool exhausted appending to seq {seq_id}: need {need} "
                f"blocks, {self.available_blocks} available"
            )
        for _ in range(need):
            table.blocks.append(self._take_free_block())
        table.num_tokens += num_new_tokens
        self._observe("append", seq_id, need)

    def try_append_slot(self, seq_id: int) -> bool:
        """``can_append_slots(seq_id, 1)`` + ``append_slots(seq_id, 1)``
        fused to one table lookup — the scheduler's per-sequence decode
        hot call.  Returns ``False`` (state untouched) instead of raising
        when growth would need a block the pool cannot provide; otherwise
        grows the sequence by one slot.  Unlike ``append_slots`` it does
        not observe: the caller meters its appends in bulk through
        :meth:`observe_appends`."""
        table = self._tables.get(seq_id)
        if table is None:
            raise KeyError(f"sequence {seq_id} has no allocation")
        if len(table.blocks) * self.block_size - table.num_tokens >= 1:
            table.num_tokens += 1
            return True
        if self.available_blocks < 1:
            return False
        table.blocks.append(self._take_free_block())
        table.num_tokens += 1
        return True

    def append_block(self, table: BlockTable) -> None:
        """Grow ``table`` by one block from the pool — the block-crossing
        branch of :meth:`append_slots`, split out so the engine fast path
        can apply a precomputed crossing schedule.  Pops through
        :meth:`_take_free_block`, so subclass eviction (prefix caching)
        sees the identical request stream; the caller owns availability
        checks, ``num_tokens`` bookkeeping and observability."""
        table.blocks.append(self._take_free_block())

    def free(self, seq_id: int) -> None:
        """Return a sequence's blocks to the pool."""
        table = self._tables.pop(seq_id, None)
        if table is None:
            raise KeyError(f"sequence {seq_id} has no allocation")
        self._free.extend(reversed(table.blocks))
        self._observe("free", seq_id, len(table.blocks))

    def reset(self) -> None:
        self._free = list(range(self.num_blocks - 1, -1, -1))
        self._tables.clear()
        self.reserved_blocks = 0
