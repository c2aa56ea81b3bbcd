"""Prefix-caching paged KV cache (vLLM automatic prefix caching).

Extends the paged allocator with content-addressed block sharing: a
sequence's prompt is described by a list of per-block *hashes* (one per
``block_size`` tokens); full blocks whose hash is already resident are
shared by bumping a reference count instead of re-prefilled.  Freed blocks
whose content may be reused are parked in an LRU pool and only truly
evicted when the allocator runs dry — so a popular system prompt's KV
survives across requests.

The scheduler consumes ``cached_prefix_tokens`` to skip the prefill work
for shared blocks, which is exactly where the production win (TTFT for
templated prompts) comes from.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.serving.kv_cache import DEFAULT_BLOCK_SIZE, BlockTable, PagedKVCache

__all__ = ["PrefixCachingKVCache", "PrefixStats"]


@dataclass
class PrefixStats:
    """Hit/miss counters for the prefix cache."""

    lookups: int = 0
    hits: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class PrefixCachingKVCache(PagedKVCache):
    """Paged KV cache with content-hash block sharing.

    Sequences allocated through :meth:`allocate_with_prefix` share full
    prompt blocks by hash; everything else behaves like the base
    allocator (decode growth, free, watermarks).

    Bookkeeping is flat int maps keyed by content hash: ``_block_of``
    and ``_refs`` hold the resident (referenced) content's block and
    reference count, ``_reusable`` the unreferenced content still valid,
    in LRU order.  A sequence remembers the hashes it holds references
    on, in table order.  Those blocks are the table's prefix unless the
    allocation met cached content after its first miss; such sequences
    are listed in ``_scattered`` and freed block by block.
    """

    def __init__(self, num_blocks: int, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        super().__init__(num_blocks, block_size)
        self._block_of: dict[int, int] = {}  # resident hash -> block
        self._refs: dict[int, int] = {}  # resident hash -> refcount
        # refcount-0 content still valid, LRU order: hash -> block
        self._reusable: OrderedDict[int, int] = OrderedDict()
        self._seq_shared: dict[int, list[int]] = {}  # seq -> held hashes
        self._scattered: set[int] = set()
        self.stats = PrefixStats()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    @property
    def free_blocks(self) -> int:  # type: ignore[override]
        """Truly free plus evictable (refcount-0 cached) blocks."""
        return len(self._free) + len(self._reusable)

    def _take_free_block(self) -> int:
        if self._free:
            return self._free.pop()
        if self._reusable:
            # evict the least-recently-used cached block
            self.stats.evictions += 1
            return self._reusable.popitem(last=False)[1]
        raise MemoryError("KV pool exhausted")

    def refcounts(self) -> dict[int, int]:
        """``{block: refcount}`` of the resident shared content (blocks of
        unreferenced cached content are in the reusable pool instead)."""
        refs = self._refs
        return {block: refs[h] for h, block in self._block_of.items()}

    # ------------------------------------------------------------------ #
    # prefix-aware allocation
    # ------------------------------------------------------------------ #

    def cached_prefix_tokens(self, block_hashes: tuple[int, ...]) -> int:
        """Tokens of the prompt prefix already resident (full blocks whose
        hash hits, counted from the front until the first miss)."""
        cached = 0
        for h in block_hashes:
            if h in self._block_of or h in self._reusable:
                cached += self.block_size
            else:
                break
        return cached

    def allocate_with_prefix(
        self, seq_id: int, num_tokens: int, block_hashes: tuple[int, ...]
    ) -> int:
        """Allocate ``num_tokens`` for ``seq_id``, sharing hash-matching
        prompt blocks.  Returns the number of prefix tokens served from
        cache (multiple of ``block_size``).

        ``block_hashes`` describes the leading *full* blocks of the prompt;
        trailing partial blocks and generated tokens always get private
        blocks.
        """
        if seq_id in self._tables:
            raise ValueError(f"sequence {seq_id} already allocated")
        if num_tokens <= 0:
            raise ValueError("num_tokens must be positive")
        max_hashed = num_tokens // self.block_size
        if len(block_hashes) > max_hashed:
            raise ValueError(
                f"{len(block_hashes)} block hashes exceed the {max_hashed} "
                f"full blocks of a {num_tokens}-token prompt"
            )
        if len(set(block_hashes)) != len(block_hashes):
            raise ValueError(
                "duplicate block hashes — prefix hashes must incorporate "
                "the preceding context and therefore be unique per request"
            )
        need_total = self.blocks_needed(num_tokens)
        block_of = self._block_of
        refs = self._refs
        reusable = self._reusable

        # the hit streak: resident or reusable content, from the front
        stats = self.stats
        stats.lookups += len(block_hashes)
        blocks: list[int] = []
        for h in block_hashes:
            block = block_of.get(h)
            if block is not None:
                refs[h] += 1
            else:
                block = reusable.pop(h, None)
                if block is None:
                    break
                block_of[h] = block
                refs[h] = 1
            blocks.append(block)
        hits = len(blocks)
        stats.hits += hits
        shared = list(block_hashes[:hits])

        # the misses: a fresh block each, registered for future sharers
        # unless the content is cached already, resident or parked in the
        # reusable pool (then the copy stays private and the cached
        # content stays where it is)
        for h in block_hashes[hits:]:
            block = self._take_free_block()
            blocks.append(block)
            if h in block_of or h in reusable:
                self._scattered.add(seq_id)
            else:
                block_of[h] = block
                refs[h] = 1
                shared.append(h)
        # private blocks for the unhashed remainder (bulk take: same pop
        # order as one-at-a-time, see _take_free_blocks)
        if len(blocks) < need_total:
            blocks.extend(self._take_free_blocks(need_total - len(blocks)))

        self._tables[seq_id] = BlockTable(blocks=blocks, num_tokens=num_tokens)
        self._seq_shared[seq_id] = shared
        self._observe("allocate", seq_id, need_total - len(shared))
        return hits * self.block_size

    def free(self, seq_id: int) -> None:  # type: ignore[override]
        """Release a sequence; shared blocks decrement refcounts and park
        in the reusable pool when they reach zero."""
        table = self._tables.pop(seq_id, None)
        if table is None:
            raise KeyError(f"sequence {seq_id} has no allocation")
        blocks = table.blocks
        shared = self._seq_shared.pop(seq_id, ())
        block_of = self._block_of
        if seq_id in self._scattered:
            self._scattered.discard(seq_id)
            held = {block_of[h] for h in shared}
            self._free.extend(b for b in reversed(blocks) if b not in held)
        else:
            # held blocks are the table's prefix: the private tail returns
            # in one extend (the free list and the reusable pool are
            # separate, so interleaving them per block changes nothing)
            self._free.extend(reversed(blocks[len(shared):]))
        refs = self._refs
        reusable = self._reusable
        for h in reversed(shared):
            left = refs[h] - 1
            if left:
                refs[h] = left
            else:
                del refs[h]
                reusable[h] = block_of.pop(h)
        self._observe("free", seq_id, len(blocks))

    def reset(self) -> None:  # type: ignore[override]
        super().reset()
        self._block_of.clear()
        self._refs.clear()
        self._reusable.clear()
        self._seq_shared.clear()
        self._scattered.clear()
        self.stats = PrefixStats()
