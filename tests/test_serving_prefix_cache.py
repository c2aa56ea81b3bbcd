"""Tests for repro.serving.prefix_cache and its scheduler/engine integration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.gpus import H100_SXM
from repro.models.zoo import OLMOE_1B_7B
from repro.perfmodel.inference import InferencePerfModel
from repro.serving.engine import ServingEngine
from repro.serving.prefix_cache import PrefixCachingKVCache
from repro.serving.request import Request, SamplingParams

BS = 16  # block size used throughout


@pytest.fixture
def cache():
    return PrefixCachingKVCache(num_blocks=32, block_size=BS)


class TestSharing:
    def test_first_request_registers(self, cache):
        cached = cache.allocate_with_prefix(1, 4 * BS, (101, 102, 103))
        assert cached == 0
        assert cache.stats.hits == 0
        assert cache.used_blocks == 4

    def test_second_request_shares(self, cache):
        cache.allocate_with_prefix(1, 4 * BS, (101, 102, 103))
        cached = cache.allocate_with_prefix(2, 4 * BS, (101, 102, 103))
        assert cached == 3 * BS
        assert cache.stats.hit_rate == pytest.approx(0.5)
        # 4 + 1 new private block (shared 3)
        assert cache.used_blocks == 5
        assert cache.block_table(1)[:3] == cache.block_table(2)[:3]

    def test_partial_prefix_match(self, cache):
        cache.allocate_with_prefix(1, 4 * BS, (101, 102, 103))
        cached = cache.allocate_with_prefix(2, 4 * BS, (101, 202, 203))
        assert cached == BS  # only the first block matches

    def test_miss_then_hit_stays_private(self, cache):
        """After the first miss, later matching hashes are not shared
        (their content depends on the differing prefix)."""
        cache.allocate_with_prefix(1, 3 * BS, (101, 102))
        cached = cache.allocate_with_prefix(2, 3 * BS, (999, 102))
        assert cached == 0
        assert set(cache.block_table(1)).isdisjoint(cache.block_table(2))

    def test_duplicate_hashes_rejected(self, cache):
        with pytest.raises(ValueError, match="duplicate"):
            cache.allocate_with_prefix(1, 4 * BS, (7, 7))

    def test_too_many_hashes_rejected(self, cache):
        with pytest.raises(ValueError, match="exceed"):
            cache.allocate_with_prefix(1, BS + 1, (1, 2))


class TestLifecycle:
    def test_free_keeps_cached_content(self, cache):
        cache.allocate_with_prefix(1, 3 * BS, (11, 12))
        cache.free(1)
        # content parked as reusable: a new request still hits
        cached = cache.allocate_with_prefix(2, 3 * BS, (11, 12))
        assert cached == 2 * BS

    def test_refcounted_free(self, cache):
        cache.allocate_with_prefix(1, 2 * BS, (11,))
        cache.allocate_with_prefix(2, 2 * BS, (11,))
        cache.free(1)
        # block still referenced by seq 2: a third sharer hits it
        assert cache.allocate_with_prefix(3, 2 * BS, (11,)) == BS
        cache.free(2)
        cache.free(3)
        assert cache.free_blocks == 32

    def test_eviction_under_pressure(self, cache):
        cache.allocate_with_prefix(1, 16 * BS, tuple(range(100, 116)))
        cache.free(1)  # all 16 blocks reusable
        # a non-matching allocation of 32 blocks must evict cached content
        cache.allocate(2, 32 * BS)
        assert cache.stats.evictions > 0
        # evicted content no longer hits
        cache.free(2)
        assert cache.allocate_with_prefix(3, 2 * BS, (100,)) in (0, BS)

    def test_grows_like_base_allocator(self, cache):
        cache.allocate_with_prefix(1, 2 * BS, (5,))
        cache.append_slots(1, BS)
        assert cache.num_tokens(1) == 3 * BS

    def test_reset_clears_cache(self, cache):
        cache.allocate_with_prefix(1, 2 * BS, (5,))
        cache.reset()
        assert cache.allocate_with_prefix(2, 2 * BS, (5,)) == 0

    def test_parked_hash_after_first_miss_is_not_stranded(self):
        """Content parked in the reusable pool and met again after an
        allocation's first miss must not leave the pool for good: once
        every sequence is freed, every block is free or reusable."""
        from repro.faults.invariants import check_kv_integrity

        cache = PrefixCachingKVCache(num_blocks=11, block_size=BS)
        cache.allocate_with_prefix(1, 2 * BS, (1000, 1))
        cache.free(1)  # both blocks parked: 1000 and 1 are reusable
        assert cache.allocate_with_prefix(2, 2 * BS, (0, 1)) == 0
        check_kv_integrity(cache)
        cache.free(2)
        check_kv_integrity(cache)
        assert cache.free_blocks == 11


class TestEngineIntegration:
    def _engine(self, prefix: bool) -> ServingEngine:
        pm = InferencePerfModel(OLMOE_1B_7B, H100_SXM)
        return ServingEngine(pm, kv_pool_tokens=65536,
                             enable_prefix_caching=prefix)

    @staticmethod
    def _request(rid: int, shared_blocks: int = 30) -> Request:
        # 512-token prompt whose first `shared_blocks` blocks are a shared
        # system prompt (same hashes across requests)
        return Request(
            request_id=rid,
            prompt_tokens=512,
            sampling=SamplingParams(max_tokens=16),
            prompt_block_hashes=tuple(range(shared_blocks)),
        )

    def test_prefix_caching_cuts_ttft(self):
        slow = self._engine(prefix=False)
        fast = self._engine(prefix=True)
        for eng in (slow, fast):
            for i in range(8):
                eng.submit(self._request(i))
        r_slow = slow.run()
        r_fast = fast.run()
        # the first request pays full prefill in both engines, later ones
        # hit the shared prefix only with caching on
        later_slow = [r.ttft for r in r_slow.requests[1:]]
        later_fast = [r.ttft for r in r_fast.requests[1:]]
        assert sum(later_fast) < sum(later_slow)
        assert r_fast.kv_hit_rate > 0.5
        assert r_slow.kv_hit_rate == 0.0

    def test_all_requests_complete_with_caching(self):
        eng = self._engine(prefix=True)
        for i in range(6):
            eng.submit(self._request(i))
        res = eng.run()
        assert all(r.is_finished for r in res.requests)
        assert all(r.generated_tokens == 16 for r in res.requests)


class _ReferencePrefixCache:
    """The prefix cache's allocation rules, one block at a time, on plain
    lists: ``free`` pops from its end, ``reusable`` holds ``(hash,
    block)`` pairs in LRU order (the front evicts first) and ``resident``
    maps a hash to ``[block, refcount]``."""

    def __init__(self, num_blocks: int, block_size: int) -> None:
        self.block_size = block_size
        self.free = list(range(num_blocks - 1, -1, -1))
        self.reusable: list[tuple[int, int]] = []
        self.resident: dict[int, list[int]] = {}
        self.tables: dict[int, list[int]] = {}
        self.tokens: dict[int, int] = {}
        self.shared: dict[int, list[int]] = {}
        self.lookups = self.hits = self.evictions = 0

    def _unpark(self, h: int) -> int | None:
        for i, (parked, block) in enumerate(self.reusable):
            if parked == h:
                del self.reusable[i]
                return block
        return None

    def _take(self) -> int:
        if self.free:
            return self.free.pop()
        self.evictions += 1
        return self.reusable.pop(0)[1]

    def allocate(self, seq: int, num_tokens: int, hashes: tuple) -> int:
        blocks: list[int] = []
        shared: list[int] = []
        hits = 0
        self.lookups += len(hashes)
        for h in hashes:
            entry = self.resident.get(h)
            if hits == len(blocks):  # still in the hit streak
                if entry is None:
                    block = self._unpark(h)
                    if block is not None:
                        entry = self.resident[h] = [block, 0]
                if entry is not None:
                    hits += 1
                    entry[1] += 1
                    blocks.append(entry[0])
                    shared.append(entry[0])
                    continue
            # after the first miss, cached content (resident or parked)
            # stays where it is and the copy stays private
            block = self._take()
            blocks.append(block)
            if h not in self.resident and \
                    all(parked != h for parked, _ in self.reusable):
                self.resident[h] = [block, 1]
                shared.append(block)
        while len(blocks) * self.block_size < num_tokens:
            blocks.append(self._take())
        self.tables[seq] = blocks
        self.tokens[seq] = num_tokens
        self.shared[seq] = shared
        self.hits += hits
        return hits * self.block_size

    def cached(self, hashes: tuple) -> int:
        parked = {h for h, _ in self.reusable}
        cached = 0
        for h in hashes:
            if h not in self.resident and h not in parked:
                break
            cached += self.block_size
        return cached

    def grow(self, seq: int, n: int) -> None:
        self.tokens[seq] += n
        while len(self.tables[seq]) * self.block_size < self.tokens[seq]:
            self.tables[seq].append(self._take())

    def release(self, seq: int) -> None:
        shared = self.shared.pop(seq)
        del self.tokens[seq]
        for block in reversed(self.tables.pop(seq)):
            if block not in shared:
                self.free.append(block)
                continue
            h = next(h for h, e in self.resident.items() if e[0] == block)
            self.resident[h][1] -= 1
            if self.resident[h][1] == 0:
                del self.resident[h]
                self.reusable.append((h, block))


def _prompt_hashes(draw, max_blocks: int) -> tuple[int, ...]:
    """Hash chains over a few templates that diverge at a drawn block, plus
    an occasional stray hash out of chain order (the miss-then-hit path)."""
    template = draw(st.integers(0, 1))
    length = draw(st.integers(0, max_blocks))
    branch = draw(st.integers(0, length))
    variant = draw(st.integers(0, 2))
    hashes = [1000 * template + i if i < branch
              else 1000 * template + 100 * (variant + 1) + i
              for i in range(length)]
    if hashes and draw(st.booleans()):
        stray = 1000 * draw(st.integers(0, 2)) + draw(st.integers(0, 3))
        if stray not in hashes:
            hashes[draw(st.integers(0, len(hashes) - 1))] = stray
    return tuple(hashes)


@st.composite
def _cache_ops(draw):
    ops = []
    for seq in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(("alloc", "alloc", "grow", "free", "free")))
        if kind == "alloc":
            hashes = _prompt_hashes(draw, 6)
            extra = draw(st.integers(1 if not hashes else 0, 2 * BS))
            ops.append(("alloc", seq, len(hashes) * BS + extra, hashes))
        else:
            # a recent sequence, so most grows and frees find it live
            ops.append((kind, draw(st.integers(max(0, seq - 6), seq)),
                        draw(st.integers(1, 2 * BS)), ()))
    return ops


class TestAgainstReference:
    """Random allocate/grow/free sequences (evicting once the pool runs
    dry) leave the cache in the reference model's exact state: free-list
    order, reusable LRU order, every block table and the stats."""

    @settings(max_examples=150, deadline=None)
    @given(_cache_ops(), st.integers(8, 24))
    def test_matches_reference_model(self, ops, num_blocks):
        cache = PrefixCachingKVCache(num_blocks=num_blocks, block_size=BS)
        ref = _ReferencePrefixCache(num_blocks, BS)
        for kind, seq, tokens, hashes in ops:
            live = seq in ref.tables
            pool = len(ref.free) + len(ref.reusable)
            if kind == "alloc" and not live:
                # room for every block, with slack for unparked hits
                if -(-tokens // BS) + len(hashes) > pool:
                    continue
                assert cache.cached_prefix_tokens(hashes) == ref.cached(hashes)
                got = cache.allocate_with_prefix(seq, tokens, hashes)
                assert got == ref.allocate(seq, tokens, hashes)
            elif kind == "grow" and live:
                if not cache.can_append_slots(seq, tokens):
                    continue
                cache.append_slots(seq, tokens)
                ref.grow(seq, tokens)
            elif kind == "free" and live:
                cache.free(seq)
                ref.release(seq)
            else:
                continue
            assert cache._free == ref.free
            assert list(cache._reusable.items()) == ref.reusable
            assert {s: list(cache.block_table(s)) for s in ref.tables} \
                == ref.tables
            assert all(cache.num_tokens(s) == n for s, n in ref.tokens.items())
            assert (cache.stats.lookups, cache.stats.hits,
                    cache.stats.evictions) \
                == (ref.lookups, ref.hits, ref.evictions)
            assert cache.free_blocks == len(ref.free) + len(ref.reusable)
        for seq in list(ref.tables):
            cache.free(seq)
            ref.release(seq)
        assert cache._free == ref.free
        assert list(cache._reusable.items()) == ref.reusable
        assert cache.free_blocks == num_blocks  # no block is stranded
