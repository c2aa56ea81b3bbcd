"""Exact memoization of :class:`~repro.perfmodel.phases.StepModel` step costs.

The roofline model is a pure function of ``(model, hardware, plan, quant,
fused_moe, mla_native)`` — the frozen deployment *setup* — plus the step
shape ``(num_tokens, batch, kv_len, phase, attended_len)``.  Serving
simulations and chaos storms revisit the same shapes constantly (every
replay of a workload walks the same context trajectory), so the cache
stores the fully built :class:`PhaseBreakdown` and returns it verbatim:
a hit is a dict probe instead of ~6 roofline components x num_layers of
Python arithmetic.  Because the entry is the object the scalar path would
have produced, cached and uncached runs are bit-identical — the PR-2
fingerprint gate holds this to exact equality.

Cached breakdowns are shared between callers and MUST NOT be mutated;
consumers that edit component dicts (e.g. the fault injector) take a copy
first (see ``ServingEngine._components_of``).

Beside whole breakdowns the cache keeps the token-only part of a decode
step (:attr:`StepCache.token_terms`): every term except the attention
core depends on ``(num_tokens, batch)`` alone, so a decode breakdown miss
at a known ``(num_tokens, batch)``, and an engine decode row over many
contexts at one batch, re-price only the attention core.

Setups are interned to small integer ids at :class:`StepModel`
construction so the per-lookup key is a cheap flat tuple — the frozen
dataclass hash (which walks the whole model config) is paid once per
model, not once per step.

Toggles: ``REPRO_NO_STEPCACHE=1`` in the environment disables the global
cache at import; :func:`configure` flips it at runtime; counters come
back from :func:`stats` and flow into the ``repro.obs`` metrics registry
via the serving engine (``stepcache_hits_total`` / ``stepcache_misses_total`` gauges).
Those gauges count host step-cache lookups, not simulated work: the
engine's decode-window iterations make none, and neither does a scalar
step whose components no hook reads (its total comes from the fast
path's memos).  So the gauges vary with execution mode
(``REPRO_NO_VECTORIZE_ENGINE``, ``REPRO_NO_STEPCACHE``) and with what the
handle carries (an enabled span tracer or cluster telemetry prices every
step through a breakdown), while every other metric is bit-identical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.perfmodel.phases import PhaseBreakdown

__all__ = [
    "StepCache",
    "CacheStats",
    "GLOBAL",
    "configure",
    "clear",
    "stats",
]

DEFAULT_MAX_ENTRIES = 200_000
"""Shape-entry bound; crossing it drops the whole shape table at once
(deterministic wholesale clear — an LRU's eviction order would depend on
interleaving across experiments and make hit counters order-sensitive)."""


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`StepCache`."""

    hits: int = 0
    misses: int = 0
    clears: int = 0
    """Wholesale evictions triggered by the entry bound."""

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "clears": float(self.clears),
            "hit_rate": self.hit_rate,
        }


_FROZEN: dict[int, tuple[object, Hashable]] = {}
"""``id(config) -> (config, surrogate)`` for frozen dataclass instances, so
a config shared by many :class:`StepModel` constructions (a sweep builds
hundreds from one zoo model) is walked once.  Each entry holds its object,
so the id cannot be reused while the entry lives."""

_FROZEN_MAX = 4096
"""Entry bound; crossing it drops the whole memo (surrogates are recomputed
equal, so this costs time only)."""


def freeze(value: object) -> Hashable:
    """A hashable surrogate for a (possibly dict-bearing) config object.

    Frozen dataclasses such as :class:`HardwareSpec` may carry plain dict
    fields (``peak_tflops``) that defeat hashing; this walks dataclass
    fields, mappings, and sequences, converting them to sorted tuples.
    Equal configs map to equal surrogates, so cache identity is preserved.
    A frozen dataclass's surrogate is memoized per object (:data:`_FROZEN`):
    its fields cannot be rebound, and config dicts are never edited in
    place.
    """
    import dataclasses

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        hit = _FROZEN.get(id(value))
        if hit is not None:
            return hit[1]
        frozen = (
            type(value).__qualname__,
            tuple(freeze(getattr(value, f.name))
                  for f in dataclasses.fields(value)),
        )
        if type(value).__dataclass_params__.frozen:
            if len(_FROZEN) >= _FROZEN_MAX:
                _FROZEN.clear()
            _FROZEN[id(value)] = (value, frozen)
        return frozen
    if isinstance(value, dict):
        return tuple(sorted((k, freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    return value


class StepCache:
    """Exact memo tables for step breakdowns and their token-only terms
    (plus the engine fast path's totals and decode rows), keyed on
    interned setups.  ``enabled=False`` turns every table off."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES,
                 enabled: bool = True) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.enabled = enabled
        self.stats = CacheStats()
        self._entries: dict[tuple, "PhaseBreakdown"] = {}
        self._setup_ids: dict[Hashable, int] = {}
        self.totals: dict[tuple, float] = {}
        """Step *total* seconds keyed ``(setup_id, shape...)`` — the engine
        fast path's memo of :meth:`StepModel.step_total_one` evaluations.
        Values are bit-identical to ``step_breakdown(...).total`` /
        ``decode_step_time``, so sharing them across engines (fleet
        replicas share one perf model; sweep points share a setup id) only
        changes wallclock, never outputs.  Filled and bounded by
        :class:`~repro.serving.fastpath.EngineFastPath`."""
        self.token_terms: dict[tuple, tuple] = {}
        """:meth:`StepModel._token_terms` output keyed ``(setup_id,
        num_tokens, batch)`` for decode shapes: every step term
        except the attention core, which alone reads the KV context.
        Prefill shapes are not kept (their token counts almost never
        recur).  Filled by :meth:`StepModel._step_terms` through
        :meth:`put_token_terms`; it never touches :attr:`stats`, so the
        step-cache gauges count breakdown lookups only.  Same sharing and
        bit-identity contract as :attr:`totals`."""
        self.decode_plans: dict[tuple[int, int], dict[int, list[float]]] = {}
        """Decode-step seconds as ``(setup_id, batch) -> {block: row}``,
        where ``row[i]`` is the step at context ``block * DECODE_BLOCK +
        i`` (see :mod:`repro.serving.fastpath`) — the nesting keeps the
        engine fast path's per-iteration probes on plain int keys, and a
        row is the list one array pass returns.  Same sharing and
        bit-identity contract as :attr:`totals`."""

    # ------------------------------------------------------------------ #
    # setup interning
    # ------------------------------------------------------------------ #

    def setup_id(self, setup: Hashable) -> int:
        """Intern a frozen deployment setup to a small integer id.

        The expensive dataclass hash happens here, once per StepModel;
        lookups afterwards hash only the flat ``(id, shape...)`` tuple.
        Ids survive :meth:`clear` so StepModels stay valid.
        """
        found = self._setup_ids.get(setup)
        if found is None:
            found = len(self._setup_ids)
            self._setup_ids[setup] = found
        return found

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #

    def get(self, key: tuple) -> "PhaseBreakdown | None":
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return entry

    def put(self, key: tuple, breakdown: "PhaseBreakdown") -> None:
        if len(self._entries) >= self.max_entries:
            self._entries.clear()
            self.stats.clears += 1
        self._entries[key] = breakdown

    def put_token_terms(self, key: tuple, terms: tuple) -> None:
        """Bounded :attr:`token_terms` insert (wholesale clear at
        :attr:`max_entries`, like the shape table, but uncounted)."""
        if len(self.token_terms) >= self.max_entries:
            self.token_terms.clear()
        self.token_terms[key] = terms

    # ------------------------------------------------------------------ #
    # management
    # ------------------------------------------------------------------ #

    def clear(self) -> None:
        """Drop all shape entries (setup ids are kept)."""
        self._entries.clear()
        self.totals.clear()
        self.token_terms.clear()
        self.decode_plans.clear()

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)


GLOBAL = StepCache(
    enabled=os.environ.get("REPRO_NO_STEPCACHE", "") in ("", "0"),
)
"""Process-wide cache every :class:`StepModel` routes through by default."""


def configure(enabled: bool | None = None,
              max_entries: int | None = None) -> StepCache:
    """Adjust the global cache; returns it for chaining."""
    if enabled is not None:
        GLOBAL.enabled = enabled
    if max_entries is not None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        GLOBAL.max_entries = max_entries
    return GLOBAL


def clear() -> None:
    """Drop all shape entries from the global cache."""
    GLOBAL.clear()


def stats() -> CacheStats:
    return GLOBAL.stats
