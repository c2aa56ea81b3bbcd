"""Event log for the discrete-event serving engine.

Every iteration, admission, preemption and completion is recorded with its
simulated timestamp so tests and analyses can replay exactly what the
engine did (per-step batch composition, KV utilization over time, ...).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["EventType", "Event", "EventLog"]


class EventType(enum.Enum):
    ARRIVAL = "arrival"
    PREFILL = "prefill"
    DECODE = "decode"
    PREEMPTION = "preemption"
    FINISH = "finish"
    FAULT = "fault"
    """A fault-schedule event was applied to the deployment."""
    RECOVERY = "recovery"
    """A transient fault healed (device replaced, link restored, ...)."""
    RETRY = "retry"
    """Requests killed by a fault were resubmitted with backoff."""
    FAIL = "fail"
    """Requests were terminally failed with a recorded reason."""

    # members are singletons compared by identity, so the identity hash is
    # consistent with equality; it keeps EventLog's per-type index probes
    # in C instead of Enum.__hash__ (a Python-level hash of the name)
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Event:
    """One timestamped engine event."""

    time: float
    type: EventType
    request_ids: tuple[int, ...] = ()
    num_tokens: int = 0
    duration_s: float = 0.0
    kv_utilization: float = 0.0
    detail: str = ""
    """Free-form annotation: fault kind/target, failure reason, ..."""


@dataclass
class EventLog:
    """Append-only, time-ordered event record.

    Per-type indices are maintained incrementally by :meth:`record`, so
    the query helpers (``of_type``, ``num_iterations``, ...) cost O(1)
    bookkeeping instead of rescanning the full log inside benchmark loops.
    Append through :meth:`record`; mutating ``events`` directly bypasses
    the indices.
    """

    events: list[Event] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_type: dict[EventType, list[Event]] = {t: [] for t in EventType}
        self._total_busy = 0.0
        self._peak_kv = 0.0
        for event in self.events:
            self._index(event)

    def _index(self, event: Event) -> None:
        self._by_type[event.type].append(event)
        self._total_busy += event.duration_s
        if event.kv_utilization > self._peak_kv:
            self._peak_kv = event.kv_utilization

    def record(self, event: Event) -> None:
        if self.events and event.time < self.events[-1].time - 1e-12:
            raise ValueError(
                f"events must be recorded in time order: {event.time} < "
                f"{self.events[-1].time}"
            )
        self.events.append(event)
        self._index(event)

    def extend(self, batch: list[Event]) -> None:
        """Append a time-ordered batch in one call (the engine fast path
        records a whole decode window at once).  Only the batch head is
        checked against the log tail; within-batch order is the caller's
        contract (the window clock is monotone by construction)."""
        if not batch:
            return
        if self.events and batch[0].time < self.events[-1].time - 1e-12:
            raise ValueError(
                f"events must be recorded in time order: {batch[0].time} < "
                f"{self.events[-1].time}"
            )
        self.events.extend(batch)
        for event in batch:
            self._index(event)

    def of_type(self, event_type: EventType) -> list[Event]:
        return list(self._by_type[event_type])

    def of_type_since(self, event_type: EventType, start: int) -> list[Event]:
        """Events of ``event_type`` from index ``start`` on — a tail slice,
        so pollers that keep a cursor (the fleet's new-terminal feed) pay
        for fresh events only instead of copying the full type index."""
        return self._by_type[event_type][start:]

    def count(self, event_type: EventType) -> int:
        """Number of recorded events of ``event_type`` (O(1))."""
        return len(self._by_type[event_type])

    @property
    def num_iterations(self) -> int:
        return self.count(EventType.PREFILL) + self.count(EventType.DECODE)

    def total_busy_time(self) -> float:
        return self._total_busy

    def peak_kv_utilization(self) -> float:
        return self._peak_kv
