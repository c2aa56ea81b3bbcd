"""Expert-parallelism analysis: placement, dispatch volume, load imbalance.

EP places whole experts on devices (DeepSpeed-MoE style).  Its two taxes —
quantified here and consumed by the phase model — are:

* **dispatch**: two all-to-alls per MoE layer moving every routed token's
  hidden state to its experts' devices and back;
* **imbalance**: the all-to-all barrier makes each step as slow as the
  most-loaded device; under stochastic routing the max/mean load across
  ``ep`` groups exceeds 1 by ``~sqrt(2 ln(ep) / tokens_per_group)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.interconnect import all_to_all_time
from repro.hardware.spec import HardwareSpec
from repro.models.config import MoEConfig
from repro.optim.quantization import FP16_CONFIG, QuantConfig
from repro.moe.routing_math import expected_group_imbalance

__all__ = [
    "ExpertPlacement",
    "ReplicatedExpertPlacement",
    "round_robin_placement",
    "replicated_round_robin_placement",
    "ep_dispatch_volume",
    "ep_dispatch_time",
    "simulate_ep_imbalance",
]


@dataclass(frozen=True)
class ExpertPlacement:
    """Mapping expert id → device for one MoE layer."""

    device_of_expert: tuple[int, ...]
    num_devices: int

    def __post_init__(self) -> None:
        if any(not (0 <= d < self.num_devices) for d in self.device_of_expert):
            raise ValueError("placement references an out-of-range device")

    @property
    def num_experts(self) -> int:
        return len(self.device_of_expert)

    def experts_on_device(self, device: int) -> list[int]:
        return [e for e, d in enumerate(self.device_of_expert) if d == device]

    def experts_per_device(self) -> np.ndarray:
        counts = np.zeros(self.num_devices, dtype=np.int64)
        for d in self.device_of_expert:
            counts[d] += 1
        return counts


@dataclass(frozen=True)
class ReplicatedExpertPlacement:
    """Mapping expert id → *several* devices (replicated EP).

    Replication buys fault tolerance and hot-expert load spreading at the
    cost of ``replicas`` copies of each expert's weights: when an EP rank
    loses its shards, traffic reroutes to the surviving replicas instead
    of failing.  ``devices_of_expert[e]`` lists every device holding a
    copy of expert ``e`` (primary first).
    """

    devices_of_expert: tuple[tuple[int, ...], ...]
    num_devices: int

    def __post_init__(self) -> None:
        for e, devices in enumerate(self.devices_of_expert):
            if not devices:
                raise ValueError(f"expert {e} has no replica devices")
            if len(set(devices)) != len(devices):
                raise ValueError(f"expert {e} lists a device twice")
            if any(not (0 <= d < self.num_devices) for d in devices):
                raise ValueError("placement references an out-of-range device")

    @property
    def num_experts(self) -> int:
        return len(self.devices_of_expert)

    @property
    def replication_factor(self) -> int:
        """Minimum replicas any expert has (the fault-tolerance floor)."""
        return min(len(d) for d in self.devices_of_expert)

    def experts_on_device(self, device: int) -> list[int]:
        return [e for e, devices in enumerate(self.devices_of_expert)
                if device in devices]

    def primary(self) -> ExpertPlacement:
        """The replica-0 placement (what a replication-unaware consumer,
        e.g. the dispatch-volume model, sees)."""
        return ExpertPlacement(
            device_of_expert=tuple(d[0] for d in self.devices_of_expert),
            num_devices=self.num_devices,
        )

    def surviving_replicas(
        self, lost_devices: set[int] | frozenset[int]
    ) -> tuple[tuple[int, ...], ...]:
        """Per-expert replica devices after removing ``lost_devices``
        (an expert's tuple may be empty — see :meth:`lost_experts`)."""
        return tuple(
            tuple(d for d in devices if d not in lost_devices)
            for devices in self.devices_of_expert
        )

    def lost_experts(self, lost_devices: set[int] | frozenset[int]) -> list[int]:
        """Experts with no surviving replica — unreachable until the ranks
        heal (or the router degrades around them)."""
        return [e for e, devices in
                enumerate(self.surviving_replicas(lost_devices))
                if not devices]


def round_robin_placement(num_experts: int, num_devices: int) -> ExpertPlacement:
    """Contiguous block placement (vLLM/DeepSpeed default): device ``d``
    owns experts ``[d*E/n, (d+1)*E/n)``."""
    if num_experts % num_devices != 0:
        raise ValueError(
            f"num_experts {num_experts} not divisible by num_devices {num_devices}"
        )
    per = num_experts // num_devices
    return ExpertPlacement(
        device_of_expert=tuple(e // per for e in range(num_experts)),
        num_devices=num_devices,
    )


def replicated_round_robin_placement(
    num_experts: int, num_devices: int, replicas: int = 2
) -> ReplicatedExpertPlacement:
    """Contiguous placement with replica ``r`` shifted ``r * n/replicas``
    devices to the right, so an expert's copies land on distinct devices
    (and, when devices fill nodes in order, usually distinct nodes)."""
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if replicas > num_devices:
        raise ValueError(
            f"{replicas} replicas cannot occupy distinct devices out of "
            f"{num_devices}"
        )
    base = round_robin_placement(num_experts, num_devices).device_of_expert
    stride = max(1, num_devices // replicas)
    return ReplicatedExpertPlacement(
        devices_of_expert=tuple(
            tuple(dict.fromkeys((d + r * stride) % num_devices
                                for r in range(replicas)))
            for d in base
        ),
        num_devices=num_devices,
    )


def ep_dispatch_volume(
    num_tokens: int, hidden_size: int, top_k: int, ep: int,
    quant: QuantConfig = FP16_CONFIG,
) -> float:
    """Bytes one all-to-all moves: every token's hidden state is sent to
    each of its ``top_k`` experts' devices (expected ``(ep-1)/ep`` of the
    payload crosses the fabric; the collective model accounts for that)."""
    if num_tokens <= 0 or ep < 1:
        raise ValueError("num_tokens must be positive and ep >= 1")
    return num_tokens * top_k * hidden_size * quant.activation_bytes


def ep_dispatch_time(
    num_tokens: int, hidden_size: int, top_k: int, ep: int, hw: HardwareSpec,
    quant: QuantConfig = FP16_CONFIG,
) -> float:
    """Seconds of the two per-layer all-to-alls (dispatch + combine)."""
    vol = ep_dispatch_volume(num_tokens, hidden_size, top_k, ep, quant)
    return 2.0 * all_to_all_time(vol, ep, hw)


_FLOYD_MAX_N = 10000
"""Largest population for which numpy's ``Generator.choice(n, k,
replace=False)`` is known to run Floyd's algorithm (above it, it may take a
tail-shuffle path instead)."""


def _choice_bulk(
    rng: np.random.Generator, n: int, k: int, rows: int,
) -> np.ndarray | None:
    """Replay ``rows`` consecutive ``rng.choice(n, k, replace=False)`` calls
    in one vectorised pass, from the same random stream.

    Each call is Floyd's algorithm — draw ``v`` in ``[0, j]`` for ``j = n-k
    … n-1`` and take ``j`` instead when ``v`` is already picked — followed
    by a Fisher–Yates shuffle of the picks, drawing in ``[0, i]`` for ``i =
    k-1 … 1``.  Every bounded draw is Lemire's method on one
    ``next_uint32`` word (a ``[0, 0]`` draw takes none), so the words of
    all calls are fetched at once.  The shuffle's words are consumed but
    unused: it only reorders picks.

    Returns the ``(rows, k)`` picks in draw order (each row is the set
    ``choice`` returns, unshuffled), leaving ``rng`` exactly where the
    scalar calls would.  Returns ``None`` with ``rng`` untouched when the
    replay cannot be exact: ``n`` beyond :data:`_FLOYD_MAX_N`, ``k``
    outside ``[1, n]``, or a word Lemire's method would reject (and
    redraw).
    """
    if n > _FLOYD_MAX_N or not 1 <= k <= n:
        return None
    # one word per draw in [0, bound - 1]: Floyd's, then the shuffle's
    bounds = [j + 1 for j in range(n - k, n) if j > 0] + list(range(k, 1, -1))
    snapshot = rng.bit_generator.state
    words = rng.integers(0, 1 << 32, size=(rows, len(bounds)),
                         dtype=np.uint32)
    # Lemire rejects a word when the low half of word * bound (uint32
    # arithmetic wraps to it) is below 2**32 % bound
    thresholds = np.array([(1 << 32) % b for b in bounds], dtype=np.uint32)
    if (words * np.array(bounds, dtype=np.uint32) < thresholds).any():
        rng.bit_generator.state = snapshot
        return None
    picks = np.zeros((rows, k), dtype=np.uint16)  # n <= 10000 fits
    for m, j in enumerate(range(n - k, n)):
        if j == 0:
            continue  # k == n: the first pick is 0
        v = words[:, m - (k == n)] * np.uint64(j + 1)
        v >>= np.uint64(32)
        v[(picks[:, :m] == v[:, None]).any(axis=1)] = j
        picks[:, m] = v
    return picks


def _choice_rows(
    rng: np.random.Generator, n: int, k: int, rows: int,
) -> np.ndarray:
    """``rows`` draws of ``k`` distinct values from ``range(n)``: the sets
    ``rows`` scalar ``rng.choice(n, k, replace=False)`` calls make, in
    order, with ``rng`` left where they leave it (the order within a row
    may differ).  Bulk when :func:`_choice_bulk` can replay the stream
    exactly, else the per-row loop."""
    picks = _choice_bulk(rng, n, k, rows)
    if picks is None:
        picks = np.array([rng.choice(n, size=k, replace=False)
                          for _ in range(rows)])
    return picks


def simulate_ep_imbalance(
    moe: MoEConfig, ep: int, num_tokens: int, num_trials: int = 256,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the EP max/mean load factor under uniform
    routing; returns ``(simulated_mean, analytic)`` so callers can compare
    against :func:`expected_group_imbalance` (ablation bench).

    Each token picks ``top_k`` distinct experts uniformly, drawn for all
    trials in one pass (:func:`_choice_rows`): the estimate and the final
    state of ``rng`` are bit-identical to one ``rng.choice`` per token.
    """
    if ep < 1:
        raise ValueError("ep must be >= 1")
    if num_tokens < 1 or num_trials < 1:
        raise ValueError("num_tokens and num_trials must be >= 1")
    placement = round_robin_placement(moe.num_experts, ep)
    dev = np.asarray(placement.device_of_expert)
    rng = rng or np.random.default_rng(0)
    picks = _choice_rows(rng, moe.num_experts, moe.top_k,
                         num_trials * num_tokens)
    slots = dev[picks].reshape(num_trials, -1)
    slots += np.arange(num_trials)[:, None] * ep
    loads = np.bincount(slots.ravel(), minlength=num_trials * ep)
    loads = loads.reshape(num_trials, ep)
    ratios = loads.max(axis=1) / loads.mean(axis=1)
    analytic = expected_group_imbalance(ep, num_tokens * moe.top_k)
    return float(ratios.mean()), analytic
