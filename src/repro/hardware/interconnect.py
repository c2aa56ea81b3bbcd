"""Collective-communication cost models over a node interconnect.

Standard ring/pairwise algorithm costs expressed through the alpha-beta
model: ``time = hops * latency + volume / bandwidth``.  These terms feed
the tensor-/expert-/pipeline-parallel performance models (paper §7.1).
"""

from __future__ import annotations

from repro.hardware.spec import HardwareSpec, InterconnectSpec

__all__ = [
    "PCIE_GEN5_X16",
    "allreduce_time",
    "allgather_time",
    "reduce_scatter_time",
    "all_to_all_time",
    "p2p_time",
    "require_interconnect",
    "degrade_interconnect",
]

PCIE_GEN5_X16 = InterconnectSpec(
    name="PCIe-Gen5-x16",
    link_bandwidth_gbps=56.0,  # ~64 GB/s raw, ~56 GB/s achievable
    latency_us=4.0,
)
"""The fallback path when NVLink drops: host-routed PCIe Gen5 x16 —
roughly 8x less bandwidth than H100 SXM NVLink-4 (450 GB/s)."""


def degrade_interconnect(link: InterconnectSpec, slowdown: float) -> InterconnectSpec:
    """``link`` with its bandwidth divided by ``slowdown`` (latency
    unchanged — degradation models a slower data path, not a longer one).
    Used by the fault injector's ``LINK_DEGRADE`` events to model an
    NVLink→PCIe fallback without editing hardware specs in place."""
    if slowdown < 1.0:
        raise ValueError(f"slowdown must be >= 1, got {slowdown}")
    import dataclasses

    return dataclasses.replace(
        link,
        name=f"{link.name}-degraded{slowdown:g}x",
        link_bandwidth_gbps=link.link_bandwidth_gbps / slowdown,
    )


def require_interconnect(hw: HardwareSpec) -> InterconnectSpec:
    """Return the node interconnect, or raise if the device has none."""
    if hw.interconnect is None:
        raise ValueError(f"{hw.name} has no interconnect configured")
    return hw.interconnect


def _check(message_bytes: float, num_devices: int) -> None:
    if message_bytes < 0:
        raise ValueError("message_bytes must be non-negative")
    if num_devices < 1:
        raise ValueError("num_devices must be >= 1")


def allreduce_time(message_bytes: float, num_devices: int, hw: HardwareSpec) -> float:
    """Ring all-reduce: each device sends/receives ``2(n-1)/n`` of the
    message across ``2(n-1)`` latency-bound steps."""
    _check(message_bytes, num_devices)
    if num_devices == 1 or message_bytes == 0:
        return 0.0
    return _allreduce_time(message_bytes, num_devices, hw)


def _allreduce_time(message_bytes, n: int, hw: HardwareSpec):
    """Unchecked :func:`allreduce_time` (``n > 1``; the message may be
    a float64 array)."""
    link = require_interconnect(hw)
    volume = 2.0 * (n - 1) / n * message_bytes
    return volume / (link.link_bandwidth_gbps * 1e9) + 2 * (n - 1) * link.latency_us * 1e-6


def allgather_time(message_bytes: float, num_devices: int, hw: HardwareSpec) -> float:
    """Ring all-gather of ``message_bytes`` per device shard."""
    _check(message_bytes, num_devices)
    if num_devices == 1 or message_bytes == 0:
        return 0.0
    link = require_interconnect(hw)
    n = num_devices
    volume = (n - 1) / n * message_bytes * n  # total gathered minus own shard
    return volume / n / (link.link_bandwidth_gbps * 1e9) * n + (n - 1) * link.latency_us * 1e-6


def reduce_scatter_time(message_bytes: float, num_devices: int, hw: HardwareSpec) -> float:
    """Ring reduce-scatter — half of an all-reduce."""
    _check(message_bytes, num_devices)
    if num_devices == 1 or message_bytes == 0:
        return 0.0
    link = require_interconnect(hw)
    n = num_devices
    volume = (n - 1) / n * message_bytes
    return volume / (link.link_bandwidth_gbps * 1e9) + (n - 1) * link.latency_us * 1e-6


def all_to_all_time(message_bytes: float, num_devices: int, hw: HardwareSpec) -> float:
    """Pairwise all-to-all where ``message_bytes`` is the total payload a
    device must redistribute; ``(n-1)/n`` of it crosses the fabric."""
    _check(message_bytes, num_devices)
    if num_devices == 1 or message_bytes == 0:
        return 0.0
    return _all_to_all_time(message_bytes, num_devices, hw)


def _all_to_all_time(message_bytes, n: int, hw: HardwareSpec):
    """Unchecked :func:`all_to_all_time` (``n > 1``; array-safe)."""
    link = require_interconnect(hw)
    volume = (n - 1) / n * message_bytes
    return volume / (link.link_bandwidth_gbps * 1e9) + (n - 1) * link.latency_us * 1e-6


def p2p_time(message_bytes: float, hw: HardwareSpec) -> float:
    """One point-to-point transfer (pipeline-parallel stage boundary)."""
    if message_bytes < 0:
        raise ValueError("message_bytes must be non-negative")
    if message_bytes == 0:
        return 0.0
    return _p2p_time(message_bytes, hw)


def _p2p_time(message_bytes, hw: HardwareSpec):
    """Unchecked :func:`p2p_time` (array-safe)."""
    link = require_interconnect(hw)
    return message_bytes / (link.link_bandwidth_gbps * 1e9) + link.latency_us * 1e-6
