"""Roofline kernel-time model.

A kernel is characterised by its FLOP count, the bytes it moves through
device memory, and the datatype its math runs in.  Execution time is the
roofline maximum of the compute time and the memory time, plus the kernel
launch overhead:

    t = max( flops / (peak_flops_per_s * eff_c),  bytes / (bw * eff_m) ) + launch

``eff_c`` is not constant: real tensor cores lose utilization when the
token dimension of a GEMM is small (decode steps are GEMV-like) or when
dimensions don't fill the MMA tiles.  We model that with a saturating
utilization curve in the reduction-parallel token dimension, which is the
standard first-order shape for cuBLAS/CUTLASS efficiency data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.spec import HardwareSpec

__all__ = ["KernelCost", "gemm_efficiency", "kernel_time", "gemm_cost",
           "gemm_time", "arithmetic_intensity", "is_memory_bound"]

# Token-dimension scale at which GEMM efficiency reaches half its ceiling.
# ~64 rows fill one MMA tile pipeline stage on Hopper-class hardware.
_M_HALF = 256.0
# Granularity penalty when inner dims are not multiples of the tile width.
_TILE = 64
_QUANT_DTYPES = ("fp8_e4m3", "int8", "int4")


# The unchecked formulas below (and the step model built on them) run on
# plain Python floats and on float64 arrays — the serving engine's decode
# row prices a block of contexts in one pass.  IEEE-754 ops on float64 arrays are elementwise
# identical to the same ops on Python floats, and max/min select the same
# value as maximum/minimum on the positive finite operands used here, so
# both input kinds produce the same bits.  These helpers absorb the only
# array-specific constructs:

def _maximum(a, b):
    """Elementwise/scalar max (operands are finite and never -0.0)."""
    return np.maximum(a, b) if isinstance(a, np.ndarray) or \
        isinstance(b, np.ndarray) else max(a, b)


def _minimum(a, b):
    """Elementwise/scalar min (operands are finite and never -0.0)."""
    return np.minimum(a, b) if isinstance(a, np.ndarray) or \
        isinstance(b, np.ndarray) else min(a, b)


def _map(fn, x):
    """Apply the scalar function ``fn`` per element.  Transcendental and
    floor-division terms go through it in both modes: NumPy's ufunc
    variants are not guaranteed to round like the Python scalar ops."""
    if isinstance(x, np.ndarray):
        return np.array([fn(float(v)) for v in x])
    return fn(float(x))


@dataclass(frozen=True)
class KernelCost:
    """Static cost of one kernel (or a fused group of kernels)."""

    flops: float
    bytes: float
    dtype: str = "fp16"
    launches: int = 1

    def __add__(self, other: "KernelCost") -> "KernelCost":
        if other.dtype != self.dtype:
            raise ValueError(
                f"cannot merge kernel costs of dtypes {self.dtype} and {other.dtype}"
            )
        return KernelCost(
            flops=self.flops + other.flops,
            bytes=self.bytes + other.bytes,
            dtype=self.dtype,
            launches=self.launches + other.launches,
        )

    def scaled(self, factor: float) -> "KernelCost":
        return KernelCost(self.flops * factor, self.bytes * factor, self.dtype, self.launches)


def gemm_efficiency(m: float, n: float, k: float, hw: HardwareSpec) -> float:
    """Fraction of tensor-core peak achieved by an ``m×k @ k×n`` GEMM.

    ``m`` is the token (batch) dimension.  Efficiency saturates towards the
    hardware's ``max_gemm_efficiency`` as ``m`` grows, with a mild
    granularity penalty for inner dimensions that underfill tiles.
    """
    if m <= 0 or n <= 0 or k <= 0:
        raise ValueError(f"GEMM dims must be positive, got ({m}, {n}, {k})")
    return _gemm_efficiency(m, n, k, hw)


def _tile_quant(d: float) -> float:
    # work is issued in TILE-wide chunks; a 65-wide dim pays for 128
    tiles = -(-d // _TILE)  # ceil division
    return d / (tiles * _TILE)


def _gemm_efficiency(m, n, k, hw: HardwareSpec):
    """Unchecked :func:`gemm_efficiency`; ``m`` and ``n`` may be arrays."""
    sat = m / (m + _M_HALF)
    gran = _map(_tile_quant, n) * _map(_tile_quant, k)
    return hw.max_gemm_efficiency * sat * gran


def kernel_time(cost: KernelCost, hw: HardwareSpec, efficiency: float | None = None) -> float:
    """Execution time in seconds of one kernel cost on ``hw``.

    ``efficiency`` overrides the compute-efficiency factor (used by
    :func:`gemm_time`, which knows its shape); the default assumes a large,
    well-shaped kernel.
    """
    eff = hw.max_gemm_efficiency if efficiency is None else efficiency
    if eff <= 0:
        raise ValueError("efficiency must be positive")
    return _kernel_time(cost.flops, cost.bytes, cost.dtype, cost.launches,
                        eff, hw)


def _kernel_time(flops, bytes_, dtype: str, launches: int, eff,
                 hw: HardwareSpec):
    """Unchecked :func:`kernel_time`; ``flops``, ``bytes_`` and ``eff``
    may be arrays.  A zero term divides to an exact ``0.0``."""
    if dtype in _QUANT_DTYPES:
        eff = eff * hw.quant_gemm_derate
    t_compute = flops / (hw.peak_flops_per_s(dtype) * eff)
    t_memory = bytes_ / hw.mem_bytes_per_s
    return _maximum(t_compute, t_memory) + launches * hw.kernel_launch_us * 1e-6


def arithmetic_intensity(cost: KernelCost) -> float:
    """FLOPs per byte moved — the roofline x-axis."""
    if cost.bytes <= 0:
        return float("inf") if cost.flops > 0 else 0.0
    return cost.flops / cost.bytes


def is_memory_bound(cost: KernelCost, hw: HardwareSpec,
                    efficiency: float | None = None) -> bool:
    """Whether the memory term dominates this kernel's roofline time."""
    eff = hw.max_gemm_efficiency if efficiency is None else efficiency
    if cost.dtype in _QUANT_DTYPES:
        eff *= hw.quant_gemm_derate
    t_compute = cost.flops / (hw.peak_flops_per_s(cost.dtype) * eff) if cost.flops else 0.0
    t_memory = cost.bytes / hw.mem_bytes_per_s if cost.bytes else 0.0
    return t_memory >= t_compute


def gemm_cost(
    m: float, n: float, k: float, weight_bytes_per_el: float, act_bytes_per_el: float,
    dtype: str = "fp16", launches: int = 1,
) -> KernelCost:
    """Cost of ``(m,k) @ (k,n)``: 2mnk FLOPs; weights ``k*n`` at the weight
    storage width, activations ``m*k`` in + ``m*n`` out at activation width."""
    flops = 2.0 * m * n * k
    bytes_moved = k * n * weight_bytes_per_el + (m * k + m * n) * act_bytes_per_el
    return KernelCost(flops=flops, bytes=bytes_moved, dtype=dtype, launches=launches)


def gemm_time(
    m: float, n: float, k: float, hw: HardwareSpec,
    weight_bytes_per_el: float = 2.0, act_bytes_per_el: float = 2.0,
    dtype: str = "fp16", launches: int = 1,
) -> float:
    """Roofline time of one GEMM with the shape-aware efficiency curve."""
    cost = gemm_cost(m, n, k, weight_bytes_per_el, act_bytes_per_el, dtype, launches)
    return kernel_time(cost, hw, efficiency=gemm_efficiency(m, n, k, hw))
