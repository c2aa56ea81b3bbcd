"""Numeric datatypes and quantization kernels.

Defines the datatype registry used throughout the suite — each entry knows
its storage width (which drives the memory/bandwidth side of the roofline
model) and, for the quantized formats, a real NumPy quantize/dequantize
kernel that measures a format's numeric error.

FP8 follows the E4M3 layout used by H100 tensor cores (1 sign, 4 exponent,
3 mantissa bits, no inf, max ±448).  INT8/INT4 use symmetric per-channel
absmax scaling, the scheme used by weight-only LLM quantization.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DType",
    "FP32",
    "FP16",
    "BF16",
    "FP8_E4M3",
    "INT8",
    "INT4",
    "DTYPES",
    "get_dtype",
    "quantize_fp8",
    "dequantize_fp8",
    "quantize_int",
    "dequantize_int",
    "quantize_dequantize",
]

# E4M3: exponent bias 7, 3 mantissa bits, max finite 448, min normal 2^-6,
# min subnormal 2^-9.
_E4M3_MAX = 448.0
_E4M3_MIN_NORMAL = 2.0 ** -6
_E4M3_MANT_BITS = 3


@dataclass(frozen=True)
class DType:
    """A storage datatype.

    ``bytes_per_element`` drives memory-footprint and bandwidth modelling;
    ``compute_scale`` is the hardware throughput multiplier relative to FP16
    tensor-core math on hardware with native support (H100: FP8 = 2x FP16).
    """

    name: str
    bytes_per_element: float
    compute_scale: float
    is_quantized: bool = False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


FP32 = DType("fp32", 4.0, 0.5)
FP16 = DType("fp16", 2.0, 1.0)
BF16 = DType("bf16", 2.0, 1.0)
FP8_E4M3 = DType("fp8_e4m3", 1.0, 2.0, is_quantized=True)
INT8 = DType("int8", 1.0, 2.0, is_quantized=True)
INT4 = DType("int4", 0.5, 2.0, is_quantized=True)

DTYPES: dict[str, DType] = {
    d.name: d for d in (FP32, FP16, BF16, FP8_E4M3, INT8, INT4)
}
# convenient aliases
DTYPES["fp8"] = FP8_E4M3


def get_dtype(name: str | DType) -> DType:
    """Resolve a dtype by name (accepts a DType and returns it unchanged)."""
    if isinstance(name, DType):
        return name
    try:
        return DTYPES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(DTYPES))
        raise KeyError(f"unknown dtype {name!r}; known dtypes: {known}") from None


def quantize_fp8(x: np.ndarray) -> np.ndarray:
    """Round ``x`` to the nearest representable FP8 E4M3 value.

    Returns float32 values lying exactly on the E4M3 grid (saturating at
    ±448, flushing below the smallest subnormal to zero), which is how
    simulated-FP8 numerics are normally validated.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    sign = np.sign(x)
    mag = np.abs(x)
    # saturate
    mag = np.minimum(mag, _E4M3_MAX)
    nonzero = mag > 0
    # exponent of each value, clamped to the normal range
    exp = np.floor(np.log2(mag, where=nonzero, out=np.zeros_like(mag)))
    exp = np.clip(exp, np.log2(_E4M3_MIN_NORMAL), np.inf)
    # quantization step: 2^(exp - mantissa_bits); subnormal step is fixed
    step = np.power(2.0, exp - _E4M3_MANT_BITS)
    step = np.where(mag < _E4M3_MIN_NORMAL, _E4M3_MIN_NORMAL / (2 ** _E4M3_MANT_BITS), step)
    q = np.round(mag / step) * step
    # rounding can push magnitude past the max exponent boundary; re-saturate
    q = np.minimum(q, _E4M3_MAX)
    out = np.where(nonzero, sign * q, 0.0)
    return out.astype(np.float32)


def dequantize_fp8(x: np.ndarray) -> np.ndarray:
    """FP8 values are stored as exact float32 grid points; identity."""
    return np.asarray(x, dtype=np.float32)


def quantize_int(
    x: np.ndarray, bits: int, axis: int = -1
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric absmax integer quantization along ``axis``.

    Returns ``(q, scale)`` where ``q`` is an int8 array of levels in
    ``[-(2^(bits-1)-1), 2^(bits-1)-1]`` and ``scale`` broadcasts against
    ``q`` so ``q * scale ≈ x``.
    """
    if bits not in (4, 8):
        raise ValueError(f"bits must be 4 or 8, got {bits}")
    x = np.asarray(x, dtype=np.float32)
    qmax = 2 ** (bits - 1) - 1
    absmax = np.max(np.abs(x), axis=axis, keepdims=True)
    scale = np.where(absmax > 0, absmax / qmax, 1.0).astype(np.float32)
    q = np.clip(np.round(x / scale), -qmax, qmax).astype(np.int8)
    return q, scale


def dequantize_int(q: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Inverse of :func:`quantize_int`."""
    return (q.astype(np.float32) * scale).astype(np.float32)


def quantize_dequantize(x: np.ndarray, dtype: DType | str, axis: int = -1) -> np.ndarray:
    """Simulate storing ``x`` in ``dtype`` (fake quantization round-trip).

    FP16/BF16 round through the corresponding NumPy type; FP8 rounds to the
    E4M3 grid; INT8/INT4 round-trip symmetric absmax quantization.  FP32 is
    the identity.
    """
    d = get_dtype(dtype)
    x = np.asarray(x, dtype=np.float32)
    if d.name == "fp32":
        return x
    if d.name == "fp16":
        return x.astype(np.float16).astype(np.float32)
    if d.name == "bf16":
        # bf16 == fp32 with the bottom 16 mantissa bits dropped
        as_int = x.view(np.uint32)
        rounded = ((as_int + 0x8000) & np.uint32(0xFFFF0000)).astype(np.uint32)
        return rounded.view(np.float32).copy()
    if d.name == "fp8_e4m3":
        return quantize_fp8(x)
    if d.name == "int8":
        return dequantize_int(*quantize_int(x, 8, axis=axis))
    if d.name == "int4":
        return dequantize_int(*quantize_int(x, 4, axis=axis))
    raise AssertionError(f"unhandled dtype {d.name}")  # pragma: no cover
