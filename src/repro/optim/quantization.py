"""Quantization configurations (paper §6.1).

A :class:`QuantConfig` fixes the storage dtype of weights, activations and
the KV cache, plus the dtype GEMM math executes in.  The performance model
consumes the byte widths and compute dtype; :func:`quantization_error`
fake-quantizes weights with the same config to measure numeric error, so
both sides of the quantization trade-off come from one object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tensor.dtypes import DType, get_dtype

__all__ = [
    "QuantConfig",
    "FP16_CONFIG",
    "FP8_CONFIG",
    "W8A16_CONFIG",
    "W4A16_CONFIG",
    "PRESETS",
    "get_preset",
    "quantization_error",
]


@dataclass(frozen=True)
class QuantConfig:
    """Storage/compute precision of one deployment."""

    name: str
    weights: DType
    activations: DType
    kv_cache: DType
    compute: DType

    @property
    def weight_bytes(self) -> float:
        return self.weights.bytes_per_element

    @property
    def activation_bytes(self) -> float:
        return self.activations.bytes_per_element

    @property
    def kv_bytes(self) -> float:
        return self.kv_cache.bytes_per_element

    @property
    def compute_dtype_name(self) -> str:
        return self.compute.name

    @staticmethod
    def make(
        name: str,
        weights: str | DType = "fp16",
        activations: str | DType = "fp16",
        kv_cache: str | DType | None = None,
        compute: str | DType | None = None,
    ) -> "QuantConfig":
        """Build a config from dtype names; KV defaults to the activation
        dtype and compute to the narrower of weights/activations."""
        w = get_dtype(weights)
        a = get_dtype(activations)
        kv = get_dtype(kv_cache) if kv_cache is not None else a
        if compute is not None:
            c = get_dtype(compute)
        else:
            # math runs at the lower precision of the two operands when the
            # hardware supports it (weight-only quant still computes in a)
            c = w if (w.is_quantized and a.is_quantized) else a
        return QuantConfig(name=name, weights=w, activations=a, kv_cache=kv, compute=c)


FP16_CONFIG = QuantConfig.make("fp16", "fp16", "fp16")
# vLLM-style FP8 W8A8: weights+activations in FP8, KV cache left at FP16
FP8_CONFIG = QuantConfig.make("fp8", "fp8_e4m3", "fp8_e4m3", kv_cache="fp16",
                              compute="fp8_e4m3")
W8A16_CONFIG = QuantConfig.make("w8a16", "int8", "fp16")
W4A16_CONFIG = QuantConfig.make("w4a16", "int4", "fp16")

PRESETS: dict[str, QuantConfig] = {
    c.name: c for c in (FP16_CONFIG, FP8_CONFIG, W8A16_CONFIG, W4A16_CONFIG)
}


def get_preset(name: str | QuantConfig) -> QuantConfig:
    """Look up a preset by name (pass-through for configs)."""
    if isinstance(name, QuantConfig):
        return name
    try:
        return PRESETS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown quantization preset {name!r}; known: {known}") from None


def quantization_error(x: np.ndarray, cfg: QuantConfig) -> float:
    """Relative RMS error of storing ``x`` at the config's weight dtype.

    Used by accuracy-impact studies: FP8 E4M3 on unit-scale weights sits
    around 1-3% relative RMS error, INT4 an order of magnitude higher.
    """
    from repro.tensor.dtypes import quantize_dequantize

    x = np.asarray(x, dtype=np.float32)
    denom = float(np.sqrt(np.mean(x * x)))
    if denom == 0.0:
        return 0.0
    q = quantize_dequantize(x, cfg.weights)
    return float(np.sqrt(np.mean((x - q) ** 2)) / denom)
