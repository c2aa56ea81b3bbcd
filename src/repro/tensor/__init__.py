"""NumPy tensor substrate of the MoE layer: dtypes, quantization kernels,
the router and expert ops, the linear layer."""

from repro.tensor.dtypes import (
    BF16,
    DTYPES,
    FP8_E4M3,
    FP16,
    FP32,
    INT4,
    INT8,
    DType,
    dequantize_int,
    get_dtype,
    quantize_dequantize,
    quantize_fp8,
    quantize_int,
)
from repro.tensor.functional import (
    silu,
    softmax,
    swiglu,
    top_k_indices,
)
from repro.tensor.linear import Linear, init_weight

__all__ = [
    "BF16",
    "DTYPES",
    "FP8_E4M3",
    "FP16",
    "FP32",
    "INT4",
    "INT8",
    "DType",
    "dequantize_int",
    "get_dtype",
    "quantize_dequantize",
    "quantize_fp8",
    "quantize_int",
    "silu",
    "softmax",
    "swiglu",
    "top_k_indices",
    "Linear",
    "init_weight",
]
