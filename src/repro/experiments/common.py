"""Shared helpers for the experiment implementations."""

from __future__ import annotations

from repro.hardware.gpus import H100_SXM
from repro.hardware.spec import HardwareSpec
from repro.models.config import ModelConfig
from repro.models.params import model_params
from repro.optim.quantization import FP16_CONFIG, QuantConfig
from repro.parallel.plan import ParallelPlan
from repro.perfmodel.inference import InferencePerfModel

__all__ = [
    "H100",
    "default_plan",
    "perf_model",
    "metrics_row",
    "metrics_rows",
    "PAPER_LLMS",
    "PAPER_VLMS",
]

H100 = H100_SXM

PAPER_LLMS = (
    "Mixtral-8x7B",
    "Qwen1.5-MoE-A2.7B",
    "Qwen3-30B-A3B",
    "DeepSeek-V2-Lite",
    "Phi-3.5-MoE",
    "OLMoE-1B-7B",
)

PAPER_VLMS = ("DeepSeek-VL2-Tiny", "DeepSeek-VL2-Small", "DeepSeek-VL2")


def default_plan(model: ModelConfig, hw: HardwareSpec = H100,
                 quant: QuantConfig = FP16_CONFIG) -> ParallelPlan:
    """Smallest TP degree whose weight shard leaves room for a KV cache.

    Mirrors how the paper deploys each model: single GPU when it fits,
    otherwise tensor parallel across the node.
    """
    total_bytes = model_params(model).total * quant.weight_bytes
    tp = 1
    while tp <= hw.max_devices:
        plan = ParallelPlan(tp=tp)
        try:
            plan.validate_for_model(model)
        except ValueError:
            tp *= 2
            continue
        if total_bytes / tp < 0.65 * hw.memory_bytes:
            return plan
        tp *= 2
    raise ValueError(f"{model.name} does not fit on a {hw.max_devices}x {hw.name} node")


def perf_model(
    model: ModelConfig,
    plan: ParallelPlan | None = None,
    quant: QuantConfig = FP16_CONFIG,
    hw: HardwareSpec = H100,
    fused_moe: bool = True,
) -> InferencePerfModel:
    """Build a perf model with the default deployment plan."""
    if plan is None:
        plan = default_plan(model, hw, quant)
    return InferencePerfModel(model, hw, plan=plan, quant=quant, fused_moe=fused_moe)


def metrics_row(pm: InferencePerfModel, batch: int, in_tok: int, out_tok: int,
                images: int = 0) -> dict[str, float | bool]:
    """Standard metric columns for one workload shape."""
    m = pm.generate(batch, in_tok, out_tok, images_per_sample=images,
                    check_memory=False)
    return {
        "ttft_s": m.ttft_s,
        "itl_ms": m.itl_s * 1e3,
        "e2e_s": m.e2e_latency_s,
        "throughput_tok_s": m.throughput_tok_s,
        "samples_per_s": m.samples_per_s,
        "fits": pm.fits(batch, in_tok + out_tok),
    }


def metrics_rows(pm: InferencePerfModel, shapes, images: int = 0) -> list[dict[str, float | bool]]:
    """:func:`metrics_row` for an axis of ``(batch, in_tok, out_tok)``
    shapes against one deployment."""
    return [metrics_row(pm, b, i, o, images=images) for b, i, o in shapes]
