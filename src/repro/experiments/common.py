"""Shared helpers for the experiment implementations."""

from __future__ import annotations

import os

from repro.core.metrics import GenerationShape, InferenceMetrics
from repro.hardware.gpus import H100_SXM
from repro.hardware.spec import HardwareSpec
from repro.models.config import ModelConfig
from repro.models.params import model_params
from repro.optim.quantization import FP16_CONFIG, QuantConfig
from repro.parallel.plan import SINGLE_DEVICE, ParallelPlan
from repro.perfmodel.inference import _DECODE_SAMPLES, InferencePerfModel

__all__ = [
    "H100",
    "default_plan",
    "perf_model",
    "metrics_row",
    "metrics_rows",
    "vectorize_enabled",
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


def vectorize_enabled() -> bool:
    """Whether sweeps may use the vectorized fast path.  The escape hatch
    is ``REPRO_NO_VECTORIZE=1`` in the environment, which parallel-runner
    workers inherit."""
    return os.environ.get("REPRO_NO_VECTORIZE", "") in ("", "0")


def _metric_columns(pm: InferencePerfModel, m: InferenceMetrics,
                    batch: int, in_tok: int, out_tok: int) -> dict[str, float | bool]:
    return {
        "ttft_s": m.ttft_s,
        "itl_ms": m.itl_s * 1e3,
        "e2e_s": m.e2e_latency_s,
        "throughput_tok_s": m.throughput_tok_s,
        "samples_per_s": m.samples_per_s,
        "fits": pm.fits(batch, in_tok + out_tok),
    }


def metrics_row(pm: InferencePerfModel, batch: int, in_tok: int, out_tok: int,
                images: int = 0) -> dict[str, float | bool]:
    """Standard metric columns for one workload shape."""
    m = pm.generate(batch, in_tok, out_tok, images_per_sample=images,
                    check_memory=False)
    return _metric_columns(pm, m, batch, in_tok, out_tok)


def metrics_rows(pm: InferencePerfModel, shapes, images: int = 0) -> list[dict[str, float | bool]]:
    """:func:`metrics_row` for an axis of ``(batch, in_tok, out_tok)``
    shapes against one deployment, evaluated as NumPy arrays in one pass.

    Bit-identical to the per-point loop (the step model's core runs on
    floats and arrays alike); falls back to it when vectorization is
    disabled or the perf model is instrumented (the per-point path owns
    the eval counters).
    """
    shapes = [(int(b), int(i), int(o)) for b, i, o in shapes]
    if not vectorize_enabled() or (pm.obs is not None and pm.obs.active):
        return [metrics_row(pm, b, i, o, images=images) for b, i, o in shapes]

    steps = pm.steps
    ctx0s = [pm._context_tokens(i, images) for _, i, _ in shapes]
    ttfts = steps.prefill_totals([b for b, _, _ in shapes], ctx0s)
    if images > 0:
        # vision encode is per-point scalar (cheap, batch-dependent only)
        ttfts = [t + steps.vision_encode_time(b * images)
                 for t, (b, _, _) in zip(ttfts, shapes)]

    # decode integrates over sampled checkpoints of the growing context;
    # flatten every (point, checkpoint) pair into one vectorized axis
    flat_b: list[int] = []
    flat_ctx: list[int] = []
    spans: list[tuple[int, int, int] | None] = []
    for (b, _, o), ctx0 in zip(shapes, ctx0s):
        if o <= 1:
            spans.append(None)
            continue
        n_steps = o - 1
        samples = max(2, min(_DECODE_SAMPLES, n_steps))
        spans.append((len(flat_b), samples, n_steps))
        for s in range(samples):
            ctx = ctx0 + 1 + int(round(s * (n_steps - 1) / max(1, samples - 1)))
            flat_b.append(b)
            flat_ctx.append(ctx)
    step_times = steps.decode_totals(flat_b, flat_ctx) if flat_b else []

    rows = []
    for (b, i, o), ttft, span in zip(shapes, ttfts, spans):
        if span is None:
            decode = 0.0
        else:
            start, samples, n_steps = span
            total = 0.0
            for idx in range(start, start + samples):
                total += step_times[idx]
            decode = total * n_steps / samples
        m = InferenceMetrics(shape=GenerationShape(b, i, o),
                             ttft_s=ttft, e2e_latency_s=ttft + decode)
        rows.append(_metric_columns(pm, m, b, i, o))
    return rows
