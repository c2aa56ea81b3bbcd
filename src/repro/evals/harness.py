"""Evaluation harness: accuracy-efficiency frontiers.

Assembles the data behind the paper's Figs. 17/18: each model's simulated
throughput and latency, paired with its reported average accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.evals.accuracy import average_accuracy
from repro.hardware.spec import HardwareSpec
from repro.models.config import ModelConfig
from repro.optim.quantization import FP16_CONFIG, QuantConfig
from repro.parallel.plan import SINGLE_DEVICE, ParallelPlan
from repro.perfmodel.inference import InferencePerfModel

__all__ = ["FrontierPoint", "accuracy_efficiency_frontier"]


@dataclass(frozen=True)
class FrontierPoint:
    """One model's position in the accuracy-efficiency plane."""

    model_name: str
    accuracy: float
    throughput_tok_s: float
    e2e_latency_s: float
    oom: bool

    @property
    def dominates(self) -> tuple[float, float]:  # pragma: no cover - sugar
        return (self.accuracy, self.throughput_tok_s)


def accuracy_efficiency_frontier(
    models: list[ModelConfig],
    hardware: HardwareSpec,
    batch: int,
    input_tokens: int,
    output_tokens: int,
    plans: dict[str, ParallelPlan] | None = None,
    quant: QuantConfig = FP16_CONFIG,
    fused_moe_overrides: dict[str, bool] | None = None,
) -> list[FrontierPoint]:
    """Measure each model's throughput/latency and pair it with its
    reference accuracy (Fig. 17/18 data).

    ``fused_moe_overrides`` disables the fused-MoE path per model, for
    architectures whose serving stack lacked a fused kernel.
    """
    plans = plans or {}
    fused_moe_overrides = fused_moe_overrides or {}
    points = []
    for model in models:
        plan = plans.get(model.name, SINGLE_DEVICE)
        pm = InferencePerfModel(
            model, hardware, plan=plan, quant=quant,
            fused_moe=fused_moe_overrides.get(model.name, True),
        )
        metrics = pm.generate(batch, input_tokens, output_tokens, check_memory=False)
        points.append(FrontierPoint(
            model_name=model.name,
            accuracy=average_accuracy(model.name),
            throughput_tok_s=metrics.throughput_tok_s,
            e2e_latency_s=metrics.e2e_latency_s,
            oom=not pm.fits(batch, input_tokens + output_tokens),
        ))
    return points
