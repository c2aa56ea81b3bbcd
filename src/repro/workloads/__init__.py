"""Workload generators: fixed shapes, length distributions, arrival traces,
multimodal streams."""

from repro.workloads.generator import (
    PAPER_BATCH_SIZES,
    PAPER_SEQUENCE_LENGTHS,
    FixedShapeWorkload,
    LengthDistribution,
)
from repro.workloads.multimodal import (
    BALANCED_ROUTER_BIAS_STD,
    MME_NUM_SAMPLES,
    UNBALANCED_ROUTER_BIAS_STD,
    MMEStream,
    router_bias_std_for,
    run_activation_study,
)
from repro.workloads.traces import BurstSpec, burst_arrivals, poisson_arrivals

__all__ = [
    "PAPER_BATCH_SIZES",
    "PAPER_SEQUENCE_LENGTHS",
    "FixedShapeWorkload",
    "LengthDistribution",
    "BALANCED_ROUTER_BIAS_STD",
    "MME_NUM_SAMPLES",
    "UNBALANCED_ROUTER_BIAS_STD",
    "MMEStream",
    "router_bias_std_for",
    "run_activation_study",
    "BurstSpec",
    "burst_arrivals",
    "poisson_arrivals",
]
