"""MoE-Inference-Bench — simulation-based reproduction.

A comprehensive benchmarking suite for Mixture-of-Experts LLM/VLM inference,
reproducing "MoE-Inference-Bench: Performance Evaluation of Mixture of Expert
Large Language and Vision Models" (SC 2025) on simulated hardware.

Subpackages
-----------
``repro.models``
    Architecture configs for every model in the paper, parameter accounting.
``repro.tensor``
    NumPy tensor substrate: dtypes/quantization, linear, activations, top-k.
``repro.moe``
    MoE substrate: top-k router, experts, fused/unfused layer, routing stats,
    pruning config transforms.
``repro.hardware``
    Hardware specs (H100, A100, CS-3), roofline kernel model, interconnects.
``repro.perfmodel``
    Analytical inference performance model: FLOPs/bytes, memory/OOM,
    prefill/decode phases, TTFT/ITL/throughput.
``repro.serving``
    vLLM-like serving substrate: paged KV cache, continuous batching,
    discrete-event engine.
``repro.parallel``
    Tensor / pipeline / expert / hybrid parallelism models.
``repro.optim``
    Quantization, speculative decoding, fused-MoE optimization models.
``repro.evals``
    Accuracy reference tables and the accuracy-efficiency frontier.
``repro.workloads``
    Batch/trace/multimodal workload generators.
``repro.core``
    The benchmarking suite itself: metrics, experiment runner, registry,
    reports, CLI.
"""

from repro.version import __version__

__all__ = ["__version__"]
