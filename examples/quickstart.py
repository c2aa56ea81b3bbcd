#!/usr/bin/env python
"""Quickstart: the model zoo and the performance model in five minutes.

1. the model zoo + parameter accounting,
2. the analytical performance model (throughput/latency on simulated H100s).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.hardware import H100_SXM
from repro.models import get_model, model_params
from repro.optim import FP8_CONFIG, FP16_CONFIG
from repro.parallel import ParallelPlan
from repro.perfmodel import InferencePerfModel


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. model zoo and parameter accounting (paper Table 1 / Fig. 1)
    # ------------------------------------------------------------------ #
    model = get_model("Mixtral-8x7B")
    params = model_params(model)
    print(f"{model.name}: {model.num_layers} layers, "
          f"{model.moe.num_experts} experts (top-{model.moe.top_k})")
    print(f"  total params : {params.total / 1e9:6.1f} B")
    print(f"  active/token : {params.active / 1e9:6.1f} B")
    print(f"  MoE share    : {100 * params.moe_fraction_total:5.1f}% of memory")

    # ------------------------------------------------------------------ #
    # 2. performance on a simulated 4xH100 node (paper §4-§7)
    # ------------------------------------------------------------------ #
    print("\nThroughput on 4xH100 (batch 32, 1024 in / 1024 out):")
    for quant in (FP16_CONFIG, FP8_CONFIG):
        pm = InferencePerfModel(model, H100_SXM, plan=ParallelPlan(tp=4),
                                quant=quant)
        m = pm.generate(32, 1024, 1024)
        print(f"  {quant.name:5s}: {m.throughput_tok_s:8,.0f} tok/s   "
              f"TTFT {m.ttft_s * 1e3:7.1f} ms   ITL {m.itl_s * 1e6:6.1f} us")

    print("\nActive-expert sweep (the paper's primary optimization lever):")
    for k in (1, 2, 4, 8):
        variant = model.with_moe(model.moe.with_top_k(k))
        pm = InferencePerfModel(variant, H100_SXM, plan=ParallelPlan(tp=4))
        m = pm.generate(16, 1024, 1024)
        print(f"  top-k={k}: {m.throughput_tok_s:8,.0f} tok/s")

    # where does a decode step's time actually go?
    pm = InferencePerfModel(model, H100_SXM, plan=ParallelPlan(tp=4))
    bd = pm.steps.step_breakdown(32, 32, 1536, "decode")
    print("\n" + bd.describe())


if __name__ == "__main__":
    main()
