"""Micro-benchmarks of the substrates themselves.

Unlike the ``bench_fig*`` files (which time whole experiment
regenerations), these exercise the hot paths of the library under real
multi-round pytest-benchmark timing: the NumPy MoE layer (fused vs
unfused), the router, the serving engine's iteration loop, and the
analytical model evaluation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.gpus import H100_SXM
from repro.models.config import MoEConfig
from repro.models.zoo import OLMOE_1B_7B
from repro.moe.layer import MoELayer
from repro.moe.router import TopKRouter
from repro.perfmodel.inference import InferencePerfModel
from repro.serving.engine import ServingEngine
from repro.serving.request import Request, SamplingParams

_RNG = np.random.default_rng(0)
_HIDDEN = 256
_LAYER = MoELayer(_HIDDEN, MoEConfig(num_experts=16, top_k=2, expert_ffn_dim=512),
                  rng=np.random.default_rng(1))
_TOKENS = _RNG.normal(0, 1, (256, _HIDDEN)).astype(np.float32)
_ROUTER = TopKRouter(_HIDDEN, 64, 8, rng=np.random.default_rng(2))


def test_router_route(benchmark):
    result = benchmark(_ROUTER.route, _TOKENS)
    assert result.num_tokens == 256


def test_moe_layer_fused(benchmark):
    out = benchmark(_LAYER, _TOKENS, "fused")
    assert out.hidden.shape == _TOKENS.shape


def test_moe_layer_unfused(benchmark):
    out = benchmark(_LAYER, _TOKENS, "unfused")
    assert out.hidden.shape == _TOKENS.shape


def test_perfmodel_generate(benchmark):
    pm = InferencePerfModel(OLMOE_1B_7B, H100_SXM)
    metrics = benchmark(pm.generate, 16, 512, 256)
    assert metrics.throughput_tok_s > 0


def test_serving_engine_run(benchmark):
    pm = InferencePerfModel(OLMOE_1B_7B, H100_SXM)

    def serve():
        engine = ServingEngine(pm, kv_pool_tokens=65536)
        for i in range(16):
            engine.submit(Request(request_id=i, prompt_tokens=128,
                                  sampling=SamplingParams(max_tokens=32)))
        return engine.run()

    result = benchmark(serve)
    assert all(r.is_finished for r in result.requests)
