"""Tests for sliding-window attention support."""

from __future__ import annotations

import dataclasses

import pytest

from repro.hardware.gpus import H100_SXM
from repro.models.config import AttentionConfig
from repro.models.zoo import MIXTRAL_8X7B
from repro.optim.quantization import FP16_CONFIG
from repro.perfmodel.flops import attention_core_cost
from repro.perfmodel.memory import MemoryModel
from repro.perfmodel.phases import StepModel


def _windowed(model, window):
    att = dataclasses.replace(model.attention, sliding_window=window)
    return dataclasses.replace(model, attention=att)


class TestConfig:
    def test_effective_kv_len(self):
        att = AttentionConfig(num_heads=4, num_kv_heads=4, head_dim=16,
                              sliding_window=128)
        assert att.effective_kv_len(64) == 64
        assert att.effective_kv_len(1000) == 128

    def test_disabled_window(self):
        att = AttentionConfig(num_heads=4, num_kv_heads=4, head_dim=16)
        assert att.effective_kv_len(1000) == 1000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            AttentionConfig(num_heads=4, num_kv_heads=4, head_dim=16,
                            sliding_window=-1)
        att = AttentionConfig(num_heads=4, num_kv_heads=4, head_dim=16)
        with pytest.raises(ValueError):
            att.effective_kv_len(-1)


class TestPerfEffects:
    def test_kv_read_capped(self):
        full = attention_core_cost(MIXTRAL_8X7B, 1, 1, 16384, FP16_CONFIG)
        win = attention_core_cost(
            _windowed(MIXTRAL_8X7B, 4096), 1, 1, 16384, FP16_CONFIG
        )
        assert win.bytes < full.bytes / 3

    def test_no_effect_inside_window(self):
        full = attention_core_cost(MIXTRAL_8X7B, 1, 1, 2048, FP16_CONFIG)
        win = attention_core_cost(
            _windowed(MIXTRAL_8X7B, 4096), 1, 1, 2048, FP16_CONFIG
        )
        assert win.bytes == full.bytes
        assert win.flops == full.flops

    def test_kv_memory_capped(self):
        base = MemoryModel(MIXTRAL_8X7B, H100_SXM)
        windowed = MemoryModel(_windowed(MIXTRAL_8X7B, 4096), H100_SXM)
        assert windowed.kv_cache_bytes(4, 16384) == pytest.approx(
            base.kv_cache_bytes(4, 4096)
        )

    def test_decode_latency_flattens_beyond_window(self):
        steps = StepModel(_windowed(MIXTRAL_8X7B, 4096), H100_SXM,
                          plan=__import__("repro.parallel.plan",
                                          fromlist=["ParallelPlan"]).ParallelPlan(tp=2))
        at_window = steps.decode_step_time(8, 4096)
        far_beyond = steps.decode_step_time(8, 32768)
        assert far_beyond == pytest.approx(at_window, rel=0.02)
