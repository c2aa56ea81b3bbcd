"""Tests for repro.perfmodel.phases (step time composition)."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.experiments.ablations import _FlatEfficiencyStepModel
from repro.hardware.gpus import H100_SXM
from repro.models.config import AttentionKind
from repro.models.zoo import (
    DEEPSEEK_VL2_TINY,
    MIXTRAL_8X7B,
    OLMOE_1B_7B,
    QWEN3_0_6B,
    get_model,
    list_models,
)
from repro.optim.quantization import FP8_CONFIG, FP16_CONFIG
from repro.parallel.plan import SINGLE_DEVICE, ParallelPlan
from repro.perfmodel.phases import StepModel


@pytest.fixture(scope="module")
def olmoe_steps():
    return StepModel(OLMOE_1B_7B, H100_SXM)


class TestStepBreakdown:
    def test_components_present(self, olmoe_steps):
        bd = olmoe_steps.step_breakdown(16, 16, 512, "decode")
        assert {"attention", "moe_ffn", "embedding", "lm_head"} <= set(bd.components)
        assert bd.total > 0
        assert bd.components["moe_ffn"] > 0

    def test_dense_model_has_no_moe_time(self):
        steps = StepModel(QWEN3_0_6B, H100_SXM)
        bd = steps.step_breakdown(4, 4, 128, "decode")
        assert bd.components["moe_ffn"] == 0
        assert bd.components["dense_ffn"] > 0

    def test_phase_validation(self, olmoe_steps):
        with pytest.raises(ValueError):
            olmoe_steps.step_breakdown(4, 4, 128, "train")
        with pytest.raises(ValueError):
            olmoe_steps.step_breakdown(0, 4, 128, "decode")

    def test_total_is_sum(self, olmoe_steps):
        bd = olmoe_steps.step_breakdown(8, 8, 256, "decode")
        assert bd.total == pytest.approx(
            sum(bd.components.values()) + bd.comm + bd.pipeline + bd.overhead
        )


class TestMonotonicity:
    def test_decode_grows_with_batch(self, olmoe_steps):
        times = [olmoe_steps.decode_step_time(b, 1024) for b in (1, 8, 64, 256)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_decode_grows_with_context(self, olmoe_steps):
        times = [olmoe_steps.decode_step_time(16, c) for c in (128, 1024, 8192)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_prefill_grows_with_prompt(self, olmoe_steps):
        times = [olmoe_steps.prefill_time(4, n) for n in (128, 512, 2048)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_decode_throughput_sublinear_in_batch(self, olmoe_steps):
        """Batching amortises weight streaming: time(64) << 64*time(1)."""
        t1 = olmoe_steps.decode_step_time(1, 1024)
        t64 = olmoe_steps.decode_step_time(64, 1024)
        assert t64 < 16 * t1

    def test_validation(self, olmoe_steps):
        with pytest.raises(ValueError):
            olmoe_steps.decode_step_time(4, 0)
        with pytest.raises(ValueError):
            olmoe_steps.prefill_time(4, 0)


class TestParallelEffects:
    def test_tp_speeds_up_decode(self):
        t1 = StepModel(MIXTRAL_8X7B, H100_SXM).decode_step_time(16, 1024)
        t4 = StepModel(MIXTRAL_8X7B, H100_SXM,
                       plan=ParallelPlan(tp=4)).decode_step_time(16, 1024)
        assert t4 < t1
        assert t4 > t1 / 4  # communication prevents perfect scaling

    def test_tp_adds_comm(self):
        bd = StepModel(MIXTRAL_8X7B, H100_SXM,
                       plan=ParallelPlan(tp=4)).step_breakdown(16, 16, 1024, "decode")
        assert bd.comm > 0

    def test_pp_adds_pipeline_hops_not_speed(self):
        t1 = StepModel(MIXTRAL_8X7B, H100_SXM).decode_step_time(16, 1024)
        bd = StepModel(MIXTRAL_8X7B, H100_SXM,
                       plan=ParallelPlan(pp=4)).step_breakdown(16, 16, 1024, "decode")
        assert bd.pipeline > 0
        assert bd.total == pytest.approx(t1, rel=0.15)

    def test_ep_adds_all_to_all(self):
        bd = StepModel(MIXTRAL_8X7B, H100_SXM,
                       plan=ParallelPlan(tp=4, ep=4)).step_breakdown(
                           16, 16, 1024, "decode")
        bd_tp = StepModel(MIXTRAL_8X7B, H100_SXM,
                          plan=ParallelPlan(tp=4)).step_breakdown(
                              16, 16, 1024, "decode")
        assert bd.comm > 0
        # EP's imbalance makes the expert phase slower than pure TP's
        assert bd.components["moe_ffn"] > bd_tp.components["moe_ffn"]

    def test_too_many_devices_rejected(self):
        with pytest.raises(ValueError, match="devices"):
            StepModel(MIXTRAL_8X7B, H100_SXM, plan=ParallelPlan(tp=16))


class TestOptimizationEffects:
    def test_fused_faster_than_unfused(self):
        fused = StepModel(MIXTRAL_8X7B, H100_SXM, fused_moe=True)
        naive = StepModel(MIXTRAL_8X7B, H100_SXM, fused_moe=False)
        assert fused.decode_step_time(16, 1024) < naive.decode_step_time(16, 1024)

    def test_fp8_faster_than_fp16(self):
        f16 = StepModel(MIXTRAL_8X7B, H100_SXM)
        f8 = StepModel(MIXTRAL_8X7B, H100_SXM, quant=FP8_CONFIG)
        assert f8.decode_step_time(16, 1024) < f16.decode_step_time(16, 1024)

    def test_vision_encode_time(self):
        steps = StepModel(DEEPSEEK_VL2_TINY, H100_SXM)
        t1 = steps.vision_encode_time(1)
        t8 = steps.vision_encode_time(8)
        assert 0 < t1 < t8
        assert steps.vision_encode_time(0) == 0.0

    def test_vision_encode_zero_for_llm(self):
        assert StepModel(OLMOE_1B_7B, H100_SXM).vision_encode_time(4) == 0.0


# --------------------------------------------------------------------- #
# golden breakdown digest
# --------------------------------------------------------------------- #

_GOLDEN_PLANS = (
    SINGLE_DEVICE, ParallelPlan(tp=2), ParallelPlan(tp=4, ep=4),
    ParallelPlan(tp=4, pp=2), ParallelPlan(tp=8, ep=4),
)
_GOLDEN_SHAPES = (
    # (num_tokens, batch, kv_len, phase, attended_len)
    (128, 1, 128, "prefill", 64.5),
    (1536, 3, 700 / 3, "prefill", (700 / 3 + 1) / 2.0),
    (1, 1, 1, "decode", None),
    (16, 16, 1024, "decode", None),
    (256, 256, 4096, "decode", None),
)
_GOLDEN_DIGEST = "97cdadff79c1888f6c8b416be1e2e91e5ea5ffbcba4a12bc5d8d29eb6a581bb8"


def _windowed(model, window):
    att = dataclasses.replace(model.attention, sliding_window=window)
    return dataclasses.replace(model, attention=att)


def _golden_step_models():
    """Every zoo model x each valid plan x FP16/FP8 x fused on/off (x
    ``mla_native`` for MLA models), then the flat-efficiency ablation and
    a sliding-window variant, in a fixed order."""
    def build(cls, model, plan, **kw):
        try:
            return cls(model, H100_SXM, plan, **kw)
        except ValueError:
            return None  # plan invalid for this model

    for name in list_models():
        model = get_model(name)
        mla = (False, True) if model.attention.kind is AttentionKind.MLA \
            else (False,)
        for plan in _GOLDEN_PLANS:
            for quant in (FP16_CONFIG, FP8_CONFIG):
                for fused in (True, False):
                    for mla_native in mla:
                        yield build(StepModel, model, plan, quant=quant,
                                    fused_moe=fused, mla_native=mla_native)
            yield build(_FlatEfficiencyStepModel, model, plan)
    for plan in _GOLDEN_PLANS:
        yield build(StepModel, _windowed(MIXTRAL_8X7B, 512), plan)


def _breakdown_digest() -> str:
    h = hashlib.sha256()
    for steps in _golden_step_models():
        if steps is None:
            h.update(b"invalid;")
            continue
        for shape in _GOLDEN_SHAPES:
            bd = steps.step_breakdown(*shape)
            values = [*bd.components.items(),
                      *(("sub." + k, v) for k, v in bd.subcomponents.items()),
                      ("comm", bd.comm), ("pipeline", bd.pipeline),
                      ("overhead", bd.overhead), ("total", bd.total)]
            for name, value in values:
                h.update(f"{name}={float(value).hex()};".encode())
    return h.hexdigest()


class TestGoldenBreakdown:
    def test_breakdown_bits_match_recorded_digest(self):
        """``float.hex`` of every breakdown field over a fixed deployment x
        shape grid, hashed: any change to a simulated bit anywhere in the
        step model — including components no BENCH digest reads — fails
        here.  Re-record only for an intended model change."""
        assert _breakdown_digest() == _GOLDEN_DIGEST
