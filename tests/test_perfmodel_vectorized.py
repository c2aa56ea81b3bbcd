"""Exact-equivalence tests for the step model's array path: the serving
engine's decode row, ``StepModel.decode_totals(batch, contexts)``, one
scalar batch over a float64 array of contexts."""

from __future__ import annotations

import pytest

from repro.experiments.common import metrics_rows, perf_model
from repro.hardware.gpus import H100_SXM
from repro.models.zoo import get_model
from repro.optim.quantization import FP8_CONFIG
from repro.experiments.ablations import _FlatEfficiencyStepModel
from repro.parallel.plan import ParallelPlan
from repro.perfmodel.inference import InferencePerfModel
from repro.perfmodel.phases import StepModel

BATCHES = [1, 4, 16, 64, 128]
CONTEXTS = [1, 2, 63, 64, 129, 512, 1025, 2048, 4096]


def _assert_rows_identical(steps, contexts=CONTEXTS, batches=BATCHES):
    for b in batches:
        row = steps.decode_totals(b, contexts)
        # list equality of Python floats — every bit identical
        assert row == [steps.decode_step_time(b, c) for c in contexts]


class TestExactEquivalence:
    @pytest.mark.parametrize("model", [
        "OLMoE-1B-7B", "Mixtral-8x7B", "DeepSeek-V2-Lite",
        "Qwen1.5-MoE-A2.7B", "Qwen3-30B-A3B", "Phi-3.5-MoE",
    ])
    def test_default_deployments(self, model):
        _assert_rows_identical(perf_model(get_model(model)).steps)

    @pytest.mark.parametrize("plan", [
        ParallelPlan(tp=2), ParallelPlan(tp=4, ep=4), ParallelPlan(tp=4, pp=2),
        ParallelPlan(tp=8, ep=4),
    ])
    def test_parallel_plans(self, plan):
        pm = InferencePerfModel(get_model("Mixtral-8x7B"), H100_SXM, plan=plan)
        _assert_rows_identical(pm.steps)

    def test_quantized(self):
        pm = InferencePerfModel(get_model("Mixtral-8x7B"), H100_SXM,
                                plan=ParallelPlan(tp=2), quant=FP8_CONFIG)
        _assert_rows_identical(pm.steps)

    def test_unfused_moe(self):
        pm = InferencePerfModel(get_model("Qwen1.5-MoE-A2.7B"), H100_SXM,
                                fused_moe=False)
        _assert_rows_identical(pm.steps)

    def test_mla_native(self):
        pm = InferencePerfModel(get_model("DeepSeek-V2-Lite"), H100_SXM,
                                mla_native=True)
        _assert_rows_identical(pm.steps)

    def test_vlm_with_images(self):
        # contexts of prompts that each carry two images
        model = get_model("DeepSeek-VL2-Tiny")
        image_tokens = 2 * model.vision.image_tokens
        _assert_rows_identical(perf_model(model).steps,
                               [p + image_tokens for p in (128, 256)])

    def test_single_decode_step_edge(self):
        # a one-context row, the shortest context, and an empty row
        steps = perf_model(get_model("OLMoE-1B-7B")).steps
        _assert_rows_identical(steps, [1])
        _assert_rows_identical(steps, [4096])
        assert steps.decode_totals(8, []) == []

    @pytest.mark.parametrize("model", [
        "OLMoE-1B-7B", "Mixtral-8x7B", "DeepSeek-V2-Lite",
    ])
    def test_step_total_one_matches_scalar_and_batched(self, model):
        """The engine fast path's one-point entry must agree bit-for-bit
        with the breakdown path and, on decode shapes, with the decode
        row over the same context (the polymorphic helpers dispatch float
        vs array, but every arithmetic op is the same IEEE-754 operation)."""
        steps = StepModel(get_model(model), H100_SXM)
        shapes = [(1, 1, 1, None), (8, 8, 512, None), (64, 64, 4096, None),
                  (256, 4, 256, 128.5), (2048, 16, 2048, 1024.5)]
        for m, b, kv, att in shapes:
            one = steps.step_total_one(m, b, kv, att)
            assert type(one) is float
            if att is None and m == b:
                assert one == steps.decode_step_time(b, kv)
                assert one == steps.decode_totals(b, [kv])[0]
            else:
                scalar = steps.step_breakdown(
                    num_tokens=m, batch=b, kv_len=kv, phase="prefill",
                    attended_len=att if att is not None else kv).total
                assert one == scalar

    def test_step_total_one_validates(self):
        steps = StepModel(get_model("OLMoE-1B-7B"), H100_SXM)
        with pytest.raises(ValueError):
            steps.step_total_one(0, 1, 64)
        with pytest.raises(ValueError):
            steps.step_total_one(1, 0, 64)

    def test_flat_efficiency_arrays_match_floats(self):
        """The flat-efficiency ablation overrides only the GEMM-efficiency
        hook, so its decode row is the same core as its float path."""
        flat = _FlatEfficiencyStepModel(get_model("Mixtral-8x7B"), H100_SXM,
                                        plan=ParallelPlan(tp=4))
        _assert_rows_identical(flat)
        assert flat.decode_totals(64, [512]) != StepModel(
            get_model("Mixtral-8x7B"), H100_SXM,
            plan=ParallelPlan(tp=4)).decode_totals(64, [512])


class TestFallbacks:
    def test_instrumented_model_uses_scalar_path(self):
        from repro.obs.instrument import Instrumentation

        obs = Instrumentation.on()
        pm = InferencePerfModel(get_model("OLMoE-1B-7B"), H100_SXM,
                                instrumentation=obs)
        shapes = [(1, 64, 8), (2, 64, 8)]
        metrics_rows(pm, shapes)
        evals = [m for m in obs.metrics.snapshot()["metrics"]
                 if m["name"] == "perfmodel_evaluations_total"]
        assert evals  # the per-point path kept the eval counters alive

    def test_vectorized_returns_python_floats(self):
        # np.float64 leaking into tables would corrupt repr()-based digests
        steps = perf_model(get_model("OLMoE-1B-7B")).steps
        for value in steps.decode_totals(16, CONTEXTS):
            assert type(value) is float, type(value)
