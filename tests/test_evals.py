"""Tests for repro.evals (accuracy tables, frontier)."""

from __future__ import annotations

import pytest

from repro.evals.accuracy import (
    LLM_TASK_ACCURACY,
    LM_EVAL_TASKS,
    VLM_EVAL_TASKS,
    VLM_TASK_ACCURACY,
    average_accuracy,
    predicted_accuracy,
    task_accuracy,
)
from repro.evals.harness import accuracy_efficiency_frontier
from repro.hardware.gpus import H100_SXM
from repro.models.zoo import get_model


class TestAccuracyTables:
    def test_every_llm_covers_every_task(self):
        for model, table in LLM_TASK_ACCURACY.items():
            assert set(table) == set(LM_EVAL_TASKS), model

    def test_every_vlm_covers_every_task(self):
        for model, table in VLM_TASK_ACCURACY.items():
            assert set(table) == set(VLM_EVAL_TASKS), model

    def test_scores_are_percentages(self):
        for table in (*LLM_TASK_ACCURACY.values(), *VLM_TASK_ACCURACY.values()):
            assert all(0 < v <= 100 for v in table.values())

    def test_task_accuracy_lookup(self):
        assert task_accuracy("Mixtral-8x7B", "mmlu") == 70.6
        with pytest.raises(KeyError):
            task_accuracy("Mixtral-8x7B", "gsm8k")
        with pytest.raises(KeyError, match="known"):
            task_accuracy("GPT-5", "mmlu")

    def test_paper_accuracy_ordering(self):
        """Fig. 17: Qwen3-30B/Mixtral lead; OLMoE lowest."""
        avg = {m: average_accuracy(m) for m in LLM_TASK_ACCURACY}
        assert max(avg, key=avg.get) in ("Qwen3-30B-A3B", "Mixtral-8x7B")
        assert min(avg, key=avg.get) == "OLMoE-1B-7B"

    def test_vlm_ladder(self):
        """Fig. 18: accuracy grows Tiny < Small < base."""
        assert (average_accuracy("DeepSeek-VL2-Tiny")
                < average_accuracy("DeepSeek-VL2-Small")
                < average_accuracy("DeepSeek-VL2"))

    def test_predicted_accuracy_reasonable(self):
        pred = predicted_accuracy(get_model("Mixtral-8x7B"))
        assert 50 < pred < 90

    def test_predicted_accuracy_monotone_in_capacity(self):
        small = predicted_accuracy(get_model("OLMoE-1B-7B"))
        big = predicted_accuracy(get_model("Qwen3-30B-A3B"))
        assert big > small


class TestHarness:
    def test_frontier_points(self):
        models = [get_model(n) for n in ("OLMoE-1B-7B", "DeepSeek-V2-Lite")]
        pts = accuracy_efficiency_frontier(models, H100_SXM, 8, 256, 128)
        assert len(pts) == 2
        olmoe = next(p for p in pts if p.model_name == "OLMoE-1B-7B")
        dsv2 = next(p for p in pts if p.model_name == "DeepSeek-V2-Lite")
        assert olmoe.throughput_tok_s > dsv2.throughput_tok_s
        assert olmoe.accuracy < dsv2.accuracy
        assert not olmoe.oom


class TestDegradedTopkAccuracy:
    def test_anchored_at_native_topk(self):
        from repro.evals.accuracy import degraded_topk_accuracy

        model = get_model("OLMoE-1B-7B")
        assert degraded_topk_accuracy(model, model.moe.top_k) == \
            pytest.approx(average_accuracy("OLMoE-1B-7B"))

    def test_monotone_in_topk(self):
        from repro.evals.accuracy import degraded_topk_accuracy

        model = get_model("OLMoE-1B-7B")
        accs = [degraded_topk_accuracy(model, k)
                for k in range(model.moe.top_k, 0, -1)]
        assert all(a > b for a, b in zip(accs, accs[1:]))

    def test_rejects_dense_models_and_bad_k(self):
        from repro.evals.accuracy import degraded_topk_accuracy

        model = get_model("OLMoE-1B-7B")
        with pytest.raises(ValueError):
            degraded_topk_accuracy(model, 0)
        with pytest.raises(ValueError):
            degraded_topk_accuracy(model, model.moe.top_k + 1)
        import dataclasses

        dense = dataclasses.replace(model, moe=None, dense_ffn_dim=1024)
        with pytest.raises(ValueError):
            degraded_topk_accuracy(dense, 1)
