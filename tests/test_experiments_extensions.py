"""Integration tests for the extension experiments."""

from __future__ import annotations

import pytest

from repro.core.registry import list_experiments, run_experiment


@pytest.fixture(scope="module")
def results():
    cache: dict[str, object] = {}

    def get(exp_id: str):
        if exp_id not in cache:
            cache[exp_id] = run_experiment(exp_id)
        return cache[exp_id]

    return get


def test_extensions_registered():
    ids = set(list_experiments())
    assert {"ext_a100", "ext_kv_quant", "ext_serving_load",
            "ext_spec_batch"} <= ids


class TestA100:
    def test_h100_faster_everywhere(self, results):
        table = results("ext_a100").table("cross-hardware")
        for model in ("OLMoE-1B-7B", "DeepSeek-V2-Lite", "Qwen3-30B-A3B"):
            h = table.where(model=model, hardware="H100", quant="fp16").rows[0]
            a = table.where(model=model, hardware="A100", quant="fp16").rows[0]
            assert h["throughput_tok_s"] > 1.3 * a["throughput_tok_s"]
            assert h["tokens_per_joule"] > a["tokens_per_joule"]

    def test_fp8_only_pays_on_h100(self, results):
        table = results("ext_a100").table("cross-hardware")
        h16 = table.where(model="Qwen3-30B-A3B", hardware="H100", quant="fp16").rows[0]
        h8 = table.where(model="Qwen3-30B-A3B", hardware="H100", quant="fp8").rows[0]
        a16 = table.where(model="Qwen3-30B-A3B", hardware="A100", quant="fp16").rows[0]
        a8 = table.where(model="Qwen3-30B-A3B", hardware="A100", quant="fp8").rows[0]
        h_gain = h8["throughput_tok_s"] / h16["throughput_tok_s"]
        a_gain = a8["throughput_tok_s"] / a16["throughput_tok_s"]
        assert h_gain > 1.1
        assert a_gain < h_gain


class TestKVQuant:
    def test_fp8_kv_halves_kv_and_doubles_capacity(self, results):
        table = results("ext_kv_quant").table("kv quantization")
        for model in ("OLMoE-1B-7B", "Qwen1.5-MoE-A2.7B"):
            fp8 = table.where(model=model, config="fp8").rows[0]
            kv8 = table.where(model=model, config="fp8+fp8kv").rows[0]
            assert kv8["kv_gb_per_1k_tokens"] == pytest.approx(
                fp8["kv_gb_per_1k_tokens"] / 2
            )
            assert kv8["max_context_tokens"] > 1.8 * fp8["max_context_tokens"]
            assert kv8["throughput_tok_s"] > fp8["throughput_tok_s"]


class TestServingLoad:
    def test_latency_grows_with_load(self, results):
        table = results("ext_serving_load").table("load sweep")
        rows = {r["arrival_rate_rps"]: r for r in table}
        assert rows[128.0]["p99_ttft_s"] > rows[2.0]["p99_ttft_s"]
        assert rows[128.0]["mean_decode_batch"] > rows[2.0]["mean_decode_batch"]

    def test_throughput_saturates(self, results):
        table = results("ext_serving_load").table("load sweep")
        thr = [r["throughput_tok_s"] for r in table]
        # saturation: the last doubling of load buys <2x throughput
        assert thr[-1] < 2 * thr[-2]


class TestSpecBatch:
    def test_speedup_grows_with_batch_for_moe(self, results):
        table = results("ext_spec_batch").table("speculation vs batching")
        speed = {r["batch"]: r["speedup"] for r in table}
        assert speed[64] > speed[1]
        assert speed[64] > 1.0  # speculation pays once coverage saturates


class TestMultinode:
    def test_node_boundary_penalty(self, results):
        table = results("ext_multinode").table("multinode dispatch")
        intra = table.where(ep=8).rows[0]
        inter = table.where(ep=16).rows[0]
        assert inter["alltoall_ms"] > 1.5 * intra["alltoall_ms"]
        assert inter["nodes"] == 2

    def test_dispatch_grows_with_ep(self, results):
        table = results("ext_multinode").table("multinode dispatch")
        ms = [r["alltoall_ms"] for r in table]
        assert ms[-1] > ms[0]


class TestOffload:
    def test_offload_cliff(self, results):
        table = results("ext_offload").table("offload sweep")
        full = table.where(hot_fraction=1.0, policy="random").rows[0]
        half = table.where(hot_fraction=0.5, policy="random").rows[0]
        assert half["decode_tok_s"] < 0.2 * full["decode_tok_s"]

    def test_frequency_caching_helps(self, results):
        table = results("ext_offload").table("offload sweep")
        for hot in (0.75, 0.5, 0.25):
            rand = table.where(hot_fraction=hot, policy="random").rows[0]
            freq = table.where(hot_fraction=hot, policy="frequency").rows[0]
            assert freq["decode_tok_s"] >= rand["decode_tok_s"]
            assert freq["hit_fraction"] >= rand["hit_fraction"]


class TestPlacement:
    def test_molmoe_improves_deepseek_doesnt_need_it(self, results):
        table = results("ext_placement").table("placement comparison")
        molmo = table.where(model="MolmoE-1B", ep=8).rows[0]
        ds = table.where(model="DeepSeek-VL2-Tiny", ep=8).rows[0]
        assert molmo["improvement_pct"] > 5
        assert molmo["optimized_imbalance"] < 1.05
        assert ds["default_imbalance"] < molmo["default_imbalance"]

    def test_routes_each_model_once(self, monkeypatch):
        # the activation study never reads the EP size, so its three EP
        # points share one study per model
        from repro.workloads import multimodal

        calls = []
        study = multimodal.run_activation_study

        def counted(model, *args, **kwargs):
            calls.append(model.name)
            return study(model, *args, **kwargs)

        monkeypatch.setattr(multimodal, "run_activation_study", counted)
        run_experiment("ext_placement")
        assert calls == ["DeepSeek-VL2-Tiny", "MolmoE-1B"]


class TestCapacity:
    def test_skew_drops_more(self, results):
        table = results("ext_capacity").table("capacity sweep")
        for cf in (1.0, 1.25, 1.5, 2.0):
            bal = table.where(router="balanced", capacity_factor=cf).rows[0]
            skw = table.where(router="skewed", capacity_factor=cf).rows[0]
            assert skw["drop_rate_pct"] >= bal["drop_rate_pct"]

    def test_drop_rate_decreases_with_capacity(self, results):
        table = results("ext_capacity").table("capacity sweep")
        for router in ("balanced", "skewed"):
            rates = [r["drop_rate_pct"] for r in table.where(router=router)]
            assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_balanced_rarely_drops_at_generous_capacity(self, results):
        table = results("ext_capacity").table("capacity sweep")
        bal = table.where(router="balanced", capacity_factor=2.0).rows[0]
        assert bal["drop_rate_pct"] < 1.0


class TestPrefixCacheExperiment:
    def test_caching_cuts_ttft(self, results):
        table = results("ext_prefix_cache").table("prefix caching")
        for prefix in (256, 1024, 4096):
            off = table.where(shared_prefix_tokens=prefix, caching="off").rows[0]
            on = table.where(shared_prefix_tokens=prefix, caching="on").rows[0]
            assert on["mean_ttft_ms"] < off["mean_ttft_ms"]
            assert on["kv_hit_rate_pct"] > 50
            assert off["kv_hit_rate_pct"] == 0

    def test_benefit_grows_with_prefix_length(self, results):
        table = results("ext_prefix_cache").table("prefix caching")

        def speedup(prefix):
            off = table.where(shared_prefix_tokens=prefix, caching="off").rows[0]
            on = table.where(shared_prefix_tokens=prefix, caching="on").rows[0]
            return off["mean_ttft_ms"] / on["mean_ttft_ms"]

        assert speedup(4096) > speedup(256)
