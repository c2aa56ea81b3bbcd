"""Extension experiments beyond the paper's figures.

The paper's conclusion and related-work sections point at several studies
it does not run; these experiments fill them in with the same machinery:

* ``ext_a100`` — cross-generation hardware comparison (H100 vs A100),
  including energy efficiency (the paper motivates "energy-efficient
  execution" but reports no energy numbers).
* ``ext_kv_quant`` — FP8 KV-cache quantization: throughput and the
  serving-capacity (max concurrent context) gains.
* ``ext_serving_load`` — online-serving saturation: TTFT percentiles and
  sustained throughput vs Poisson arrival rate through the
  continuous-batching engine (the vLLM-level view the paper's static
  batches cannot show).
* ``ext_spec_batch`` — speculative decoding vs batch size: where the
  draft-verify trade-off stops paying for a fine-grained MoE target.
"""

from __future__ import annotations

import numpy as np

from repro.core.experiment import ExperimentResult, sweep
from repro.core.registry import experiment
from repro.core.results import ResultTable
from repro.experiments.common import H100
from repro.hardware.gpus import A100_SXM
from repro.models.zoo import QWEN3_1_7B, QWEN3_30B_A3B, get_model
from repro.optim.quantization import FP8_CONFIG, FP16_CONFIG, QuantConfig
from repro.optim.speculative import SpeculativeDecodingModel
from repro.parallel.plan import SINGLE_DEVICE, ParallelPlan
from repro.perfmodel.energy import energy_for_generation
from repro.perfmodel.inference import InferencePerfModel
from repro.serving.engine import ServingEngine
from repro.serving.scheduler import SchedulerConfig
from repro.workloads.generator import LengthDistribution
from repro.workloads.traces import poisson_arrivals


@experiment("ext_a100")
def run_a100() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ext_a100",
        title="Extension: H100 vs A100 throughput and energy efficiency",
        paper_claim=(
            "(extension) The paper evaluates H100 only; its motivation "
            "includes energy-efficient execution across accelerators."
        ),
    )
    table = ResultTable(
        "cross-hardware",
        ("model", "hardware", "quant", "throughput_tok_s", "tokens_per_joule",
         "mean_power_w"),
    )
    models = ("OLMoE-1B-7B", "DeepSeek-V2-Lite", "Qwen3-30B-A3B")

    def point(model: str, hardware: str, quant: str) -> dict:
        hw = H100 if hardware == "H100" else A100_SXM
        q = FP16_CONFIG if quant == "fp16" else FP8_CONFIG
        pm = InferencePerfModel(get_model(model), hw, quant=q)
        m = pm.generate(32, 1024, 1024, check_memory=False)
        energy = energy_for_generation(pm, m)
        return {
            "throughput_tok_s": m.throughput_tok_s,
            "tokens_per_joule": energy.tokens_per_joule(m.shape.total_tokens),
            "mean_power_w": energy.mean_power_w,
        }

    sweep(table, {"model": models, "hardware": ("H100", "A100"),
                  "quant": ("fp16", "fp8")}, point)
    result.tables.append(table)

    for model in models:
        h = table.where(model=model, hardware="H100", quant="fp16").rows[0]
        a = table.where(model=model, hardware="A100", quant="fp16").rows[0]
        result.observe(
            f"{model}: H100 is {h['throughput_tok_s'] / a['throughput_tok_s']:.2f}x "
            f"faster than A100 at fp16 and "
            f"{h['tokens_per_joule'] / a['tokens_per_joule']:.2f}x more "
            "energy-efficient despite the higher TDP."
        )
    # A100 has no FP8 tensor cores: fp8 only saves bandwidth there
    h8 = table.where(model="Qwen3-30B-A3B", hardware="H100", quant="fp8").rows[0]
    a8 = table.where(model="Qwen3-30B-A3B", hardware="A100", quant="fp8").rows[0]
    h16 = table.where(model="Qwen3-30B-A3B", hardware="H100", quant="fp16").rows[0]
    a16 = table.where(model="Qwen3-30B-A3B", hardware="A100", quant="fp16").rows[0]
    result.observe(
        f"FP8 gain on H100: {100 * (h8['throughput_tok_s'] / h16['throughput_tok_s'] - 1):.0f}% "
        f"vs A100 (no FP8 tensor cores, bandwidth-only benefit): "
        f"{100 * (a8['throughput_tok_s'] / a16['throughput_tok_s'] - 1):.0f}%."
    )
    return result


@experiment("ext_kv_quant")
def run_kv_quant() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ext_kv_quant",
        title="Extension: FP8 KV-cache quantization",
        paper_claim=(
            "(extension) The paper's FP8 study quantizes weights and "
            "activations; the KV cache is the other memory consumer."
        ),
    )
    fp8_kv = QuantConfig.make("fp8+fp8kv", "fp8_e4m3", "fp8_e4m3",
                              kv_cache="fp8_e4m3", compute="fp8_e4m3")
    table = ResultTable(
        "kv quantization",
        ("model", "config", "throughput_tok_s", "kv_gb_per_1k_tokens",
         "max_context_tokens"),
    )
    models = ("OLMoE-1B-7B", "Qwen1.5-MoE-A2.7B")

    def point(model: str, config: str) -> dict:
        q = {"fp16": FP16_CONFIG, "fp8": FP8_CONFIG, "fp8+fp8kv": fp8_kv}[config]
        pm = InferencePerfModel(get_model(model), H100, quant=q)
        m = pm.generate(32, 1024, 1024, check_memory=False)
        return {
            "throughput_tok_s": m.throughput_tok_s,
            "kv_gb_per_1k_tokens": pm.memory.kv_bytes_per_token_per_device() * 1e3 / 1e9,
            "max_context_tokens": pm.memory.max_context_tokens(),
        }

    sweep(table, {"model": models, "config": ("fp16", "fp8", "fp8+fp8kv")}, point)
    result.tables.append(table)

    for model in models:
        base = table.where(model=model, config="fp8").rows[0]
        kv8 = table.where(model=model, config="fp8+fp8kv").rows[0]
        result.observe(
            f"{model}: FP8 KV adds "
            f"{100 * (kv8['throughput_tok_s'] / base['throughput_tok_s'] - 1):.0f}% "
            f"throughput over FP8-weights-only and raises serving capacity "
            f"{kv8['max_context_tokens'] / base['max_context_tokens']:.2f}x "
            "(KV pool tokens)."
        )
    return result


@experiment("ext_serving_load")
def run_serving_load() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ext_serving_load",
        title="Extension: online-serving saturation under Poisson load",
        paper_claim=(
            "(extension) The paper measures static batches; production "
            "serving cares about TTFT percentiles vs arrival rate."
        ),
    )
    table = ResultTable(
        "load sweep",
        ("arrival_rate_rps", "mean_ttft_s", "p99_ttft_s",
         "throughput_tok_s", "mean_decode_batch", "preemptions"),
    )
    model = get_model("OLMoE-1B-7B")
    n_requests = 120

    def point(arrival_rate_rps: float) -> dict:
        rng = np.random.default_rng(11)
        pm = InferencePerfModel(model, H100)
        engine = ServingEngine(
            pm, scheduler_config=SchedulerConfig(max_num_seqs=128),
            kv_pool_tokens=262_144,
        )
        arrivals = poisson_arrivals(arrival_rate_rps, n_requests, rng)
        dist = LengthDistribution(mean_input=512, mean_output=128, sigma=0.4)
        for req in dist.requests(n_requests, rng, arrival_times=arrivals):
            engine.submit(req)
        res = engine.run()
        from repro.serving.events import EventType

        decodes = res.log.of_type(EventType.DECODE)
        mean_batch = (float(np.mean([len(e.request_ids) for e in decodes]))
                      if decodes else 0.0)
        return {
            "mean_ttft_s": res.mean_ttft(),
            "p99_ttft_s": res.p99_ttft(),
            "throughput_tok_s": res.throughput_tok_s,
            "mean_decode_batch": mean_batch,
            "preemptions": res.num_preemptions,
        }

    sweep(table, {"arrival_rate_rps": (2.0, 8.0, 32.0, 128.0)}, point)
    result.tables.append(table)

    rows = {r["arrival_rate_rps"]: r for r in table}
    result.observe(
        f"TTFT p99 grows from {rows[2.0]['p99_ttft_s']:.3f}s at 2 req/s to "
        f"{rows[128.0]['p99_ttft_s']:.3f}s at 128 req/s as admission queues "
        "build; decode batches grow "
        f"{rows[2.0]['mean_decode_batch']:.0f} -> "
        f"{rows[128.0]['mean_decode_batch']:.0f} seqs."
    )
    result.observe(
        "Sustained token throughput saturates once the engine is "
        "continuously batched — beyond that, extra load only adds queueing "
        "delay (the classic serving saturation curve)."
    )
    return result


@experiment("ext_spec_batch")
def run_spec_batch() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ext_spec_batch",
        title="Extension: speculative decoding vs batch size",
        paper_claim=(
            "(extension) The paper studies drafts at one batch size; "
            "speculation competes with batching for the same idle compute."
        ),
    )
    table = ResultTable(
        "speculation vs batching",
        ("batch", "autoregressive_tok_s", "speculative_tok_s", "speedup"),
    )

    def point(batch: int) -> dict:
        spec = SpeculativeDecodingModel(
            QWEN3_30B_A3B, QWEN3_1_7B, H100, num_draft_tokens=2,
        )
        base_pm = InferencePerfModel(QWEN3_30B_A3B, H100)
        base = batch / base_pm.steps.decode_step_time(batch, 512)
        fast = spec.decode_throughput(batch, 512)
        return {
            "autoregressive_tok_s": base,
            "speculative_tok_s": fast,
            "speedup": fast / base,
        }

    sweep(table, {"batch": (1, 4, 16, 64)}, point)
    result.tables.append(table)

    speedups = {r["batch"]: r["speedup"] for r in table}
    result.observe(
        f"Speculation speedup GROWS from {speedups[1]:.2f}x at bs=1 to "
        f"{speedups[64]:.2f}x at bs=64 for this fine-grained-MoE target: "
        "at bs=1 verifying k+1 positions touches ~(k+1)x more experts "
        "(weights dominate, speculation loses), while at large batch the "
        "expert coverage is already saturated, so the verification step "
        "costs barely more than a plain decode step and the accepted "
        "tokens come almost for free."
    )
    return result


@experiment("ext_placement")
def run_placement() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ext_placement",
        title="Extension: activation-aware expert placement for EP",
        paper_claim=(
            "(extension) Fig. 15 shows skewed routing and §7.1 blames EP "
            "scaling on load imbalance; frequency-aware placement connects "
            "the two."
        ),
    )
    from repro.parallel.placement_opt import compare_placements
    from repro.workloads.multimodal import run_activation_study

    table = ResultTable(
        "placement comparison",
        ("model", "ep", "default_imbalance", "optimized_imbalance",
         "improvement_pct"),
    )
    models = ("DeepSeek-VL2-Tiny", "MolmoE-1B")
    # the study never reads the EP size, so each model is routed once
    loads = {
        model: run_activation_study(
            get_model(model), rng=np.random.default_rng(5),
            max_routed_tokens=20_000,
        ).heatmap().sum(axis=0).astype(float)
        for model in models
    }

    def point(model: str, ep: int) -> dict:
        cmp = compare_placements(loads[model], ep)
        return {
            "default_imbalance": cmp["default_imbalance"],
            "optimized_imbalance": cmp["optimized_imbalance"],
            "improvement_pct": 100 * (1 - cmp["optimized_imbalance"]
                                      / cmp["default_imbalance"]),
        }

    sweep(table, {"model": models, "ep": (2, 4, 8)}, point)
    result.tables.append(table)

    molmo = table.where(model="MolmoE-1B", ep=8).rows[0]
    ds = table.where(model="DeepSeek-VL2-Tiny", ep=8).rows[0]
    result.observe(
        f"MolmoE-1B (skewed routing): LPT placement cuts EP-8 load "
        f"imbalance from {molmo['default_imbalance']:.2f} to "
        f"{molmo['optimized_imbalance']:.2f} "
        f"({molmo['improvement_pct']:.0f}% better)."
    )
    result.observe(
        f"DeepSeek-VL2-Tiny (aux-loss balanced): little to gain "
        f"({ds['default_imbalance']:.2f} -> {ds['optimized_imbalance']:.2f}) "
        "— balanced training already did the placement's job."
    )
    return result


@experiment("ext_multinode")
def run_multinode() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ext_multinode",
        title="Extension: EP dispatch cost across node boundaries",
        paper_claim=(
            "(extension) §5.3 concludes extreme-scale MoEs need "
            "'distributed placement across multi-node architectures'; this "
            "quantifies the fabric tax of doing so."
        ),
    )
    from repro.hardware.cluster import ClusterSpec

    cluster = ClusterSpec(node=H100, num_nodes=8)
    table = ResultTable(
        "multinode dispatch",
        ("ep", "nodes", "alltoall_ms", "allreduce_ms"),
    )
    # prefill-scale dispatch: 4096 routed tokens per MoE layer
    tokens, hidden, top_k = 4096, 4096, 2
    payload = tokens * hidden * 2.0  # fp16 hidden states

    def point(ep: int) -> dict:
        nodes = -(-ep // H100.max_devices)
        return {
            "nodes": nodes,
            "alltoall_ms": 1e3 * cluster.ep_dispatch_time(tokens, hidden, top_k, ep),
            "allreduce_ms": 1e3 * cluster.allreduce_time(payload, ep),
        }

    sweep(table, {"ep": (2, 4, 8, 16, 32, 64)}, point)
    result.tables.append(table)

    intra = table.where(ep=8).rows[0]
    inter = table.where(ep=16).rows[0]
    result.observe(
        f"Crossing the node boundary multiplies EP dispatch cost "
        f"{inter['alltoall_ms'] / intra['alltoall_ms']:.1f}x (8 -> 16 "
        "devices): the InfiniBand leg is ~9x slower per byte than NVLink, "
        "so experts should fill nodes before spilling across them."
    )
    return result


@experiment("ext_offload")
def run_offload() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ext_offload",
        title="Extension: CPU expert offloading and frequency-aware caching",
        paper_claim=(
            "(extension) When total experts exceed device memory, cold "
            "experts can live in host RAM — at what cost, and how much "
            "does Fig. 15-style frequency data recover?"
        ),
    )
    from repro.perfmodel.offload import (
        OffloadPlan,
        offload_throughput_estimate,
        traffic_hit_fraction,
    )
    from repro.workloads.multimodal import run_activation_study

    # MolmoE-1B: 64 experts with the measured Fig. 15 skew — the natural
    # offloading candidate (its own activation profile drives the cache)
    model = get_model("MolmoE-1B")
    tracker = run_activation_study(
        model, rng=np.random.default_rng(9), max_routed_tokens=15_000,
    )
    counts = tracker.heatmap().sum(axis=0)

    table = ResultTable(
        "offload sweep",
        ("hot_fraction", "policy", "hit_fraction", "decode_tok_s"),
    )

    def point(hot_fraction: float, policy: str) -> dict:
        if policy == "random":
            hit = hot_fraction
        else:
            hit = traffic_hit_fraction(counts, hot_fraction)
        plan = OffloadPlan(hot_fraction=hot_fraction, hit_fraction=hit)
        return {
            "hit_fraction": hit,
            "decode_tok_s": offload_throughput_estimate(
                model, 16, 1024, plan, H100,
            ),
        }

    sweep(table, {"hot_fraction": (1.0, 0.75, 0.5, 0.25),
                  "policy": ("random", "frequency")}, point)
    result.tables.append(table)

    r50 = table.where(hot_fraction=0.5, policy="random").rows[0]
    f50 = table.where(hot_fraction=0.5, policy="frequency").rows[0]
    full = table.where(hot_fraction=1.0, policy="random").rows[0]
    result.observe(
        f"Offloading is a cliff: evicting half the experts costs "
        f"{100 * (1 - r50['decode_tok_s'] / full['decode_tok_s']):.0f}% of "
        "decode throughput with random caching — PCIe is ~50x slower than "
        "HBM3, so even rare misses dominate the step."
    )
    result.observe(
        f"Frequency-aware caching lifts the hit rate to "
        f"{100 * f50['hit_fraction']:.0f}% at 50% residency and recovers "
        f"{f50['decode_tok_s'] / r50['decode_tok_s']:.2f}x of the random-"
        "cache throughput — real, but nowhere near full residency "
        "(consistent with the tok/s rates of Mixtral-offloading systems)."
    )
    return result


@experiment("ext_capacity")
def run_capacity() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ext_capacity",
        title="Extension: expert capacity factor vs token dropping",
        paper_claim=(
            "(extension) Capacity-limited systems trade the paper's "
            "load-imbalance stalls for dropped tokens; this quantifies the "
            "drop rate as a function of capacity factor and router skew."
        ),
    )
    from repro.moe.capacity import drop_statistics
    from repro.moe.router import TopKRouter

    table = ResultTable(
        "capacity sweep",
        ("router", "capacity_factor", "drop_rate_pct", "token_drop_rate_pct"),
    )
    rng = np.random.default_rng(21)
    hidden = 64
    tokens = rng.normal(size=(4096, hidden)).astype(np.float32)
    routers = {
        "balanced": TopKRouter(hidden, 64, 8, expert_bias_std=0.0,
                               rng=np.random.default_rng(1)),
        "skewed": TopKRouter(hidden, 64, 8, expert_bias_std=0.75,
                             rng=np.random.default_rng(1)),
    }

    def point(router: str, capacity_factor: float) -> dict:
        stats = drop_statistics(routers[router], tokens, capacity_factor)
        return {
            "drop_rate_pct": 100 * stats["drop_rate"],
            "token_drop_rate_pct": 100 * stats["token_drop_rate"],
        }

    sweep(table, {"router": ("balanced", "skewed"),
                  "capacity_factor": (1.0, 1.25, 1.5, 2.0)}, point)
    result.tables.append(table)

    bal = table.where(router="balanced", capacity_factor=1.25).rows[0]
    skw = table.where(router="skewed", capacity_factor=1.25).rows[0]
    result.observe(
        f"At capacity factor 1.25, a balanced router drops "
        f"{bal['drop_rate_pct']:.1f}% of assignments while a MolmoE-grade "
        f"skewed router drops {skw['drop_rate_pct']:.1f}% — skew converts "
        "directly into either stalls (capacity-free vLLM) or quality loss "
        "(capacity-limited systems)."
    )
    skw2 = table.where(router="skewed", capacity_factor=2.0).rows[0]
    result.observe(
        f"Even capacity factor 2.0 leaves the skewed router dropping "
        f"{skw2['drop_rate_pct']:.1f}% of assignments."
    )
    return result


@experiment("ext_prefix_cache")
def run_prefix_cache() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ext_prefix_cache",
        title="Extension: automatic prefix caching for templated prompts",
        paper_claim=(
            "(extension) Agent/RAG workloads share long system prompts; "
            "content-hashed KV block sharing skips their prefill."
        ),
    )
    from repro.serving.engine import ServingEngine
    from repro.serving.request import Request, SamplingParams

    table = ResultTable(
        "prefix caching",
        ("shared_prefix_tokens", "caching", "mean_ttft_ms", "makespan_s",
         "kv_hit_rate_pct"),
    )
    model = get_model("OLMoE-1B-7B")
    n_requests, block = 16, 16

    def point(shared_prefix_tokens: int, caching: str) -> dict:
        pm = InferencePerfModel(model, H100)
        engine = ServingEngine(pm, kv_pool_tokens=131_072,
                               enable_prefix_caching=(caching == "on"))
        hashes = tuple(range(shared_prefix_tokens // block))
        for i in range(n_requests):
            engine.submit(Request(
                request_id=i,
                prompt_tokens=shared_prefix_tokens + 64,
                sampling=SamplingParams(max_tokens=32),
                prompt_block_hashes=hashes,
            ))
        res = engine.run()
        return {
            "mean_ttft_ms": 1e3 * res.mean_ttft(),
            "makespan_s": res.makespan,
            "kv_hit_rate_pct": 100 * res.kv_hit_rate,
        }

    sweep(table, {"shared_prefix_tokens": (256, 1024, 4096),
                  "caching": ("off", "on")}, point)
    result.tables.append(table)

    off = table.where(shared_prefix_tokens=4096, caching="off").rows[0]
    on = table.where(shared_prefix_tokens=4096, caching="on").rows[0]
    result.observe(
        f"With a 4k-token shared system prompt, prefix caching cuts mean "
        f"TTFT {off['mean_ttft_ms'] / on['mean_ttft_ms']:.1f}x and makespan "
        f"{off['makespan_s'] / on['makespan_s']:.2f}x at a "
        f"{on['kv_hit_rate_pct']:.0f}% block hit rate."
    )
    return result
