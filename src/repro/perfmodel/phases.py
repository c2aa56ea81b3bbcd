"""Step-time composition: prefill and decode phase models.

Turns the per-component costs of :mod:`repro.perfmodel.flops` into wall
times on a given hardware/parallelism/quantization deployment:

* TP shards every GEMM ``tp``-ways and adds two ring all-reduces per layer;
* EP places whole experts on ``ep`` device groups, paying two all-to-alls
  per MoE layer plus a stochastic load-imbalance stall;
* PP splits the layer stack and adds ``pp-1`` point-to-point hops (no
  intra-request pipelining — a single batch traverses stages serially,
  which is why PP throughput stays flat in the paper's Fig. 13);
* the fused-MoE toggle switches the expert path's launch count and
  intermediate traffic (Fig. 14).

The cost arithmetic exists once (:meth:`StepModel._step_terms`) and runs
on Python floats.  The one array caller is the serving engine's decode
row (:meth:`StepModel.decode_totals`): one scalar batch over a float64
array of contexts, with the same bits as one float step per context.
The cost splits along what the terms read: the attention core alone
reads the KV context, while weights, expert coverage, the router,
embedding and lm_head, TP/EP collectives, PP hops and the fixed overhead
read only the step's token count and batch
(:meth:`StepModel._token_terms`).  For decode steps those token-only
terms are memoized per ``(tokens, batch)`` in the step cache, so a
decode row over many contexts, or a decode breakdown at an already priced
``(tokens, batch)``, pays only for attention.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.hardware.interconnect import _all_to_all_time, _allreduce_time, _p2p_time
from repro.hardware.roofline import (
    KernelCost,
    _gemm_efficiency,
    _kernel_time,
    _maximum,
    gemm_efficiency,
    kernel_time,
)
from repro.hardware.spec import HardwareSpec
from repro.models.config import AttentionKind, ModelConfig
from repro.optim.quantization import FP16_CONFIG, QuantConfig
from repro.parallel.plan import SINGLE_DEVICE, ParallelPlan
from repro.perfmodel import stepcache as _stepcache
from repro.perfmodel.flops import (
    ComponentCost,
    attention_core_cost,
    dense_ffn_cost,
    embedding_cost,
    expected_group_imbalance,
    lm_head_cost,
    qkvo_cost,
    router_cost,
    routed_experts_cost,
    shared_expert_cost,
)

__all__ = ["PhaseBreakdown", "StepModel"]


@dataclass
class PhaseBreakdown:
    """Wall time of one forward step, decomposed.

    ``components`` maps component name → seconds (summed over all layers);
    ``comm`` is collective-communication time, ``pipeline`` the PP hop cost,
    ``overhead`` the fixed per-step software cost.
    """

    phase: str
    components: dict[str, float] = field(default_factory=dict)
    comm: float = 0.0  # simlint: unit=s
    pipeline: float = 0.0  # simlint: unit=s
    overhead: float = 0.0  # simlint: unit=s
    subcomponents: dict[str, float] = field(default_factory=dict)
    """Finer-grained attribution *overlapping* ``components`` (e.g. the
    router's share of ``moe_ffn``) — excluded from :attr:`total`, consumed
    by the cost-attribution profiler to carve components apart."""

    @property
    def total(self) -> float:
        return sum(self.components.values()) + self.comm + self.pipeline + self.overhead

    def shares(self) -> dict[str, float]:
        """Fraction of step time per component (comm/pipeline/overhead
        included), for profiler-style reports."""
        total = self.total
        if total <= 0:
            return {}
        out = {k: v / total for k, v in self.components.items() if v > 0}
        for name, v in (("comm", self.comm), ("pipeline", self.pipeline),
                        ("overhead", self.overhead)):
            if v > 0:
                out[name] = v / total
        return out

    def describe(self, width: int = 40) -> str:
        """A one-block text profile of where the step time goes."""
        shares = sorted(self.shares().items(), key=lambda kv: -kv[1])
        if not shares:
            return f"{self.phase}: empty step"
        label_w = max(len(k) for k, _ in shares)
        lines = [f"{self.phase} step: {self.total * 1e3:.3f} ms"]
        for name, frac in shares:
            bar = "#" * max(1, int(round(frac * width)))
            lines.append(f"  {name:<{label_w}} {100 * frac:5.1f}% |{bar}")
        return "\n".join(lines)


class StepModel:
    """Per-step execution-time model for one deployment."""

    def __init__(
        self,
        model: ModelConfig,
        hardware: HardwareSpec,
        plan: ParallelPlan = SINGLE_DEVICE,
        quant: QuantConfig = FP16_CONFIG,
        fused_moe: bool = True,
        mla_native: bool = False,
    ) -> None:
        plan.validate_for_model(model)
        if plan.num_devices > hardware.max_devices:
            raise ValueError(
                f"plan needs {plan.num_devices} devices; {hardware.name} nodes "
                f"have at most {hardware.max_devices}"
            )
        self.model = model
        self.hardware = hardware
        self.plan = plan
        self.quant = quant
        self.fused_moe = fused_moe
        self.mla_native = mla_native
        self._layer_is_moe = tuple(is_moe for _, is_moe in model.iter_layers())
        # intern the frozen setup once: per-step cache keys are flat tuples.
        # the concrete class is part of the setup — subclasses override
        # cost hooks (e.g. the flat-efficiency ablation's _gemm_eff) and
        # must not share entries with the base model.
        self._cache = _stepcache.GLOBAL
        self._setup_id = self._cache.setup_id(_stepcache.freeze((
            type(self).__module__, type(self).__qualname__,
            model, hardware, plan, quant, fused_moe, mla_native,
        )))

    @property
    def setup_id(self) -> int:
        """Interned id of this deployment's frozen setup — equal setups
        (same model/hardware/plan/quant/flags and concrete class) share an
        id, so external memo tables (the engine fast path's totals memo)
        can key on it instead of re-hashing the configs."""
        return self._setup_id

    # ------------------------------------------------------------------ #
    # kernel-time helpers
    # ------------------------------------------------------------------ #

    def _gemm_eff(self, m, n, k):
        """Compute efficiency of an ``m×k @ k×n`` GEMM — the hook the
        flat-efficiency ablation overrides."""
        return _gemm_efficiency(m, n, k, self.hardware)

    def _component_time(self, cost: ComponentCost, shard: float = 1.0,
                        kv_shard: float = 1.0, dtype: str | None = None):
        """Roofline time of one component sharded ``shard``-ways.

        ``kv_shard`` separately divides activation/KV traffic for the
        attention core (KV heads shard differently from weights);
        ``dtype`` overrides the math dtype (attention cores run in half
        precision even under weight/activation quantization).
        """
        if not cost.launches:
            return 0.0  # an absent component (no shared experts / dense FFN)
        hw = self.hardware
        w_bytes = cost.weight_bytes / shard
        if self.quant.weights.is_quantized:
            # dequantisation stalls erode part of the bandwidth saving
            w_bytes = w_bytes / hw.quant_mem_derate
        a_bytes = cost.act_bytes / kv_shard if kv_shard != 1.0 else cost.act_bytes / shard
        if cost.gemm_k > 0:
            eff = self._gemm_eff(
                cost.gemm_m, _maximum(1.0, cost.gemm_n / shard), cost.gemm_k)
        else:
            eff = hw.max_gemm_efficiency
        return _kernel_time(
            cost.flops / shard, w_bytes + a_bytes,
            dtype if dtype is not None else self.quant.compute_dtype_name,
            cost.launches, eff, hw,
        )

    # ------------------------------------------------------------------ #
    # per-layer times
    # ------------------------------------------------------------------ #

    def _attention_core_time(self, m, batch, kv_len, attended_len):
        """Seconds of one layer's attention core: the only step term that
        reads the KV context."""
        tp = self.plan.tp
        att = self.model.attention
        if att.kind is AttentionKind.MLA and self.mla_native:
            kv_shard = 1.0  # the compressed latent is replicated across TP
        else:
            kv_shard = float(min(tp, att.num_kv_heads))
        # the attention core runs in half precision regardless of quant mode
        return self._component_time(
            attention_core_cost(self.model, m, batch, kv_len, self.quant,
                                attended_len, mla_native=self.mla_native),
            shard=tp,
            kv_shard=kv_shard,
            dtype="fp16",
        )

    def _moe_ffn_time(self, m):
        """(router seconds, compute seconds incl. router, comm seconds) of
        one MoE layer's FFN block."""
        moe = self.model.moe
        assert moe is not None
        tp, ep = self.plan.tp, self.plan.ep
        router_t = self._component_time(router_cost(self.model, m, self.quant))

        if ep > 1:
            resident = moe.num_experts // ep
            # mean assignments landing on one EP group; the all-to-all
            # barrier makes the step as slow as the *max*-loaded group, so
            # the whole expert phase is scaled by the multinomial imbalance
            imbalance = expected_group_imbalance(ep, m * moe.top_k)
            cost = routed_experts_cost(
                self.model,
                _maximum(1.0, m / ep),
                self.quant,
                fused=self.fused_moe,
                num_experts_resident=resident,
                top_k=min(moe.top_k, resident),
            )
            # EP dispatch machinery: sort/scatter/gather across devices
            cost = replace(cost, launches=cost.launches + 3)
            experts = self._component_time(
                cost, shard=self.plan.expert_shard_tp) * imbalance
            payload = (m * moe.top_k / ep) * self.model.hidden_size * self.quant.activation_bytes
            comm = 2.0 * _all_to_all_time(payload * ep, ep, self.hardware)
        else:
            cost = routed_experts_cost(self.model, m, self.quant, fused=self.fused_moe)
            experts = self._component_time(cost, shard=tp)
            comm = 0.0

        shared = self._component_time(
            shared_expert_cost(self.model, m, self.quant), shard=tp)
        return router_t, router_t + experts + shared, comm

    def _dense_ffn_time(self, m):
        return self._component_time(
            dense_ffn_cost(self.model, m, self.quant), shard=self.plan.tp
        )

    # ------------------------------------------------------------------ #
    # whole-step times
    # ------------------------------------------------------------------ #

    def _token_terms(self, m, batch):
        """Every step term that reads ``(m, batch)`` alone, not the KV
        context: ``(qkvo, elementwise, moe_ffn, dense_ffn, embedding,
        lm_head, router, comm, pipeline, overhead)`` seconds, where
        ``qkvo`` and ``elementwise`` are one attention layer's projections
        and rmsnorm/residual/rope traffic and the rest are already summed
        over the layers (see :meth:`_step_terms`)."""
        model, plan, quant, hw = self.model, self.plan, self.quant, self.hardware
        layers = self._layer_is_moe
        n_moe = layers.count(True)
        n_dense = len(layers) - n_moe
        qkvo = self._component_time(qkvo_cost(model, m, quant), shard=plan.tp)
        # rmsnorm + residual + rope elementwise traffic
        ew_bytes = 8.0 * m * model.hidden_size * quant.activation_bytes / plan.tp
        elementwise = _kernel_time(0.0, ew_bytes, "fp16", 5,
                                   hw.max_gemm_efficiency, hw)
        router_layer = moe_layer = comm_layer = dense_layer = 0.0
        if n_moe:
            router_layer, moe_layer, comm_layer = self._moe_ffn_time(m)
        if n_dense:
            dense_layer = self._dense_ffn_time(m)
        moe_ffn = dense_ffn = router = moe_comm = 0.0
        for is_moe in layers:
            if is_moe:
                router = router + router_layer
                moe_ffn = moe_ffn + moe_layer
                moe_comm = moe_comm + comm_layer
            else:
                dense_ffn = dense_ffn + dense_layer

        # embeddings + final logits (decode & prefill both produce `batch`)
        embedding = self._component_time(
            embedding_cost(model, m, quant), shard=plan.tp)
        lm_head = self._component_time(
            lm_head_cost(model, batch, quant), shard=plan.tp)

        # TP collectives: 2 ring all-reduces per layer over the token payload
        comm = 0.0
        if plan.tp > 1:
            payload = m * model.hidden_size * quant.activation_bytes
            n_ar = model.num_layers  # post-attention all-reduce
            # post-FFN all-reduce only where the FFN is still TP-sharded
            n_ar += n_dense + (n_moe if plan.expert_shard_tp > 1 or plan.ep == 1 else 0)
            comm = n_ar * _allreduce_time(payload, plan.tp, hw)
        comm = comm + moe_comm

        # PP: serial stage traversal, one p2p hop per boundary, plus the
        # extra per-stage launch/sync overhead
        pipeline = 0.0
        if plan.pp > 1:
            hop = _p2p_time(m * model.hidden_size * quant.activation_bytes, hw)
            pipeline = (plan.pp - 1) * (hop + hw.step_overhead_us * 1e-6 * 0.5)

        overhead = (hw.step_overhead_us + batch * hw.per_seq_overhead_us) * 1e-6

        # vision tower cost is charged by the caller per image, not per step
        return (qkvo, elementwise, moe_ffn, dense_ffn, embedding, lm_head,
                router, comm, pipeline, overhead)

    def _step_terms(self, m, batch, kv_len, attended_len):
        """The step's ``(attention, moe_ffn, dense_ffn, embedding, lm_head,
        router, comm, pipeline, overhead)`` seconds.

        The one step-cost core: ``m`` and ``batch`` are Python floats, and
        ``kv_len`` is a float or, for a decode row, a float64 array of
        contexts, with the same bits either way.  Only the attention core
        reads the context; every other term comes from
        :meth:`_token_terms`, which a decode step takes from the step
        cache's token memo
        (:attr:`~repro.perfmodel.stepcache.StepCache.token_terms`), so a
        decode row and a decode breakdown at a known ``(m, batch)`` price
        the attention core alone.  Each per-layer term is priced once and
        then accumulated by repeated addition from ``0.0``, as a per-layer
        loop would (``n`` additions are not one multiplication in floating
        point); the attention layer is ``(qkvo + core) + elementwise``.
        The accumulators are independent, so summing the token-only ones
        apart leaves every bit as it was.
        """
        cache = self._cache
        # only decode shapes (whole-context attention) are memoized: their
        # (m, batch) recurs across contexts, while prefill token counts
        # are nearly unique and would fill the memo without a hit
        if attended_len is None and cache.enabled:
            key = (self._setup_id, m, batch)
            tokens = cache.token_terms.get(key)
            if tokens is None:
                tokens = self._token_terms(m, batch)
                cache.put_token_terms(key, tokens)
        else:
            tokens = self._token_terms(m, batch)
        qkvo, elementwise, moe_ffn, dense_ffn, embedding, lm_head, router, \
            comm, pipeline, overhead = tokens
        attn_layer = (qkvo + self._attention_core_time(
            m, batch, kv_len, attended_len)) + elementwise
        attention = 0.0
        for _ in self._layer_is_moe:
            attention = attention + attn_layer
        return (attention, moe_ffn, dense_ffn, embedding, lm_head, router,
                comm, pipeline, overhead)

    @staticmethod
    def _total(terms):
        """``PhaseBreakdown.total`` of :meth:`_step_terms` output, in its
        exact addition order (components, then comm, pipeline, overhead)."""
        attention, moe_ffn, dense_ffn, embedding, lm_head, _, comm, pipeline, \
            overhead = terms
        return (attention + moe_ffn + dense_ffn + embedding + lm_head
                + comm + pipeline + overhead)

    def step_breakdown(
        self,
        num_tokens: float,
        batch: float,
        kv_len: float,
        phase: str,
        attended_len: float | None = None,
    ) -> PhaseBreakdown:
        """Wall time of one forward step.

        Parameters
        ----------
        num_tokens:
            New tokens processed this step (prefill: ``batch * prompt_len``;
            decode: ``batch``).
        batch:
            Number of sequences in the step.
        kv_len:
            Context length whose KV cache is read per sequence.
        phase:
            ``"prefill"`` or ``"decode"`` (labelling + logits count).

        Results are memoized through :mod:`repro.perfmodel.stepcache`:
        repeated shapes return the *same* :class:`PhaseBreakdown` object,
        so callers must treat it as immutable (copy before editing).
        """
        if phase not in ("prefill", "decode"):
            raise ValueError(f"phase must be 'prefill' or 'decode', got {phase!r}")
        if num_tokens <= 0 or batch <= 0:
            raise ValueError("num_tokens and batch must be positive")
        cache = self._cache
        if not cache.enabled:
            return self._compute_step_breakdown(
                num_tokens, batch, kv_len, phase, attended_len)
        key = (self._setup_id, num_tokens, batch, kv_len, phase, attended_len)
        bd = cache.get(key)
        if bd is None:
            bd = self._compute_step_breakdown(
                num_tokens, batch, kv_len, phase, attended_len)
            cache.put(key, bd)
        return bd

    def _compute_step_breakdown(
        self,
        num_tokens: float,
        batch: float,
        kv_len: float,
        phase: str,
        attended_len: float | None,
    ) -> PhaseBreakdown:
        attention, moe_ffn, dense_ffn, embedding, lm_head, router, comm, \
            pipeline, overhead = self._step_terms(
                float(num_tokens), float(batch), float(kv_len),
                None if attended_len is None else float(attended_len))
        bd = PhaseBreakdown(
            phase=phase,
            components={"attention": attention, "moe_ffn": moe_ffn,
                        "dense_ffn": dense_ffn, "embedding": embedding,
                        "lm_head": lm_head},
            comm=comm, pipeline=pipeline, overhead=overhead,
        )
        if router:
            bd.subcomponents["router"] = router
        return bd

    def prefill_time(self, batch: int, prompt_len: int) -> float:
        """Seconds to prefill ``batch`` prompts of ``prompt_len`` tokens."""
        if prompt_len <= 0:
            raise ValueError("prompt_len must be positive")
        bd = self.step_breakdown(
            num_tokens=batch * prompt_len,
            batch=batch,
            kv_len=prompt_len,
            phase="prefill",
            attended_len=(prompt_len + 1) / 2.0,
        )
        return bd.total

    def decode_step_time(self, batch: int, context_len: int) -> float:
        """Seconds for one decode step at the given per-sequence context."""
        if context_len <= 0:
            raise ValueError("context_len must be positive")
        bd = self.step_breakdown(
            num_tokens=batch, batch=batch, kv_len=context_len, phase="decode"
        )
        return bd.total

    # ------------------------------------------------------------------ #
    # step totals without a breakdown (engine probes)
    # ------------------------------------------------------------------ #

    def step_total_one(self, num_tokens, batch, kv_len,
                       attended_len=None) -> float:
        """One step's total seconds on Python floats, skipping the
        breakdown and the step cache — the engine fast path's point probe.
        Same bits as ``step_breakdown(...).total``."""
        m = float(num_tokens)
        b = float(batch)
        kv = float(kv_len)
        att = None if attended_len is None else float(attended_len)
        if m <= 0 or b <= 0:
            raise ValueError("num_tokens and batch must be positive")
        return self._total(self._step_terms(m, b, kv, att))

    def decode_totals(self, batch, context_lens) -> list[float]:
        """``decode_step_time(batch, c)`` for every context ``c`` — the
        engine's decode-memo row.  The token-only terms are priced once,
        through the token memo, and one float64 array pass over the
        contexts prices the attention core.  Returns Python floats so
        downstream tables never see ``np.float64`` (its repr would corrupt
        table digests)."""
        kv = np.asarray(context_lens, dtype=np.float64)
        if kv.size and kv.min() <= 0:
            raise ValueError("context_len must be positive")
        b = float(batch)
        if b <= 0:
            raise ValueError("num_tokens and batch must be positive")
        return self._total(self._step_terms(b, b, kv, None)).tolist()

    def cache_stats(self) -> _stepcache.CacheStats:
        """Hit/miss counters of the step cache this model routes through."""
        return self._cache.stats

    def vision_encode_time(self, num_images: int) -> float:
        """Seconds to encode ``num_images`` through the vision tower (VLMs).

        The ViT encoder is a dense transformer over ``image_tokens`` patches;
        we charge its GEMM flops at the roofline plus per-layer launches.
        """
        v = self.model.vision
        if v is None or num_images <= 0:
            return 0.0
        m = float(num_images * v.image_tokens)
        per_layer_params = 4 * v.hidden_size**2 + 2 * v.hidden_size * v.ffn_dim
        flops = 2.0 * m * per_layer_params * v.num_layers
        flops += 2.0 * m * v.image_tokens * v.hidden_size * 2 * v.num_layers  # attn core
        bytes_ = per_layer_params * v.num_layers * self.quant.weight_bytes
        bytes_ += 4.0 * m * v.hidden_size * v.num_layers * self.quant.activation_bytes
        kc = KernelCost(flops=flops, bytes=bytes_, dtype=self.quant.compute_dtype_name,
                        launches=8 * v.num_layers)
        eff = gemm_efficiency(m, v.hidden_size, v.hidden_size, self.hardware)
        return kernel_time(kc, self.hardware, efficiency=eff)
