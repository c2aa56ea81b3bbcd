"""Figure 5: impact of batch size under varying active experts (top-k)."""

from __future__ import annotations

import itertools

from repro.core.experiment import ExperimentResult
from repro.core.registry import experiment
from repro.core.results import ResultTable
from repro.experiments.common import metrics_rows, perf_model
from repro.models.zoo import get_model

MODELS = ("DeepSeek-V2-Lite", "Qwen1.5-MoE-A2.7B")
BATCHES = (1, 16, 32, 64, 128)
TOPKS = (1, 2, 4, 8, 16, 32)
IO_TOKENS = 1024  # context length 2048 = input + output


@experiment("fig5")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig5",
        title="Batch size x active experts (top-k), context length 2048",
        paper_claim=(
            "Throughput decreases with active experts for all batch sizes, "
            "more pronounced at large batches (DeepSeek-V2-Lite drops "
            "~15-20% at bs 64/128 from top-k 1->32); batch scaling is "
            "sub-linear."
        ),
    )
    table = ResultTable(
        "throughput",
        ("model", "batch", "top_k", "throughput_tok_s", "fits"),
    )

    # one deployment per (model, top_k), priced along the batch axis.
    # Rows land in a dict first because the recorded table order is
    # model -> batch -> top_k (batch is *not* the innermost sweep axis)
    # and digests are order-sensitive.
    cells: dict[tuple[str, int, int], dict] = {}
    for model in MODELS:
        cfg = get_model(model)
        for top_k in TOPKS:
            variant = cfg.with_moe(cfg.moe.with_top_k(top_k))
            pm = perf_model(variant)
            rows = metrics_rows(pm, [(b, IO_TOKENS, IO_TOKENS) for b in BATCHES])
            for batch, row in zip(BATCHES, rows):
                cells[(model, batch, top_k)] = {
                    "throughput_tok_s": row["throughput_tok_s"],
                    "fits": row["fits"],
                }
    for model, batch, top_k in itertools.product(MODELS, BATCHES, TOPKS):
        table.add(model=model, batch=batch, top_k=top_k,
                  **cells[(model, batch, top_k)])
    result.tables.append(table)

    from repro.core.charts import line_chart

    for model in MODELS:
        series = {
            f"bs={b}": [(r["top_k"], r["throughput_tok_s"])
                        for r in table.where(model=model, batch=b)]
            for b in BATCHES
        }
        result.add_chart(line_chart(
            series, title=f"{model}: throughput (tok/s) vs active experts",
            logx=True,
        ))

    for model in MODELS:
        sub = table.where(model=model)
        for batch in (1, 128):
            at_bs = sub.where(batch=batch)
            thr = {r["top_k"]: r["throughput_tok_s"] for r in at_bs}
            drop = 100 * (1 - thr[max(TOPKS)] / thr[min(TOPKS)])
            result.observe(
                f"{model} bs={batch}: top-k 1->32 throughput drop {drop:.0f}%."
            )
        scale = (
            sub.where(batch=128, top_k=4).rows[0]["throughput_tok_s"]
            / sub.where(batch=1, top_k=4).rows[0]["throughput_tok_s"]
        )
        result.observe(
            f"{model}: batch 1->128 scales throughput {scale:.0f}x "
            "(sub-linear, < 128x)."
        )
    return result
