"""Figure 6: batch size vs input/output length."""

from __future__ import annotations

from repro.core.experiment import ExperimentResult
from repro.core.registry import experiment
from repro.core.results import ResultTable
from repro.experiments.common import metrics_rows, perf_model
from repro.models.zoo import get_model
from repro.workloads.generator import PAPER_SEQUENCE_LENGTHS

MODELS = ("DeepSeek-V2-Lite", "Qwen1.5-MoE-A2.7B")
BATCHES = (1, 16, 32, 64, 128)


@experiment("fig6")
def run() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig6",
        title="Batch size vs input/output length",
        paper_claim=(
            "Throughput rises steeply with batch (>8x from 1 to 128); "
            "shorter sequences outperform longer ones (length 128 up to "
            "~30% above 2048 at large batch); Qwen1.5-MoE exceeds "
            "DeepSeek-V2-Lite by 20-30% across settings."
        ),
    )
    table = ResultTable(
        "throughput",
        ("model", "batch", "io_tokens", "throughput_tok_s", "fits"),
    )

    # one deployment per model; the whole (batch, io_tokens) grid is one
    # axis, emitted in the original sweep's product order
    for model in MODELS:
        pm = perf_model(get_model(model))
        grid = [(b, io) for b in BATCHES for io in PAPER_SEQUENCE_LENGTHS]
        rows = metrics_rows(pm, [(b, io, io) for b, io in grid])
        for (batch, io_tokens), row in zip(grid, rows):
            table.add(model=model, batch=batch, io_tokens=io_tokens,
                      throughput_tok_s=row["throughput_tok_s"],
                      fits=row["fits"])
    result.tables.append(table)

    from repro.core.charts import line_chart

    for model in MODELS:
        series = {
            f"bs={b}": [(r["io_tokens"], r["throughput_tok_s"])
                        for r in table.where(model=model, batch=b)]
            for b in BATCHES
        }
        result.add_chart(line_chart(
            series, title=f"{model}: throughput (tok/s) vs io length",
            logx=True,
        ))

    for model in MODELS:
        sub = table.where(model=model, batch=128)
        thr = {r["io_tokens"]: r["throughput_tok_s"] for r in sub}
        gap = 100 * (thr[128] / thr[2048] - 1)
        scale = (
            table.where(model=model, batch=128, io_tokens=512).rows[0]["throughput_tok_s"]
            / table.where(model=model, batch=1, io_tokens=512).rows[0]["throughput_tok_s"]
        )
        result.observe(
            f"{model}: length 128 beats 2048 by {gap:.0f}% at bs=128; "
            f"batch 1->128 scaling {scale:.1f}x."
        )
    return result
