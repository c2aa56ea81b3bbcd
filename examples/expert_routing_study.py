#!/usr/bin/env python
"""Expert routing study: activation balance of two MoE VLM routers.

Reproduces the paper's §8.3 activation-frequency study (Fig. 15): route an
MME-like multimodal stream through a balanced (DeepSeek-style) and an
unbalanced (MolmoE-style) router and compare their activation heatmaps.

Run:  python examples/expert_routing_study.py
"""

from __future__ import annotations

import numpy as np

from repro.models import get_model
from repro.workloads import MMEStream, run_activation_study


def ascii_heat(counts: np.ndarray, width: int = 64) -> str:
    """One text row per layer; darker glyph == hotter expert."""
    glyphs = " .:-=+*#%@"
    out = []
    step = max(1, counts.shape[1] // width)
    sub = counts[:, ::step]
    hi = sub.max() or 1
    for row in sub:
        out.append("".join(glyphs[min(9, int(9 * c / hi))] for c in row))
    return "\n".join(out)


def main() -> None:
    rng = np.random.default_rng(7)

    print("Routing the MME-like stream (2,374 samples) through the routers:\n")
    for name in ("DeepSeek-VL2-Tiny", "MolmoE-1B"):
        tracker = run_activation_study(get_model(name), stream=MMEStream(),
                                       rng=rng, max_routed_tokens=40_000)
        m = tracker.overall_metrics()
        print(f"{name}: peak {tracker.peak_activation():>9,}  "
              f"gini {m.gini:.3f}  max/mean {m.imbalance:.2f}")
        print(ascii_heat(tracker.heatmap()[:6]))
        print()


if __name__ == "__main__":
    main()
