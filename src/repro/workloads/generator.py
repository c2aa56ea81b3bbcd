"""Workload generators: request shapes and length distributions.

The paper's sweeps use fixed-shape workloads (every request has the same
input/output length, paper §3.2); real serving studies use distributions.
Both are provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serving.request import Request, SamplingParams

__all__ = [
    "PAPER_SEQUENCE_LENGTHS",
    "PAPER_BATCH_SIZES",
    "FixedShapeWorkload",
    "LengthDistribution",
]

PAPER_SEQUENCE_LENGTHS = (128, 256, 512, 1024, 2048)
"""Input/output lengths evaluated throughout the paper (§3.2)."""

PAPER_BATCH_SIZES = (1, 16, 32, 64)
"""Batch sizes evaluated throughout the paper (§3.2)."""


@dataclass(frozen=True)
class FixedShapeWorkload:
    """Every request: the same prompt length and generation budget."""

    batch_size: int
    input_tokens: int
    output_tokens: int
    num_images: int = 0

    def __post_init__(self) -> None:
        if self.batch_size <= 0 or self.input_tokens <= 0 or self.output_tokens <= 0:
            raise ValueError("batch_size, input_tokens and output_tokens must be positive")
        if self.num_images < 0:
            raise ValueError("num_images must be non-negative")

    def requests(self, arrival_time: float = 0.0, start_id: int = 0) -> list[Request]:
        """Materialise the workload as engine requests (simultaneous arrival)."""
        return [
            Request(
                request_id=start_id + i,
                prompt_tokens=self.input_tokens,
                sampling=SamplingParams(max_tokens=self.output_tokens),
                arrival_time=arrival_time,
                num_images=self.num_images,
            )
            for i in range(self.batch_size)
        ]


@dataclass(frozen=True)
class LengthDistribution:
    """Log-normal prompt/output length distribution (ShareGPT-like shape)."""

    mean_input: float = 512.0
    mean_output: float = 256.0
    sigma: float = 0.6
    min_tokens: int = 8
    max_tokens: int = 8192

    def sample(self, n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
        """Draw ``n`` (input, output) length pairs."""
        if n <= 0:
            raise ValueError("n must be positive")
        mu_in = np.log(self.mean_input) - self.sigma**2 / 2
        mu_out = np.log(self.mean_output) - self.sigma**2 / 2
        ins = np.exp(rng.normal(mu_in, self.sigma, n))
        outs = np.exp(rng.normal(mu_out, self.sigma, n))
        lo, hi = self.min_tokens, self.max_tokens
        clip = lambda x: int(min(max(round(x), lo), hi))
        return [(clip(i), clip(o)) for i, o in zip(ins, outs)]

    def requests(
        self, n: int, rng: np.random.Generator, arrival_times: np.ndarray | None = None
    ) -> list[Request]:
        pairs = self.sample(n, rng)
        if arrival_times is None:
            arrival_times = np.zeros(n)
        if len(arrival_times) != n:
            raise ValueError("arrival_times length must equal n")
        return [
            Request(
                request_id=i,
                prompt_tokens=pi,
                sampling=SamplingParams(max_tokens=po),
                arrival_time=float(t),
            )
            for i, ((pi, po), t) in enumerate(zip(pairs, arrival_times))
        ]

