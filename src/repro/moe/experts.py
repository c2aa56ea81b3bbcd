"""Expert feed-forward networks (SwiGLU / plain MLP)."""

from __future__ import annotations

import numpy as np

from repro.tensor.dtypes import DType, FP32
from repro.tensor.functional import swiglu
from repro.tensor.linear import Linear

__all__ = ["ExpertFFN"]


class ExpertFFN:
    """One expert: a gated (SwiGLU, 3-matrix) or plain (2-matrix) MLP.

    Shapes: ``gate/up: (hidden, ffn_dim)``, ``down: (ffn_dim, hidden)``.
    """

    def __init__(
        self,
        hidden_size: int,
        ffn_dim: int,
        rng: np.random.Generator,
        gated: bool = True,
        weight_dtype: DType | str = FP32,
    ) -> None:
        if hidden_size <= 0 or ffn_dim <= 0:
            raise ValueError("hidden_size and ffn_dim must be positive")
        self.hidden_size = hidden_size
        self.ffn_dim = ffn_dim
        self.gated = gated
        self.up = Linear.random(rng, hidden_size, ffn_dim, weight_dtype)
        self.down = Linear.random(rng, ffn_dim, hidden_size, weight_dtype)
        self.gate = (
            Linear.random(rng, hidden_size, ffn_dim, weight_dtype) if gated else None
        )

    @property
    def num_params(self) -> int:
        n = self.up.num_params + self.down.num_params
        if self.gate is not None:
            n += self.gate.num_params
        return n

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Apply the expert to ``(num_tokens, hidden)`` (empty input ok)."""
        x = np.asarray(x, dtype=np.float32)
        if x.shape[0] == 0:
            return np.zeros((0, self.hidden_size), dtype=np.float32)
        if self.gate is not None:
            h = swiglu(self.gate(x), self.up(x))
        else:
            h = np.maximum(self.up(x), 0.0)  # ReLU MLP
        return self.down(h)
