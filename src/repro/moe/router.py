"""Top-k softmax router (gating network) with load-balancing statistics.

The router maps each token's hidden state to logits over the experts,
selects the top-k, and produces combine weights.  It also exposes the two
standard auxiliary statistics used to reason about balance:

* the Switch-Transformer load-balancing loss ``E * sum_i f_i * P_i``
  (1.0 == perfectly balanced), and
* the router z-loss ``mean(logsumexp(logits)^2)``.

A ``expert_bias_std`` knob injects a systematic per-expert preference into
the router, calibrating how *unbalanced* a trained router is.  Models
trained with a strong balancing auxiliary loss (DeepSeek family) correspond
to ``expert_bias_std ≈ 0``; models without (MolmoE in the paper's Fig. 15)
to a larger value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.tensor.functional import softmax, top_k_indices

__all__ = ["RoutingResult", "TopKRouter"]


@dataclass(frozen=True)
class RoutingResult:
    """Routing decision for a batch of tokens.

    Attributes
    ----------
    indices:
        ``(num_tokens, top_k)`` selected expert ids, best first.
    weights:
        ``(num_tokens, top_k)`` combine weights (sum to 1 per token when the
        router renormalizes).
    probs:
        ``(num_tokens, num_experts)`` full softmax distribution.
    """

    indices: np.ndarray
    weights: np.ndarray
    probs: np.ndarray

    @property
    def num_tokens(self) -> int:
        return self.indices.shape[0]

    @property
    def top_k(self) -> int:
        return self.indices.shape[1]

    @property
    def num_experts(self) -> int:
        return self.probs.shape[1]

    def expert_counts(self) -> np.ndarray:
        """``(num_experts,)`` number of tokens routed to each expert."""
        return np.bincount(self.indices.ravel(), minlength=self.num_experts)

    def load_balance_loss(self) -> float:
        """Switch-Transformer auxiliary loss; 1.0 means perfectly balanced."""
        f = self.expert_counts() / max(1, self.num_tokens * self.top_k)
        p = self.probs.mean(axis=0)
        return float(self.num_experts * np.sum(f * p))

    def tokens_per_expert(self) -> np.ndarray:
        """Alias of :meth:`expert_counts` (vLLM naming)."""
        return self.expert_counts()


class TopKRouter:
    """Learnable-gate simulation: ``logits = x @ W + b``; top-k softmax.

    Parameters
    ----------
    hidden_size, num_experts, top_k:
        Geometry.
    renormalize:
        If True, the top-k probabilities are renormalized to sum to one
        (Mixtral-style); otherwise raw softmax values are used as combine
        weights (Switch-style).
    expert_bias_std:
        Standard deviation of a fixed per-expert logit bias; 0 gives a
        balanced router, larger values give progressively skewed routing.
    rng:
        Generator used for weight/bias init (reproducibility).
    """

    def __init__(
        self,
        hidden_size: int,
        num_experts: int,
        top_k: int,
        renormalize: bool = True,
        expert_bias_std: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not (1 <= top_k <= num_experts):
            raise ValueError(
                f"top_k must be in [1, num_experts]; got {top_k} / {num_experts}"
            )
        if expert_bias_std < 0:
            raise ValueError("expert_bias_std must be non-negative")
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.num_experts = num_experts
        self.top_k = top_k
        self.renormalize = renormalize
        self.weight = rng.normal(
            0.0, 1.0 / np.sqrt(hidden_size), size=(hidden_size, num_experts)
        ).astype(np.float32)
        self.bias = rng.normal(0.0, expert_bias_std, size=num_experts).astype(np.float32)
        self._observers: list[Callable[[RoutingResult], None]] = []

    # ------------------------------------------------------------------ #
    # telemetry subscription
    # ------------------------------------------------------------------ #

    def subscribe(self, observer: Callable[[RoutingResult], None]) -> None:
        """Call ``observer`` with every future :meth:`route` result.

        The hook behind live expert-routing telemetry
        (:class:`repro.obs.routing.RoutingTelemetry`); costs one truthiness
        check per route when nobody subscribes.
        """
        self._observers.append(observer)

    def unsubscribe(self, observer: Callable[[RoutingResult], None]) -> None:
        """Detach a previously subscribed observer."""
        self._observers.remove(observer)

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Raw router logits for tokens ``x`` of shape ``(num_tokens, hidden)``."""
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != self.hidden_size:
            raise ValueError(
                f"x must be (num_tokens, {self.hidden_size}), got {x.shape}"
            )
        out = x @ self.weight
        out += self.bias
        return out

    def route(self, x: np.ndarray) -> RoutingResult:
        """Route tokens to their top-k experts."""
        logits = self.logits(x)
        probs = softmax(logits, axis=-1)
        idx = top_k_indices(logits, self.top_k, axis=-1)
        w = np.take_along_axis(probs, idx, axis=-1)
        if self.renormalize:
            w = w / np.sum(w, axis=-1, keepdims=True)
        result = RoutingResult(indices=idx, weights=w.astype(np.float32), probs=probs)
        if self._observers:
            for observer in self._observers:
                observer(result)
        return result

    def route_counts(self, x: np.ndarray) -> np.ndarray:
        """Per-expert token counts of the top-k decision for ``x``.

        Bit-identical to ``route(x).expert_counts()``.  Counts depend only
        on *which* experts win, so instead of partitioning every row this
        sorts each row once, takes its k-th largest logit as a threshold
        and counts the entries at or above it.  When the (k+1)-th largest
        logit is strictly below the threshold, exactly the k winners clear
        it, whatever their order, so the count is exact.  Two kinds of row
        can break that and are recounted with the ``argpartition`` call
        :func:`top_k_indices` makes, which picks winners row by row and so
        gives the same set as on the whole matrix:

        * a tie at the boundary (the (k+1)-th largest equals the k-th),
          where more than k entries clear the threshold;
        * a row holding a NaN, which sorts last and poisons the threshold.

        With ``k == num_experts`` every expert wins and there is no
        boundary to tie at.  Falls back to the full path when observers
        are subscribed so telemetry still sees complete
        :class:`RoutingResult` objects.
        """
        if self._observers:
            return self.route(x).expert_counts()
        logits = self.logits(x)
        k, e = self.top_k, self.num_experts
        ranked = np.sort(logits, axis=-1)
        thr = ranked[:, e - k, None]
        counts = np.count_nonzero(logits >= thr, axis=0)
        recount = np.isnan(ranked[:, -1])
        if k < e:
            recount |= ranked[:, e - k - 1] == ranked[:, e - k]
        if recount.any():
            rows = logits[recount]
            counts -= np.count_nonzero(rows >= thr[recount], axis=0)
            part = np.argpartition(-rows, k - 1, axis=-1)
            counts += np.bincount(part[:, :k].ravel(), minlength=e)
        return counts

    def z_loss(self, x: np.ndarray) -> float:
        """Router z-loss: mean squared logsumexp of the logits."""
        logits = self.logits(x)
        m = logits.max(axis=-1, keepdims=True)
        lse = (m + np.log(np.sum(np.exp(logits - m), axis=-1, keepdims=True))).ravel()
        return float(np.mean(lse**2))

    def drop_experts(self, remove: np.ndarray) -> "TopKRouter":
        """Return a router with the given expert columns removed
        (inter-expert pruning keeps routing weights of survivors)."""
        remove = np.asarray(remove)
        keep = np.setdiff1d(np.arange(self.num_experts), remove)
        if len(keep) == 0:
            raise ValueError("cannot remove every expert")
        out = TopKRouter.__new__(TopKRouter)
        out.hidden_size = self.hidden_size
        out.num_experts = len(keep)
        out.top_k = min(self.top_k, len(keep))
        out.renormalize = self.renormalize
        out.weight = np.ascontiguousarray(self.weight[:, keep])
        out.bias = np.ascontiguousarray(self.bias[keep])
        out._observers = []  # observers are bound to this router's geometry
        return out
