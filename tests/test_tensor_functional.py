"""Tests for repro.tensor.functional."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor.functional import (
    silu,
    softmax,
    swiglu,
    top_k_indices,
)


class TestSoftmax:
    def test_sums_to_one(self, rng):
        x = rng.normal(0, 5, (4, 7))
        assert np.allclose(softmax(x).sum(axis=-1), 1.0, atol=1e-6)

    def test_stable_for_large_inputs(self):
        x = np.array([[1e4, 1e4 + 1.0]])
        out = softmax(x)
        assert np.isfinite(out).all()
        assert out[0, 1] > out[0, 0]

    def test_axis_argument(self, rng):
        x = rng.normal(0, 1, (3, 4))
        assert np.allclose(softmax(x, axis=0).sum(axis=0), 1.0, atol=1e-6)


class TestActivations:
    def test_silu_known_values(self):
        assert silu(np.array([0.0]))[0] == 0.0
        assert silu(np.array([100.0]))[0] == pytest.approx(100.0)
        assert silu(np.array([-100.0]))[0] == pytest.approx(0.0, abs=1e-6)

    def test_swiglu_composition(self, rng):
        g, u = rng.normal(0, 1, 16), rng.normal(0, 1, 16)
        assert np.allclose(swiglu(g, u), silu(g) * u)


class TestTopK:
    def test_matches_argsort(self, rng):
        x = rng.normal(0, 1, (10, 20))
        idx = top_k_indices(x, 4)
        ref = np.argsort(-x, axis=-1)[:, :4]
        vals = np.take_along_axis(x, idx, axis=-1)
        ref_vals = np.take_along_axis(x, ref, axis=-1)
        assert np.allclose(vals, ref_vals)

    def test_sorted_descending(self, rng):
        x = rng.normal(0, 1, (5, 12))
        vals = np.take_along_axis(x, top_k_indices(x, 5), axis=-1)
        assert (np.diff(vals, axis=-1) <= 1e-9).all()

    def test_k_bounds(self):
        x = np.zeros((2, 3))
        with pytest.raises(ValueError):
            top_k_indices(x, 0)
        with pytest.raises(ValueError):
            top_k_indices(x, 4)

    def test_k_equals_n(self, rng):
        x = rng.normal(0, 1, (3, 4))
        idx = top_k_indices(x, 4)
        assert set(idx[0].tolist()) == {0, 1, 2, 3}
