"""Tests for repro.moe.experts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.moe.experts import ExpertFFN


class TestExpertFFN:
    def test_output_shape(self, rng):
        e = ExpertFFN(32, 16, rng)
        x = rng.normal(0, 1, (5, 32)).astype(np.float32)
        assert e(x).shape == (5, 32)

    def test_empty_input(self, rng):
        e = ExpertFFN(32, 16, rng)
        out = e(np.zeros((0, 32), np.float32))
        assert out.shape == (0, 32)

    def test_gated_param_count(self, rng):
        e = ExpertFFN(32, 16, rng, gated=True)
        assert e.num_params == 3 * 32 * 16

    def test_ungated_param_count(self, rng):
        e = ExpertFFN(32, 16, rng, gated=False)
        assert e.num_params == 2 * 32 * 16
        x = rng.normal(0, 1, (4, 32)).astype(np.float32)
        assert e(x).shape == (4, 32)

    def test_rejects_bad_dims(self, rng):
        with pytest.raises(ValueError):
            ExpertFFN(0, 16, rng)
