"""Tests for repro.workloads (generators, traces, multimodal)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.zoo import get_model
from repro.workloads.generator import (
    PAPER_BATCH_SIZES,
    PAPER_SEQUENCE_LENGTHS,
    FixedShapeWorkload,
    LengthDistribution,
)
from repro.workloads.multimodal import (
    BALANCED_ROUTER_BIAS_STD,
    UNBALANCED_ROUTER_BIAS_STD,
    MMEStream,
    _DRAW_BLOCK_ROWS,
    _draw_normal_rows,
    router_bias_std_for,
    run_activation_study,
)
from repro.workloads.traces import BurstSpec, burst_arrivals, poisson_arrivals


class TestPaperConstants:
    def test_sequence_lengths(self):
        assert PAPER_SEQUENCE_LENGTHS == (128, 256, 512, 1024, 2048)

    def test_batch_sizes(self):
        assert PAPER_BATCH_SIZES == (1, 16, 32, 64)


class TestFixedShape:
    def test_requests(self):
        wl = FixedShapeWorkload(batch_size=4, input_tokens=100, output_tokens=20)
        reqs = wl.requests(arrival_time=1.5, start_id=10)
        assert len(reqs) == 4
        assert all(r.prompt_tokens == 100 for r in reqs)
        assert all(r.arrival_time == 1.5 for r in reqs)
        assert [r.request_id for r in reqs] == [10, 11, 12, 13]

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedShapeWorkload(0, 10, 10)
        with pytest.raises(ValueError):
            FixedShapeWorkload(1, 10, 10, num_images=-1)


class TestLengthDistribution:
    def test_sample_bounds(self, rng):
        dist = LengthDistribution(min_tokens=16, max_tokens=512)
        pairs = dist.sample(200, rng)
        assert all(16 <= i <= 512 and 16 <= o <= 512 for i, o in pairs)

    def test_mean_approximately_preserved(self, rng):
        dist = LengthDistribution(mean_input=400, mean_output=100, sigma=0.4)
        pairs = dist.sample(3000, rng)
        assert np.mean([p[0] for p in pairs]) == pytest.approx(400, rel=0.1)

    def test_requests_with_arrivals(self, rng):
        dist = LengthDistribution()
        reqs = dist.requests(5, rng, arrival_times=np.arange(5.0))
        assert [r.arrival_time for r in reqs] == [0, 1, 2, 3, 4]
        with pytest.raises(ValueError):
            dist.requests(5, rng, arrival_times=np.arange(4.0))

    def test_sample_validation(self, rng):
        with pytest.raises(ValueError):
            LengthDistribution().sample(0, rng)


class TestTraces:
    def test_poisson_rate(self, rng):
        times = poisson_arrivals(10.0, 4000, rng)
        assert len(times) == 4000
        assert (np.diff(times) > 0).all()
        assert times[-1] == pytest.approx(400, rel=0.1)

    def test_poisson_validation(self, rng):
        with pytest.raises(ValueError):
            poisson_arrivals(0, 5, rng)

    def test_bursts(self):
        times = burst_arrivals(BurstSpec(size=3, period_s=2.0), 2, start=1.0)
        assert times.tolist() == [1.0, 1.0, 1.0, 3.0, 3.0, 3.0]

    def test_burst_validation(self):
        with pytest.raises(ValueError):
            BurstSpec(size=0, period_s=1.0)
        with pytest.raises(ValueError):
            burst_arrivals(BurstSpec(1, 1.0), 0)


class TestMultimodal:
    def test_stream_token_volume(self, rng):
        stream = MMEStream(num_samples=100, image_tokens=576, mean_text_tokens=48)
        lengths = stream.sample_lengths(rng)
        assert len(lengths) == 100
        assert (lengths > 576).all()
        assert lengths.mean() == pytest.approx(576 + 48, rel=0.25)

    def test_bias_calibration_lookup(self):
        assert router_bias_std_for(get_model("DeepSeek-VL2")) == BALANCED_ROUTER_BIAS_STD
        assert router_bias_std_for(get_model("MolmoE-1B")) == UNBALANCED_ROUTER_BIAS_STD

    def test_bias_lookup_rejects_dense(self, tiny_dense_model):
        with pytest.raises(ValueError):
            router_bias_std_for(tiny_dense_model)

    def test_activation_study_fig15_contrast(self):
        """The paper's headline: MolmoE peak ~1M vs DeepSeek ~290K."""
        rng = np.random.default_rng(7)
        balanced = run_activation_study(get_model("DeepSeek-VL2-Tiny"),
                                        rng=rng, max_routed_tokens=20_000)
        rng = np.random.default_rng(7)
        skewed = run_activation_study(get_model("MolmoE-1B"),
                                      rng=rng, max_routed_tokens=20_000)
        assert skewed.peak_activation() > 2 * balanced.peak_activation()
        assert skewed.overall_metrics().gini > balanced.overall_metrics().gini

    def test_activation_study_counts_scale_to_stream(self):
        tracker = run_activation_study(get_model("MolmoE-1B"),
                                       stream=MMEStream(num_samples=200),
                                       rng=np.random.default_rng(1),
                                       max_routed_tokens=5_000)
        hm = tracker.heatmap()
        # per-layer counts ≈ total_tokens * top_k
        per_layer = hm.sum(axis=1)
        assert per_layer[0] == pytest.approx(tracker.tokens_seen * 8, rel=0.05)

    def test_activation_study_rejects_dense(self, tiny_dense_model):
        with pytest.raises(ValueError):
            run_activation_study(tiny_dense_model)

    @pytest.mark.parametrize("rows", (16_384, 10_848, 3_616, 1))
    def test_block_draw_is_the_float32_cast_of_one_draw(self, rows):
        """The study's chunk draw, through a float64 block into a reused
        float32 buffer, gives ``rng.normal(size=(n, H)).astype(float32)``
        bit for bit and leaves the generator where that draw does; two
        chunks in a row check the state carried between them."""
        hidden = 128
        ours, ref = np.random.default_rng(7), np.random.default_rng(7)
        block = np.empty((_DRAW_BLOCK_ROWS, hidden))
        buf = np.empty((rows, hidden), dtype=np.float32)
        for _ in range(2):
            got = _draw_normal_rows(ours, buf, block)
            want = ref.normal(size=(rows, hidden)).astype(np.float32)
            assert got.tobytes() == want.tobytes()
            assert ours.bit_generator.state == ref.bit_generator.state
