"""Tests for tensor/pipeline/expert parallel analysis modules."""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.core.results import ResultTable
from repro.hardware.gpus import H100_SXM
from repro.models.zoo import DEEPSEEK_V2_LITE, MIXTRAL_8X7B
from repro.obs.fingerprint import _table_digest
from repro.parallel.expert_parallel import (
    _choice_bulk,
    _choice_rows,
    ep_dispatch_time,
    ep_dispatch_volume,
    round_robin_placement,
    simulate_ep_imbalance,
)
from repro.parallel.pipeline import (
    partition_layers,
    pipeline_bubble_fraction,
    pipeline_efficiency,
)
from repro.parallel.tensor_parallel import (
    tp_comm_time_per_layer,
    tp_comm_volume_per_step,
    tp_shard,
)


class TestTensorParallel:
    def test_shard_divides_weights(self):
        s1 = tp_shard(MIXTRAL_8X7B, 1)
        s4 = tp_shard(MIXTRAL_8X7B, 4)
        assert s4.weight_bytes_per_device == pytest.approx(
            s1.weight_bytes_per_device / 4
        )
        assert s4.heads_per_device == 8
        assert s4.kv_heads_per_device == 2

    def test_kv_heads_floor_at_one(self):
        s = tp_shard(MIXTRAL_8X7B, 16)
        assert s.kv_heads_per_device == 1

    def test_indivisible_heads(self):
        with pytest.raises(ValueError):
            tp_shard(MIXTRAL_8X7B, 3)

    def test_comm_volume(self):
        vol = tp_comm_volume_per_step(MIXTRAL_8X7B, 16)
        assert vol == 2 * 32 * 16 * 4096 * 2

    def test_comm_time_positive(self):
        assert tp_comm_time_per_layer(MIXTRAL_8X7B, 16, 4, H100_SXM) > 0


class TestPipeline:
    def test_partition_covers_all_layers(self):
        part = partition_layers(MIXTRAL_8X7B, 4)
        assert part.num_stages == 4
        assert part.boundaries[0] == 0
        assert part.boundaries[-1] == MIXTRAL_8X7B.num_layers

    def test_partition_balanced_for_uniform_model(self):
        part = partition_layers(MIXTRAL_8X7B, 4)
        assert part.imbalance < 1.05

    def test_partition_respects_heterogeneous_layers(self):
        """DeepSeek's dense layer 0 is lighter than the MoE layers."""
        part = partition_layers(DEEPSEEK_V2_LITE, 3)
        assert part.imbalance < 1.25

    def test_stage_of_layer(self):
        part = partition_layers(MIXTRAL_8X7B, 2)
        assert part.stage_of_layer(0) == 0
        assert part.stage_of_layer(31) == 1

    def test_partition_bounds(self):
        with pytest.raises(ValueError):
            partition_layers(MIXTRAL_8X7B, 0)
        with pytest.raises(ValueError):
            partition_layers(MIXTRAL_8X7B, 33)

    def test_bubble_fraction(self):
        assert pipeline_bubble_fraction(1, 8) == 0.0
        assert pipeline_bubble_fraction(4, 1) == pytest.approx(3 / 4)
        assert pipeline_bubble_fraction(4, 16) == pytest.approx(3 / 19)

    def test_efficiency(self):
        assert pipeline_efficiency(4, 100) > 0.9
        assert pipeline_efficiency(4, 1) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            pipeline_efficiency(4, 4, stage_imbalance=0.9)


class TestExpertParallel:
    def test_round_robin_blocks(self):
        p = round_robin_placement(8, 4)
        assert p.experts_on_device(0) == [0, 1]
        assert p.experts_on_device(3) == [6, 7]
        assert p.experts_per_device().tolist() == [2, 2, 2, 2]

    def test_indivisible_placement(self):
        with pytest.raises(ValueError):
            round_robin_placement(8, 3)

    def test_dispatch_volume(self):
        v = ep_dispatch_volume(16, 4096, 2, 4)
        assert v == 16 * 2 * 4096 * 2

    def test_dispatch_time_grows_with_ep(self):
        t2 = ep_dispatch_time(64, 4096, 2, 2, H100_SXM)
        t4 = ep_dispatch_time(64, 4096, 2, 4, H100_SXM)
        assert 0 < t2 < t4

    def test_simulated_imbalance_tracks_analytic(self):
        sim, analytic = simulate_ep_imbalance(
            MIXTRAL_8X7B.moe, ep=4, num_tokens=64, num_trials=128,
            rng=np.random.default_rng(0),
        )
        assert sim > 1.0
        assert abs(sim - analytic) < 0.25

    def test_imbalance_shrinks_with_tokens(self):
        rng = np.random.default_rng(1)
        small, _ = simulate_ep_imbalance(MIXTRAL_8X7B.moe, 4, 8, 64, rng)
        large, _ = simulate_ep_imbalance(MIXTRAL_8X7B.moe, 4, 512, 64, rng)
        assert large < small

    @pytest.mark.parametrize("kwargs", [
        {"num_tokens": 0}, {"num_tokens": -1},
        {"num_trials": 0}, {"num_trials": -1},
    ])
    def test_empty_inputs_rejected(self, kwargs):
        args = {"ep": 4, "num_tokens": 16, "num_trials": 8, **kwargs}
        with pytest.raises(ValueError):
            simulate_ep_imbalance(MIXTRAL_8X7B.moe, **args)

    def test_ablation_cells_match_committed_fingerprint(self):
        """The ablation's 9 cells, drawn in bulk, reproduce the committed
        record (taken with one ``rng.choice`` per token) bit for bit."""
        repo = pathlib.Path(__file__).resolve().parents[1]
        record = json.loads(
            (repo / "BENCH_ablation_ep_imbalance.json").read_text()
        )["records"][-1]["fingerprint"]
        table = ResultTable(
            "imbalance factor",
            ("ep", "tokens", "simulated", "analytic", "abs_error"),
        )
        rng = np.random.default_rng(3)
        for ep in (2, 4, 8):
            for tokens in (16, 64, 256):
                sim, analytic = simulate_ep_imbalance(
                    MIXTRAL_8X7B.moe, ep, tokens, num_trials=64, rng=rng
                )
                table.add(ep=ep, tokens=tokens, simulated=sim,
                          analytic=analytic, abs_error=abs(sim - analytic))
        assert _table_digest(table) == record["digests"]["imbalance factor"]
        assert sum(table.column("simulated")) == (
            record["sim"]["imbalance factor.simulated:sum"]
        )
        # the generator ends where 64,512 scalar choice calls leave it
        assert rng.bit_generator.state["state"] == {
            "state": 135120144626868417700391744056078514839,
            "inc": 222003063171874261427395693950637096479,
        }


def _state(rng):
    """The generator's full state with arrays as lists (MT19937 and Philox
    keep arrays in it), so states compare with ``==``."""
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


def _scalar_choices(rng, n, k, rows):
    return np.array([rng.choice(n, size=k, replace=False)
                     for _ in range(rows)])


def _same_stream(make_rng, n, k, rows):
    """Bulk and scalar draws from two equal generators: same picks per row
    (as sets) and the same final state."""
    bulk_rng, scalar_rng = make_rng(), make_rng()
    bulk = _choice_rows(bulk_rng, n, k, rows)
    scalar = _scalar_choices(scalar_rng, n, k, rows)
    np.testing.assert_array_equal(np.sort(bulk, axis=1),
                                  np.sort(scalar, axis=1))
    assert _state(bulk_rng) == _state(scalar_rng)


class TestBulkChoice:
    """``_choice_rows`` against numpy's own ``Generator.choice``: this is
    what catches a numpy release that changes how ``choice`` draws."""

    GRID = [(8, 2), (64, 6), (16, 1), (160, 6), (60, 4), (7, 3), (256, 8),
            (5, 5)]

    @pytest.mark.parametrize("n,k", GRID)
    @pytest.mark.parametrize("rows", [1, 3, 17])
    def test_matches_choice_over_seeds(self, n, k, rows):
        for seed in range(40):
            _same_stream(lambda: np.random.default_rng(seed), n, k, rows)

    @pytest.mark.parametrize("n,k", GRID)
    def test_matches_choice_from_buffered_half_word(self, n, k):
        def make_rng():
            rng = np.random.default_rng(11)
            rng.integers(7, dtype=np.uint32)  # PCG64 keeps the other half
            assert rng.bit_generator.state["has_uint32"] == 1
            return rng

        _same_stream(make_rng, n, k, 17)

    @pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.MT19937,
                                        np.random.Philox])
    @pytest.mark.parametrize("n,k", [(8, 2), (160, 6), (7, 3)])
    def test_matches_choice_across_bit_generators(self, bitgen, n, k):
        for seed in range(5):
            _same_stream(lambda: np.random.Generator(bitgen(seed)), n, k, 17)

    def test_large_population_falls_back(self):
        rng = np.random.default_rng(0)
        before = _state(rng)
        assert _choice_bulk(rng, 10007, 3, 4) is None
        assert _state(rng) == before
        _same_stream(lambda: np.random.default_rng(0), 10007, 3, 4)

    def test_lemire_rejection_falls_back(self):
        # seed 322 draws, for bound 9973, a word Lemire's method rejects
        # at row 86: choice redraws it, so only the scalar loop is exact
        rng = np.random.default_rng(322)
        before = _state(rng)
        assert _choice_bulk(rng, 9973, 1, 100) is None
        assert _state(rng) == before
        assert _choice_bulk(np.random.default_rng(322), 9973, 1, 86) is not None
        _same_stream(lambda: np.random.default_rng(322), 9973, 1, 100)


class TestReplicatedPlacement:
    def test_round_robin_replicas_land_on_distinct_devices(self):
        from repro.parallel.expert_parallel import (
            replicated_round_robin_placement,
        )

        placement = replicated_round_robin_placement(8, 4, replicas=2)
        assert placement.num_experts == 8
        assert placement.replication_factor == 2
        for devices in placement.devices_of_expert:
            assert len(set(devices)) == len(devices) == 2

    def test_primary_matches_unreplicated_round_robin(self):
        from repro.parallel.expert_parallel import (
            replicated_round_robin_placement,
        )

        placement = replicated_round_robin_placement(8, 4, replicas=2)
        assert placement.primary().device_of_expert == \
            round_robin_placement(8, 4).device_of_expert

    def test_surviving_and_lost_experts(self):
        from repro.parallel.expert_parallel import (
            replicated_round_robin_placement,
        )

        two = replicated_round_robin_placement(8, 4, replicas=2)
        assert two.lost_experts({0}) == []  # every expert has a replica
        one = replicated_round_robin_placement(8, 4, replicas=1)
        lost = one.lost_experts({0})
        assert lost == one.experts_on_device(0)
        assert all(not s for e, s in
                   enumerate(one.surviving_replicas({0})) if e in lost)

    def test_validation(self):
        from repro.parallel.expert_parallel import (
            ReplicatedExpertPlacement,
            replicated_round_robin_placement,
        )

        with pytest.raises(ValueError):
            replicated_round_robin_placement(8, 4, replicas=0)
        with pytest.raises(ValueError):
            replicated_round_robin_placement(8, 4, replicas=5)
        with pytest.raises(ValueError):
            ReplicatedExpertPlacement(devices_of_expert=((),), num_devices=2)
        with pytest.raises(ValueError):
            ReplicatedExpertPlacement(devices_of_expert=((0, 0),),
                                      num_devices=2)
        with pytest.raises(ValueError):
            ReplicatedExpertPlacement(devices_of_expert=((0, 7),),
                                      num_devices=2)
