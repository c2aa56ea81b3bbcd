"""Tests for repro.hardware.roofline."""

from __future__ import annotations

import pytest

from repro.hardware.gpus import H100_SXM
from repro.hardware.roofline import (
    KernelCost,
    arithmetic_intensity,
    gemm_cost,
    gemm_efficiency,
    gemm_time,
    is_memory_bound,
    kernel_time,
)


class TestKernelCost:
    def test_add(self):
        a = KernelCost(10, 20, "fp16", 1)
        b = KernelCost(5, 5, "fp16", 2)
        c = a + b
        assert (c.flops, c.bytes, c.launches) == (15, 25, 3)

    def test_add_dtype_mismatch(self):
        with pytest.raises(ValueError):
            KernelCost(1, 1, "fp16") + KernelCost(1, 1, "fp8_e4m3")

    def test_scaled(self):
        c = KernelCost(10, 20, "fp16", 3).scaled(2.0)
        assert (c.flops, c.bytes, c.launches) == (20, 40, 3)


class TestGemmEfficiency:
    def test_saturates_with_m(self):
        effs = [gemm_efficiency(m, 4096, 4096, H100_SXM) for m in (1, 16, 256, 65536)]
        assert all(a < b for a, b in zip(effs, effs[1:]))
        assert effs[-1] <= H100_SXM.max_gemm_efficiency

    def test_small_m_is_inefficient(self):
        assert gemm_efficiency(1, 4096, 4096, H100_SXM) < 0.05

    def test_tile_quantization_penalty(self):
        aligned = gemm_efficiency(1024, 4096, 4096, H100_SXM)
        misaligned = gemm_efficiency(1024, 4096 + 1, 4096, H100_SXM)
        assert misaligned < aligned

    def test_tiny_inner_dims_penalised(self):
        assert gemm_efficiency(1024, 8, 4096, H100_SXM) < \
            gemm_efficiency(1024, 64, 4096, H100_SXM)

    def test_validation(self):
        with pytest.raises(ValueError):
            gemm_efficiency(0, 64, 64, H100_SXM)


class TestKernelTime:
    def test_memory_bound_kernel(self):
        cost = KernelCost(flops=0, bytes=2.68e9, dtype="fp16", launches=0)
        assert kernel_time(cost, H100_SXM) == pytest.approx(1e-3, rel=0.01)

    def test_compute_bound_kernel(self):
        cost = KernelCost(flops=989.4e12 * 0.7, bytes=0, dtype="fp16", launches=0)
        assert kernel_time(cost, H100_SXM) == pytest.approx(1.0, rel=0.01)

    def test_roofline_takes_max(self):
        both = KernelCost(flops=1e12, bytes=1e9, dtype="fp16", launches=0)
        only_c = KernelCost(flops=1e12, bytes=0, dtype="fp16", launches=0)
        only_m = KernelCost(flops=0, bytes=1e9, dtype="fp16", launches=0)
        t = kernel_time(both, H100_SXM)
        assert t == pytest.approx(
            max(kernel_time(only_c, H100_SXM), kernel_time(only_m, H100_SXM))
        )

    def test_launch_overhead_added(self):
        empty = KernelCost(flops=0, bytes=0, dtype="fp16", launches=10)
        assert kernel_time(empty, H100_SXM) == pytest.approx(10 * 4e-6)

    def test_quant_derate_applied(self):
        c16 = KernelCost(flops=1e14, bytes=0, dtype="fp16", launches=0)
        c8 = KernelCost(flops=1e14, bytes=0, dtype="fp8_e4m3", launches=0)
        t16 = kernel_time(c16, H100_SXM)
        t8 = kernel_time(c8, H100_SXM)
        # 2x peak derated by quant_gemm_derate: 2*0.65 = 1.3x speedup
        assert t16 / t8 == pytest.approx(2 * H100_SXM.quant_gemm_derate, rel=0.01)

    def test_bad_efficiency(self):
        with pytest.raises(ValueError):
            kernel_time(KernelCost(1, 1), H100_SXM, efficiency=0.0)


class TestGemmHelpers:
    def test_gemm_cost_accounting(self):
        c = gemm_cost(8, 16, 32, weight_bytes_per_el=2, act_bytes_per_el=2)
        assert c.flops == 2 * 8 * 16 * 32
        assert c.bytes == 32 * 16 * 2 + (8 * 32 + 8 * 16) * 2

    def test_gemm_time_positive_and_monotone(self):
        t_small = gemm_time(16, 4096, 4096, H100_SXM)
        t_big = gemm_time(4096, 4096, 4096, H100_SXM)
        assert 0 < t_small < t_big


class TestRooflineDiagnostics:
    def test_arithmetic_intensity(self):
        assert arithmetic_intensity(KernelCost(100, 50)) == 2.0
        assert arithmetic_intensity(KernelCost(0, 10)) == 0.0
        assert arithmetic_intensity(KernelCost(5, 0)) == float("inf")

    def test_decode_is_memory_bound_prefill_is_not(self):
        # decode: 1 token through a big matrix
        h = 4096
        decode = KernelCost(flops=2 * 1 * h * h, bytes=h * h * 2)
        prefill = KernelCost(flops=2 * 65536 * h * h, bytes=h * h * 2)
        assert is_memory_bound(decode, H100_SXM)
        assert not is_memory_bound(prefill, H100_SXM)
