"""CLI tests: ``repro report``, and ``repro bench --trend`` on a committed
baseline (no wall-clock section)."""

from __future__ import annotations

import shutil
import pathlib

from repro.core.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent

# small workload so each report build stays under a second
FAST = ["--requests", "12"]


class TestReportCommand:
    def test_prints_markdown_report(self, capsys):
        assert main(["report", *FAST]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Run report")
        assert "## Device occupancy" in out
        assert "## Utilization (MoE-CAP)" in out
        assert "TP4+EP4" in out

    def test_out_and_html(self, capsys, tmp_path):
        md_path = tmp_path / "report.md"
        html_path = tmp_path / "report.html"
        assert main(["report", *FAST, "--out", str(md_path),
                     "--html", str(html_path)]) == 0
        md = md_path.read_text()
        assert md.startswith("# Run report")
        html = html_path.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "Device occupancy" in html

    def test_check_gate_is_byte_stable(self, serving_gate):
        """The ``--slo-gate`` report replays byte-identically in all four
        gate modes."""
        assert serving_gate.code == 0
        assert "[ok] slo_report f74bc64c365aac79… (4 modes)" \
            in serving_gate.out

    def test_single_device_plan_degrades(self, capsys):
        assert main(["report", *FAST, "--tp", "1", "--ep", "1"]) == 0
        out = capsys.readouterr().out
        assert "no interconnect links" in out

    def test_bundle_mode_renders_dumped_dir(self, capsys, tmp_path):
        from repro.obs.alerts import (
            AlertMonitor, DeviceSaturationRule, FlightRecorder)
        from repro.obs.harness import clustered_serving_run

        monitor = AlertMonitor(
            rules=[DeviceSaturationRule(threshold=1e-9, min_windows=1)],
            recorder=FlightRecorder(tmp_path, last_n=8))
        clustered_serving_run(num_requests=12, alerts=monitor)
        (bundle,) = monitor.bundles
        assert main(["report", "--bundle", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "device_saturation" in out
        assert "## Device occupancy" in out
        assert "## Interconnect" in out


class TestTrendWallclock:
    def test_trend_omits_section_without_wallclock_records(self, capsys,
                                                           tmp_path):
        shutil.copy(ROOT / "BENCH_fig5.json", tmp_path)
        assert main(["bench", "--trend", "--figs", "fig5",
                     "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "## Suite wall clock" not in out
