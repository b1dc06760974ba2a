"""Tests for the metrics utilities: speedup curves, figures and tables."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.config import ClusterConfig
from repro.errors import ReproError
from repro.metrics.report import ascii_plot, format_table, render_speedup_figure
from repro.metrics.speedup import SpeedupCurve, speedup_from_times
from repro.orca.builtin_objects import IntObject
from repro.orca.program import OrcaProgram


class TestSpeedupCurve:
    def test_basic_speedups(self):
        curve = SpeedupCurve({1: 10.0, 2: 5.0, 4: 2.5}, base_procs=1)
        assert curve.speedup(1) == pytest.approx(1.0)
        assert curve.speedup(2) == pytest.approx(2.0)
        assert curve.speedup(4) == pytest.approx(4.0)
        assert curve.efficiency(4) == pytest.approx(1.0)

    def test_baseline_other_than_one(self):
        curve = SpeedupCurve({2: 8.0, 4: 4.0}, base_procs=2)
        assert curve.speedup(2) == pytest.approx(2.0)
        assert curve.speedup(4) == pytest.approx(4.0)

    def test_missing_baseline_rejected(self):
        with pytest.raises(ReproError):
            SpeedupCurve({2: 1.0}, base_procs=1)

    def test_non_positive_times_rejected(self):
        with pytest.raises(ReproError):
            SpeedupCurve({1: 0.0}, base_procs=1)

    def test_speedup_from_times_defaults_to_smallest(self):
        curve = speedup_from_times({4: 3.0, 2: 5.0})
        assert curve.base_procs == 2

    def test_as_rows(self):
        rows = SpeedupCurve({1: 4.0, 2: 2.0}, base_procs=1).as_rows()
        assert rows[0][0] == "1"
        assert rows[1][2] == "2.00"

    @given(st.dictionaries(st.integers(min_value=1, max_value=64),
                           st.floats(min_value=0.001, max_value=1e3,
                                     allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=10))
    def test_speedup_at_baseline_equals_baseline(self, times):
        curve = speedup_from_times(times)
        assert curve.speedup(curve.base_procs) == pytest.approx(curve.base_procs)


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "column"], [["1", "x"], ["22", "yy"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "column" in lines[1]
        assert len(lines) == 5

    def test_ascii_plot_contains_markers_and_legend(self):
        text = ascii_plot({"measured": {1: 1.0, 4: 3.0}, "perfect": {1: 1.0, 4: 4.0}},
                          title="demo")
        assert "demo" in text
        assert "*" in text and "o" in text
        assert "measured" in text and "perfect" in text

    def test_ascii_plot_empty(self):
        assert ascii_plot({"s": {}}) == "(no data)"

    def test_render_speedup_figure(self):
        curve = SpeedupCurve({1: 8.0, 2: 4.0, 4: 2.0}, base_procs=1)
        text = render_speedup_figure("Fig X", curve)
        assert "Fig X" in text
        assert "speedup" in text
        assert "CPUs" in text


    def test_render_speedup_figure_tops_the_axis_at_max_procs(self):
        curve = SpeedupCurve({1: 8.0, 2: 4.0, 4: 2.0}, base_procs=1)
        assert render_speedup_figure("F", curve).splitlines()[1].startswith("   4.0 |")
        assert render_speedup_figure("F", curve, max_procs=8).splitlines()[1].startswith("   8.0 |")

    def test_render_speedup_figure_tabulates_every_processor_count(self):
        curve = SpeedupCurve({1: 8.0, 2: 4.0, 4: 2.0}, base_procs=1)
        table = render_speedup_figure("F", curve).split("\n\n", 1)[1]
        assert table == format_table(["CPUs", "time (s)", "speedup", "efficiency"],
                                     curve.as_rows())
        assert len(table.splitlines()) == 2 + 3

    def test_ascii_plot_single_x_value(self):
        lines = ascii_plot({"s": {2: 1.0}}, width=10, height=4).splitlines()
        assert len(lines) == 4 + 3
        assert lines[0] == "   1.1 |*         "

    def test_ascii_plot_tops_the_axis_at_the_largest_y(self):
        lines = ascii_plot({"s": {1: 1.0, 2: 10.0}}, width=10, height=4).splitlines()
        assert lines[0] == "  10.5 |         *"

    def test_format_table_without_title_pads_to_widest_cell(self):
        lines = format_table(["k", "v"], [["long-key", "1"]]).splitlines()
        assert lines == ["k         v", "--------  -", "long-key  1"]


class TestProgramSpeedup:
    def test_program_speeds_up_with_processor_count(self):
        def main(proc):
            counter = proc.new_object(IntObject, 0)
            work_per_worker = 24_000 // proc.num_nodes  # fixed total work

            def worker(wproc, obj, worker_id=0):
                wproc.compute(work_per_worker)
                obj.add(1)

            proc.join_all(proc.fork_workers(worker, counter))
            return counter.read()

        def run(procs):
            return OrcaProgram(main, ClusterConfig(num_nodes=procs, seed=3)).run()

        results = {procs: run(procs) for procs in (1, 2, 4)}
        assert {procs: r.value for procs, r in results.items()} == {1: 1, 2: 2, 4: 4}
        curve = SpeedupCurve({procs: r.elapsed for procs, r in results.items()}, base_procs=1)
        assert curve.processor_counts == [1, 2, 4]
        assert curve.speedup(4) > 1.0
