"""Tests for the experiment runners (smoke scale) and report rendering."""

import pytest

from repro.core.schemes import EVALUATED_SCHEMES, Scheme
from repro.experiments import fig13, fig14, fig15, fig16, fig17, table1
from repro.experiments.common import SCALES, experiment_base_config, get_scale
from repro.experiments.report import render_table
from tests.experiments.grids import run_view


class TestCommon:
    def test_scales_exist(self):
        assert set(SCALES) == {"smoke", "default", "full"}
        assert SCALES["smoke"].n_ops < SCALES["full"].n_ops

    def test_get_scale_rejects_unknown(self):
        with pytest.raises(KeyError):
            get_scale("huge")

    def test_base_config_paper_geometry(self):
        cfg = experiment_base_config(get_scale("smoke"))
        assert cfg.memory.n_banks == 8
        assert cfg.memory.write_queue_entries == 32

    def test_base_config_counter_cache_override(self):
        cfg = experiment_base_config(get_scale("smoke"), counter_cache_size=1 << 10)
        assert cfg.counter_cache.size == 1 << 10


class TestRenderTable:
    def test_markdown_shape(self):
        text = render_table("T", ["a", "b"], [[1, 2.5], ["x", 3.0]], note="n")
        assert "### T" in text
        assert "| a" in text
        assert "2.500" in text
        assert "*n*" in text

    def test_empty_rows(self):
        text = render_table("T", ["a"], [])
        assert "### T" in text


class TestTable1:
    def test_matches_paper(self):
        rows = {(r.system, r.stage): r for r in table1.points([], [])}
        # Paper Table 1: prepare Yes, mutate No, commit No.
        assert rows[("unprotected", "prepare")].recoverable
        assert not rows[("unprotected", "mutate")].recoverable
        assert not rows[("unprotected", "commit")].recoverable
        # SuperMem: recoverable at every stage, with the right value.
        assert rows[("supermem", "prepare")].recovered_value == "old"
        assert rows[("supermem", "mutate")].recovered_value == "old"
        assert rows[("supermem", "commit")].recovered_value == "new"
        # Figure 6's scenario: a raw (unlogged) overwrite crashed in the
        # counter/data append gap. With the register the line stays
        # consistent; without it the line is garbage.
        assert rows[("supermem", "raw overwrite")].recoverable
        assert rows[("supermem-no-register", "raw overwrite")].recovered_value == "garbage"
        assert not rows[("supermem-no-register", "raw overwrite")].recoverable

    def test_render(self):
        text = table1.render(table1.points([], []))
        assert "Table 1" in text and "SuperMem" in text


@pytest.mark.slow
class TestFigureRunners:
    """Smoke-scale runs of each figure, checking structure and key shapes."""

    def test_fig13_structure_and_shape(self):
        points = run_view(
            fig13.points, fig13.specs("smoke"), lambda cell: cell[1] == 1024
        )
        assert len(points) == 5 * len(EVALUATED_SCHEMES)
        by_cell = {(p.workload, p.scheme): p for p in points}
        for workload in ("array", "queue"):
            assert by_cell[(workload, Scheme.UNSEC)].normalized == 1.0
            assert by_cell[(workload, Scheme.WT_BASE)].normalized > 1.5
            sm = by_cell[(workload, Scheme.SUPERMEM)].normalized
            wb = by_cell[(workload, Scheme.WB_IDEAL)].normalized
            assert sm <= wb * 1.15
        assert "Figure 13" in fig13.render(points)

    def test_fig14_structure(self):
        points = run_view(
            fig14.points,
            fig14.specs("smoke"),
            lambda cell: cell in (("queue", 1), ("queue", 4)),
        )
        assert len(points) == 2 * len(EVALUATED_SCHEMES)
        assert "Figure 14" in fig14.render(points)

    def test_fig15_wt_doubles_writes(self):
        points = run_view(
            fig15.points, fig13.specs("smoke"), lambda cell: cell[1] == 1024
        )
        by_cell = {(p.workload, p.scheme): p for p in points}
        for workload in ("array", "queue", "btree", "hashtable", "rbtree"):
            assert 1.9 < by_cell[(workload, Scheme.WT_BASE)].normalized < 2.1
        reductions = fig15.supermem_reduction_vs_wt(points)
        assert all(r > 0.25 for r in reductions.values())
        assert "Figure 15" in fig15.render(points)

    def test_fig16_monotone_coalescing(self):
        points = run_view(
            fig16.points, fig16.specs("smoke"), lambda cell: cell[1] in (8, 32, 128)
        )
        for workload in ("array", "queue"):
            series = sorted(
                (p.wq_entries, p.reduced_counter_write_fraction)
                for p in points
                if p.workload == workload
            )
            fractions = [f for _, f in series]
            assert fractions[0] < fractions[-1]
        assert "Figure 16" in fig16.render(points)

    def test_fig17_queue_insensitive_array_improves(self):
        points = run_view(
            fig17.points,
            fig17.specs("smoke"),
            lambda cell: cell[1] in (1 << 10, 256 << 10),
        )
        by_cell = {(p.workload, p.counter_cache_size): p for p in points}
        # queue: flat; array: hit rate must not decrease with a big cache
        q_small = by_cell[("queue", 1 << 10)].hit_rate
        q_big = by_cell[("queue", 256 << 10)].hit_rate
        assert abs(q_big - q_small) < 0.08
        a_small = by_cell[("array", 1 << 10)].hit_rate
        a_big = by_cell[("array", 256 << 10)].hit_rate
        assert a_big >= a_small
        assert "Figure 17" in fig17.render(points)
