"""Tests for the figure drivers (tiny sweeps; shapes only).

The full-scale sweeps live in benchmarks/; here we verify the drivers
produce complete, well-formed results quickly.
"""

import pytest

from repro.bench.__main__ import main
from repro.bench.figures import (
    FigureResult,
    default_cluster,
    fig5_ior_vs_lsmio,
    fig9_collective,
)


@pytest.fixture(scope="module")
def tiny_kwargs():
    return dict(
        node_counts=(2, 6),
        bytes_per_task=512 << 10,
        cluster=default_cluster(),
    )


class TestFigureResult:
    def test_ratio_helpers(self):
        figure = FigureResult("f", "t", [2, 4])
        figure.series["a"] = [10.0, 40.0]
        figure.series["b"] = [5.0, 10.0]
        assert figure.ratio("a", "b", 4) == 4.0
        assert figure.max_ratio("a", "b") == 4.0

    def test_table_renders_ratios(self):
        figure = FigureResult("Figure 5", "demo", [2])
        figure.series["x"] = [1 << 20]
        figure.ratios["demo ratio"] = (2.0, 3.0)
        text = figure.table()
        assert "Figure 5" in text
        assert "demo ratio" in text
        assert "paper 3.0x" in text


class TestFig5Driver:
    def test_complete_series(self, tiny_kwargs):
        figure = fig5_ior_vs_lsmio(**tiny_kwargs)
        assert set(figure.series) == {
            "ior/64K", "ior/1M", "lsmio/64K", "lsmio/1M"
        }
        for series in figure.series.values():
            assert len(series) == 2
            assert all(v > 0 for v in series)
        assert figure.ratios  # headline ratios recorded

    def test_lsmio_scales_even_tiny(self, tiny_kwargs):
        figure = fig5_ior_vs_lsmio(**tiny_kwargs)
        lsmio = figure.series["lsmio/64K"]
        assert lsmio[-1] > lsmio[0]


class TestFig9Driver:
    def test_series_and_future_work_mode(self, tiny_kwargs):
        figure = fig9_collective(**tiny_kwargs)
        assert "lsmio+col(fw)" in figure.series
        assert "ior+col" in figure.series
        for series in figure.series.values():
            assert all(v > 0 for v in series)


def test_cli_rejects_engine_flags():
    """The figure CLI has no LSMIO engine flags: argparse refuses them.

    ``--pacing`` and friends once reached ADIOS2's parameters through the
    plugin sweeps and crashed fig7 with a TypeError.
    """
    with pytest.raises(SystemExit) as info:
        main(["fig7", "--nodes", "1", "--bytes-per-task", "128K", "--pacing"])
    assert info.value.code == 2
