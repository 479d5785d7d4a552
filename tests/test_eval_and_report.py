"""Experiment drivers (reduced scale) and report rendering."""

import pytest

from repro.eval import (PAPER_FIG7_CLAIMS, run_experiment, run_fig6, run_fig7,
                        run_fig8, run_fig9, run_table1, run_table2,
                        run_table3)
from repro.eval.fig6_scaling import PAPER_FIG6_CLAIMS, render_fig6
from repro.eval.fig7_latency import max_drop, render_fig7
from repro.eval.fig8_floorplan import render_fig8
from repro.eval.fig9_area import render_fig9
from repro.eval.survey import araxl_is_frontier, render_survey
from repro.eval.table1_kernels import render_table1
from repro.eval.table2_area import render_table2
from repro.eval.table3_ppa import render_table3
from repro.params import Ara2Config, AraXLConfig
from repro.report import bar_chart, render_table


class TestSurvey:
    def test_frontier_claim(self):
        assert araxl_is_frontier()

    def test_render(self):
        text = render_survey()
        assert "64L-AraXL" in text and "65536" in text


class TestFig6Reduced:
    @pytest.fixture(scope="class")
    def points(self):
        return run_fig6(kernels=("fmatmul", "fdotproduct"),
                        bytes_per_lane=(64, 512),
                        machines=[Ara2Config(lanes=8), AraXLConfig(lanes=32)],
                        scale="reduced")

    def test_weak_scaling_factor(self, points):
        pt = next(p for p in points if p.kernel == "fmatmul"
                  and p.machine == "32L-AraXL" and p.bytes_per_lane == 512)
        assert pt.scaling_vs_8l_ara2 == pytest.approx(4.0, abs=0.25)

    def test_reductions_scale_worse(self, points):
        fm = next(p for p in points if p.kernel == "fmatmul"
                  and p.machine == "32L-AraXL" and p.bytes_per_lane == 512)
        fd = next(p for p in points if p.kernel == "fdotproduct"
                  and p.machine == "32L-AraXL" and p.bytes_per_lane == 512)
        assert fd.scaling_vs_8l_ara2 < fm.scaling_vs_8l_ara2

    def test_medium_vectors_underutilize(self, points):
        short = next(p for p in points if p.kernel == "fmatmul"
                     and p.machine == "32L-AraXL" and p.bytes_per_lane == 64)
        long = next(p for p in points if p.kernel == "fmatmul"
                    and p.machine == "32L-AraXL" and p.bytes_per_lane == 512)
        assert short.utilization < long.utilization

    def test_render(self, points):
        text = render_fig6(points)
        assert "fmatmul" in text and "B/lane" in text


class TestFig6PaperClaims:
    """The model's distance from each Section IV-B headline number.

    ``_REL_ERROR`` is the relative error (model - paper) / paper of
    every ``PAPER_FIG6_CLAIMS`` entry as the model stands today, at the
    paper's problem sizes.  A timing-model change that moves any of them
    by more than one percentage point fails here.  The band is a drift
    alarm, not a tolerance to tune: it is never widened to let a change
    pass; a deliberate model change re-measures and re-pins the values.
    """

    _REL_ERROR = {
        ("fmatmul", "util_64L_512"): 0.0100,       # 0.9999 vs 0.99
        ("fconv2d", "util_64L_512"): 0.0194,       # 0.9888 vs 0.97
        ("fdotproduct", "scaling_64L_512"): 0.0544,  # 6.432 vs 6.1
        ("softmax", "scaling_64L_512"): 0.0401,    # 7.593 vs 7.3
    }
    _BAND = 0.01

    @pytest.fixture(scope="class")
    def points(self):
        kernels = tuple(dict.fromkeys(k for k, _ in PAPER_FIG6_CLAIMS))
        return run_fig6(kernels=kernels, bytes_per_lane=(512,),
                        machines=[Ara2Config(lanes=8), AraXLConfig(lanes=64)],
                        scale="paper")

    @pytest.mark.parametrize("claim", sorted(PAPER_FIG6_CLAIMS),
                             ids="-".join)
    def test_claim_error_is_pinned(self, points, claim):
        kernel, metric = claim
        pt = next(p for p in points if p.kernel == kernel
                  and p.machine == "64L-AraXL" and p.bytes_per_lane == 512)
        model = pt.utilization if metric.startswith("util_") \
            else pt.scaling_vs_8l_ara2
        paper = PAPER_FIG6_CLAIMS[claim]
        error = (model - paper) / paper
        assert abs(error - self._REL_ERROR[claim]) <= self._BAND, \
            (claim, model, paper, error)


class TestFig7Reduced:
    @pytest.fixture(scope="class")
    def points(self):
        return run_fig7(kernels=("fmatmul", "jacobi2d"),
                        bytes_per_lane=(128, 512), lanes=16,
                        scale="reduced")

    def test_drops_are_small_for_long_vectors(self, points):
        for interface in ("glsu", "reqi", "ringi"):
            drop = max_drop(points, interface, min_bytes_per_lane=512)
            assert drop <= PAPER_FIG7_CLAIMS["long_vector_drop_bound"] + 0.02

    def test_drops_nonnegative_mostly(self, points):
        # Adding latency can only hurt (tiny numerical jitter tolerated).
        for p in points:
            assert p.drop >= -0.005, (p.interface, p.kernel)

    def test_render(self, points):
        text = render_fig7(points)
        assert "GLSU" in text and "max drop" in text


class TestStaticExperiments:
    def test_fig8(self):
        result = run_fig8(lanes=16)
        assert result.clusters == 4
        assert "floorplan" in render_fig8(result)

    def test_fig9(self):
        result = run_fig9()
        assert result.a2a_reduction == pytest.approx(0.58, abs=0.03)
        assert "Fig 9" in render_fig9(result)

    def test_table2(self):
        rows = run_table2()
        assert [r.lanes for r in rows] == [16, 32, 64]
        assert all(r.interface_fraction < 0.05 for r in rows)
        assert "Table II" in render_table2(rows)

    def test_runner_registry(self):
        text = run_experiment("fig9")
        assert "Fig 9" in text
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestTable1Reduced:
    def test_measured_close_to_bound(self):
        rows = run_table1(config=AraXLConfig(lanes=16), scale="reduced")
        by_name = {r.kernel: r for r in rows}
        assert by_name["fmatmul"].achieved_fraction > 0.9
        assert by_name["fmatmul"].model_factor == 2.0
        assert by_name["exp"].model_factor == pytest.approx(28 / 21)
        assert "Table I" in render_table1(rows)


class TestTable3Reduced:
    def test_rows_and_render(self):
        points = run_table3(configs=[Ara2Config(lanes=16),
                                     AraXLConfig(lanes=16)],
                            scale="reduced")
        assert points[1].gflops > points[0].gflops
        text = render_table3(points)
        assert "Vitruvius" in text and "GFLOPs/W" in text


class TestReportHelpers:
    def test_render_table_alignment(self):
        text = render_table(("a", "bb"), [(1, 2.5), (10, 0.125)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) == 1

    def test_bar_chart(self):
        text = bar_chart(["x", "yy"], [1.0, 2.0], width=10)
        assert "#" in text and "yy" in text

    def test_bar_chart_mismatch(self):
        with pytest.raises(ValueError):
            bar_chart(["x"], [1.0, 2.0])
