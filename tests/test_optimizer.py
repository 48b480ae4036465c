from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from soliton_tbp import optimizer
from soliton_tbp.errors import DegenerateSpectrumError, InvalidParameterError, SpectrumFileError
from soliton_tbp.metrics import MeasureConfig, single_soliton_tbp
from soliton_tbp.optimizer import (
    FINE_STEPS,
    SWEEP_GRIDS,
    TABLE_OPTIMA,
    SweepSpec,
    TracePoint,
    default_sweep,
    evaluate_point,
    grid_axis,
    run_sweep,
    spectrum_for_point,
)

FAST = MeasureConfig(phase_points=4, epsilon=1e-4)


def tiny_imag_spec(refine=False):
    return SweepSpec(
        constellation="imaginary",
        n=2,
        ranges={"sigma_1": (0.54, 0.74, 0.1), "dt_1": (1.5, 2.5, 0.5)},
        refine=refine,
        measure=FAST,
    )


def tiny_real_spec():
    return SweepSpec(
        constellation="real_axis",
        n=2,
        ranges={"omega_1": (0.1, 0.3, 0.1), "dt_1": (-1.0, -0.5, 0.5)},
        measure=replace(FAST, z_samples=3),
    )


class TestSpecValidation:
    def test_bad_constellation(self):
        with pytest.raises(ValueError):
            SweepSpec("circle", 2, {"sigma_1": (0.5, 1.5, 0.1)})

    def test_bad_order(self):
        with pytest.raises(ValueError):
            SweepSpec("imaginary", 4, {"sigma_1": (0.5, 1.5, 0.1)})

    def test_bad_range(self):
        with pytest.raises(ValueError):
            SweepSpec("imaginary", 2, {"sigma_1": (1.5, 0.5, 0.1)})

    def test_unsupported_default_sweep(self):
        with pytest.raises(InvalidParameterError, match="n = 2 or 3"):
            default_sweep("imaginary", 4)
        with pytest.raises(InvalidParameterError, match="constellation"):
            default_sweep("circle", 2, paper_fidelity=True)

    @pytest.mark.parametrize("constellation,n,ranges", [
        ("imaginary", 2, {"sigma_1": (0.58, 0.58, 0.1), "dT_1": (0.0, 2.0, 1.0)}),
        ("real_axis", 2, {"omega": (0.1, 0.1, 0.1), "dt_1": (-1.0, -1.0, 0.5)}),
        ("imaginary", 3, {"sigma_1": (0.7, 0.7, 0.1), "sigma_2": (0.6, 0.6, 0.1),
                          "dt_1": (1.0, 1.0, 0.5)}),
        ("imaginary", 2, {"sigma_1": (0.58, 0.58, 0.1), "dt_1": (2.0, 2.0, 0.5),
                          "dt_2": (0.0, 0.0, 0.5)}),
    ], ids=["misspelled", "misspelled_real", "missing", "extra"])
    def test_names_other_than_the_pairs_are_refused(self, tmp_path, constellation, n, ranges):
        trace = tmp_path / "trace.csv"
        with pytest.raises(InvalidParameterError, match="parameters of"):
            run_sweep(SweepSpec(constellation, n, ranges, measure=FAST), trace_path=trace)
        assert not trace.exists()

    @pytest.mark.parametrize("values", [(0.58,), (0.58, 2.0, 7.0)], ids=["short", "long"])
    def test_value_count_other_than_the_names_is_refused(self, values):
        with pytest.raises(InvalidParameterError, match="need 2 values"):
            spectrum_for_point("imaginary", 2, ("sigma_1", "dt_1"), values)

    def test_names_compare_as_a_set(self):
        spec = SweepSpec("imaginary", 2, {"dt_1": (1.5, 2.5, 0.5), "sigma_1": (0.54, 0.74, 0.1)})
        assert list(spec.ranges) == ["dt_1", "sigma_1"]

    def test_table_names_one_parameter_set_per_pair(self):
        assert SWEEP_GRIDS.keys() == TABLE_OPTIMA.keys()
        for pair, (desk, published) in SWEEP_GRIDS.items():
            assert list(desk) == list(published) == list(TABLE_OPTIMA[pair])


class TestGridAxis:
    def test_hi_is_never_passed(self):
        axis = grid_axis(0.54, 1.5, 0.2)
        assert axis == [0.54, 0.74, 0.94, 1.14, 1.34]

    @pytest.mark.parametrize("lo,hi,step,count", [
        (-4.0, 0.0, 0.4, 11),
        (0.0, 6.0, 0.25, 25),
        (0.54, 1.54, 0.2, 6),
        (0.5, 0.5, 0.1, 1),
    ])
    def test_hi_on_the_lattice_is_reached(self, lo, hi, step, count):
        axis = grid_axis(lo, hi, step)
        assert len(axis) == count
        assert axis[0] == lo and axis[-1] == hi

    @pytest.mark.parametrize("lo,hi,step", [
        (0.0, float("inf"), 0.5),
        (float("-inf"), 1.0, 0.5),
        (float("nan"), 1.0, 0.5),
        (0.0, float("nan"), 0.5),
        (0.0, 1.0, float("nan")),
        (0.0, 1.0, float("inf")),
        (0.0, 1.0, 0.0),
        (0.0, 1.0, -0.5),
        (1.0, 0.0, 0.5),
    ])
    def test_invalid_range(self, lo, hi, step):
        with pytest.raises(InvalidParameterError, match="range"):
            grid_axis(lo, hi, step)

    def test_spec_refuses_an_invalid_range(self):
        with pytest.raises(InvalidParameterError):
            SweepSpec("imaginary", 2, {"sigma_1": (0.6, 1.5, 0.1), "dt_1": (0.0, float("inf"), 0.5)})

    def test_desk_real_n3_evaluates_no_positive_shift(self, monkeypatch):
        evaluated = []

        def record(constellation, n, names, values, measure):
            evaluated.append(values)
            objective = 1.0 if values[0] > 0.0 else float("nan")  # omega_1 = 0 is degenerate
            return TracePoint(values, 1.0, 1.0, objective), 0.0

        monkeypatch.setattr(optimizer, "_evaluate", record)
        spec = default_sweep("real_axis", 3)
        assert spec.refine is False  # the coarse grid is all that runs
        run_sweep(spec)
        dt_3 = {values[-1] for values in evaluated}
        assert len(evaluated) == 10648
        assert max(dt_3) == -0.2 and min(dt_3) == -3.0


class TestPointMapping:
    def test_imaginary_point(self):
        s, l_star = spectrum_for_point(
            "imaginary", 2, ("sigma_1", "dt_1"), (0.58, 2.0)
        )
        assert np.allclose(s.sigmas, [0.58, 0.5])
        assert np.allclose(s.delta_ts, [2.0, 0.0])
        assert l_star == 0.0

    def test_imaginary_unordered_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            spectrum_for_point("imaginary", 2, ("sigma_1", "dt_1"), (0.4, 1.0))

    def test_real_axis_point(self):
        s, l_star = spectrum_for_point(
            "real_axis", 2, ("omega_1", "dt_1"), (0.075, -0.9)
        )
        assert np.allclose(s.omegas, [0.075, -0.075])
        assert np.allclose(s.delta_ts, [-0.9, 0.9])
        assert l_star == pytest.approx(6.0)

    def test_real_axis_zero_omega_degenerate(self):
        with pytest.raises(DegenerateSpectrumError):
            spectrum_for_point("real_axis", 2, ("omega_1", "dt_1"), (0.0, -0.9))


class TestSweep:
    def test_objective_matches_direct_recomputation(self, tmp_path):
        for spec in (tiny_imag_spec(), tiny_real_spec()):
            trace = tmp_path / f"{spec.constellation}.csv"
            res = run_sweep(spec, trace_path=trace)
            row = trace.read_text().splitlines()[2].split(",")
            params = dict(zip(res.param_names, map(float, row)))
            direct, _, _ = evaluate_point(spec.constellation, spec.n, params, spec.measure)
            assert float(row[-1]) == direct.objective

    def test_best_is_trace_argmin(self):
        res = run_sweep(tiny_imag_spec())
        finite = [p.objective for p in res.trace if p.ok]
        assert res.best.objective == min(finite)

    def test_refinement_never_worse(self):
        coarse = run_sweep(tiny_imag_spec())
        refined = run_sweep(tiny_imag_spec(refine=True))
        assert refined.best.objective <= coarse.best.objective + 1e-12

    def test_refinement_box_uses_the_fine_steps(self, monkeypatch):
        evaluated = []

        def record(constellation, n, names, values, measure):
            evaluated.append(optimizer._key(values))
            objective = 1.0 + (values[0] - 0.64) ** 2 + (values[1] - 2.0) ** 2
            return TracePoint(values, 1.0, objective, objective), 0.0

        monkeypatch.setattr(optimizer, "_evaluate", record)
        run_sweep(tiny_imag_spec(refine=True))
        coarse = product(grid_axis(0.54, 0.74, 0.1), grid_axis(1.5, 2.5, 0.5))
        box = product(grid_axis(0.54, 0.74, FINE_STEPS["sigma"]), grid_axis(1.5, 2.5, FINE_STEPS["dt"]))
        expected = set(map(optimizer._key, coarse)) | set(map(optimizer._key, box))
        # the coarse points lie on the fine lattice, so the box adds 11 * 21 - 9
        assert len(evaluated) == len(set(evaluated)) == len(expected) == 11 * 21
        assert set(evaluated) == expected

    def test_all_degenerate_grid_raises(self):
        spec = SweepSpec(
            constellation="imaginary",
            n=2,
            ranges={"sigma_1": (0.3, 0.5, 0.1), "dt_1": (0.0, 0.0, 1.0)},
            measure=FAST,
        )
        with pytest.raises(DegenerateSpectrumError):
            run_sweep(spec)

    def test_degenerate_points_logged_as_nan(self, tmp_path):
        spec = SweepSpec(
            constellation="imaginary",
            n=2,
            ranges={"sigma_1": (0.5, 0.6, 0.1), "dt_1": (0.0, 0.0, 1.0)},
            measure=FAST,
        )
        res = run_sweep(spec, trace_path=tmp_path / "trace.csv")
        rejected = [p for p in res.trace if not p.ok]
        assert len(rejected) == 1  # sigma_1 = 0.5 collides with the pinned 0.5
        text = (tmp_path / "trace.csv").read_text().splitlines()
        assert text[0] == ("#,constellation=imaginary,n=2,epsilon=0.0001,alpha=0.01414213562373095,"
                           "definition=energy,phase_points=4,z_samples=41")
        assert text[1] == "sigma_1,dt_1,T_hat,B_hat,objective"
        assert any("nan" in row for row in text[2:])

    def test_resume_skips_completed(self, tmp_path):
        trace = tmp_path / "trace.csv"
        first = run_sweep(tiny_imag_spec(), trace_path=trace)
        rows_before = trace.read_text().splitlines()
        second = run_sweep(tiny_imag_spec(), trace_path=trace)
        rows_after = trace.read_text().splitlines()
        assert rows_before == rows_after  # nothing re-evaluated or re-written
        assert second.best.params == first.best.params
        assert second.best.objective == first.best.objective

    @pytest.mark.parametrize(
        "tear",
        [lambda row: b",".join(row.split(b",")[:2]), lambda row: row[:-5]],
        ids=["after_params", "inside_last_field"],
    )
    def test_torn_last_row_is_evaluated_again(self, tmp_path, tear):
        trace = tmp_path / "trace.csv"
        fresh = run_sweep(tiny_imag_spec(), trace_path=trace)
        complete = trace.read_bytes()
        body, last = complete.rstrip(b"\r\n").rsplit(b"\n", 1)
        trace.write_bytes(body + b"\n" + tear(last))  # a crash mid-write
        assert run_sweep(tiny_imag_spec(), trace_path=trace) == fresh
        assert trace.read_bytes() == complete
        assert run_sweep(tiny_imag_spec(), trace_path=trace) == fresh
        assert trace.read_bytes() == complete  # the second resume adds no rows

    def test_resume_refuses_another_measurement(self, tmp_path):
        trace = tmp_path / "trace.csv"
        run_sweep(tiny_imag_spec(), trace_path=trace)
        written = trace.read_bytes()
        other = replace(tiny_imag_spec(), measure=replace(FAST, z_samples=5))
        with pytest.raises(SpectrumFileError, match="'z_samples=41' where this sweep has 'z_samples=5'"):
            run_sweep(other, trace_path=trace)
        legacy = tmp_path / "legacy.csv"
        legacy.write_bytes(written.split(b"\n", 1)[1])  # no measurement header
        with pytest.raises(SpectrumFileError, match="no measurement header"):
            run_sweep(tiny_imag_spec(), trace_path=legacy)
        assert trace.read_bytes() == written

    def test_ratio_normalized_by_reference(self):
        spec = tiny_imag_spec()
        res = run_sweep(spec)
        assert res.tbp_per_ev_ratio == pytest.approx(
            res.best.objective / 2.0 / single_soliton_tbp(spec.measure), rel=1e-12
        )
        assert res.tbp_per_ev_ratio > 0.0


class TestRealAxisSweep:
    def test_tiny_sweep_reports_l_star(self):
        res = run_sweep(tiny_real_spec())
        assert res.l_star is not None and res.l_star > 0.0
        w1, d1 = res.best_params["omega_1"], res.best_params["dt_1"]
        assert res.l_star == pytest.approx(abs(d1 / (2.0 * w1)))


class TestDefaults:
    def test_paper_fidelity_grids(self):
        spec = default_sweep("imaginary", 2, paper_fidelity=True)
        assert spec.ranges["sigma_1"] == (0.5, 1.5, 0.1)
        assert spec.ranges["dt_1"] == (0.0, 5.0, 0.25)
        assert spec.measure.phase_points == 128

    def test_desk_defaults_thinned(self):
        spec = default_sweep("imaginary", 2)
        assert spec.measure.phase_points == 16
        assert spec.measure.z_samples == 9
        assert spec.ranges["dt_1"][2] == 0.5

    def test_real_axis_ranges(self):
        spec = default_sweep("real_axis", 3, paper_fidelity=True)
        assert spec.ranges["omega_1"] == (0.0, 1.0, 0.05)
        assert spec.ranges["dt_3"] == (-3.0, 0.0, 0.2)

    @pytest.mark.parametrize("constellation,n,paper_fidelity,ranges,refine", [
        ("imaginary", 3, False,
         {"sigma_1": (0.7, 1.5, 0.2), "sigma_2": (0.6, 1.4, 0.2),
          "dt_1": (-5.0, 5.0, 1.0), "dt_2": (0.0, 5.0, 0.5)},
         None),
        ("imaginary", 3, True,
         {"sigma_1": (0.5, 1.5, 0.1), "sigma_2": (0.5, 1.5, 0.1),
          "dt_1": (-5.0, 5.0, 0.25), "dt_2": (0.0, 5.0, 0.25)},
         {"sigma_1": 0.02, "sigma_2": 0.02, "dt_1": 0.05, "dt_2": 0.05}),
        ("real_axis", 2, False,
         {"omega_1": (0.0, 1.0, 0.1), "dt_1": (-4.0, 0.0, 0.4)},
         {"omega_1": 0.01, "dt_1": 0.05}),
        ("real_axis", 2, True,
         {"omega_1": (0.0, 1.0, 0.05), "dt_1": (-4.0, 0.0, 0.2)},
         {"omega_1": 0.01, "dt_1": 0.05}),
        ("real_axis", 3, False,
         {"omega_1": (0.0, 1.0, 0.1), "dt_1": (-4.0, 0.0, 0.4),
          "omega_3": (-1.0, 1.0, 0.2), "dt_3": (-3.0, 0.0, 0.4)},
         None),
        ("imaginary", 2, False,
         {"sigma_1": (0.54, 1.54, 0.2), "dt_1": (0.0, 5.0, 0.5)},
         {"sigma_1": 0.02, "dt_1": 0.05}),
    ])
    def test_grids(self, constellation, n, paper_fidelity, ranges, refine):
        spec = default_sweep(constellation, n, paper_fidelity=paper_fidelity)
        assert list(spec.ranges.items()) == list(ranges.items())  # order sets the trace columns
        # refine: the fine step of each parameter, or None for a coarse-only sweep
        assert spec.refine is (refine is not None)
        if spec.refine:
            assert {name: FINE_STEPS[name.split("_")[0]] for name in spec.ranges} == refine
        assert spec.measure.phase_points == (128 if paper_fidelity else 16)
        assert spec.measure.z_samples == (41 if paper_fidelity else 9)


class TestDirectEvaluation:
    def test_table_point_n2(self):
        point, ratio, _ = evaluate_point(
            "imaginary", 2, {"sigma_1": 0.58, "dt_1": 2.0},
            MeasureConfig(phase_points=16),
        )
        assert ratio == pytest.approx(0.89, abs=0.03)

    def test_misspelled_name_is_refused(self):
        with pytest.raises(InvalidParameterError, match="parameters of imaginary n = 2"):
            evaluate_point("imaginary", 2, {"sigma_1": 0.58, "dt1": 2.0}, FAST)
