import concurrent.futures.process
import csv
import errno
import heapq
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import Executor, Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from soliton_tbp import optimizer, pool
from soliton_tbp.cli import main
from soliton_tbp.errors import (DegenerateSpectrumError, InvalidParameterError,
                                MeasurementUnreliableError, SpectrumFileError)
from soliton_tbp.metrics import (NO_SUB_GRID, MeasureConfig, SubGridBound, single_soliton_tbp,
                                 t_hat_b_hat_bound)
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


def pruning_imag_spec():
    """25 points, more than a batch: later batches hold points that the bound rules out."""
    return replace(tiny_imag_spec(), ranges={"sigma_1": (0.54, 0.94, 0.1), "dt_1": (1.0, 3.0, 0.5)})


def pruning_real_spec():
    return replace(tiny_real_spec(), ranges={"omega_1": (0.1, 0.5, 0.1), "dt_1": (-2.0, -0.5, 0.5)})


def cascade_real_spec():
    """81 points at M = 16: bounds are tightened from 2 to 4 to 8 phases, as in the desk sweeps."""
    return SweepSpec("real_axis", 2, {"omega_1": (0.04, 0.12, 0.01), "dt_1": (-1.2, -0.4, 0.1)},
                     measure=replace(FAST, phase_points=16, z_samples=3))


def degenerate_imag_spec():
    # sigma_1 = 0.5 collides with the pinned 0.5: NaN rows among finite ones
    return SweepSpec("imaginary", 2, {"sigma_1": (0.5, 0.7, 0.1), "dt_1": (1.5, 2.5, 0.5)},
                     measure=FAST)


def no_bound(monkeypatch):
    """Bound every point by -inf, so that every point is evaluated, in parameter order."""
    monkeypatch.setattr(optimizer, "t_hat_b_hat_bounds",
                        lambda items, measure, sub_points, coarser=None: [NO_SUB_GRID] * len(items))


def trace_rows(path):
    return list(csv.reader(path.read_text().splitlines()))[2:]


def sweep_with(monkeypatch, workers, spec, trace=None):
    monkeypatch.setenv("SOLITON_TBP_THREADS", str(workers))
    return run_sweep(spec, trace_path=trace)


def record_calls(monkeypatch):
    """Parameters of the `_evaluate` calls made in this process, not in forked workers."""
    evaluated = []
    evaluate = optimizer._evaluate

    def record(constellation, n, names, values, measure, floors=None):
        evaluated.append(values)
        return evaluate(constellation, n, names, values, measure, floors)

    monkeypatch.setattr(optimizer, "_evaluate", record)
    return evaluated


def wide_imag_spec():
    """153 points: enough that cancelling the rest after an error is seen."""
    return replace(tiny_imag_spec(), ranges={"sigma_1": (0.54, 1.54, 0.02), "dt_1": (1.5, 2.5, 0.5)})


def log_calls(monkeypatch, tmp_path, fail_at=None):
    """A file that `_evaluate`'s calls append to, from forked workers too; raise at `fail_at`."""
    log = tmp_path / "evaluated.txt"
    log.touch()
    evaluate = optimizer._evaluate

    def logged(constellation, n, names, values, measure, floors=None):
        with open(log, "a") as fh:
            fh.write(f"{values}\n")
        if optimizer._key(values) == fail_at:
            raise TypeError(f"no objective at {values}")
        return evaluate(constellation, n, names, values, measure, floors)

    monkeypatch.setattr(optimizer, "_evaluate", logged)
    return log


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="sweeps evaluate in-process without the fork start method")


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
        monkeypatch.setenv("SOLITON_TBP_THREADS", "1")  # a forked worker's calls land in its copy
        evaluated = []

        def record(constellation, n, names, values, measure, floors=None):
            evaluated.append(values)
            objective = 1.0 if values[0] > 0.0 else float("nan")  # omega_1 = 0 is degenerate
            return TracePoint(values, 1.0, 1.0, objective), 0.0

        monkeypatch.setattr(optimizer, "_evaluate", record)
        no_bound(monkeypatch)
        spec = default_sweep("real_axis", 3)
        assert spec.refine is False  # the coarse grid is all that runs
        res = run_sweep(spec)
        dt_3 = {p.params[-1] for p in res.trace}
        assert len(res.trace) == 10648
        # degenerate points (omega_1 = 0, omega_3 = +-omega_1) fail in the bound pass
        assert sorted(evaluated) == sorted(p.params for p in res.trace if p.status == "ok")
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
            assert row[-1] == "ok"
            assert float(row[-2]) == direct.objective

    def test_best_is_trace_argmin(self):
        res = run_sweep(tiny_imag_spec())
        finite = [p.objective for p in res.trace if p.ok]
        assert res.best.objective == min(finite)

    def test_refinement_never_worse(self):
        coarse = run_sweep(tiny_imag_spec())
        refined = run_sweep(tiny_imag_spec(refine=True))
        assert refined.best.objective <= coarse.best.objective + 1e-12

    def test_refinement_box_uses_the_fine_steps(self, monkeypatch):
        monkeypatch.setenv("SOLITON_TBP_THREADS", "1")  # a forked worker's calls land in its copy
        evaluated = []

        def record(constellation, n, names, values, measure, floors=None):
            evaluated.append(optimizer._key(values))
            objective = 1.0 + (values[0] - 0.64) ** 2 + (values[1] - 2.0) ** 2
            return TracePoint(values, 1.0, objective, objective), 0.0

        monkeypatch.setattr(optimizer, "_evaluate", record)
        no_bound(monkeypatch)  # the true bounds lie far above these objectives
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
        assert text[1] == "sigma_1,dt_1,T_hat,B_hat,objective,status"
        assert text[2] == "0.5,0.0,nan,nan,nan,DegenerateSpectrumError"

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
        # compared by repr, where the NaN cells of a pruned row read back from the trace are equal
        assert repr(run_sweep(tiny_imag_spec(), trace_path=trace)) == repr(fresh)
        assert trace.read_bytes() == complete
        assert repr(run_sweep(tiny_imag_spec(), trace_path=trace)) == repr(fresh)
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


def replay_cascade(bounds, objectives, top, incumbent=math.inf):
    """(params, status) of each point in the cascade's decision order, from per-level bounds alone."""
    entries = [(levels[2], 2, params) for params, levels in bounds.items()]
    heapq.heapify(entries)
    decided = []
    while entries:
        batch = [heapq.heappop(entries) for _ in range(min(optimizer.BATCH_SIZE, len(entries)))]
        best = incumbent
        for bound, level, params in batch:
            if bound > incumbent:
                decided.append((params, "pruned"))
            elif level < top:
                heapq.heappush(entries, (bounds[params][2 * level], 2 * level, params))
            else:
                decided.append((params, "ok"))
                best = min(best, objectives[params])
        incumbent = best
    return decided


class TestPruning:
    @pytest.mark.parametrize("make_spec, m", [(pruning_imag_spec, 8), (pruning_real_spec, 8),
                                              (cascade_real_spec, 16)],
                             ids=["imaginary", "real_axis", "real_axis_m16"])
    def test_pruned_points_lie_above_the_optimum(self, tmp_path, make_spec, m):
        spec = replace(make_spec(), measure=replace(make_spec().measure, phase_points=m))
        top = optimizer._top_level(m)
        levels = [2**k for k in range(1, top.bit_length())]
        assert levels == ([2, 4] if m == 8 else [2, 4, 8])
        trace = tmp_path / "trace.csv"
        res = run_sweep(spec, trace_path=trace)
        assert {p.status for p in res.trace} == {"ok", "pruned"}
        bounds, objectives = {}, {}
        for p in res.trace:
            spectrum, l_star = spectrum_for_point(spec.constellation, spec.n, res.param_names, p.params)
            bounds[p.params] = {k: t_hat_b_hat_bound(spectrum, spec.measure, l_star, k) for k in levels}
            exact, _, _ = evaluate_point(spec.constellation, spec.n,
                                         dict(zip(res.param_names, p.params)), spec.measure)
            objectives[p.params] = exact.objective
            assert [bounds[p.params][k] for k in levels] == sorted(bounds[p.params].values())
            assert bounds[p.params][top] <= exact.objective
            if p.status == "pruned":
                assert math.isnan(p.t_hat) and math.isnan(p.b_hat) and math.isnan(p.objective)
                assert exact.objective > res.best.objective
            else:
                assert p == exact
        # decision order: the cascade on ascending (bound, level, params), a batch at a time; a
        # point is pruned when its bound lies strictly above the best objective of the batches
        # before its own, tightened below the top level and evaluated at it
        decided = [(tuple(map(float, row[:2])), row[-1]) for row in trace_rows(trace)]
        assert decided == replay_cascade(bounds, objectives, top)
        if m == 16:  # deciding on the two-phase bound alone evaluates four times as many points
            ok = sum(status == "ok" for _, status in decided)
            assert 4 * ok == sum(status == "ok" for _, status in replay_cascade(bounds, objectives, 2))

    def test_a_bound_equal_to_the_incumbent_is_evaluated(self, monkeypatch):
        # the first batch, bounded by 0.5, sets the incumbent to 1.0; the ninth point's
        # bound equals it, and it ties the objective with the smallest parameters
        monkeypatch.setenv("SOLITON_TBP_THREADS", "1")  # a forked worker's calls land in its copy
        monkeypatch.setattr(optimizer, "_bound_chunk",
                            lambda constellation, n, names, measure, chunk:
                            [SubGridBound(1.0 if values == (0.54, 1.5) else 0.5, 1.0, 1.0)
                             for values in chunk])
        monkeypatch.setattr(optimizer, "_evaluate", lambda constellation, n, names, values, measure,
                            floors: (TracePoint(values, 1.0, 1.0, 1.0), 0.0))
        res = run_sweep(tiny_imag_spec())
        assert {p.status for p in res.trace} == {"ok"}
        assert res.best.params == (0.54, 1.5)

    def test_the_trace_does_not_depend_on_the_task_split(self, tmp_path, monkeypatch):
        expected = tmp_path / "default.csv"
        sweep_with(monkeypatch, 1, cascade_real_spec(), expected)
        for name, split in (("single", lambda items, parts: [[item] for item in items]),
                            ("whole", lambda items, parts: [items])):
            monkeypatch.setattr(optimizer, "_split", split)
            for workers in (1, 2):
                trace = tmp_path / f"{name}_{workers}.csv"
                sweep_with(monkeypatch, workers, cascade_real_spec(), trace)
                assert trace.read_bytes() == expected.read_bytes()

    def test_a_failing_tightening_is_a_nan_row(self, tmp_path, monkeypatch):
        fresh = sweep_with(monkeypatch, 1, cascade_real_spec())
        first = [p for p in fresh.trace if p.status == "ok"][0].params
        bounds = optimizer.t_hat_b_hat_bounds
        spectrum, _ = spectrum_for_point("real_axis", 2, fresh.param_names, first)

        def failing(items, measure, sub_points, coarser=None):
            found = bounds(items, measure, sub_points, coarser)
            return [MeasurementUnreliableError("marked") if sub_points == 8 and s == spectrum else f
                    for (s, _), f in zip(items, found)]

        monkeypatch.setattr(optimizer, "t_hat_b_hat_bounds", failing)
        evaluated = record_calls(monkeypatch)
        res = sweep_with(monkeypatch, 1, cascade_real_spec(), tmp_path / "trace.csv")
        row = {p.params: p for p in res.trace}[first]
        assert row.status == "MeasurementUnreliableError" and math.isnan(row.objective)
        assert first not in evaluated and res.best.objective >= fresh.best.objective

    def test_a_trace_decided_on_the_two_phase_bound_resumes(self, tmp_path, monkeypatch):
        # with the cascade's top at two phases a sweep decides on the two-phase bound alone,
        # as sweeps did before the cascade, and writes their traces byte for byte
        monkeypatch.setenv("SOLITON_TBP_THREADS", "1")
        monkeypatch.setattr(optimizer, "TOP_SUB_GRID", 2)
        old = tmp_path / "old.csv"
        decided_alone = run_sweep(cascade_real_spec(), old)
        monkeypatch.undo()
        fresh = sweep_with(monkeypatch, 1, cascade_real_spec())
        assert fresh.best == decided_alone.best
        written = old.read_bytes()
        evaluated = record_calls(monkeypatch)
        # compared by repr, where NaN cells are equal: NaNs read from the trace are distinct objects
        assert repr(sweep_with(monkeypatch, 2, cascade_real_spec(), old)) == repr(decided_alone)
        assert evaluated == [] and old.read_bytes() == written
        # an interrupted old trace: its rows are kept, the rest is decided by the cascade
        lines = written.splitlines(keepends=True)
        old.write_bytes(b"".join(lines[:12]))
        resumed = sweep_with(monkeypatch, 2, cascade_real_spec(), old)
        assert resumed.best == fresh.best
        assert old.read_bytes().startswith(b"".join(lines[:12]))

    def test_no_bound_off_a_power_of_two(self):
        spec = replace(pruning_imag_spec(), measure=replace(FAST, phase_points=6))
        assert {p.status for p in run_sweep(spec).trace} == {"ok"}

    def test_a_trace_without_status_is_refused(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        header = optimizer._trace_header(default_sweep("imaginary", 2), ("sigma_1", "dt_1"))
        with open(trace, "w", newline="") as fh:  # as written before the status column
            csv.writer(fh).writerows([header[0], header[1][:-1], ["0.54", "1.5", "1.0", "2.0", "2.0"]])
        written = trace.read_bytes()
        capsys.readouterr()
        assert main(["optimize", "--constellation", "imag", "--n", "2", "--trace", str(trace)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "has '' where this sweep has 'status'" in err
        assert trace.read_bytes() == written


POOL_SPECS = {
    "imaginary": tiny_imag_spec,
    "imaginary_refined": lambda: tiny_imag_spec(refine=True),
    "real_axis": tiny_real_spec,
    "degenerate": degenerate_imag_spec,
    "pruned": pruning_real_spec,
    "cascade": cascade_real_spec,
}


class TestWorkerPool:
    @pytest.mark.parametrize("make_spec", POOL_SPECS.values(), ids=POOL_SPECS.keys())
    def test_pooled_equals_serial(self, tmp_path, monkeypatch, make_spec):
        serial = sweep_with(monkeypatch, 1, make_spec(), tmp_path / "serial.csv")
        pooled = sweep_with(monkeypatch, 2, make_spec(), tmp_path / "pooled.csv")
        expected = (tmp_path / "serial.csv").read_bytes()
        assert (tmp_path / "pooled.csv").read_bytes() == expected
        # compared by repr, where NaN cells are equal: unpickled NaNs are distinct objects
        assert repr(pooled) == repr(serial)
        # a crash mid-write of the fourth row: the resume has more than one point left
        lines = expected.splitlines(keepends=True)
        torn = tmp_path / "torn.csv"
        torn.write_bytes(b"".join(lines[:5]) + lines[5][:-5])
        resumed = sweep_with(monkeypatch, 2, make_spec(), torn)
        assert torn.read_bytes() == expected
        assert repr(resumed) == repr(serial)
        assert multiprocessing.active_children() == []

    def test_one_point_left_is_evaluated_in_process(self, tmp_path, monkeypatch):
        no_bound(monkeypatch)  # the last row is then the last point, and it is evaluated
        trace = tmp_path / "trace.csv"
        fresh = sweep_with(monkeypatch, 2, tiny_imag_spec(), trace)
        complete = trace.read_bytes()
        body, last = complete.rstrip(b"\n").rsplit(b"\n", 1)
        trace.write_bytes(body + b"\n" + last[:-5])
        evaluated = record_calls(monkeypatch)
        assert sweep_with(monkeypatch, 2, tiny_imag_spec(), trace) == fresh
        assert evaluated == [fresh.trace[-1].params]
        assert trace.read_bytes() == complete

    @needs_fork
    def test_a_resume_with_one_point_left_bounds_in_the_pool(self, tmp_path, monkeypatch):
        trace = tmp_path / "trace.csv"
        fresh = sweep_with(monkeypatch, 2, wide_imag_spec(), trace)
        complete = trace.read_bytes()
        body, last = complete.rstrip(b"\n").rsplit(b"\n", 1)
        trace.write_bytes(body + b"\n" + last[:-5])
        log = tmp_path / "bounded.txt"
        bounds = optimizer.t_hat_b_hat_bounds

        def logged(items, measure, sub_points, coarser=None):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {len(items)}\n")
            return bounds(items, measure, sub_points, coarser)

        monkeypatch.setattr(optimizer, "t_hat_b_hat_bounds", logged)
        resumed = sweep_with(monkeypatch, 2, wide_imag_spec(), trace)
        assert repr(resumed) == repr(fresh)
        assert trace.read_bytes() == complete
        # all 153 points are bounded again, in tasks of BOUND_CHUNK points, none in this process
        tasks = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert sorted(size for _, size in tasks) == sorted(
            min(optimizer.BOUND_CHUNK, 153 - start) for start in range(0, 153, optimizer.BOUND_CHUNK))
        assert os.getpid() not in {pid for pid, _ in tasks}
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_a_sweep_worker_measures_a_large_grid_in_process(self, tmp_path, monkeypatch):
        # two imag N=3 points at M = 64: each full evaluation has 2 050 phase rows, enough
        # blocks for a pool of its own, but only the sweep's parent may fork
        parent = os.getpid()
        executor = concurrent.futures.process.ProcessPoolExecutor

        class ParentOnly(executor):
            def __init__(self, *args, **kwargs):
                if os.getpid() != parent:
                    raise AssertionError("a worker started a pool of its own")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", ParentOnly)
        spec = SweepSpec("imaginary", 3, {"sigma_1": (0.7, 0.7, 0.1), "sigma_2": (0.62, 0.62, 0.1),
                                          "dt_1": (-2.85, -2.85, 0.5), "dt_2": (1.0, 1.05, 0.05)},
                         measure=MeasureConfig(phase_points=64))
        evaluated = record_calls(monkeypatch)
        pooled = sweep_with(monkeypatch, 2, spec, tmp_path / "pooled.csv")
        assert evaluated == [] and all(point.status == "ok" for point in pooled.trace)
        assert multiprocessing.active_children() == []
        serial = sweep_with(monkeypatch, 1, spec, tmp_path / "serial.csv")
        assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
        assert repr(pooled) == repr(serial)

    def test_a_caller_with_threads_evaluates_in_process(self, monkeypatch):
        evaluated = record_calls(monkeypatch)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            res = sweep_with(monkeypatch, 2, tiny_imag_spec())
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        pruned = [p for p in res.trace if p.status == "pruned"]
        assert len(evaluated) + len(pruned) == len(res.trace) == 9
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_a_script_without_a_main_guard_sweeps_in_workers(self, tmp_path):
        # a start method that re-imports __main__ would run the sweep again in each worker
        script = tmp_path / "sweep.py"
        script.write_text(
            "from soliton_tbp.metrics import MeasureConfig\n"
            "from soliton_tbp.optimizer import SweepSpec, run_sweep\n"
            "print('before')\n"
            "run_sweep(SweepSpec('imaginary', 2, {'sigma_1': (0.54, 0.74, 0.1), "
            "'dt_1': (1.5, 2.5, 0.5)}, measure=MeasureConfig(phase_points=4, epsilon=1e-4)))\n"
            "print('after')\n")
        src = str(Path(optimizer.__file__).parents[1])
        env = {**os.environ, "SOLITON_TBP_THREADS": "2",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, str(script)], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "before\nafter\n"  # stdout is a pipe: written once, not per worker

    @needs_fork
    def test_pending_tasks_stay_bounded(self, monkeypatch):
        counts = {"submitted": 0, "unread": 0, "peak": 0}

        class Ticket(Future):
            def result(self, timeout=None):
                counts["unread"] -= 1
                return super().result(timeout)

        class InlinePool(Executor):
            """Runs each task as it is submitted; counts the futures the sweep holds unread."""

            def __init__(self, max_workers, mp_context=None):
                pass

            def submit(self, fn, *args):
                future = Ticket()
                future.set_result(fn(*args))
                counts["submitted"] += 1
                counts["unread"] += 1
                counts["peak"] = max(counts["peak"], counts["unread"])
                return future

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", InlinePool)
        # every bound is 1; the first batch's objectives of 0.5 prune every other point
        monkeypatch.setattr(optimizer, "_bound_chunk",
                            lambda *args: [SubGridBound(1.0, 1.0, 1.0)] * len(args[-1]))
        monkeypatch.setattr(optimizer, "_evaluate_or_nan",
                            lambda *args: TracePoint(args[-1], 1.0, 0.5, 0.5))
        spec = SweepSpec("real_axis", 2, {"omega_1": (0.0, 1.0, 0.004), "dt_1": (-4.0, 0.0, 0.02)},
                         measure=FAST)
        points = optimizer._grid_points(spec.ranges)
        assert len(points) >= 50_000
        rows = optimizer._run_points(spec, tuple(spec.ranges), points, {}, None, 2, math.inf)
        # one bound task per chunk of points, then one evaluation per point of the first batch
        chunks = -(-len(points) // optimizer.BOUND_CHUNK)
        assert counts["submitted"] == chunks + optimizer.BATCH_SIZE
        assert counts["unread"] == 0
        assert counts["peak"] == 2 * pool.PENDING_PER_WORKER
        assert sum(row.status == "pruned" for row in rows) == len(points) - optimizer.BATCH_SIZE

    @needs_fork
    def test_worker_error_reraises_in_the_parent(self, tmp_path, monkeypatch):
        no_bound(monkeypatch)  # the failing point is evaluated, in the first batch
        log = log_calls(monkeypatch, tmp_path, fail_at=(0.54, 2.0))
        with pytest.raises(TypeError, match=r"^no objective at \(0\.54, 2\.0\)$"):
            sweep_with(monkeypatch, 2, wide_imag_spec(), tmp_path / "trace.csv")
        assert multiprocessing.active_children() == []
        # the points not started when the error came back are cancelled, not all evaluated
        assert len(log.read_text().splitlines()) < 153

    @needs_fork
    def test_parent_error_cancels_the_points_not_started(self, tmp_path, monkeypatch):
        class FullDisk:  # the trace's second row fails to write
            def __init__(self, fh):
                self.rows = 0

            def writerows(self, rows):
                pass

            def writerow(self, row):
                self.rows += 1
                if self.rows == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")

        log = log_calls(monkeypatch, tmp_path)
        monkeypatch.setattr(optimizer, "csv", SimpleNamespace(writer=FullDisk))
        with pytest.raises(OSError, match="No space left"):
            sweep_with(monkeypatch, 2, wide_imag_spec(), tmp_path / "trace.csv")
        assert multiprocessing.active_children() == []
        assert len(log.read_text().splitlines()) < 153

    @needs_fork
    def test_dead_worker_leaves_a_resumable_prefix(self, tmp_path, monkeypatch):
        no_bound(monkeypatch)  # every point is evaluated, in enumeration order
        fresh_trace, trace = tmp_path / "fresh.csv", tmp_path / "trace.csv"
        fresh = sweep_with(monkeypatch, 1, tiny_imag_spec(), fresh_trace)
        evaluate = optimizer._evaluate
        parent = os.getpid()

        def crash(constellation, n, names, values, measure, floors=None):
            if optimizer._key(values) == (0.64, 2.0):  # the fifth of nine points
                assert os.getpid() != parent, "the crashing point ran in the test process"
                os._exit(1)
            return evaluate(constellation, n, names, values, measure, floors)

        monkeypatch.setattr(optimizer, "_evaluate", crash)
        with pytest.raises(BrokenProcessPool):
            sweep_with(monkeypatch, 2, tiny_imag_spec(), trace)
        assert multiprocessing.active_children() == []
        prefix = trace.read_bytes()
        assert fresh_trace.read_bytes().startswith(prefix)
        assert len(prefix.splitlines()) <= 2 + 4  # header, then at most the four points before it
        monkeypatch.setattr(optimizer, "_evaluate", evaluate)
        assert sweep_with(monkeypatch, 1, tiny_imag_spec(), trace) == fresh
        assert trace.read_bytes() == fresh_trace.read_bytes()


class TestWorkerCount:
    def test_default_counts_the_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.delenv("SOLITON_TBP_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)  # the host's, in a cpuset-limited container
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert pool._worker_count() == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert pool._worker_count() == 4

    def test_default_without_affinity_counts_the_cpus(self, monkeypatch):
        monkeypatch.delenv("SOLITON_TBP_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert pool._worker_count() == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pool._worker_count() == 1

    def test_the_variable_overrides_the_default(self, monkeypatch):
        monkeypatch.setenv("SOLITON_TBP_THREADS", "7")
        assert pool._worker_count() == 7


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
