import ast
import csv
import math
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from soliton_tbp.cli import _retain_freed_memory, main
from soliton_tbp.darboux import SampledSignal, TimeGrid, auto_grid, synthesize
from soliton_tbp.errors import SpectrumFileError
from soliton_tbp.io import (
    format_signal_csv,
    format_spectrum_document,
    load_signal,
    load_spectrum,
    parse_spectrum_document,
    save_signal,
    save_spectrum,
)
from soliton_tbp.metrics import MeasureConfig, measure
from soliton_tbp.optimizer import (TABLE_OPTIMA, SweepSpec, _trace_header, default_sweep,
                                  evaluate_point, run_sweep, spectrum_for_point)
from soliton_tbp.spectrum import DiscreteSpectrum, PhysicalScaling

IMAG_OPTIMIZE = ["optimize", "--constellation", "imag", "--n", "2"]
ONE_ENTRY = "n: 1\nentries:\n- {sigma: 1.0, omega: 0, eta: 1, phi: 0}\n"


class TestSpectrumFile:
    def test_round_trip(self, tmp_path):
        s = DiscreteSpectrum([1.0, 0.5], [0.2, -0.3], [2.0, 0.7], [1.0, 4.0])
        scaling = PhysicalScaling(beta2=-2.1e-26, gamma=1.3e-3, T0=1e-11)
        path = tmp_path / "spec.yaml"
        save_spectrum(path, s, scaling)
        s2, scaling2 = load_spectrum(path)
        assert np.array_equal(s2.sigmas, s.sigmas)
        assert np.array_equal(s2.etas, s.etas)
        assert np.array_equal(s2.phis, s.phis)
        assert scaling2 == scaling

    def test_write_is_deterministic(self):
        s = DiscreteSpectrum([1 / 3.0], [0.1], [math.e], [1.0])
        assert format_spectrum_document(s) == format_spectrum_document(s)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("entries:\n- {sigma: 1.0, omega: 0, eta: 1, phi: 0}\n", "missing field 'n'"),
            ("n: 2\nentries:\n- {sigma: 1.0, omega: 0, eta: 1, phi: 0}\n", "does not match"),
            ("n: true\nentries:\n- {sigma: 1.0, omega: 0, eta: 1, phi: 0}\n", "'n' must be an integer"),
            ("n: 1\nentries:\n- {sigma: 1.0, omega: 0, phi: 0}\n", "missing field 'eta'"),
            ("n: 1\nentries:\n- {sigma: oops, omega: 0, eta: 1, phi: 0}\n", "must be a number"),
            ("n: 1\nentries:\n- {sigma: 1.0, omega: 0, eta: 1, phi: 0, extra: 2}\n", "unknown fields"),
            ("n: 1\nentries: []\n", "non-empty list"),
            ("n: 1\nentries:\n- {sigma: -1.0, omega: 0, eta: 1, phi: 0}\n", "sigma"),
            ("n: [\n", "not valid YAML"),
            ("[1, 2]\n", "root must be a mapping"),
            ("n: 1\nentries:\n- 0.5\n", r"entries\[0\]: must be a mapping"),
            (ONE_ENTRY + "physical: 3\n", "'physical' must be a mapping"),
            (ONE_ENTRY + "physical: {beta2_s2_per_m: 2.1e-26, gamma_per_W_m: 1.3e-3, T0_s: 1.0e-11}\n",
             "physical: beta2 must be finite and < 0"),
            (ONE_ENTRY + "physical: {beta2_s2_per_m: -2.1e-26, gamma_per_W_m: 0.0, T0_s: 1.0e-11}\n",
             "physical: gamma must be finite and > 0"),
            (ONE_ENTRY + "physical: {beta2_s2_per_m: -2.1e-26, gamma_per_W_m: 1.3e-3, T0_s: -1.0e-11}\n",
             "physical: T0 must be finite and > 0"),
        ],
    )
    def test_schema_violations(self, text, fragment):
        with pytest.raises(SpectrumFileError, match=fragment):
            parse_spectrum_document(text)


class TestSignalFile:
    def test_round_trip(self, tmp_path):
        s = DiscreteSpectrum([0.5])
        sig = synthesize(s, auto_grid(s, 1e-4))
        path = tmp_path / "sig.csv"
        save_signal(path, sig)
        back = load_signal(path)
        assert back.grid.n_samples == sig.grid.n_samples
        assert back.grid.dt == pytest.approx(sig.grid.dt, rel=1e-12)
        assert np.abs(back.samples - sig.samples).max() == 0.0

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,real\n0,1\n")
        with pytest.raises(SpectrumFileError, match="header"):
            load_signal(path)

    @pytest.mark.parametrize("value", ["nan", "1e400", "-inf"])
    def test_non_finite_sample_named(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        rows = ["t,re,im,abs"] + [f"{i * 0.1},1.0,0.0,1.0" for i in range(4)]
        rows[3] = f"0.2,1.0,{value},1.0"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(SpectrumFileError, match=f"{path.name}:4: non-finite value '{value}'"):
            load_signal(path)

    def test_programming_error_is_not_a_file_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken constructor")

        monkeypatch.setattr(DiscreteSpectrum, "__post_init__", broken)
        with pytest.raises(TypeError, match="broken constructor"):
            parse_spectrum_document("n: 1\nentries:\n- {sigma: 0.5, omega: 0, eta: 1, phi: 0}\n")

    def test_power_of_two_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["t,re,im,abs"] + [f"{i * 0.1},1.0,0.0,1.0" for i in range(100)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(SpectrumFileError, match="power of two"):
            load_signal(path)


@pytest.fixture
def one_soliton_file(tmp_path):
    path = tmp_path / "one.yaml"
    path.write_text("n: 1\nentries:\n- {sigma: 0.5, omega: 0.0, eta: 1.0, phi: 0.0}\n")
    return path


def write_imag_trace(path, rows, tail=b""):
    """A trace of the desk imag N=2 sweep holding ``rows``, then the bytes ``tail``."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(_trace_header(default_sweep("imaginary", 2), ("sigma_1", "dt_1")) + rows)
    with open(path, "ab") as fh:
        fh.write(tail)


class TestCli:
    def test_synth_peak(self, one_soliton_file, tmp_path):
        out = tmp_path / "sig.csv"
        assert main(["synth", "--spectrum", str(one_soliton_file), "--out", str(out)]) == 0
        sig = load_signal(out)
        assert np.abs(sig.samples).max() == pytest.approx(1.0, abs=1e-4)

    def test_measure_signal_report(self, one_soliton_file, tmp_path, capsys):
        out = tmp_path / "sig.csv"
        main(["synth", "--spectrum", str(one_soliton_file), "--out", str(out)])
        assert main(["measure", "--signal", str(out), "--epsilon", "1e-4"]) == 0
        report = capsys.readouterr().out
        fields = dict(
            line.split(": ") for line in report.strip().splitlines() if ": " in line
        )
        assert float(fields["TB"]) == pytest.approx(9.94, abs=0.1)

    def test_measure_report_file_is_the_printed_report(self, one_soliton_file, tmp_path, capsys):
        sig, report = tmp_path / "sig.csv", tmp_path / "out.txt"
        main(["synth", "--spectrum", str(one_soliton_file), "--out", str(sig)])
        capsys.readouterr()
        assert main(["measure", "--signal", str(sig), "--report", str(report)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("definition: energy\n")
        assert report.read_text() == printed

    @pytest.mark.parametrize("definition", ["energy", "threshold"])
    @pytest.mark.parametrize("peak, message", [(1e160, "energy overflows"),
                                               (0.0, "carries no energy")])
    def test_measure_refuses_energy_out_of_range(self, tmp_path, capsys, definition, peak,
                                                 message):
        t = np.linspace(-10.0, 10.0, 512)
        path, report = tmp_path / "sig.csv", tmp_path / "out.txt"
        save_signal(path, SampledSignal(TimeGrid(-10.0, t[1] - t[0], 512), peak / np.cosh(t) + 0j))
        argv = ["measure", "--signal", str(path), "--def", definition, "--report", str(report)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"numeric error: signal {message}\n"
        assert not report.exists()

    def test_threshold_crossing_off_the_grid_is_numeric_error(self, tmp_path, capsys):
        # sech(4.5) = 0.022 passes the threshold 0.014 at both edges; the energy
        # definition measures the same signal
        t = np.linspace(-4.5, 4.5, 8192)
        path = tmp_path / "sig.csv"
        save_signal(path, SampledSignal(TimeGrid(-4.5, t[1] - t[0], 8192), 1.0 / np.cosh(t) + 0j))
        assert main(["measure", "--signal", str(path), "--def", "threshold"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "numeric error: threshold crossing lies outside the grid\n"
        assert main(["measure", "--signal", str(path)]) == 0
        fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert float(fields["T"]) == pytest.approx(8.66, abs=5e-3)

    def test_measure_signal_threshold_alpha(self, one_soliton_file, tmp_path, capsys):
        sig_path = tmp_path / "sig.csv"
        main(["synth", "--spectrum", str(one_soliton_file), "--out", str(sig_path)])
        capsys.readouterr()
        argv = ["measure", "--signal", str(sig_path), "--def", "threshold", "--alpha", "0.02"]
        assert main(argv) == 0
        fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        report = measure(load_signal(sig_path), MeasureConfig(definition="threshold", alpha=0.02))
        assert fields["definition"] == "threshold" and fields["alpha"] == "0.02"
        assert fields["T"] == repr(report.t) and fields["B"] == repr(report.b)
        assert fields["T_interval"] == f"[{report.t_interval.lo!r}, {report.t_interval.hi!r}]"
        assert fields["B_interval"] == f"[{report.b_interval.lo!r}, {report.b_interval.hi!r}]"
        default = measure(load_signal(sig_path), MeasureConfig(definition="threshold"))
        assert fields["TB"] == repr(report.tbp) != repr(default.tbp)

    def test_synth_physical_units(self, one_soliton_file, tmp_path):
        physical = tmp_path / "physical.yaml"
        physical.write_text(one_soliton_file.read_text() + "physical:\n  beta2_s2_per_m: -2.1e-26\n"
                            "  gamma_per_W_m: 1.3e-3\n  T0_s: 1.0e-11\n")
        plain, scaled = tmp_path / "plain.csv", tmp_path / "scaled.csv"
        assert main(["synth", "--spectrum", str(one_soliton_file), "--out", str(plain)]) == 0
        assert main(["synth", "--spectrum", str(physical), "--out", str(scaled), "--physical"]) == 0
        _, scaling = load_spectrum(physical)
        plain, scaled = load_signal(plain), load_signal(scaled)
        assert scaled.grid.n_samples == plain.grid.n_samples
        assert scaled.grid.t_start == pytest.approx(plain.grid.t_start * scaling.T0, rel=1e-12)
        assert scaled.grid.dt == pytest.approx(plain.grid.dt * scaling.T0, rel=1e-12)
        assert np.array_equal(scaled.samples, plain.samples * math.sqrt(scaling.p0))

    def test_synth_physical_needs_a_physical_block(self, one_soliton_file, tmp_path, capsys):
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert main(["synth", "--spectrum", str(one_soliton_file), "--out", str(out), "--physical"]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and "physical" in err
        assert not out.exists()

    def test_nft_round_trip(self, one_soliton_file, tmp_path):
        sig_path = tmp_path / "sig.csv"
        rec_path = tmp_path / "rec.yaml"
        main(["synth", "--spectrum", str(one_soliton_file), "--out", str(sig_path)])
        assert main(["nft", "--signal", str(sig_path), "--out", str(rec_path)]) == 0
        rec, _ = load_spectrum(rec_path)
        assert rec.n == 1
        assert rec.sigmas[0] == pytest.approx(0.5, abs=1e-3)
        assert rec.etas[0] == pytest.approx(1.0, rel=1e-2)
        # re-synthesize from the recovered file agrees with the original pulse
        out2 = tmp_path / "sig2.csv"
        assert main(["synth", "--spectrum", str(rec_path), "--out", str(out2)]) == 0

    def test_propagate_cli(self, one_soliton_file, tmp_path):
        sig_path = tmp_path / "sig.csv"
        out_path = tmp_path / "out.csv"
        main(["synth", "--spectrum", str(one_soliton_file), "--out", str(sig_path)])
        rc = main([
            "propagate", "--signal", str(sig_path), "--z", "0.5",
            "--steps", "500", "--out", str(out_path),
        ])
        assert rc == 0
        before, after = load_signal(sig_path), load_signal(out_path)
        assert np.abs(np.abs(after.samples) - np.abs(before.samples)).max() < 1e-5

    def test_snapshots(self, one_soliton_file, tmp_path):
        sig_path = tmp_path / "sig.csv"
        main(["synth", "--spectrum", str(one_soliton_file), "--out", str(sig_path)])
        rc = main([
            "propagate", "--signal", str(sig_path), "--z", "0.4", "--steps", "400",
            "--out", str(tmp_path / "snap.csv"), "--snapshots", "4",
        ])
        assert rc == 0
        assert len(list(tmp_path.glob("snap_z*.csv"))) == 5

    def test_measure_spectrum_with_profile_csv(self, tmp_path):
        spec_path = tmp_path / "two.yaml"
        s = DiscreteSpectrum.from_delta_t([0.5, 0.5], [0.2, -0.2], [-0.5, 0.5])
        save_spectrum(spec_path, s)
        csv_path = tmp_path / "profile.csv"
        rc = main([
            "measure", "--spectrum", str(spec_path), "--phases", "4",
            "--L", "1.25", "--z-samples", "5", "--csv", str(csv_path),
        ])
        assert rc == 0
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "z,t_max,b_max"
        assert len(rows) == 6

    def test_one_point_has_one_ratio(self, tmp_path, capsys):
        # measure --spectrum, evaluate_point and a one-point sweep report the same ratio
        params = TABLE_OPTIMA[("imaginary", 2)]
        spectrum, _ = spectrum_for_point("imaginary", 2, tuple(params), tuple(params.values()))
        spec_path = tmp_path / "imag2.yaml"
        save_spectrum(spec_path, spectrum)
        capsys.readouterr()
        assert main(["measure", "--spectrum", str(spec_path), "--phases", "4"]) == 0
        fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        config = MeasureConfig(phase_points=4)
        _, direct, _ = evaluate_point("imaginary", 2, params, config)
        ranges = {name: (value, value, 0.1) for name, value in params.items()}
        swept = run_sweep(SweepSpec("imaginary", 2, ranges, measure=config)).tbp_per_ev_ratio
        assert fields["TBP_per_eigenvalue_ratio"] == repr(direct) == repr(swept)

    def test_measure_needs_exactly_one_input(self, one_soliton_file):
        assert main(["measure", "--epsilon", "1e-4"]) == 1
        assert main([
            "measure", "--signal", "x.csv", "--spectrum", str(one_soliton_file),
        ]) == 1

    @pytest.mark.parametrize("command, flags", [
        ("measure", ["--phases", "0"]),
        ("measure", ["--phases", "1"]),
        ("measure", ["--z-samples", "0"]),
        ("propagate", ["--steps", "0"]),
        ("propagate", ["--dz", "0"]),
        ("propagate", ["--dz", "-0.1"]),
        ("propagate", ["--snapshots", "-1"]),
        ("nft", ["--seeds", "10"]),  # no such flag: the seeds come from the contour integral
        ("measure", ["--L", "-1"]),
        ("propagate", ["--steps", "5", "--snapshots", "7"]),
        ("nft", ["--region", "-1", "1", "-0.5", "1"]),
        ("synth", ["--oversampling", "0"]),
        ("synth", ["--oversampling", "-1"]),
        ("synth", ["--epsilon", "0"]),
        ("bound", ["--n-max", "0"]),
        ("bound", ["--epsilon", "0"]),
        ("figures", ["--which", "fig6", "--n-max", "0"]),
        ("sweep", ["--dt-step", "0"]),
        ("sweep", ["--dt-step", "-0.25"]),
        ("optimize", ["--n", "4"]),
        ("propagate", ["--z", "nan", "--steps", "5"]),
        ("propagate", ["--z", "inf"]),
        ("synth", ["--z", "nan"]),
        ("measure", ["--L", "nan"]),
        ("nft", ["--region", "1", "-1", "0", "1"]),
        ("nft", ["--region", "-1", "1", "1", "0.5"]),
        ("nft", ["--region", "-1", "1", "nan", "1"]),
        ("measure", ["--epsilon", "1e-13"]),
        ("measure", ["--epsilon", "0.6"]),
    ])
    def test_out_of_range_flag_is_validation_error(
        self, one_soliton_file, tmp_path, capsys, command, flags
    ):
        sig_path = tmp_path / "sig.csv"
        out = tmp_path / "out.txt"
        if command in ("nft", "propagate"):
            main(["synth", "--spectrum", str(one_soliton_file), "--out", str(sig_path)])
        spec = str(one_soliton_file)
        argv = {
            "synth": ["--spectrum", spec, "--out", str(out)],
            "nft": ["--signal", str(sig_path), "--out", str(out)],
            "propagate": ["--signal", str(sig_path), "--out", str(out), "--z", "0.1"],
            "measure": ["--spectrum", spec, "--report", str(out)],
            "sweep": ["--spectrum", spec, "--entry", "0", "--out", str(out)],
            "optimize": ["--constellation", "imag", "--report", str(out)],
            "bound": ["--constellation", "imag", "--out", str(out)],
            "figures": ["--out-dir", str(tmp_path / "out")],
        }[command]
        capsys.readouterr()
        assert main([command] + argv + flags) == 1
        assert capsys.readouterr().out == ""
        # snapshots would be written as out_z000.txt, ...
        assert not list(tmp_path.glob("out*"))

    def test_epsilon_too_large_for_derived_alpha_names_epsilon(self, one_soliton_file, capsys):
        capsys.readouterr()
        assert main(["measure", "--spectrum", str(one_soliton_file), "--epsilon", "0.6"]) == 1
        assert capsys.readouterr().err.startswith("error: epsilon must lie below 0.5")

    @pytest.mark.parametrize("flags", [
        ["--csv", "out.csv"], ["--phases", "8"], ["--z-samples", "5"],
        ["--L", "6"], ["--L", "0"],
    ])
    def test_measure_signal_rejects_spectrum_flags(
        self, one_soliton_file, tmp_path, capsys, flags
    ):
        sig_path = tmp_path / "sig.csv"
        main(["synth", "--spectrum", str(one_soliton_file), "--out", str(sig_path)])
        report = tmp_path / "out.txt"
        capsys.readouterr()
        flags = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
        assert main(["measure", "--signal", str(sig_path), "--report", str(report)] + flags) == 1
        out, err = capsys.readouterr()
        assert out == "" and flags[0] in err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("command, defect, named", [
        *(pytest.param(command, "nan time", "sig.csv:11", id=command)
          for command in ("measure", "nft", "propagate")),
        pytest.param("synth", "n: true", "bool.yaml: field 'n'", id="synth"),
        pytest.param("measure", "three cells", "sig.csv:11: expected 4 columns",
                     id="measure-three-cells"),
        pytest.param("nft", "uneven time", "sig.csv: time axis is not uniformly ascending",
                     id="nft-uneven-time"),
    ])
    def test_invalid_input_file_is_validation_error(self, one_soliton_file, tmp_path, capsys,
                                                    command, defect, named):
        sig_path = tmp_path / "sig.csv"
        main(["synth", "--spectrum", str(one_soliton_file), "--out", str(sig_path)])
        rows = sig_path.read_text().splitlines()
        t, rest = rows[10].split(",", 1)
        rows[10] = {"three cells": rows[10].rsplit(",", 1)[0],
                    "uneven time": f"{float(t) + 1e-3},{rest}"}.get(defect, "nan," + rest)
        sig_path.write_text("\n".join(rows) + "\n")
        spec_path = tmp_path / "bool.yaml"
        spec_path.write_text(one_soliton_file.read_text().replace("n: 1", "n: true"))
        out = tmp_path / "out.txt"
        argv = {
            "measure": ["--signal", str(sig_path), "--report", str(out)],
            "nft": ["--signal", str(sig_path), "--out", str(out)],
            "propagate": ["--signal", str(sig_path), "--out", str(out), "--z", "0.1"],
            "synth": ["--spectrum", str(spec_path), "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert main([command] + argv) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and named in err
        assert not list(tmp_path.glob("out*"))

    def test_spectrum_file_error_names_the_file(self, one_soliton_file, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(one_soliton_file.read_text() + "physical: 3\n")
        capsys.readouterr()
        assert main(["synth", "--spectrum", str(bad), "--out", str(tmp_path / "out.csv")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {bad}: field 'physical' must be a mapping\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["synth", "measure", "figures"])
    def test_os_error_on_a_path_is_validation_error(self, one_soliton_file, tmp_path, capsys,
                                                    command):
        regular = tmp_path / "regular"
        regular.write_text("not a directory\n")
        argv = {
            "synth": ["--spectrum", str(one_soliton_file), "--out", str(regular / "x.csv")],
            "measure": ["--signal", str(regular / "x.csv")],
            "figures": ["--which", "fig3", "--phases", "2", "--out-dir", str(regular)],
        }[command]
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert main([command] + argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert sorted(tmp_path.iterdir()) == before
        assert regular.read_text() == "not a directory\n"

    def test_figures_checks_out_dir_before_computing(self, tmp_path, capsys, monkeypatch):
        from soliton_tbp import cli

        def fig3(config):
            raise AssertionError("computed before the output directory was made")

        monkeypatch.setattr(cli, "_fig3", fig3)
        regular = tmp_path / "regular"
        regular.write_text("not a directory\n")
        capsys.readouterr()
        assert main(["figures", "--which", "fig3", "--out-dir", str(regular)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        # a failed computation removes the directories the command made
        with pytest.raises(AssertionError, match="computed before"):
            main(["figures", "--which", "fig3", "--out-dir", str(tmp_path / "a" / "b")])
        assert sorted(tmp_path.iterdir()) == [regular]

    def test_bad_thread_count_is_validation_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SOLITON_TBP_THREADS", "two")
        trace = tmp_path / "trace.csv"
        capsys.readouterr()
        assert main(["optimize", "--constellation", "imag", "--n", "2", "--trace", str(trace)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "SOLITON_TBP_THREADS" in err
        assert not trace.exists()

    @pytest.mark.parametrize("value", ["oops", "inf"])
    def test_bad_abs_cell_is_validation_error(self, one_soliton_file, tmp_path, capsys, value):
        sig_path = tmp_path / "sig.csv"
        main(["synth", "--spectrum", str(one_soliton_file), "--out", str(sig_path)])
        rows = sig_path.read_text().splitlines()
        rows[5] = rows[5].rsplit(",", 1)[0] + "," + value
        sig_path.write_text("\n".join(rows) + "\n")
        report = tmp_path / "out.txt"
        capsys.readouterr()
        assert main(["measure", "--signal", str(sig_path), "--report", str(report)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "sig.csv:6" in err
        assert not report.exists()

    def test_non_numeric_trace_row_is_validation_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        write_imag_trace(trace, [["0.54", "1.5", "1.0", "2.0", "2.0", "ok"],
                                 ["0.54", "abc", "1.0", "2.0", "2.0", "ok"]])
        written = trace.read_bytes()
        capsys.readouterr()
        assert main(IMAG_OPTIMIZE + ["--trace", str(trace)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "trace.csv:4" in err and "'abc'" in err
        assert trace.read_bytes() == written

    def test_trace_row_of_other_length_is_validation_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        write_imag_trace(trace, [["0.54", "1.5", "1.0", "2.0", "2.0", "ok"],
                                 ["0.54", "2.0", "1.0", "2.0"]])
        written = trace.read_bytes()
        capsys.readouterr()
        assert main(IMAG_OPTIMIZE + ["--trace", str(trace)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "trace.csv:4: expected 6 columns, got 4" in err
        assert trace.read_bytes() == written

    def test_trace_status_other_than_a_name_is_validation_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        write_imag_trace(trace, [["0.54", "1.5", "1.0", "2.0", "2.0", "ok"],
                                 ["0.54", "2.0", "1.0", "2.0", "2.0", "not ok"]])
        written = trace.read_bytes()
        capsys.readouterr()
        assert main(IMAG_OPTIMIZE + ["--trace", str(trace)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "trace.csv:4: status 'not ok' is not a name" in err
        assert trace.read_bytes() == written

    def test_refused_torn_trace_is_left_unchanged(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        write_imag_trace(trace, [["0.54", "abc", "1.0", "2.0", "2.0", "ok"]], tail=b"0.54,2.0,1.0")
        written = trace.read_bytes()
        capsys.readouterr()
        assert main(IMAG_OPTIMIZE + ["--trace", str(trace)]) == 1
        assert "trace.csv:3" in capsys.readouterr().err
        assert trace.read_bytes() == written  # the torn tail is cut only from a trace that is read

    @pytest.mark.parametrize("kind", ["trace", "signal", "spectrum"])
    def test_non_utf8_file_is_validation_error(self, one_soliton_file, tmp_path, capsys, kind):
        bad = tmp_path / {"trace": "trace.csv", "signal": "sig.csv", "spectrum": "bad.yaml"}[kind]
        out = tmp_path / "out.csv"
        if kind == "trace":
            write_imag_trace(bad, [["0.54", "1.5", "1.0", "2.0", "2.0", "ok"]],
                             tail=b"0.54,2.0,\xff,1,1\n")
            argv, line = IMAG_OPTIMIZE + ["--trace", str(bad)], 4
        elif kind == "signal":
            main(["synth", "--spectrum", str(one_soliton_file), "--out", str(bad)])
            rows = bad.read_bytes().split(b"\n")
            rows[5] = rows[5].replace(b",", b"\xff,", 1)
            bad.write_bytes(b"\n".join(rows))
            argv, line = ["measure", "--signal", str(bad), "--report", str(out)], 6
        else:
            bad.write_bytes(b"n: 1\n# caf\xe9\n" + one_soliton_file.read_bytes().split(b"\n", 1)[1])
            argv, line = ["synth", "--spectrum", str(bad), "--out", str(out)], 2
        written = bad.read_bytes()
        capsys.readouterr()
        assert main(argv) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and f"{bad.name}:{line}: not UTF-8" in err
        assert bad.read_bytes() == written and not out.exists()

    def test_steps_with_dz_is_usage_error(self, one_soliton_file, tmp_path, capsys):
        sig_path = tmp_path / "sig.csv"
        main(["synth", "--spectrum", str(one_soliton_file), "--out", str(sig_path)])
        out = tmp_path / "out.csv"
        capsys.readouterr()
        argv = ["propagate", "--signal", str(sig_path), "--z", "0.1", "--out", str(out)]
        assert main(argv + ["--steps", "5", "--dz", "1e-3"]) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_thread_count_below_one_is_validation_error(self, tmp_path, capsys, monkeypatch, count):
        monkeypatch.setenv("SOLITON_TBP_THREADS", count)
        trace = tmp_path / "trace.csv"
        capsys.readouterr()
        assert main(["optimize", "--constellation", "imag", "--n", "2", "--trace", str(trace)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "SOLITON_TBP_THREADS" in err
        assert not trace.exists()

    @pytest.mark.parametrize("argv", [["measure", "--phases", "abc"], ["synth", "--spectrum", "x"]])
    def test_usage_error_returns_one(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().out == ""
        assert main(["--help"]) == 0

    def test_region_without_eigenvalues_is_numeric_error(self, one_soliton_file, tmp_path):
        sig_path = tmp_path / "sig.csv"
        main(["synth", "--spectrum", str(one_soliton_file), "--out", str(sig_path)])
        out = tmp_path / "rec.yaml"
        argv = ["nft", "--signal", str(sig_path), "--out", str(out)]
        assert main(argv + ["--region", "-1", "1", "0.6", "1"]) == 2
        assert not out.exists()

    def test_exit_codes(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("n: 2\nentries:\n- {sigma: 0.5, omega: 0, eta: 1, phi: 0}\n")
        assert main(["synth", "--spectrum", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
        missing = tmp_path / "missing.yaml"
        assert main(["synth", "--spectrum", str(missing), "--out", str(tmp_path / "x.csv")]) == 1
        # a degenerate spectrum file fails its schema check in io -> 1
        degenerate = tmp_path / "deg.yaml"
        degenerate.write_text(
            "n: 2\nentries:\n"
            "- {sigma: 0.5, omega: 0.0, eta: 1.0, phi: 0.0}\n"
            "- {sigma: 0.5, omega: 1e-9, eta: 1.0, phi: 0.0}\n"
        )
        assert main(["synth", "--spectrum", str(degenerate), "--out", str(tmp_path / "x.csv")]) == 1

    def test_synth_determinism(self, one_soliton_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--spectrum", str(one_soliton_file), "--out", str(a)])
        main(["synth", "--spectrum", str(one_soliton_file), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_csv(self, tmp_path):
        spec_path = tmp_path / "two.yaml"
        save_spectrum(spec_path, DiscreteSpectrum([0.5, 1.0]))
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--spectrum", str(spec_path), "--entry", "1",
            "--dt-min", "0", "--dt-max", "1", "--dt-step", "0.5",
            "--phases", "4", "--out", str(out),
        ])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "dt,t_max,b_max" and len(rows) == 4

    def test_sweep_entry_out_of_range(self, tmp_path, capsys):
        spec_path = tmp_path / "two.yaml"
        save_spectrum(spec_path, DiscreteSpectrum([0.5, 1.0]))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--spectrum", str(spec_path), "--entry", "2", "--out", str(out)]) == 1
        assert "--entry 2 out of range for N=2" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_stops_at_dt_max(self, tmp_path):
        spec_path = tmp_path / "two.yaml"
        save_spectrum(spec_path, DiscreteSpectrum([0.5, 1.0]))
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--spectrum", str(spec_path), "--entry", "1",
            "--dt-max", "1.04", "--dt-step", "0.4", "--phases", "4", "--out", str(out),
        ])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert [row.split(",")[0] for row in rows] == ["dt", "0.0", "0.4", "0.8"]

    def test_optimize_cli_tiny(self, tmp_path, monkeypatch, capsys):
        # shrink the desk grids so the CLI path stays fast
        import soliton_tbp.cli as cli
        import soliton_tbp.optimizer as opt

        def tiny(constellation, n, paper_fidelity=False, measure=None):
            from soliton_tbp.metrics import MeasureConfig

            if constellation == "real_axis":
                return opt.SweepSpec(constellation, 2, {"omega_1": (0.1, 0.3, 0.1), "dt_1": (-1.0, -0.5, 0.5)},
                                     measure=MeasureConfig(phase_points=4, z_samples=3))
            return opt.SweepSpec(
                constellation="imaginary",
                n=2,
                ranges={"sigma_1": (0.54, 0.64, 0.1), "dt_1": (1.5, 2.0, 0.5)},
                measure=MeasureConfig(phase_points=4),
            )

        monkeypatch.setattr(cli, "default_sweep", tiny)
        for flag in ("imag", "real"):
            trace = tmp_path / f"{flag}_trace.csv"
            spectrum_out = tmp_path / f"{flag}.yaml"
            capsys.readouterr()
            rc = main([
                "optimize", "--constellation", flag, "--n", "2",
                "--trace", str(trace), "--out-spectrum", str(spectrum_out),
            ])
            assert rc == 0
            assert trace.exists() and spectrum_out.exists()
            rec, _ = load_spectrum(spectrum_out)
            assert rec.n == 2
            fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
            assert ("L_star" in fields) == (flag == "real")
        best = ast.literal_eval(fields["best_params"])
        assert float(fields["L_star"]) == pytest.approx(abs(best["dt_1"] / (2.0 * best["omega_1"])))

    def test_optimize_resume_refuses_other_phases(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        argv = ["optimize", "--constellation", "imag", "--n", "2", "--trace", str(trace)]
        assert main(argv + ["--phases", "3"]) == 0
        written = trace.read_bytes()
        capsys.readouterr()
        assert main(argv + ["--phases", "32"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "phase_points=3" in err
        assert trace.read_bytes() == written

    def test_figures_cli(self, tmp_path):
        out = tmp_path / "figs"
        rc = main([
            "figures", "--out-dir", str(out), "--phases", "4", "--n-max", "3",
        ])
        assert rc == 0
        fig3 = (out / "fig3.csv").read_text().strip().splitlines()
        assert fig3[0] == "case,dt,t_max,b_max"
        rows = [r.split(",") for r in fig3[1:] if r.startswith("imaginary")]
        dts = [float(r[1]) for r in rows]
        t_max = [float(r[2]) for r in rows]
        b_max = [float(r[3]) for r in rows]
        # zero shift: minimal duration, maximal bandwidth
        assert t_max[dts.index(0.0)] == min(t_max)
        assert b_max[dts.index(0.0)] == max(b_max)
        fig5 = (out / "fig5.csv").read_text().strip().splitlines()
        n2 = [r.split(",") for r in fig5[1:] if r.startswith("2,")]
        ts = [float(r[2]) for r in n2]
        assert ts[0] == pytest.approx(ts[-1], rel=0.02)
        for name in ("fig6_imaginary.csv", "fig6_real_axis.csv"):
            rows = (out / name).read_text().strip().splitlines()
            first_bound = rows[1].split(",")
            assert first_bound[0] == "bound" and float(first_bound[2]) == 1.0

    def test_cli_import_loads_no_scipy(self):
        # scipy.optimize is about 0.45 s of import; only bound and figures need it
        import soliton_tbp

        env = dict(os.environ, PYTHONPATH=str(Path(soliton_tbp.__file__).parents[1]))
        code = ("import sys, soliton_tbp.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert run.stdout.strip() == "[]"

    def test_cli_import_loads_no_process_pool(self):
        # the worker pools import these when they start, not with the CLI
        import soliton_tbp

        env = dict(os.environ, PYTHONPATH=str(Path(soliton_tbp.__file__).parents[1]))
        code = ("import sys, soliton_tbp.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert run.stdout.strip() == "[]"

    def test_bound_cli(self, tmp_path):
        out = tmp_path / "bound.csv"
        rc = main(["bound", "--n-max", "3", "--constellation", "imag", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "n,normalized_bound,converged,params"
        assert rows[1].startswith("1,1.0,")
        assert len(rows) == 4


class TestFreedMemory:
    """The CLI keeps freed numpy temporaries in the heap between calls."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set on glibc only")
    def test_repeated_measure_faults_few_pages(self, tmp_path):
        import soliton_tbp

        params = TABLE_OPTIMA[("imaginary", 3)]
        spectrum, _ = spectrum_for_point("imaginary", 3, tuple(params), tuple(params.values()))
        path = tmp_path / "table1_n3.yaml"
        path.write_text(format_spectrum_document(spectrum))
        code = textwrap.dedent("""
            import contextlib, io, resource, sys
            from soliton_tbp.cli import main
            for _ in range(3):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["measure", "--spectrum", sys.argv[1], "--phases", "32"]) == 0
                print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(soliton_tbp.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        faults = [int(line) for line in run.stdout.split()]
        # the first call faults its heap in; without the policy the later ones do
        # it again (about 3 000 faults each), with it they reuse the pages
        assert len(faults) == 3 and max(faults[1:]) < 1000, faults

    def test_no_libc_leaves_main_working(self, one_soliton_file, tmp_path, monkeypatch):
        import ctypes

        def refuse(*args, **kwargs):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", refuse)
        assert _retain_freed_memory() is None
        out = tmp_path / "one.csv"
        assert main(["synth", "--spectrum", str(one_soliton_file), "--out", str(out)]) == 0
        assert out.read_text().startswith("t,re,im,abs\n")
