"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not configurable.
"""

import math

import numpy as np
import pytest
from conftest import lean_grid, random_spectrum

from soliton_tbp.asymptotics import (
    b_lim_imaginary,
    b_lim_real,
    lower_bound_curve,
    t_approx_real,
    t_lim_imaginary,
    t_lim_real,
    tail_coefficients,
)
from soliton_tbp.darboux import auto_grid, synthesize, synthesize_samples, union_grid
from soliton_tbp.metrics import (
    MeasureConfig,
    measure,
    t_max_b_max,
)
from soliton_tbp.optimizer import FINE_STEPS, TABLE_OPTIMA, default_sweep, evaluate_point, run_sweep
from soliton_tbp.propagation import PropagationPlan, propagate
from soliton_tbp.scattering import discrete_amplitude, find_eigenvalues
from soliton_tbp.spectrum import DiscreteSpectrum, evolve, qd_init, transform


def _verdict(name: str, ok: bool, detail: str):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# criterion 2/3 ratios feed criterion 8; cache the direct evaluations
_achieved = {}


def _achieved_ratio(constellation, n, params, phases):
    key = (constellation, n)
    if key not in _achieved:
        _, ratio, _ = evaluate_point(
            constellation, n, params, MeasureConfig(phase_points=phases)
        )
        _achieved[key] = ratio
    return _achieved[key]


def _published_sweep(constellation, n):
    """Optimum and ratio of the sweep on the paper's grids at M=128, refined."""
    res = run_sweep(default_sweep(constellation, n, paper_fidelity=True))
    return res.best_params, res.tbp_per_ev_ratio


def _within_fine_step(best, published):
    return all(abs(best[k] - v) <= FINE_STEPS[k.split("_")[0]] + 1e-9 for k, v in published.items())


class TestCriterion1:
    def test_single_soliton_anchor(self):
        s = DiscreteSpectrum([0.5])
        report = measure(synthesize(s, auto_grid(s, 1e-4)), MeasureConfig(epsilon=1e-4))
        ok = abs(report.tbp - 9.9) <= 0.1
        _verdict("criterion 1 (single-soliton T*B = 9.9 +- 0.1)", ok, f"T*B = {report.tbp:.4f}")


class TestCriterion2:
    def test_table_one_n2_direct(self):
        ratio = _achieved_ratio("imaginary", 2, {"sigma_1": 0.58, "dt_1": 2.0}, 128)
        _verdict(
            "criterion 2a (imag N=2 ratio 0.89 +- 0.03, M=128)",
            abs(ratio - 0.89) <= 0.03,
            f"ratio = {ratio:.4f}",
        )

    def test_table_one_n3_direct(self):
        ratio = _achieved_ratio(
            "imaginary", 3,
            {"sigma_1": 0.7, "sigma_2": 0.62, "dt_1": -2.85, "dt_2": 1.05}, 32,
        )
        _verdict(
            "criterion 2b (imag N=3 ratio 0.84 +- 0.03, M=32)",
            abs(ratio - 0.84) <= 0.03,
            f"ratio = {ratio:.4f}",
        )

    def test_desk_sweep_n2_recovers_optimum(self):
        spec = default_sweep("imaginary", 2)
        res = run_sweep(spec)
        best = res.best_params
        steps = {"sigma_1": 0.2, "dt_1": 0.5}
        published = {"sigma_1": 0.58, "dt_1": 2.0}
        ok = all(abs(best[k] - published[k]) <= steps[k] + 1e-9 for k in published)
        _verdict(
            "criterion 2c (desk sweep N=2 within one coarse step)",
            ok,
            f"best = {best}",
        )

    def test_desk_sweep_n3_recovers_optimum(self):
        spec = default_sweep("imaginary", 3)
        res = run_sweep(spec)
        best = res.best_params
        steps = {"sigma_1": 0.2, "sigma_2": 0.2, "dt_1": 1.0, "dt_2": 0.5}
        published = {"sigma_1": 0.7, "sigma_2": 0.62, "dt_1": -2.85, "dt_2": 1.05}
        ok = all(abs(best[k] - published[k]) <= steps[k] + 1e-9 for k in published)
        _verdict(
            "criterion 2d (desk sweep N=3 within one coarse step)",
            ok,
            f"best = {best}",
        )

    def test_published_sweep_n2_recovers_optimum(self):
        best, ratio = _published_sweep("imaginary", 2)
        _verdict(
            "criterion 2e (published sweep imag N=2 within one fine step, ratio 0.89 +- 0.03)",
            _within_fine_step(best, TABLE_OPTIMA[("imaginary", 2)]) and abs(ratio - 0.89) <= 0.03,
            f"best = {best}, ratio = {ratio:.4f}",
        )


class TestCriterion3:
    def test_table_two_n2_direct(self):
        params = {"omega_1": 0.075, "dt_1": -0.9}
        point, ratio, l_star = evaluate_point(
            "real_axis", 2, params, MeasureConfig(phase_points=16)
        )
        _achieved[("real_axis", 2)] = ratio
        ok = abs(ratio - 0.74) <= 0.03 and l_star == pytest.approx(6.0)
        _verdict(
            "criterion 3a (real N=2 ratio 0.74 +- 0.03, L* = 6)",
            ok,
            f"ratio = {ratio:.4f}, L* = {l_star}",
        )

    def test_table_two_n3_direct(self):
        params = {"omega_1": 0.55, "dt_1": -2.2, "omega_3": 0.0, "dt_3": 0.0}
        point, ratio, l_star = evaluate_point(
            "real_axis", 3, params, MeasureConfig(phase_points=16)
        )
        _achieved[("real_axis", 3)] = ratio
        ok = abs(ratio - 0.71) <= 0.03 and l_star == pytest.approx(2.0)
        _verdict(
            "criterion 3b (real N=3 ratio 0.71 +- 0.03, L ~ 2)",
            ok,
            f"ratio = {ratio:.4f}, L* = {l_star}",
        )

    def test_published_sweep_n2_recovers_optimum(self):
        best, ratio = _published_sweep("real_axis", 2)
        _verdict(
            "criterion 3c (published sweep real N=2 within one fine step, ratio 0.74 +- 0.03)",
            _within_fine_step(best, TABLE_OPTIMA[("real_axis", 2)]) and abs(ratio - 0.74) <= 0.03,
            f"best = {best}, ratio = {ratio:.4f}",
        )


class TestCriterion4:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(404)
        worst = 0.0
        for _ in range(20):
            s = random_spectrum(rng, dt_range=(-1.5, 1.5), min_gap=0.2)
            z = float(rng.uniform(0.25, 4.0))
            grid = union_grid([auto_grid(s, 1e-4), auto_grid(evolve(s, z), 1e-4)])
            sig = synthesize(s, grid)
            out = propagate(sig, PropagationPlan.with_dz(z, 2e-4))
            oracle = synthesize(evolve(s, z), grid)
            worst = max(worst, float(np.abs(out.samples - oracle.samples).max()))
        _verdict(
            "criterion 4a (20 random spectra, propagation error < 1e-3)",
            worst < 1e-3,
            f"worst max-pointwise error = {worst:.2e}",
        )

    def test_second_order_step_decay(self):
        s = DiscreteSpectrum([1.0, 0.5], [0.2, -0.3], [1.5, 0.8])
        grid = union_grid([auto_grid(s, 1e-4), auto_grid(evolve(s, 2.0), 1e-4)])
        sig = synthesize(s, grid)
        oracle = synthesize(evolve(s, 2.0), grid)
        errs = [
            float(np.abs(propagate(sig, PropagationPlan(2.0, n)).samples - oracle.samples).max())
            for n in (50, 100, 200)
        ]
        ratios = [errs[0] / errs[1], errs[1] / errs[2]]
        ok = all(r > 3.0 for r in ratios)
        _verdict(
            "criterion 4b (second-order error decay)",
            ok,
            f"halving-step ratios = {ratios[0]:.2f}, {ratios[1]:.2f}",
        )


class TestCriterion5:
    def test_round_trip(self):
        rng = np.random.default_rng(505)
        worst_ev, worst_amp = 0.0, 0.0
        for _ in range(20):
            s = random_spectrum(rng, sigma_range=(0.3, 1.5), dt_range=(-1.5, 1.5), min_gap=0.2)
            sig = synthesize(s, auto_grid(s, 1e-4, oversampling=16))
            roots = find_eigenvalues(sig)
            assert len(roots) == s.n, f"found {len(roots)} of {s.n} eigenvalues"
            for k in range(s.n):
                dists = [abs(r - s.lams[k]) for r in roots]
                i = int(np.argmin(dists))
                worst_ev = max(worst_ev, dists[i])
                qd = discrete_amplitude(sig, roots[i])[0]
                expected = s.etas[k] * np.exp(1j * s.phis[k]) * qd_init(s, k)
                worst_amp = max(worst_amp, abs(qd - expected) / abs(expected))
        ok = worst_ev < 1e-3 and worst_amp < 0.01
        _verdict(
            "criterion 5 (round trip: eigenvalues 1e-3, amplitudes 1%)",
            ok,
            f"worst eigenvalue error = {worst_ev:.2e}, worst amplitude error = {worst_amp:.2e}",
        )


class TestCriterion6:
    def test_worked_values_exact(self):
        eps = 1e-4
        checks = [
            (t_lim_imaginary([0.5], eps), math.log(2.0 / eps)),
            (
                t_lim_imaginary([1.0, 0.5], eps),
                math.log((2.0 / eps) * 0.5 / 1.5) + 2.0 * math.log(3.0),
            ),
            (b_lim_imaginary([0.5], eps), math.log(2.0 / eps) / math.pi**2),
            (
                b_lim_imaginary([1.0, 0.5], eps),
                (2.0 / math.pi**2) * math.log((2.0 / eps) / 1.5),
            ),
            (t_approx_real(0.5, [0.5, -0.5], [1.0, 1.0], eps), math.log(8.0 / eps)),
            (
                b_lim_real(0.5, [0.5, -0.5], eps),
                (math.log(1.0 / eps) + 2.0 * math.log(2.0 * math.cosh(math.pi / 2.0)))
                / math.pi**2,
            ),
        ]
        worst = max(abs(a - b) for a, b in checks)
        _verdict(
            "criterion 6a (closed-form worked values to 1e-6)",
            worst < 1e-6,
            f"worst deviation = {worst:.2e}",
        )

    def _regime_error(self, estimate, spectrum, epsilon, with_b):
        cfg = MeasureConfig(epsilon=epsilon, phase_points=16)
        r = t_max_b_max(spectrum, cfg, lean_grid(spectrum, cfg), with_b=with_b)
        meas = r.b_max if with_b else r.t_max
        return abs(estimate(epsilon) - meas) / meas

    def test_formula_vs_measurement(self):
        cases = {
            "T imag": (
                lambda e: t_lim_imaginary([1.0, 0.5], e),
                DiscreteSpectrum([1.0, 0.5]),
                False,
            ),
            "T real": (
                lambda e: t_lim_real(0.5, [0.5, -0.5], e),
                DiscreteSpectrum([0.5, 0.5], [0.5, -0.5]),
                False,
            ),
            "B imag": (
                lambda e: b_lim_imaginary([1.0, 0.5], e),
                DiscreteSpectrum.from_delta_t([1.0, 0.5], delta_ts=[0.0, 12.0]),
                True,
            ),
            "B real": (
                lambda e: b_lim_real(0.5, [0.4, -0.4], e),
                DiscreteSpectrum.from_delta_t([0.5, 0.5], [0.4, -0.4], [-6.0, 6.0]),
                True,
            ),
        }
        failures = []
        detail = []
        for name, (estimate, spectrum, with_b) in cases.items():
            err = self._regime_error(estimate, spectrum, 1e-4, with_b)
            detail.append(f"{name}: {100 * err:.2f}%")
            if err >= 0.05:
                # report an epsilon-halving convergence study instead of
                # silently loosening the tolerance
                study = [
                    (eps, self._regime_error(estimate, spectrum, eps, with_b))
                    for eps in (1e-4, 5e-5, 2.5e-5)
                ]
                print(f"[acceptance] criterion 6 convergence study for {name}: "
                      + ", ".join(f"eps={e:g} err={100 * v:.2f}%" for e, v in study))
                failures.append(name)
        _verdict(
            "criterion 6b (estimates within 5% of measurement)",
            not failures,
            "; ".join(detail),
        )


class TestCriterion7:
    N_CASES = 200

    def test_property_suite(self):
        rng = np.random.default_rng(707)
        eps = 1e-4
        cfg = MeasureConfig(epsilon=eps)
        t = np.linspace(-16.0, 16.0, 385)
        checked = 0
        for case in range(self.N_CASES):
            s = random_spectrum(rng, dt_range=(-1.5, 1.5), min_gap=0.2)
            q = synthesize_samples(s, s.phis, t)

            def synth(sp, tt):
                return synthesize_samples(sp, sp.phis, tt)

            # invariance transformations against their signal actions
            assert np.abs(synth(transform(s, "global_phase", 1.1), t) - np.exp(1.1j) * q).max() < 1e-8
            assert np.abs(synth(transform(s, "time_shift", 0.8), t + 0.8) - q).max() < 1e-8
            assert np.abs(synth(transform(s, "dilate", 1.3), 1.3 * t) - q / 1.3).max() < 1e-8
            assert np.abs(synth(transform(s, "freq_shift", 0.6), t) - np.exp(2j * 0.6 * t) * q).max() < 1e-8
            assert np.abs(synth(transform(s, "time_reverse"), -t) - q).max() < 1e-8
            assert np.abs(synth(transform(s, "conjugate"), t) - np.conj(q)).max() < 1e-8

            # unit-scaling imaginary spectra give even magnitude profiles
            s_sym = DiscreteSpectrum(
                s.sigmas, phis=rng.uniform(0, 2 * np.pi, s.n)
            )
            q_sym = synth(s_sym, t)
            assert np.abs(np.abs(q_sym) - np.abs(q_sym[::-1])).max() < 1e-8

            # energy invariant on an auto grid
            sig = synthesize(s, auto_grid(s, eps))
            assert abs(sig.energy - s.energy) / s.energy < 1e-4

            # smallest-window monotonicity in epsilon (exact by definition)
            t_small = measure(sig, MeasureConfig(epsilon=1e-5)).t_interval.width
            t_large = measure(sig, MeasureConfig(epsilon=1e-3)).t_interval.width
            assert t_small >= measure(sig, cfg).t_interval.width >= t_large

            # energy/threshold agreement at the derived alpha (first order)
            sigma1 = float(rng.uniform(0.3, 2.0))
            one = DiscreteSpectrum([sigma1])
            pulse = synthesize(one, auto_grid(one, eps))
            r_energy = measure(pulse, MeasureConfig(epsilon=eps, definition="energy"))
            r_thresh = measure(pulse, MeasureConfig(epsilon=eps, definition="threshold"))
            assert abs(r_thresh.t - r_energy.t) / r_energy.t < 0.02
            assert abs(r_thresh.b - r_energy.b) / r_energy.b < 0.02

            # recursion diagonal equals the closed product
            n = int(rng.integers(2, 5))
            sig_set = np.sort(rng.uniform(0.3, 2.5, n))[::-1]
            if np.min(-np.diff(sig_set)) > 0.05:
                tc = tail_coefficients(1j * sig_set)
                product = np.prod((sig_set[-1] + sig_set[:-1]) / (sig_set[-1] - sig_set[:-1]))
                assert abs(tc.a[n - 1, n - 1] - product) < 1e-10 * max(1.0, abs(product))
            checked += 1
        _verdict(
            "criterion 7 (property suite, 200 randomized cases)",
            checked == self.N_CASES,
            f"{checked}/{self.N_CASES} cases passed all properties",
        )


class TestCriterion8:
    def test_bound_curves(self):
        details = []
        ok = True
        for constellation in ("imaginary", "real_axis"):
            curve = lower_bound_curve(10, constellation, 1e-4)
            values = [e.normalized_bound for e in curve]
            if values[0] != 1.0:
                ok = False
            if not all(b <= a + 1e-9 for a, b in zip(values[:6], values[1:6])):
                ok = False
            for n in (2, 3):
                achieved = _achieved.get((constellation, n))
                if achieved is None:  # direct evaluation if criteria 2-3 not cached
                    params = {
                        ("imaginary", 2): ({"sigma_1": 0.58, "dt_1": 2.0}, 16),
                        ("imaginary", 3): (
                            {"sigma_1": 0.7, "sigma_2": 0.62, "dt_1": -2.85, "dt_2": 1.05}, 16),
                        ("real_axis", 2): ({"omega_1": 0.075, "dt_1": -0.9}, 16),
                        ("real_axis", 3): (
                            {"omega_1": 0.55, "dt_1": -2.2, "omega_3": 0.0, "dt_3": 0.0}, 16),
                    }[(constellation, n)]
                    _, achieved, _ = evaluate_point(
                        constellation, n, params[0], MeasureConfig(phase_points=params[1])
                    )
                    _achieved[(constellation, n)] = achieved
                if values[n - 1] > achieved:
                    ok = False
            details.append(
                f"{constellation}: N=1 {values[0]}, N=2 {values[1]:.3f} "
                f"(achieved {_achieved[(constellation, 2)]:.3f}), "
                f"N=3 {values[2]:.3f} (achieved {_achieved[(constellation, 3)]:.3f})"
            )
        _verdict("criterion 8 (bound curve properties)", ok, "; ".join(details))
