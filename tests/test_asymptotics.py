import math

import numpy as np
import pytest
from conftest import lean_grid, random_spectrum

from soliton_tbp import asymptotics
from soliton_tbp.asymptotics import (
    _brentq,
    b_lim_imaginary,
    b_lim_real,
    envelope_bandwidth,
    envelope_duration,
    exp_tail_crossing,
    lower_bound_curve,
    t_approx_real,
    t_lim_imaginary,
    t_lim_real,
    tail_coefficients,
    tail_envelope,
)
from soliton_tbp.errors import DegenerateSpectrumError
from soliton_tbp.spectrum import DiscreteSpectrum

PI2 = math.pi**2


class TestTailCoefficients:
    def test_single(self):
        tc = tail_coefficients([0.5j])
        assert tc.a[0, 0] == 1.0
        assert tc.A[0] == 1.0

    def test_two_imaginary(self):
        tc = tail_coefficients([1j, 0.5j])
        # one limit-update step: (lam2 - conj lam1) / (lam2 - lam1)
        assert tc.a[1, 1] == pytest.approx((0.5j + 1j) / (0.5j - 1j))
        assert tc.a[1, 1] == pytest.approx(-3.0)

    def test_complex_pair(self):
        tc = tail_coefficients([0.5 + 0.5j, -0.5 + 0.5j])
        lam1, lam2 = 0.5 + 0.5j, -0.5 + 0.5j
        a12 = -2j * 0.5 / (lam2 - lam1)
        a22 = (lam2 - np.conj(lam1)) / (lam2 - lam1)
        assert tc.a[0, 1] == pytest.approx(a12)
        assert tc.a[1, 1] == pytest.approx(a22)
        assert a12 == pytest.approx(1j) and a22 == pytest.approx(1 - 1j)
        # row sums over the second index
        assert tc.A[0] == pytest.approx(abs(1 + a12))
        assert tc.A[1] == pytest.approx(abs(a22))

    def test_diagonal_matches_closed_product(self, rng):
        # a[N-1, N-1] equals prod (s_N + s_k)/(s_N - s_k) for imaginary sets
        for _ in range(20):
            n = int(rng.integers(2, 6))
            sig = np.sort(rng.uniform(0.2, 3.0, n))[::-1]
            if np.min(-np.diff(sig)) < 0.05:
                continue
            tc = tail_coefficients(1j * sig)
            expected = np.prod((sig[-1] + sig[:-1]) / (sig[-1] - sig[:-1]))
            assert tc.a[n - 1, n - 1] == pytest.approx(expected, rel=1e-10)

    def test_sorts_by_sigma(self):
        tc = tail_coefficients([0.5j, 1j])
        assert list(tc.order) == [1, 0]

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            tail_coefficients([0.5j, 0.5j])


class TestDurationEstimates:
    def test_single_soliton(self):
        assert t_lim_imaginary([0.5], 1e-4) == pytest.approx(math.log(2e4))

    def test_two_imaginary_worked_value(self):
        # (1/(2*0.5)) * (ln((2/eps)*0.5/1.5) + 2 ln 3)
        expected = math.log(2e4 / 3.0) + 2.0 * math.log(3.0)
        assert t_lim_imaginary([1.0, 0.5], 1e-4) == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(11.0, abs=5e-3)

    def test_near_degenerate_sigmas_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            t_lim_imaginary([0.51, 0.5], 1e-4)

    def test_equal_minimum_sigmas_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            t_lim_imaginary([1.0, 0.5, 0.5], 1e-4)

    def test_real_axis_worked_value(self):
        # A_r = sqrt(2) each for the +-0.5 pair, so the log argument is
        # (2/(2 eps)) * (2 sqrt2 / 2)^2 ... = 8e4 at eps = 1e-4
        value = t_approx_real(0.5, [0.5, -0.5], [1.0, 1.0], 1e-4)
        assert value == pytest.approx(math.log(8e4), abs=1e-6)

    def test_real_axis_reduces_at_n1(self):
        assert t_approx_real(0.7, [0.0], [1.0], 1e-4) == pytest.approx(
            math.log(2e4) / 1.4, abs=1e-9
        )

    def test_equal_eta_minimizes(self, rng):
        # random scalings never beat the uniform choice
        omegas = [0.6, -0.2, -0.4]
        base = t_lim_real(0.5, omegas, 1e-4)
        for _ in range(1000):
            etas = np.exp(rng.uniform(-2.0, 2.0, 3))
            assert t_approx_real(0.5, omegas, etas, 1e-4) >= base - 1e-12

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            t_approx_real(0.5, [0.1, -0.1], [1.0, -1.0], 1e-4)


class TestBandwidthEstimates:
    def test_single(self):
        assert b_lim_imaginary([0.5], 1e-4) == pytest.approx(math.log(2e4) / PI2)
        assert b_lim_imaginary([0.5], 1e-4) == pytest.approx(1.0034, abs=1e-3)

    def test_two_imaginary(self):
        expected = (2.0 / PI2) * math.log(2e4 / 1.5)
        assert b_lim_imaginary([1.0, 0.5], 1e-4) == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(1.925, abs=1e-3)

    def test_real_axis_worked_value(self):
        value = b_lim_real(0.5, [0.5, -0.5], 1e-4)
        expected = (math.log(1e4) + 2.0 * math.log(2.0 * math.cosh(math.pi / 2))) / PI2
        assert value == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(1.260, abs=1e-3)

    def test_real_reduces_to_imaginary(self):
        assert b_lim_real(0.5, [0.0], 1e-4) == pytest.approx(b_lim_imaginary([0.5], 1e-4))

    def test_omega_sign_symmetry(self, rng):
        for _ in range(20):
            om = rng.uniform(-2, 2, 3)
            assert b_lim_real(0.5, om, 1e-4) == pytest.approx(
                b_lim_real(0.5, -om, 1e-4), rel=1e-14
            )


class TestEnvelopes:
    def test_single_soliton_envelope(self):
        env = tail_envelope(DiscreteSpectrum([0.5]))
        assert env.right_coeffs[0] == pytest.approx(2.0)  # 4 * sigma * |a11| * eta
        assert env.rates[0] == pytest.approx(1.0)

    def test_two_imaginary_slow_tail(self):
        env = tail_envelope(DiscreteSpectrum([1.0, 0.5]))
        i = int(np.argmin(env.rates))
        assert env.rates[i] == pytest.approx(1.0)
        assert env.right_coeffs[i] == pytest.approx(6.0)  # 4 * 0.5 * |-3|

    def test_envelope_bounds_signal(self, rng):
        from soliton_tbp.darboux import synthesize_samples

        s = random_spectrum(rng, n=2, dt_range=(-1.0, 1.0))
        env = tail_envelope(s)
        t = np.linspace(6.0, 14.0, 50)
        q = np.abs(synthesize_samples(s, s.phis, t))
        bound = (env.right_coeffs[:, None] * np.exp(-env.rates[:, None] * t)).sum(axis=0)
        assert np.all(q <= bound * (1.0 + 1e-6) + 1e-12)

    def test_exp_tail_crossing_closed_form(self):
        # single exponential c*e^{-a t}: integral c^2 e^{-2aT} / (2a) = target
        T = exp_tail_crossing([2.0], [1.0], 1e-4)
        assert T == pytest.approx(math.log(4.0 / (2.0 * 1e-4)) / 2.0, rel=1e-9)

    def test_envelope_duration_matches_formula(self):
        s = DiscreteSpectrum([0.5])
        lo, hi = envelope_duration(s, 1e-4)
        assert hi - lo == pytest.approx(t_lim_imaginary([0.5], 1e-4), rel=1e-9)

    def test_envelope_bandwidth_matches_formula(self):
        s = DiscreteSpectrum([0.5])
        lo, hi = envelope_bandwidth(s, 1e-4)
        assert hi - lo == pytest.approx(b_lim_imaginary([0.5], 1e-4), rel=1e-9)


class TestBrentq:
    """The local Brent solver against scipy's brentq, which it ports."""

    @staticmethod
    def scipy_brentq(f, xa, xb, xtol):
        from scipy.optimize import brentq

        return float(brentq(f, xa, xb, xtol=xtol))

    @staticmethod
    def outcome(solver, f, xa, xb, xtol):
        # scipy reports no convergence as RuntimeError, the port as ArithmeticError
        try:
            return solver(f, xa, xb, xtol)
        except (ArithmeticError, RuntimeError):
            return "no convergence"

    def test_tail_crossings_match_scipy_bitwise(self, monkeypatch):
        rng = np.random.default_rng(2020)
        cases = []
        for _ in range(3000):
            k = int(rng.integers(1, 5))
            cases.append((10 ** rng.uniform(-3, 3, k), rng.uniform(0.05, 4.0, k),
                          10 ** rng.uniform(-12, 0)))
        ours = [exp_tail_crossing(*case) for case in cases]
        monkeypatch.setattr(asymptotics, "_brentq", self.scipy_brentq)
        assert ours == [exp_tail_crossing(*case) for case in cases]

    @pytest.mark.parametrize("xtol", [1e-14, 1e-12, 1e-10, 1e-6, 1e-2])
    def test_generic_brackets_match_scipy_bitwise(self, xtol):
        funcs = [
            lambda x: math.cos(x) - x,
            lambda x: x**3 - 2.0 * x - 5.0,
            lambda x: math.exp(x) - 3.0,
            lambda x: 1e-3 * math.atan(x - 0.3),
            lambda x: (x - 1.5) ** 3,
            lambda x: math.tanh(20.0 * (x - 0.123)),
            lambda x: 1.0 if x > 0.7 else -1.0,
        ]
        rng = np.random.default_rng(int(-math.log10(xtol)))
        compared = 0
        for i in range(700):
            f = funcs[i % len(funcs)]
            xa, xb = float(rng.uniform(-4.0, 0.1)), float(rng.uniform(2.0, 6.0))
            if (f(xa) < 0) == (f(xb) < 0):
                continue
            assert self.outcome(_brentq, f, xa, xb, xtol) == \
                self.outcome(self.scipy_brentq, f, xa, xb, xtol), (i, xa, xb)
            compared += 1
        assert compared > 500

    def test_root_at_endpoint_is_returned(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 1.0

        assert _brentq(f, 1.0, 2.0, 1e-10) == 1.0
        assert _brentq(f, 0.0, 1.0, 1e-10) == 1.0
        assert calls == [1.0, 2.0, 0.0, 1.0]

    def test_same_signs_rejected(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-10)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            _brentq(lambda x: math.nan, 0.0, 1.0, 1e-10)

    def test_no_convergence_is_arithmetic_error(self):
        # a jump at 0: converging onto it to xtol 1e-300 takes ~1000 halvings
        with pytest.raises(ArithmeticError, match="100 iterations"):
            _brentq(lambda x: 1.0 if x > 0 else -1.0, -1.0, 1.0, 1e-300)


class TestFormulaVsMeasurement:
    """The estimates must track measured T and B in their limit regimes."""

    def test_duration_imaginary(self):
        from soliton_tbp.metrics import MeasureConfig, t_max_b_max

        s = DiscreteSpectrum([1.0, 0.5])  # equal shifts (dt = 0)
        cfg = MeasureConfig(phase_points=16)
        r = t_max_b_max(s, cfg, lean_grid(s, cfg), with_b=False)
        est = t_lim_imaginary([1.0, 0.5], 1e-4)
        assert abs(est - r.t_max) / r.t_max < 0.05

    def test_duration_real_axis(self):
        from soliton_tbp.metrics import MeasureConfig, t_max_b_max

        s = DiscreteSpectrum([0.5, 0.5], [0.5, -0.5])
        cfg = MeasureConfig(phase_points=32)
        r = t_max_b_max(s, cfg, lean_grid(s, cfg), with_b=False)
        est = t_lim_real(0.5, [0.5, -0.5], 1e-4)
        assert abs(est - r.t_max) / r.t_max < 0.05

    def test_bandwidth_imaginary_separated(self):
        from soliton_tbp.metrics import MeasureConfig, t_max_b_max

        s = DiscreteSpectrum.from_delta_t([1.0, 0.5], delta_ts=[0.0, 12.0])
        cfg = MeasureConfig(phase_points=16)
        r = t_max_b_max(s, cfg, lean_grid(s, cfg))
        est = b_lim_imaginary([1.0, 0.5], 1e-4)
        assert abs(est - r.b_max) / r.b_max < 0.05

    def test_bandwidth_real_separated(self):
        from soliton_tbp.metrics import MeasureConfig, t_max_b_max

        s = DiscreteSpectrum.from_delta_t([0.5, 0.5], [0.4, -0.4], [-6.0, 6.0])
        cfg = MeasureConfig(phase_points=16)
        r = t_max_b_max(s, cfg, lean_grid(s, cfg))
        est = b_lim_real(0.5, [0.4, -0.4], 1e-4)
        assert abs(est - r.b_max) / r.b_max < 0.05


class TestBoundCurve:
    def test_first_order_is_one(self):
        curve = lower_bound_curve(1, "imaginary")
        assert curve[0].normalized_bound == 1.0

    def test_two_soliton_bounds(self):
        imag = lower_bound_curve(2, "imaginary")[-1]
        real = lower_bound_curve(2, "real_axis")[-1]
        # must sit below the brute-force achieved optima
        assert imag.normalized_bound <= 0.89
        assert real.normalized_bound <= 0.74
        assert imag.converged and real.converged

    def test_monotone_through_six(self):
        for constellation in ("imaginary", "real_axis"):
            curve = lower_bound_curve(6, constellation)
            values = [e.normalized_bound for e in curve]
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:])), values

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            lower_bound_curve(0, "imaginary")
        with pytest.raises(ValueError):
            lower_bound_curve(2, "circle")
