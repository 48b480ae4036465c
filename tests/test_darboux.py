import math
import warnings

import numpy as np
import pytest
from conftest import naive_darboux, random_spectrum

from soliton_tbp import darboux
from soliton_tbp.darboux import (
    SampledSignal,
    TimeGrid,
    auto_grid,
    synthesize,
    synthesize_phases,
    synthesize_samples,
    union_grid,
)
from soliton_tbp.errors import GridTooNarrowWarning
from soliton_tbp.spectrum import DiscreteSpectrum, evolve, transform


class TestGridTypes:
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 0.1, 100)
        with pytest.raises(ValueError):
            TimeGrid(-1.0, -0.1, 128)
        g = TimeGrid(-1.0, 0.1, 128)
        assert g.times[0] == -1.0 and len(g.times) == 128

    def test_signal_shape_checked(self):
        g = TimeGrid(-1.0, 0.1, 8)
        with pytest.raises(ValueError):
            SampledSignal(g, np.zeros(7, complex))
        with pytest.raises(ValueError):
            SampledSignal(g, np.full(8, np.nan + 0j))


class TestSynthesize:
    def test_fundamental_soliton_shape(self):
        s = DiscreteSpectrum([0.5])
        g = TimeGrid(-16.0, 32.0 / 1024, 1024)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooNarrowWarning)
            q = synthesize(s, g).samples
        t = g.times
        assert np.abs(np.abs(q) - 1.0 / np.cosh(t)).max() < 1e-10
        assert np.abs(q).max() == pytest.approx(1.0, abs=1e-6)
        assert abs(t[np.argmax(np.abs(q))]) < g.dt

    def test_shifted_soliton_position(self):
        # eta = e^(2 sigma dt) centers the component at dt
        s = DiscreteSpectrum.from_delta_t([0.5], delta_ts=[2.0])
        g = TimeGrid(-16.0, 32.0 / 1024, 1024)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooNarrowWarning)
            q = synthesize(s, g).samples
        t = g.times
        assert np.abs(np.abs(q) - 1.0 / np.cosh(t - 2.0)).max() < 1e-10

    def test_symmetric_two_soliton(self):
        s = DiscreteSpectrum([1.0, 0.5])
        g = TimeGrid(-16.0, 32.0 / 2048, 2048)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooNarrowWarning)
            q = synthesize(s, g).samples
        # grid symmetric around -dt/2 offset: resample explicitly at -t
        qm = synthesize_samples(s, s.phis, -g.times)
        assert np.abs(np.abs(q) - np.abs(qm)).max() < 1e-12

    def test_energy_is_four_sum_sigma(self, rng):
        for _ in range(10):
            s = random_spectrum(rng, sigma_range=(0.3, 2.0), dt_range=(-3.0, 3.0))
            sig = synthesize(s, auto_grid(s, 1e-4))
            assert sig.energy == pytest.approx(s.energy, rel=1e-4)

    def test_matches_naive_recursion(self, rng):
        t = np.linspace(-15.0, 15.0, 601)
        for _ in range(10):
            s = random_spectrum(rng)
            assert darboux._seeds_in_range(s.lams, np.log(s.etas), t)
            q = synthesize_samples(s, s.phis, t)
            assert np.abs(q - naive_darboux(s, t)).max() < 1e-12

    def test_stabilized_path_matches_naive_recursion(self, rng):
        t = np.linspace(-15.0, 15.0, 601)
        for _ in range(10):
            s = random_spectrum(rng)
            q = darboux._synthesize_log(s.lams, np.log(s.etas), s.phis[None], t)[0]
            assert np.abs(q - naive_darboux(s, t)).max() < 1e-12

    def test_paths_agree_near_the_bound(self):
        # seed exponents reach 282: still direct, with |rho|^2 up to e^564
        s = DiscreteSpectrum.from_delta_t([1.0, 0.7, 0.5], [0.3, -0.2, 0.0],
                                          [1.0, -2.0, 0.5], [0.4, 2.0, 5.0])
        t = np.linspace(-140.0, 140.0, 4097)
        ln_etas = np.log(s.etas)
        assert darboux._seeds_in_range(s.lams, ln_etas, t)
        q = synthesize_samples(s, s.phis, t)
        q_log = darboux._synthesize_log(s.lams, ln_etas, s.phis[None], t)[0]
        assert np.all(np.isfinite(q))
        assert np.abs(q - q_log).max() < 1e-12 * np.abs(q_log).max()

    def test_grid_past_the_bound_takes_the_stabilized_path(self):
        s = DiscreteSpectrum([1.0, 0.5], etas=[3.0, 0.2])
        t = np.linspace(-2000.0, 2000.0, 4097)
        ln_etas = np.log(s.etas)
        assert not darboux._seeds_in_range(s.lams, ln_etas, t)
        q = synthesize_samples(s, s.phis, t)
        q_log = darboux._synthesize_log(s.lams, ln_etas, s.phis[None], t)[0]
        assert np.array_equal(q, q_log)

    def test_non_finite_direct_row_falls_back(self, rng, monkeypatch):
        s = random_spectrum(rng, n=3)
        t = np.linspace(-12.0, 12.0, 257)
        phis = rng.uniform(0, 2 * np.pi, (4, 3))
        ln_etas = np.log(s.etas)
        direct = darboux._synthesize_direct(s.lams, ln_etas, phis, t)
        stabilized = darboux._synthesize_log(s.lams, ln_etas, phis, t)
        real_direct = darboux._synthesize_direct

        def direct_with_pole(*args):
            q = real_direct(*args)
            q[2, 100] = np.nan
            return q

        monkeypatch.setattr(darboux, "_synthesize_direct", direct_with_pole)
        q = synthesize_samples(s, phis, t)
        assert np.array_equal(q[2], stabilized[2])
        for i in (0, 1, 3):
            assert np.array_equal(q[i], direct[i])

    def test_order_invariance(self, rng):
        for _ in range(5):
            s = random_spectrum(rng, n=3)
            perm = rng.permutation(3)
            sp = DiscreteSpectrum(s.sigmas[perm], s.omegas[perm], s.etas[perm], s.phis[perm])
            t = np.linspace(-12.0, 12.0, 301)
            qa = synthesize_samples(s, s.phis, t)
            qb = synthesize_samples(sp, sp.phis, t)
            assert np.abs(qa - qb).max() < 1e-8

    def test_log_domain_survives_huge_times(self):
        s = DiscreteSpectrum([1.0, 0.5], etas=[3.0, 0.2])
        t = np.linspace(-2000.0, 2000.0, 4097)
        q = synthesize_samples(s, s.phis, t)
        assert np.all(np.isfinite(q))
        # naive evaluation overflows out there; tails must decay to zero
        assert np.abs(q[0]) < 1e-300 and np.abs(q[-1]) < 1e-300

    def test_narrow_grid_warns(self):
        s = DiscreteSpectrum([0.5])
        with pytest.warns(GridTooNarrowWarning):
            synthesize(s, TimeGrid(-4.0, 8.0 / 128, 128))

    def test_batch_matches_single(self, rng):
        s = random_spectrum(rng, n=3)
        g = TimeGrid(-12.0, 24.0 / 512, 512)
        phis = rng.uniform(0, 2 * np.pi, (5, 3))
        block = synthesize_phases(s, g, phis)
        for i in range(5):
            single = synthesize_samples(s, phis[i], g.times)
            assert np.array_equal(block[i], single)


class TestGramForm:
    @pytest.mark.parametrize("kind", ["imaginary", "real", "evolved"])
    def test_rows_within_their_bound_of_the_recursion(self, kind):
        rng = np.random.default_rng({"imaginary": 31, "real": 32, "evolved": 33}[kind])
        worst = 0.0
        for n_samples in (512, 1024, 2048):
            s = random_spectrum(rng, n=3, imaginary=kind == "imaginary")
            if kind == "evolved":
                s = evolve(s, float(rng.uniform(0.5, 3.0)))
            half = float(rng.uniform(15.0, 30.0))
            t = TimeGrid(-half, 2.0 * half / n_samples, n_samples).times
            assert darboux._seeds_in_range(s.lams, np.log(s.etas), t)
            phis = np.concatenate([rng.uniform(0.0, 2 * np.pi, (12, 2)), np.zeros((12, 1))], axis=1)
            q, delta = darboux._gram_rows(darboux._gram_coefficients(s, t), phis)
            assert np.all(np.isfinite(delta))
            ratios = [np.abs(q - synthesize_samples(s, phis, t)) / delta]
            for row in (0, 5):
                naive = naive_darboux(DiscreteSpectrum(s.sigmas, s.omegas, s.etas, phis[row]), t)
                ratios.append(np.abs(q[row] - naive) / delta[row])
            worst = max(worst, max(float(r.max()) for r in ratios))
        assert worst <= 1.0, f"largest |q_gram - q_rec| / delta: {worst:.3g}"


class TestTransformConsistency:
    """Spectrum-side transformations must act as the matching signal maps."""

    @pytest.fixture
    def case(self, rng):
        s = random_spectrum(rng, n=3, dt_range=(-1.5, 1.5))
        t = np.linspace(-14.0, 14.0, 501)
        q = synthesize_samples(s, s.phis, t)
        return s, t, q

    def _synth(self, s, t):
        return synthesize_samples(s, s.phis, t)

    def test_global_phase(self, case):
        s, t, q = case
        out = self._synth(transform(s, "global_phase", 0.9), t)
        assert np.abs(out - np.exp(0.9j) * q).max() < 1e-8

    def test_time_shift(self, case):
        s, t, q = case
        out = self._synth(transform(s, "time_shift", 1.25), t + 1.25)
        assert np.abs(out - q).max() < 1e-8

    def test_dilate(self, case):
        s, t, q = case
        out = self._synth(transform(s, "dilate", 1.6), 1.6 * t)
        assert np.abs(out - q / 1.6).max() < 1e-8

    def test_freq_shift(self, case):
        s, t, q = case
        out = self._synth(transform(s, "freq_shift", 0.7), t)
        assert np.abs(out - np.exp(2j * 0.7 * t) * q).max() < 1e-8

    def test_time_reverse(self, case):
        s, t, q = case
        out = self._synth(transform(s, "time_reverse"), -t)
        assert np.abs(out - q).max() < 1e-8

    def test_conjugate(self, case):
        s, t, q = case
        out = self._synth(transform(s, "conjugate"), t)
        assert np.abs(out - np.conj(q)).max() < 1e-8

    def test_unit_amplitude_imaginary_is_even(self, rng):
        # eta = 1 and omega = 0 force |q(t)| = |q(-t)| for any phases
        for _ in range(5):
            n = int(rng.integers(1, 4))
            sig = np.sort(rng.uniform(0.3, 1.5, n))[::-1] + 0.2 * np.arange(n)[::-1]
            s = DiscreteSpectrum(sig, phis=rng.uniform(0, 2 * np.pi, n))
            t = np.linspace(-14.0, 14.0, 501)
            q = self._synth(s, t)
            qm = self._synth(s, -t)
            assert np.abs(np.abs(q) - np.abs(qm)).max() < 1e-8


class TestAutoGrid:
    def test_single_soliton_width_and_dt(self):
        s = DiscreteSpectrum([0.5])
        g = auto_grid(s, 1e-4)
        # half-width at least 1.5x half the duration estimate at epsilon/100
        t_est = math.log(2.0 / 1e-6) / (2.0 * 0.5)
        half = 0.5 * (g.t_end - g.t_start)
        assert half >= 1.5 * t_est / 2.0
        # sampling rate at least 8x the bandwidth estimate
        b_est = (2.0 * 0.5 / math.pi**2) * math.log(2.0 / 1e-4)
        assert g.dt <= 1.0 / (8.0 * b_est)

    def test_boundary_clean_by_construction(self):
        s = DiscreteSpectrum.from_delta_t([1.1, 0.5], delta_ts=[1.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            synthesize(s, auto_grid(s, 1e-4))

    def test_monotone_in_sigma(self):
        widths = []
        for sigma in (0.4, 0.6, 0.9):
            g = auto_grid(DiscreteSpectrum([sigma]), 1e-4)
            widths.append(g.t_end - g.t_start)
        assert widths[0] >= widths[1] >= widths[2]

    def test_monotone_in_epsilon(self):
        s = DiscreteSpectrum([0.5])
        w = [auto_grid(s, eps).t_end - auto_grid(s, eps).t_start for eps in (1e-3, 1e-5, 1e-7)]
        assert w[0] <= w[1] <= w[2]

    def test_rejects_bad_epsilon(self):
        s = DiscreteSpectrum([0.5])
        with pytest.raises(ValueError):
            auto_grid(s, 0.0)

    def test_union_grid_covers(self):
        g1 = TimeGrid(-10.0, 0.05, 256)
        g2 = TimeGrid(-2.0, 0.1, 512)
        g = union_grid([g1, g2])
        assert g.t_start <= min(g1.t_start, g2.t_start)
        assert g.t_end >= max(g1.t_end, g2.t_end)
        assert g.dt <= min(g1.dt, g2.dt)
