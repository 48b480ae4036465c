import math
import warnings
from itertools import product

import numpy as np
import pytest
from conftest import lean_grid, random_spectrum, smallest_window_oracle

from soliton_tbp import darboux, metrics
from soliton_tbp.darboux import SampledSignal, TimeGrid, auto_grid, synthesize, synthesize_phases
from soliton_tbp.errors import AliasingWarning, InvalidParameterError, MeasurementUnreliableError
from soliton_tbp.metrics import (
    DEFINITIONS,
    Band,
    MeasureConfig,
    measure,
    phase_combinations,
    single_soliton_tbp,
    t_hat_b_hat,
    t_hat_b_hat_bound,
    t_max_b_max,
    tbp_per_eigenvalue_ratio,
)
from soliton_tbp.metrics import _edge_share, _smallest_energy_window, _window_bracket
from soliton_tbp.propagation import PropagationPlan, propagate
from soliton_tbp.spectrum import DiscreteSpectrum, evolve, transform


def _soliton(spectrum, epsilon=1e-4):
    return synthesize(spectrum, auto_grid(spectrum, epsilon))


class TestConfig:
    def test_alpha_derived(self):
        cfg = MeasureConfig(epsilon=1e-4)
        assert cfg.alpha == pytest.approx(math.sqrt(2e-4))

    def test_validation(self):
        with pytest.raises(ValueError):
            MeasureConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            MeasureConfig(alpha=1.5)
        with pytest.raises(ValueError):
            MeasureConfig(definition="area")
        with pytest.raises(ValueError):
            MeasureConfig(phase_points=1)
        # the CLI maps it to exit 1; library callers may keep catching ValueError
        assert issubclass(InvalidParameterError, ValueError)
        with pytest.raises(InvalidParameterError, match="z_samples"):
            MeasureConfig(z_samples=1)
        assert MeasureConfig(epsilon=1e-12).epsilon == 1e-12
        # the cumulative energy sum no longer resolves 1 - epsilon below 1e-12
        with pytest.raises(InvalidParameterError, match="epsilon must be >= 1e-12"):
            MeasureConfig(epsilon=1e-13)
        # sqrt(2*epsilon) is no threshold from 0.5 on; an explicit alpha still is
        with pytest.raises(InvalidParameterError, match="epsilon must lie below 0.5"):
            MeasureConfig(epsilon=0.5)
        assert MeasureConfig(epsilon=0.6, alpha=0.5).alpha == 0.5


class TestWindowSearch:
    def test_capture_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=60, deadline=None)
        @given(
            st.lists(st.floats(0.0, 10.0, allow_subnormal=False), min_size=4, max_size=64),
            st.floats(1e-4, 0.3),
        )
        def run(cells, eps):
            cells = np.asarray(cells)
            if not cells.sum() > 1e-300:
                return
            band = _smallest_energy_window(cells, 0.0, 0.5, eps)
            bounds = 0.5 * np.arange(len(cells) + 1)
            cum = np.concatenate([[0.0], np.cumsum(cells)])
            captured = np.interp(band.hi, bounds, cum) - np.interp(band.lo, bounds, cum)
            assert captured >= (1.0 - eps) * cells.sum() * (1.0 - 1e-9)
            assert band.width >= 0.0

        run()

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            n = int(rng.integers(16, 200))
            cells = rng.uniform(0.0, 1.0, n) ** 3
            cells[rng.integers(0, n)] += 5.0  # a dominant peak
            eps = 10.0 ** rng.uniform(-3, -1)
            band = _smallest_energy_window(cells, 0.0, 0.1, eps)
            oracle = smallest_window_oracle(cells, 0.0, 0.1, eps, refine=16)
            assert band.width <= oracle + 1e-12
            assert band.width >= oracle - 0.1 / 16 - 1e-12

    def test_monotone_in_epsilon(self, rng):
        cells = rng.uniform(0.0, 1.0, 128)
        widths = [
            _smallest_energy_window(cells, 0.0, 0.05, eps).width
            for eps in (1e-5, 1e-4, 1e-3, 1e-2)
        ]
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_bracket_holds_the_scanned_width(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        cell = st.one_of(st.just(0.0), st.floats(0.0, 10.0, allow_subnormal=False))
        row = st.tuples(st.integers(0, 6), st.lists(cell, min_size=1, max_size=40))

        @settings(max_examples=200, deadline=None)
        @given(st.lists(row, min_size=1, max_size=4), st.floats(1e-6, 0.3),
               st.floats(-50.0, 50.0), st.floats(1e-3, 2.0))
        def run(rows, eps, x0, dx):
            # leading zeros, then the drawn cells, then trailing zeros to a common length
            n = max(lead + len(body) for lead, body in rows) + 3
            cells = np.zeros((len(rows), n))
            for r, (lead, body) in enumerate(rows):
                cells[r, lead : lead + len(body)] = body
            cells = cells[cells.sum(-1) > 1e-300]
            if not len(cells):
                return
            lower, upper = _window_bracket(cells, x0, dx, eps)
            for r, cells_r in enumerate(cells):
                width = _smallest_energy_window(cells_r, x0, dx, eps).width
                assert lower[r] <= width <= upper[r]

        run()

    def test_bracket_of_perturbed_cells_holds_the_scanned_width(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        cells = st.lists(st.floats(0.0, 10.0, allow_subnormal=False), min_size=2, max_size=40)

        @settings(max_examples=200, deadline=None)
        @given(cells, st.lists(st.floats(-1.0, 1.0), min_size=40, max_size=40),
               st.floats(0.0, 0.5), st.floats(1e-6, 0.3))
        def run(exact, shifts, size, eps):
            # the bracket of approximate cells, given the sum of their errors as
            # the spread, must hold the width scanned on the exact cells
            exact = np.asarray(exact)
            if not exact.sum() > 1e-300:
                return
            approx = np.maximum(exact + size * np.asarray(shifts[: len(exact)]), 0.0)
            spread = np.abs(approx - exact).sum()
            lower, upper = _window_bracket(approx[None], 0.0, 0.5, eps, np.array([spread]))
            width = _smallest_energy_window(exact, 0.0, 0.5, eps).width
            assert lower[0] <= width <= upper[0]

        run()

    def test_bracket_of_rows_too_small_for_the_margin_warns_nothing(self):
        cells = np.zeros((4, 16))
        cells[1, 3] = 1e-250  # totals in (1e-300, 1e-200]
        cells[2, 5:8] = 1e-201
        cells[3] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower, upper = _window_bracket(cells, 0.0, 0.1, 1e-4)
        assert np.all(lower[:3] == -math.inf) and np.all(upper[:3] == math.inf)
        assert lower[3] <= _smallest_energy_window(cells[3], 0.0, 0.1, 1e-4).width <= upper[3]

    def test_multimodal_window_not_centered(self):
        # two unequal bumps: the smallest window hugs the heavy one
        x = np.arange(200)
        cells = np.exp(-((x - 50.0) ** 2) / 20.0) + 5.0 * np.exp(-((x - 150.0) ** 2) / 20.0)
        band = _smallest_energy_window(cells, 0.0, 1.0, 0.2)
        assert 130.0 < band.lo < 150.0 and 150.0 < band.hi < 170.0


class TestDuration:
    def test_single_soliton_energy(self):
        sig = _soliton(DiscreteSpectrum([0.5]))
        band = measure(sig, MeasureConfig()).t_interval
        assert band.width == pytest.approx(math.log(2.0 / 1e-4), abs=1e-2)

    def test_measure_scans_each_family_once(self, monkeypatch):
        sig = _soliton(DiscreteSpectrum([1.0, 0.5]))
        scanned = []

        def counted(cells, *args):
            scanned.append(len(cells))
            return _smallest_energy_window(cells, *args)

        monkeypatch.setattr(metrics, "_smallest_energy_window", counted)
        measure(sig, MeasureConfig())
        assert len(scanned) == 2  # a block of one is never pruned

    def test_threshold_agrees_at_derived_alpha(self):
        sig = _soliton(DiscreteSpectrum([0.5]))
        t_energy = measure(sig, MeasureConfig(definition="energy")).t_interval.width
        t_thresh = measure(sig, MeasureConfig(definition="threshold")).t_interval.width
        assert t_thresh == pytest.approx(t_energy, abs=1e-2)

    def test_translation_invariance(self):
        s = DiscreteSpectrum([0.7, 0.4], phis=[0.4, 1.9])
        sig = _soliton(s)
        shifted = transform(s, "time_shift", 1.5)
        sig2 = _soliton(shifted)
        cfg = MeasureConfig()
        b1, b2 = measure(sig, cfg).t_interval, measure(sig2, cfg).t_interval
        assert b2.width == pytest.approx(b1.width, abs=1e-6)
        assert b2.lo == pytest.approx(b1.lo + 1.5, abs=1e-2)

    def test_boundary_leakage_raises(self):
        import warnings
        from soliton_tbp.errors import GridTooNarrowWarning

        s = DiscreteSpectrum([0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooNarrowWarning)
            sig = synthesize(s, TimeGrid(-4.0, 8.0 / 128, 128))
        with pytest.raises(MeasurementUnreliableError):
            measure(sig, MeasureConfig(epsilon=1e-6))

    @pytest.mark.parametrize("definition", DEFINITIONS)
    @pytest.mark.parametrize("peak, message", [(1e160, "energy overflows"),
                                               (0.0, "carries no energy")])
    def test_energy_out_of_range_refused(self, definition, peak, message):
        # |q|^2 overflows at a peak of 1e160 though every sample is finite
        t = np.linspace(-10.0, 10.0, 512)
        sig = SampledSignal(TimeGrid(-10.0, t[1] - t[0], 512), peak / np.cosh(t) + 0j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeasurementUnreliableError, match=message):
                measure(sig, MeasureConfig(definition=definition))


class TestBandwidth:
    def test_single_soliton_energy(self):
        sig = _soliton(DiscreteSpectrum([0.5]))
        band = measure(sig, MeasureConfig()).b_interval
        assert band.width == pytest.approx(math.log(2e4) / math.pi**2, abs=1e-2)

    def test_parseval_exact(self):
        sig = _soliton(DiscreteSpectrum([0.8, 0.4]))
        freqs = np.fft.fftshift(np.fft.fftfreq(sig.grid.n_samples, sig.grid.dt))
        mags = np.abs(np.fft.fftshift(np.fft.fft(sig.samples))) * sig.grid.dt
        df = freqs[1] - freqs[0]
        assert (mags**2).sum() * df == pytest.approx(sig.energy, rel=1e-12)

    def test_freq_shift_band_width_invariant_exactly(self):
        # shift by an integer number of DFT bins: the sampled spectrum is
        # identical up to relabeling, so the width matches to rounding
        s = DiscreteSpectrum([0.5])
        sig = _soliton(s)
        df = 1.0 / (sig.grid.n_samples * sig.grid.dt)
        omega0 = 8 * df * math.pi  # omega/pi = 8 bins
        shifted = _soliton(transform(s, "freq_shift", omega0))
        cfg = MeasureConfig()
        b0 = measure(SampledSignal(sig.grid, sig.samples), cfg).b_interval
        b1 = measure(SampledSignal(sig.grid, shifted.samples), cfg).b_interval
        assert b1.width == pytest.approx(b0.width, abs=1e-6)

    def test_freq_shift_moves_band(self):
        s = DiscreteSpectrum([0.5])
        cfg = MeasureConfig()
        b0 = measure(_soliton(s), cfg).b_interval
        b1 = measure(_soliton(transform(s, "freq_shift", 0.9)), cfg).b_interval
        assert b1.width == pytest.approx(b0.width, abs=1e-2)
        # omega -> omega - 0.9 modulates by exp(2j*0.9*t): band moves +0.9/pi
        assert b1.lo - b0.lo == pytest.approx(0.9 / math.pi, abs=2e-2)

    def test_single_soliton_product(self):
        rep = measure(_soliton(DiscreteSpectrum([0.5])), MeasureConfig())
        assert rep.tbp == pytest.approx(9.94, abs=0.05)


class TestDilationCovariance:
    def test_t_and_b_scale_oppositely(self):
        s = DiscreteSpectrum([0.8, 0.5], phis=[0.3, 2.0])
        cfg = MeasureConfig()
        r0 = measure(_soliton(s), cfg)
        scaled = transform(s, "dilate", 2.0)  # sigma -> sigma/2: wider pulse
        r1 = measure(_soliton(scaled), cfg)
        assert r1.t == pytest.approx(2.0 * r0.t, rel=1e-3)
        assert r1.b == pytest.approx(r0.b / 2.0, rel=1e-3)
        assert r1.tbp == pytest.approx(r0.tbp, rel=1e-3)


class TestEdgeShare:
    def test_k_cells_per_side(self):
        power = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], np.zeros(6)])
        assert _edge_share(power, 1).tolist() == [7.0 / 21.0, 0.0]
        assert _edge_share(power, 2).tolist() == [14.0 / 21.0, 0.0]

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_measure_refuses_what_propagate_warns(self, factor):
        sig = _soliton(DiscreteSpectrum([0.5]))
        n, dt = sig.grid.n_samples, sig.grid.dt
        assert n % 2 == 0
        # (-1)^i lies on the Nyquist bin; give it `factor` times the aliasing limit
        share = factor * metrics.ALIASING_FRACTION
        amp = math.sqrt(share / (1.0 - share) * sig.energy / (n * dt))
        noisy = SampledSignal(sig.grid, sig.samples + amp * (-1.0) ** np.arange(n))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            propagate(noisy, PropagationPlan(z_total=0.1, n_steps=1))
        warned = any(issubclass(w.category, AliasingWarning) for w in caught)
        assert warned == (factor > 1.0)
        if warned:
            with pytest.raises(MeasurementUnreliableError, match="Nyquist edge"):
                measure(noisy, MeasureConfig())
        else:
            assert measure(noisy, MeasureConfig()).b > 0.0


class TestPhaseCombinations:
    def test_shapes_and_pinning(self):
        combos = phase_combinations(3, 4)
        assert combos.shape == (16, 3)
        assert np.all(combos[:, -1] == 0.0)
        assert combos[0, 0] == 0.0 and combos[-1, 0] == pytest.approx(3 * math.pi / 2)

    def test_lexicographic_order(self):
        combos = phase_combinations(3, 3)
        flat = [tuple(row) for row in combos]
        assert flat == sorted(flat)

    def test_single_entry(self):
        assert phase_combinations(1, 16).shape == (1, 1)

    def test_row_count(self):
        for n, m, reduced in product(range(1, 5), range(2, 10), (False, True)):
            assert metrics._phase_rows(n, m, reduced) == len(phase_combinations(n, m, reduced))

    def test_conjugation_reduction_preserves_maxima(self, rng):
        s = DiscreteSpectrum.from_delta_t([0.9, 0.5], delta_ts=[1.0, 0.0])
        cfg = MeasureConfig(phase_points=8)
        grid = lean_grid(s, cfg)
        red = t_max_b_max(s, cfg, grid)  # imaginary spectrum: the reduced grid
        assert len(phase_combinations(2, 8, conjugation_reduced=True)) == 5
        reports = [
            measure(SampledSignal(grid, q), cfg)
            for q in synthesize_phases(s, grid, phase_combinations(2, 8))
        ]
        assert red.t_max == pytest.approx(max(r.t for r in reports), rel=1e-14)
        assert red.b_max == pytest.approx(max(r.b for r in reports), rel=1e-14)


class TestTMaxBMax:
    def test_single_entry_no_phase_effect(self):
        s = DiscreteSpectrum([0.5])
        cfg2 = MeasureConfig(phase_points=2)
        cfg16 = MeasureConfig(phase_points=16)
        grid = lean_grid(s, cfg2)
        r2, r16 = t_max_b_max(s, cfg2, grid), t_max_b_max(s, cfg16, grid)
        assert r2.t_max == r16.t_max and r2.b_max == r16.b_max
        import warnings
        from soliton_tbp.errors import GridTooNarrowWarning

        with warnings.catch_warnings():
            # the sweep grid is the lean measurement one, not boundary-clean
            warnings.simplefilter("ignore", GridTooNarrowWarning)
            rep = measure(synthesize(s, grid), cfg2)
        assert r2.t_max == pytest.approx(rep.t, abs=1e-9)

    def test_monotone_in_phase_points(self):
        s = DiscreteSpectrum([1.0, 0.5])
        grid = auto_grid(s, 1e-4, boundary_clean=False)
        r2 = t_max_b_max(s, MeasureConfig(phase_points=2), grid)
        r16 = t_max_b_max(s, MeasureConfig(phase_points=16), grid)
        # the coarse grid's combos are a subset of the fine one's
        assert r16.t_max >= r2.t_max - 1e-12
        assert r16.b_max >= r2.b_max - 1e-12

    def test_overlap_vs_separation_tradeoff(self):
        # zero shift minimizes duration and maximizes bandwidth
        cfg = MeasureConfig(phase_points=8)
        merged_s = DiscreteSpectrum([1.0, 0.5])
        split_s = DiscreteSpectrum.from_delta_t([1.0, 0.5], delta_ts=[0.0, 4.0])
        merged = t_max_b_max(merged_s, cfg, lean_grid(merged_s, cfg))
        split = t_max_b_max(split_s, cfg, lean_grid(split_s, cfg))
        assert merged.t_max < split.t_max
        assert merged.b_max > split.b_max

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_chunked_argmax_is_first_maximal_row(self, monkeypatch, chunk):
        s = DiscreteSpectrum.from_delta_t([0.5, 0.5, 0.5], [0.55, 0.0, -0.55], [-2.2, 0.0, 2.2])
        cfg = MeasureConfig(phase_points=4)
        grid = lean_grid(s, cfg)
        ref = t_max_b_max(s, cfg, grid)
        monkeypatch.setattr(metrics, "CHUNK_SIZE", chunk)
        r = t_max_b_max(s, cfg, grid)
        assert (r.t_max, r.b_max, r.t_argmax, r.b_argmax) == (
            ref.t_max, ref.b_max, ref.t_argmax, ref.b_argmax)
        # the first maximal row of a plain loop in lexicographic order
        combos = phase_combinations(3, 4)
        reports = [
            measure(SampledSignal(grid, q), cfg)
            for q in synthesize_phases(s, grid, combos)
        ]
        ts, bs = [rep.t for rep in reports], [rep.b for rep in reports]
        i, j = ts.index(max(ts)), bs.index(max(bs))
        assert (r.t_max, r.t_argmax) == (ts[i], tuple(combos[i]))
        assert (r.b_max, r.b_argmax) == (bs[j], tuple(combos[j]))

        # every row the same pulse: all rows tie, and the first one wins
        def unmodulated(spectrum, grid, block):
            return synthesize_phases(spectrum, grid, np.zeros_like(block))

        monkeypatch.setattr(metrics, "synthesize_phases", unmodulated)
        tied = t_max_b_max(s, cfg, grid)
        assert tied.t_argmax == tied.b_argmax == tuple(combos[0])

    @pytest.mark.parametrize("case", ["imag3", "real2", "tied"])
    @pytest.mark.parametrize("chunk", [3, metrics.CHUNK_SIZE])
    def test_pruning_matches_full_scan(self, monkeypatch, case, chunk):
        spectra = {
            "imag3": (DiscreteSpectrum.from_delta_t([0.7, 0.62, 0.5], delta_ts=[-2.85, 1.05, 0.0]), 16),
            "real2": (DiscreteSpectrum.from_delta_t([0.5, 0.5], [0.075, -0.075], [-0.9, 0.9]), 16),
            "tied": (DiscreteSpectrum.from_delta_t([0.5, 0.5, 0.5], [0.55, 0.0, -0.55],
                                                   [-2.2, 0.0, 2.2]), 4),
        }
        s, m = spectra[case]
        cfg = MeasureConfig(phase_points=m)
        monkeypatch.setattr(metrics, "CHUNK_SIZE", chunk)
        if case == "tied":  # every row the same pulse
            def unmodulated(spectrum, grid, block):
                return synthesize_phases(spectrum, grid, np.zeros_like(block))

            monkeypatch.setattr(metrics, "synthesize_phases", unmodulated)
        grid = lean_grid(s, cfg)
        pruned = t_max_b_max(s, cfg, grid)
        # a bracket that rules out nothing: every row is scanned exactly
        monkeypatch.setattr(metrics, "_window_bracket", lambda cells, *_: (
            np.full(len(cells), -math.inf), np.full(len(cells), math.inf)))
        full = t_max_b_max(s, cfg, grid)
        assert (pruned.t_max, pruned.b_max, pruned.t_argmax, pruned.b_argmax) == (
            full.t_max, full.b_max, full.t_argmax, full.b_argmax)

    def test_floors_start_the_maxima(self):
        s = DiscreteSpectrum.from_delta_t([0.5, 0.5], [0.075, -0.075], [-0.9, 0.9])
        cfg = MeasureConfig(phase_points=8)
        grid = lean_grid(s, cfg)
        ref = t_max_b_max(s, cfg, grid)
        above = t_max_b_max(s, cfg, grid, floors=(1e3, 1e3))
        assert (above.t_max, above.t_argmax, above.b_max, above.b_argmax) == (1e3, None, 1e3, None)
        # an equal width does not beat the floor: the floor comes back without a row
        tied = t_max_b_max(s, cfg, grid, floors=(ref.t_max, ref.b_max))
        assert (tied.t_max, tied.t_argmax, tied.b_max, tied.b_argmax) == (
            ref.t_max, None, ref.b_max, None)
        below = t_max_b_max(s, cfg, grid, floors=(0.5 * ref.t_max, 0.5 * ref.b_max))
        assert (below.t_max, below.b_max, below.t_argmax, below.b_argmax) == (
            ref.t_max, ref.b_max, ref.t_argmax, ref.b_argmax)

    def test_pruning_skips_most_exact_scans(self, monkeypatch):
        s = DiscreteSpectrum.from_delta_t([0.7, 0.62, 0.5], delta_ts=[-2.85, 1.05, 0.0])
        cfg = MeasureConfig(phase_points=32)
        scanned = []

        def counted(cells, *args):
            scanned.append(len(cells))
            return _smallest_energy_window(cells, *args)

        monkeypatch.setattr(metrics, "_smallest_energy_window", counted)
        t_max_b_max(s, cfg, lean_grid(s, cfg))
        rows = len(phase_combinations(3, 32, conjugation_reduced=True))
        assert 0 < len(scanned) < 2 * rows / 4

    def test_row_without_energy_raises_in_a_pruned_block(self, monkeypatch):
        s = DiscreteSpectrum.from_delta_t([0.7, 0.62, 0.5], delta_ts=[-2.85, 1.05, 0.0])

        def one_dark_row(spectrum, grid, block):
            q = synthesize_phases(spectrum, grid, block)
            q[len(q) // 2] = 0.0
            return q

        monkeypatch.setattr(metrics, "synthesize_phases", one_dark_row)
        cfg = MeasureConfig(phase_points=16)
        with pytest.raises(MeasurementUnreliableError, match="no energy"):
            t_max_b_max(s, cfg, lean_grid(s, cfg))

    def test_argmax_reported(self):
        s = DiscreteSpectrum([1.0, 0.5])
        cfg = MeasureConfig(phase_points=4)
        r = t_max_b_max(s, cfg, lean_grid(s, cfg))
        assert len(r.t_argmax) == 2 and r.t_argmax[-1] == 0.0


def _no_bracket(monkeypatch):
    """A bracket that rules out nothing: every row is scanned exactly."""
    monkeypatch.setattr(metrics, "_window_bracket", lambda cells, *_: (
        np.full(len(cells), -math.inf), np.full(len(cells), math.inf)))


def _count_gram_builds(monkeypatch):
    builds = []
    real = metrics._gram_coefficients

    def counted(*args):
        builds.append(1)
        return real(*args)

    monkeypatch.setattr(metrics, "_gram_coefficients", counted)
    return builds


def _fields(r):
    return (r.t_max, r.b_max, r.t_argmax, r.b_argmax)


class TestGramRanking:
    SPECTRUM = DiscreteSpectrum.from_delta_t([0.7, 0.62, 0.5], delta_ts=[-2.85, 1.05, 0.0])

    @pytest.mark.parametrize("kind", ["imaginary", "real", "evolved"])
    @pytest.mark.parametrize("chunk", [3, metrics.CHUNK_SIZE])
    def test_ranked_matches_full_scan(self, monkeypatch, kind, chunk):
        rng = np.random.default_rng({"imaginary": 41, "real": 42, "evolved": 43}[kind] + chunk)
        monkeypatch.setattr(metrics, "CHUNK_SIZE", chunk)
        builds = _count_gram_builds(monkeypatch)
        s = random_spectrum(rng, n=3, imaginary=kind == "imaginary", sigma_range=(0.4, 1.0))
        if kind == "evolved":
            s = evolve(s, float(rng.uniform(0.5, 3.0)))
        # at the default chunk size the grid needs at least that many rows
        m = 8 if chunk == 3 else (32 if kind == "imaginary" else 23)
        cfg = MeasureConfig(phase_points=m)
        assert len(phase_combinations(3, m, conjugation_reduced=s.is_imaginary())) >= chunk
        grid = lean_grid(s, cfg)
        ranked = t_max_b_max(s, cfg, grid)
        t, b = ranked.t_max, ranked.b_max
        seeded = [t_max_b_max(s, cfg, grid, floors=f) for f in ((0.97 * t, 0.97 * b), (t, b))]
        assert len(builds) == 3
        _no_bracket(monkeypatch)
        assert _fields(ranked) == _fields(t_max_b_max(s, cfg, grid))
        assert _fields(seeded[0]) == _fields(ranked)
        assert _fields(seeded[1]) == (t, b, None, None)

    def test_floored_real_link_matches_full_scan(self, monkeypatch):
        builds = _count_gram_builds(monkeypatch)
        s = DiscreteSpectrum.from_delta_t([0.5, 0.5, 0.5], [0.55, -0.55, 0.0], [-2.2, 2.2, 0.0])
        cfg = MeasureConfig(phase_points=23, z_samples=3)  # 529 rows
        link = t_hat_b_hat(s, cfg, 2.0, profile=False)
        assert len(builds) == 3
        _no_bracket(monkeypatch)
        full = t_hat_b_hat(s, cfg, 2.0, profile=False)
        assert (link.t_hat, link.b_hat) == (full.t_hat, full.b_hat)

    def test_zero_bound_falls_back_in_every_chunk(self, monkeypatch):
        cfg = MeasureConfig(phase_points=8)
        grid = lean_grid(self.SPECTRUM, cfg)
        monkeypatch.setattr(metrics, "CHUNK_SIZE", 3)
        ref = t_max_b_max(self.SPECTRUM, cfg, grid)
        real_rows, real_ranked = metrics._gram_rows, metrics._ranked_windows
        synthesized, chunks = [], []

        def zero_bound(gram, phis):
            q, delta = real_rows(gram, phis)
            return q, np.zeros_like(delta)

        def counted_synthesis(spectrum, grid, block):
            synthesized.append(len(block))
            return synthesize_phases(spectrum, grid, block)

        def ranked(*args):
            before = len(synthesized)
            found = real_ranked(*args)
            chunks.append((found is None, len(synthesized) > before))
            return found

        monkeypatch.setattr(metrics, "_gram_rows", zero_bound)
        monkeypatch.setattr(metrics, "synthesize_phases", counted_synthesis)
        monkeypatch.setattr(metrics, "_ranked_windows", ranked)
        assert _fields(t_max_b_max(self.SPECTRUM, cfg, grid)) == _fields(ref)
        # a chunk falls back exactly when it reads a row exactly
        assert any(fell_back for fell_back, _ in chunks)
        assert all(fell_back == read for fell_back, read in chunks)

    @pytest.mark.parametrize("grid, message", [
        (TimeGrid(-6.0, 12.0 / 512, 512), "grid edges"),
        (TimeGrid(-20.0, 40.0 / 64, 64), "Nyquist edge"),
    ])
    def test_checks_raise_as_on_the_recursion(self, monkeypatch, grid, message):
        cfg = MeasureConfig(phase_points=8)
        builds = _count_gram_builds(monkeypatch)
        errors = []
        for chunk in (3, 10**6):  # the Gram path, then one chunk of the recursion
            monkeypatch.setattr(metrics, "CHUNK_SIZE", chunk)
            with pytest.raises(MeasurementUnreliableError, match=message) as raised:
                t_max_b_max(self.SPECTRUM, cfg, grid)
            errors.append(str(raised.value))
        assert len(builds) == 1 and errors[0] == errors[1]

    def test_gate(self, monkeypatch):
        from soliton_tbp.optimizer import TABLE_OPTIMA, evaluate_point

        builds = _count_gram_builds(monkeypatch)
        n3, cfg = self.SPECTRUM, MeasureConfig(phase_points=8)
        # the desk imaginary N=3 sweep: 130 rows at M=16, below the chunk size
        evaluate_point("imaginary", 3, TABLE_OPTIMA[("imaginary", 3)], MeasureConfig())
        # a real N=2 link, as the desk real N=2 sweep evaluates it
        t_hat_b_hat(DiscreteSpectrum.from_delta_t([0.5, 0.5], [0.075, -0.075], [-0.9, 0.9]),
                    MeasureConfig(phase_points=32, z_samples=3), 6.0, profile=False)
        monkeypatch.setattr(metrics, "CHUNK_SIZE", 3)
        n2 = DiscreteSpectrum.from_delta_t([0.7, 0.5], delta_ts=[-1.0, 0.0])
        t_max_b_max(n2, cfg, lean_grid(n2, cfg))
        t_max_b_max(n3, MeasureConfig(phase_points=8, definition="threshold"), lean_grid(n3, cfg))
        wide = TimeGrid(-700.0, 1400.0 / 4096, 4096)  # seed exponents up to 980
        assert not darboux._seeds_in_range(n3.lams, np.log(n3.etas), wide.times)
        t_max_b_max(n3, MeasureConfig(phase_points=4), wide)
        assert builds == []
        t_max_b_max(n3, cfg, lean_grid(n3, cfg))
        assert builds == [1]


class TestTHatBHat:
    def test_imaginary_skips_distance_sweep(self):
        s = DiscreteSpectrum([1.0, 0.5])
        cfg = MeasureConfig(phase_points=4)
        link = t_hat_b_hat(s, cfg, link_length=7.0)
        flat = t_max_b_max(s, cfg, lean_grid(s, cfg))
        assert link.t_hat == flat.t_max and link.b_hat == flat.b_max
        assert len(link.profile) == 1

    def test_zero_length_link(self):
        s = DiscreteSpectrum([0.5, 0.5], [0.3, -0.3])
        cfg = MeasureConfig(phase_points=4)
        link = t_hat_b_hat(s, cfg, link_length=0.0)
        flat = t_max_b_max(s, cfg, lean_grid(s, cfg))
        assert link.t_hat == flat.t_max

    @pytest.mark.parametrize("link_length", [0.0, 2.0])
    def test_z0_measures_the_given_spectrum(self, monkeypatch, link_length):
        # evolve(s, 0.0) moves eta = 3.0 by one ulp, so z = 0 must not be evolved
        s = DiscreteSpectrum([0.5, 0.5], [0.3, -0.3], [3.0, 1.0])
        assert evolve(s, 0.0).etas[0] != s.etas[0]
        measured = []
        t_max_b_max = metrics.t_max_b_max

        def spy(spectrum, *args, **kwargs):
            measured.append(spectrum)
            return t_max_b_max(spectrum, *args, **kwargs)

        monkeypatch.setattr(metrics, "t_max_b_max", spy)
        link = t_hat_b_hat(s, MeasureConfig(phase_points=2, z_samples=2), link_length)
        assert measured[0] is s
        assert [z for z, _, _ in link.profile] == ([0.0] if link_length == 0.0 else [0.0, 2.0])

    def test_table_optimum_endpoint_maxima(self):
        # the mirrored optimum attains its duration maximum at both ends
        s = DiscreteSpectrum.from_delta_t([0.5, 0.5], [0.075, -0.075], [-0.9, 0.9])
        cfg = MeasureConfig(phase_points=8, z_samples=13)
        link = t_hat_b_hat(s, cfg, link_length=6.0)
        zs = [z for z, _, _ in link.profile]
        ts = [t for _, t, _ in link.profile]
        assert ts[0] == pytest.approx(ts[-1], rel=0.02)
        assert link.t_hat <= max(ts[0], ts[-1]) * 1.02
        assert min(ts) < 0.97 * link.t_hat  # dips mid-link

    def test_rejects_negative_length(self):
        s = DiscreteSpectrum([0.5])
        with pytest.raises(ValueError):
            t_hat_b_hat(s, MeasureConfig(), -1.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_floored_link_matches_profile(self, monkeypatch, n):
        rng = np.random.default_rng(1700 + n)
        scanned = []

        def counted(cells, *args):
            scanned.append(1)
            return _smallest_energy_window(cells, *args)

        monkeypatch.setattr(metrics, "_smallest_energy_window", counted)
        cfg = MeasureConfig(phase_points=4, z_samples=5)
        scans = {True: 0, False: 0}
        for _ in range(4):
            s = random_spectrum(rng, n=n, sigma_range=(0.4, 0.8), dt_range=(-1.0, 1.0))
            link_length = float(rng.uniform(0.5, 3.0))
            links = {}
            for profile in (True, False):
                scanned.clear()
                links[profile] = t_hat_b_hat(s, cfg, link_length, profile=profile)
                scans[profile] += len(scanned)
            assert (links[False].t_hat, links[False].b_hat) == (links[True].t_hat, links[True].b_hat)
            assert links[False].profile == () and len(links[True].profile) == cfg.z_samples
            assert links[True].t_hat == max(t for _, t, _ in links[True].profile)
        assert scans[False] < scans[True]

    @pytest.mark.parametrize("profile", [True, False])
    def test_interior_leakage_raised_without_profile(self, monkeypatch, profile):
        # the link dips mid-way, so with floors no row of z = L/2 is scanned exactly
        s = DiscreteSpectrum.from_delta_t([0.5, 0.5], [0.075, -0.075], [-0.9, 0.9])
        calls = []

        def leaky_interior(spectrum, grid, block):
            q = synthesize_phases(spectrum, grid, block)
            calls.append(len(calls))
            if len(calls) == 2:  # z = L/2, the one interior distance, in one chunk
                # 1e-5 of each row's energy in its first cell: 10x the leakage limit
                q[:, 0] = np.sqrt(1e-5 * (np.abs(q) ** 2).sum(axis=1))
            return q

        monkeypatch.setattr(metrics, "synthesize_phases", leaky_interior)
        with pytest.raises(MeasurementUnreliableError, match="grid edges"):
            t_hat_b_hat(s, MeasureConfig(phase_points=4, z_samples=3), 6.0, profile=profile)

    def test_interior_aliasing_raised_with_profile_only(self, monkeypatch):
        # without the profile B is measured at the endpoints only, so an
        # aliased interior distance goes unchecked
        s = DiscreteSpectrum.from_delta_t([0.5, 0.5], [0.075, -0.075], [-0.9, 0.9])
        calls = []

        def aliased_interior(spectrum, grid, block):
            q = synthesize_phases(spectrum, grid, block)
            calls.append(len(calls))
            if len(calls) == 2:  # z = L/2, the one interior distance, in one chunk
                # a Nyquist tone with 1e-6 of each row's energy: 100x the aliasing limit
                n = q.shape[1]
                tone = np.sqrt(1e-6 * (np.abs(q) ** 2).sum(axis=1) / n)
                q = q + tone[:, None] * (-1.0) ** np.arange(n)
            return q

        monkeypatch.setattr(metrics, "synthesize_phases", aliased_interior)
        cfg = MeasureConfig(phase_points=4, z_samples=3)
        with pytest.raises(MeasurementUnreliableError, match="Nyquist edge"):
            t_hat_b_hat(s, cfg, 6.0, profile=True)
        calls.clear()
        link = t_hat_b_hat(s, cfg, 6.0, profile=False)
        assert len(calls) == 3
        assert link.t_hat == pytest.approx(15.003, abs=1e-3)
        assert link.b_hat == pytest.approx(1.0006, abs=1e-4)


class TestBound:
    @pytest.mark.parametrize("n", [2, 3])
    def test_bound_lies_below_the_product(self, n):
        rng = np.random.default_rng(2700 + n)
        for _ in range(3):
            for imaginary in (True, False):
                s = random_spectrum(rng, n=n, sigma_range=(0.4, 0.8), dt_range=(-1.0, 1.0),
                                    imaginary=imaginary)
                link_length = 0.0 if imaginary else float(rng.uniform(0.5, 3.0))
                for m in (2, 4, 8):
                    cfg = MeasureConfig(phase_points=m, z_samples=5)
                    link = t_hat_b_hat(s, cfg, link_length, profile=False)
                    bound = t_hat_b_hat_bound(s, cfg, link_length)
                    assert math.isfinite(bound) and bound <= link.t_hat * link.b_hat
                    if m == 2 and imaginary:  # the sub-grid is the whole grid, at the one distance
                        assert bound == link.t_hat * link.b_hat
                for m in (3, 6, 12):  # no sub-grid of full-grid phases
                    assert t_hat_b_hat_bound(s, MeasureConfig(phase_points=m), link_length) == -math.inf

    def test_bound_raises_what_the_link_raises(self):
        s = DiscreteSpectrum([0.5])
        with pytest.raises(InvalidParameterError, match="link length"):
            t_hat_b_hat_bound(s, MeasureConfig(), -1.0)

    @pytest.mark.parametrize("spectrum, link_length", [
        (DiscreteSpectrum.from_delta_t([0.7, 0.62, 0.5], None, [-2.85, 1.05, 0.0]), 0.0),
        (DiscreteSpectrum.from_delta_t([0.5] * 3, [0.55, -0.55, 0.0], [-2.2, 2.2, 0.0]), 2.0),
    ], ids=["table1_n3", "table2_n3"])
    def test_sub_grid_floors_leave_the_link_unchanged(self, monkeypatch, spectrum, link_length):
        cfg = MeasureConfig(phase_points=32, z_samples=3)
        assert len(phase_combinations(3, 32, spectrum.is_imaginary())) >= metrics.CHUNK_SIZE
        scanned, floored = [], []
        first_max, sub_grid = metrics._first_max, metrics._sub_grid_maxima

        def counted(mags, rows, *args):
            scanned.append(len(rows))
            return first_max(mags, rows, *args)

        def spy(*args):
            floored.append(sub_grid(*args))
            return floored[-1]

        monkeypatch.setattr(metrics, "_first_max", counted)
        monkeypatch.setattr(metrics, "_sub_grid_maxima", spy)
        link = t_hat_b_hat(spectrum, cfg, link_length, profile=False)
        with_floors = sum(scanned)
        assert len(floored) == 1
        profiled = t_hat_b_hat(spectrum, cfg, link_length, profile=True)
        assert len(floored) == 1  # the profile reads every maximum itself
        monkeypatch.setattr(metrics, "_sub_grid_maxima", lambda *args: None)
        scanned.clear()
        unfloored = t_hat_b_hat(spectrum, cfg, link_length, profile=False)
        assert (link.t_hat, link.b_hat) == (unfloored.t_hat, unfloored.b_hat)
        assert (link.t_hat, link.b_hat) == (profiled.t_hat, profiled.b_hat)
        assert with_floors < sum(scanned)

    def test_no_floors_below_the_chunk_size(self, monkeypatch):
        calls = []
        monkeypatch.setattr(metrics, "_sub_grid_maxima", lambda *args: calls.append(args))
        s = DiscreteSpectrum.from_delta_t([0.7, 0.62, 0.5], None, [-2.85, 1.05, 0.0])
        t_hat_b_hat(s, MeasureConfig(phase_points=16), 0.0, profile=False)  # 136 rows
        t_hat_b_hat(s, MeasureConfig(phase_points=32, definition="threshold"), 0.0, profile=False)
        assert calls == []


class TestRatios:
    def test_tbp_per_eigenvalue(self):
        config = MeasureConfig()
        reference = single_soliton_tbp(config)
        assert tbp_per_eigenvalue_ratio(9.94 * 1.0, 1, config) == pytest.approx(9.94 / reference)
        assert tbp_per_eigenvalue_ratio(10.0 * 2.0, 4, config) == pytest.approx(5.0 / reference)
        with pytest.raises(ValueError):
            tbp_per_eigenvalue_ratio(1.0 * 1.0, 0, config)

    def test_reference_value(self):
        assert single_soliton_tbp(MeasureConfig()) == pytest.approx(9.94, abs=0.05)
