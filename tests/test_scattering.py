import itertools
import math

import numpy as np
import pytest
from conftest import random_spectrum

from soliton_tbp import scattering
from soliton_tbp.darboux import SampledSignal, TimeGrid, auto_grid, synthesize
from soliton_tbp.cli import main
from soliton_tbp.errors import (
    DegenerateRootError,
    DegenerateSpectrumError,
    EigenvalueCountError,
    InvalidParameterError,
)
from soliton_tbp.io import load_signal, save_signal
from soliton_tbp.scattering import (
    RESCALE_LIMIT,
    _contour_seeds,
    _default_region,
    _gauss_legendre,
    _poly_roots,
    _sweep,
    discrete_amplitude,
    find_eigenvalues,
    recover_spectrum,
    scatter_many,
)
from soliton_tbp.spectrum import DiscreteSpectrum, qd_init


def _soliton_signal(spectrum, oversampling=16.0):
    return synthesize(spectrum, auto_grid(spectrum, 1e-4, oversampling=oversampling))


class TestScatter:
    def test_zero_potential(self):
        sig = SampledSignal(TimeGrid(-10.0, 0.05, 512), np.zeros(512, complex))
        for lam in (0.3 + 0.8j, 1j, 0.5, -2.0):
            a, b, _ = scatter_many(sig, [lam])
            assert a[0] == pytest.approx(1.0, abs=1e-12)
            assert b[0] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_lower_half_plane(self):
        sig = SampledSignal(TimeGrid(-10.0, 0.05, 512), np.zeros(512, complex))
        with pytest.raises(InvalidParameterError):
            scatter_many(sig, [-0.5j])

    @pytest.mark.parametrize("lam", [complex(math.nan, 0.5), complex(0.5, math.nan), complex(0.0, math.inf)])
    def test_rejects_non_finite_lambda(self, lam):
        # NaN passes a sign check on Im lambda; the amplitudes inherit the refusal
        sig = _soliton_signal(DiscreteSpectrum([0.5]))
        for call in (scatter_many, discrete_amplitude):
            with pytest.raises(InvalidParameterError, match="finite"):
                call(sig, [0.5j, lam])

    def test_sech_eigenvalue(self):
        sig = _soliton_signal(DiscreteSpectrum([0.5]))
        assert abs(scatter_many(sig, [0.5j])[0][0]) < 1e-3
        assert abs(scatter_many(sig, [2j])[0][0]) > 0.1

    def test_unitarity_on_real_axis(self, rng):
        s = random_spectrum(rng, n=2, dt_range=(-1.0, 1.0))
        sig = _soliton_signal(s)
        for lam in rng.uniform(-2.0, 2.0, 6):
            a, b, _ = scatter_many(sig, [complex(lam)])
            assert abs(a[0]) ** 2 + abs(b[0]) ** 2 == pytest.approx(1.0, abs=1e-4)
            assert abs(b[0]) < 1e-3  # no continuous spectrum

    def test_matches_generic_ode_integration(self):
        # independent oracle: integrate the printed first-order system
        from scipy.integrate import solve_ivp

        s = DiscreteSpectrum([0.5], etas=[1.3], phis=[0.8])
        grid = TimeGrid(-12.0, 24.0 / 1024, 1024)
        import warnings
        from soliton_tbp.errors import GridTooNarrowWarning

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooNarrowWarning)
            sig = synthesize(s, grid)
        t = grid.times

        def jost_by_ode(lam):
            def rhs(x, u):
                q = np.interp(x, t, sig.samples.real) + 1j * np.interp(
                    x, t, sig.samples.imag
                )
                return [
                    q * np.exp(2j * lam * x) * u[1],
                    -np.conj(q) * np.exp(-2j * lam * x) * u[0],
                ]

            sol = solve_ivp(
                rhs, (t[0], t[-1]), [1.0 + 0j, 0.0 + 0j], rtol=1e-10, atol=1e-12
            )
            return complex(sol.y[0, -1]), complex(sol.y[1, -1])

        # real axis: both coefficients are well-conditioned
        for lam in (0.3, -0.8):
            a_ode, b_ode = jost_by_ode(lam)
            a, b, _ = scatter_many(sig, [complex(lam)])
            assert a[0] == pytest.approx(a_ode, abs=2e-4)
            assert b[0] == pytest.approx(b_ode, abs=2e-4)
        # upper half-plane: a stays comparable (b at the edge is dominated by
        # the exp(2 Im(lam) t) amplification of the window tail)
        a_ode, _ = jost_by_ode(0.3 + 0.4j)
        assert scatter_many(sig, [0.3 + 0.4j])[0][0] == pytest.approx(a_ode, abs=2e-4)

    def test_derivative_matches_finite_difference(self):
        s = DiscreteSpectrum([0.6], etas=[0.7])
        sig = _soliton_signal(s)
        lam = 0.2 + 0.5j
        h = 1e-6
        _, _, a_prime = scatter_many(sig, [lam])
        a_plus, _, _ = scatter_many(sig, [lam + h])
        a_minus, _, _ = scatter_many(sig, [lam - h])
        fd = (a_plus[0] - a_minus[0]) / (2 * h)
        assert a_prime[0] == pytest.approx(fd, rel=1e-5)


def _reference_cell(q, dt, lams, lam2):
    """Exact exponential of one constant-potential cell, and its lambda derivative."""
    aq2 = q.real * q.real + q.imag * q.imag
    kappa2 = lam2 + aq2
    kappa = np.sqrt(kappa2)
    kd = kappa * dt
    small = np.abs(kd) < 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(small, dt * (1.0 - kd * kd / 6.0), np.sin(kd) / kappa)
    c = np.cos(kd)
    e = (c - 1j * lams * s, q * s, -np.conj(q) * s, c + 1j * lams * s)
    dc = -lams * dt * s
    with np.errstate(divide="ignore", invalid="ignore"):
        ds = np.where(small, -lams * dt**3 / 3.0, lams * (dt * c - s) / kappa2)
    de_diag = 1j * (s + lams * ds)
    de = (dc - de_diag, q * ds, -np.conj(q) * ds, dc + de_diag)
    return e, de


def _reference_sweep(samples, dt, lams, w1, w2):
    """The sweep one sample at a time, with numpy's complex sqrt, sin and cos."""
    m = len(lams)
    w1 = np.full(m, w1, dtype=complex)
    w2 = np.full(m, w2, dtype=complex)
    wl1 = np.zeros(m, dtype=complex)
    wl2 = np.zeros(m, dtype=complex)
    log_scale = np.zeros(m)
    lam2 = lams * lams
    for i, q in enumerate(samples):
        (e11, e12, e21, e22), (d11, d12, d21, d22) = _reference_cell(q, dt, lams, lam2)
        wl1, wl2 = (
            e11 * wl1 + e12 * wl2 + d11 * w1 + d12 * w2,
            e21 * wl1 + e22 * wl2 + d21 * w1 + d22 * w2,
        )
        w1, w2 = e11 * w1 + e12 * w2, e21 * w1 + e22 * w2
        if (i & 0xFF) == 0xFF:
            mag = np.maximum(np.abs(w1), np.abs(w2))
            big = mag > RESCALE_LIMIT
            if np.any(big):
                scale = np.where(big, mag, 1.0)
                w1, w2, wl1, wl2 = w1 / scale, w2 / scale, wl1 / scale, wl2 / scale
                log_scale += np.log(scale)
    return w1, w2, wl1, wl2, log_scale


def _assert_sweeps_agree(got, want, rtol):
    """End vectors and their derivatives agree per lambda, relative to the vector's size."""
    rescale = np.exp(got[4] - want[4])
    for pair in ((0, 1), (2, 3)):
        g = np.array([got[i] * rescale for i in pair])
        w = np.array([want[i] for i in pair])
        size = np.abs(w).max(axis=0)
        np.testing.assert_array_less(np.abs(g - w).max(axis=0), rtol * size + 1e-300)


class TestSweep:
    def test_reversed_cells_at_minus_dt_invert_the_sweep(self, rng):
        samples = rng.normal(size=256) + 1j * rng.normal(size=256)
        lams = np.array([0.0, 0.7, -1.3 + 0.2j, 0.5 + 0.5j, 0.4j])
        w1, w2, _, _, log_scale = _sweep(samples, 0.02, lams, 1, 0)
        v1, v2, _, _, back_scale = _sweep(samples[::-1], -0.02, lams, w1, w2)
        assert not log_scale.any() and not back_scale.any()
        np.testing.assert_allclose(v1, 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(v2, 0.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 255, 1025])
    @pytest.mark.parametrize("m", [1, 8, 400])
    def test_matches_per_sample_reference(self, m, n):
        # m = 400 takes blocks of 10 cells, m = 8 of 512 and m = 1 one block
        rng = np.random.default_rng(1000 * m + n)
        samples = 0.8 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        lams = rng.uniform(-2.0, 2.0, m) + 1j * rng.uniform(0.0, 0.6, m)
        lams[0] = 0.0  # kappa -> |q| on the real axis at the origin
        for dt in (0.05, -0.05):
            for start in ((1, 0), (0, 1)):
                got = _sweep(samples, dt, lams, *start)
                want = _reference_sweep(samples, dt, lams, *start)
                _assert_sweeps_agree(got, want, rtol=1e-11)

    def test_small_cells_take_the_series_branch(self):
        # zero potential at lambda = 0 makes kappa exactly 0
        samples = np.array([0.0, 1e-9, 0.3 + 0.1j, 0.0, 1e-8j])
        lams = np.array([0.0, 1e-9j, 0.5 + 0.2j])
        got = _sweep(samples, 0.1, lams, 1, 0)
        want = _reference_sweep(samples, 0.1, lams, 1, 0)
        assert all(np.isfinite(v).all() for v in got)
        _assert_sweeps_agree(got, want, rtol=1e-11)

    @pytest.mark.parametrize("n, span", [(4096, 250.0), (3072, 750.0)])
    @pytest.mark.parametrize("m", [1, 2])
    def test_long_span_renormalizes_levels(self, m, n, span):
        # 250 time units at Im(lambda) = 1 grow by e^250 > RESCALE_LIMIT; for
        # m = 1 the whole span is one block, so the levels must renormalize,
        # and for m = 2 so must the vector carried between blocks.  3072
        # cells over 750 units reach a level of three such products, whose
        # last one is carried with its scale.
        rng = np.random.default_rng(7)
        samples = 0.05 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        lams = np.array([0.3 + 1j, -0.2 + 1j])[:m]
        got = _sweep(samples, span / n, lams, 1, 0)
        want = _reference_sweep(samples, span / n, lams, 1, 0)
        assert (got[4] > 0.8 * span).all()
        assert np.abs(got[:4]).max() <= 2.0 * RESCALE_LIMIT
        _assert_sweeps_agree(got, want, rtol=1e-11)


N2_SPECTRUM = DiscreteSpectrum([1.0, 0.5], [0.3, -0.2], [2.0, 0.7], [1.0, 4.0])


class TestContour:
    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_gauss_legendre_matches_numpy(self, n):
        # numpy's rule (an eigenvalue solve) serves only as the oracle here
        nodes, weights = np.polynomial.legendre.leggauss(n)
        x, w = _gauss_legendre(n)
        np.testing.assert_allclose(x, nodes, rtol=0, atol=1e-14)
        np.testing.assert_allclose(w, weights, rtol=0, atol=1e-14)

    def test_polynomial_roots_match_numpy(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            coeffs = np.r_[1.0, rng.normal(size=3) + 1j * rng.normal(size=3)]
            got = np.sort_complex(_poly_roots(coeffs))
            np.testing.assert_allclose(got, np.sort_complex(np.roots(coeffs)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_count_matches_the_spectrum(self, n):
        rng = np.random.default_rng(505 + n)
        for _ in range(3):
            s = random_spectrum(rng, n=n, sigma_range=(0.3, 1.5), dt_range=(-1.5, 1.5), min_gap=0.2)
            sig = _soliton_signal(s)
            count, seeds = _contour_seeds(sig, _default_region(sig))
            assert count == n
            # and with the first eigenvalue deflated out, the others
            for found in ([], list(s.lams[:1])):
                rest = seeds(found)
                assert len(rest) == n - len(found)
                for lam in s.lams[len(found):]:
                    assert np.abs(rest - lam).min() < 1e-2

    def test_zero_signal_counts_zero(self):
        sig = SampledSignal(TimeGrid(-10.0, 0.05, 512), np.zeros(512, complex))
        count, seeds = _contour_seeds(sig, ((-1.0, 1.0), (0.0, 1.0)))
        assert count == 0 and seeds([]).size == 0


class TestFindEigenvalues:
    def test_zero_potential_empty(self):
        sig = SampledSignal(TimeGrid(-10.0, 0.05, 512), np.zeros(512, complex))
        assert find_eigenvalues(sig, region=((-1.0, 1.0), (0.0, 1.0))) == []

    @pytest.mark.parametrize("spectrum", [
        N2_SPECTRUM,
        DiscreteSpectrum([0.7, 0.5, 0.3], [0.2, -0.4, 0.1], [1.0, 3.0, 0.5]),
    ])
    def test_roots_are_fixed_points(self, spectrum):
        roots = find_eigenvalues(_soliton_signal(spectrum))
        assert len(roots) == spectrum.n
        a, _, a_prime = scatter_many(_soliton_signal(spectrum), roots)
        assert (np.abs(a / a_prime) < 1e-12).all()

    def test_bad_first_seeds_are_deflated(self, monkeypatch):
        sig = _soliton_signal(N2_SPECTRUM)
        want = find_eigenvalues(sig)
        seeds = _contour_seeds(sig, _default_region(sig))[1]
        # one seed off the region and one on a root: one distinct root converges,
        # and the next round seeds the other with that root deflated out
        bad = np.array([5.0 + 5.0j, complex(want[0])])
        monkeypatch.setattr(scattering, "_contour_seeds",
                            lambda signal, region: (2, lambda found: seeds(found) if found else bad))
        newton, runs = scattering._newton, []
        monkeypatch.setattr(scattering, "_newton", lambda signal, lams, box: (
            runs.append(len(lams)) or newton(signal, lams, box)))
        got = find_eigenvalues(sig)
        assert len(got) == 2
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # the root found first is kept as it is, not run through Newton again
        assert runs == [2, 1, 0]

    def test_count_the_seeds_cannot_reach_is_an_error(self, monkeypatch, tmp_path):
        sig = _soliton_signal(N2_SPECTRUM)
        seeds = _contour_seeds(sig, _default_region(sig))[1]
        # a count of 3 over the moments of 2 roots: once both are found, no seed is left
        monkeypatch.setattr(scattering, "_contour_seeds", lambda signal, region: (3, seeds))
        with pytest.raises(EigenvalueCountError, match="counts 3 eigenvalues.* finds 2"):
            find_eigenvalues(sig)
        path = tmp_path / "two.csv"
        save_signal(path, sig)
        out = tmp_path / "two.yaml"
        assert main(["nft", "--signal", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_uncertified_count_is_an_error(self, monkeypatch):
        two = DiscreteSpectrum([1.0, 0.5])
        sig = synthesize(two, auto_grid(two, 1e-4))
        # the lower edge lies 6.2e-4 below a root, and the contour may not move
        monkeypatch.setattr(scattering, "WIDEN_SHARES", (0.0,))
        with pytest.raises(EigenvalueCountError, match="certifies"):
            find_eigenvalues(sig, region=((-1.0, 1.0), (0.5, 1.5)))

    def test_seeds_below_the_real_axis_are_dropped(self, tmp_path):
        # synth's default grid for this N=6 pulse gives two moment seeds below
        # the real axis; Newton runs from the others and deflation finds the rest
        s = DiscreteSpectrum([0.77, 0.73, 0.85, 0.64, 0.32, 0.68], [0.36, 0.14, 0.14, -0.11, -0.14, 0.22],
                             [0.43, 2.08, 2.12, 2.52, 0.48, 0.46])
        spec = tmp_path / "six.yaml"
        spec.write_text("n: 6\nentries:\n" + "".join(
            f"- {{sigma: {sg}, omega: {om}, eta: {et}, phi: 0.0}}\n"
            for sg, om, et in zip(s.sigmas, s.omegas, s.etas)))
        path, out = tmp_path / "six.csv", tmp_path / "six_nft.yaml"
        assert main(["synth", "--spectrum", str(spec), "--out", str(path)]) == 0
        sig = load_signal(path)
        roots = find_eigenvalues(sig)
        assert len(roots) == 6
        a, _, a_prime = scatter_many(sig, roots)
        assert (np.abs(a / a_prime) < 1e-12).all()
        distance = np.abs(np.subtract.outer(roots, s.lams))
        assert (distance.min(axis=0) < 1e-3).all() and (distance.min(axis=1) < 1e-3).all()
        assert main(["nft", "--signal", str(path), "--out", str(out)]) == 0

    def test_no_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK-backed call on the eigenvalue search path")

        for owner, name in ((np, "roots"), (np.linalg, "eigvals"), (np.linalg, "eigvalsh"),
                            (np.linalg, "eig"), (np.polynomial.legendre, "leggauss")):
            monkeypatch.setattr(owner, name, refuse)
        s = DiscreteSpectrum([0.7, 0.5, 0.3], [0.2, -0.4, 0.1])
        assert recover_spectrum(_soliton_signal(s)).n == 3

    def test_two_imaginary(self):
        s = DiscreteSpectrum([1.0, 0.5])
        roots = find_eigenvalues(_soliton_signal(s))
        assert len(roots) == 2
        for lam in (0.5j, 1j):
            assert min(abs(r - lam) for r in roots) < 1e-3

    def test_complex_pair(self):
        s = DiscreteSpectrum([0.5, 0.5], [0.5, -0.5])
        roots = find_eigenvalues(_soliton_signal(s))
        assert len(roots) == 2
        for lam in (0.5 + 0.5j, -0.5 + 0.5j):
            assert min(abs(r - lam) for r in roots) < 1e-3

    def test_region_validation(self):
        sig = SampledSignal(TimeGrid(-10.0, 0.05, 512), np.zeros(512, complex))
        with pytest.raises(ValueError):
            find_eigenvalues(sig, region=((-1.0, 1.0), (-0.5, 1.0)))

    def test_deterministic_order(self):
        s = DiscreteSpectrum([0.8, 0.4], [0.3, -0.6])
        sig = _soliton_signal(s)
        roots = find_eigenvalues(sig)
        assert roots == sorted(roots, key=lambda r: r.real)
        assert [round(r.real, 3) for r in roots] == [-0.6, 0.3]


class TestEigenvalueOrder:
    """Roots come back by real part, then by descending sigma where real parts tie within ORDER_TOL."""

    def test_two_imaginary_in_both_regions(self):
        two = DiscreteSpectrum([1.0, 0.5])  # the README's two.yaml, sampled as `synth` does
        sig = synthesize(two, auto_grid(two, 1e-4))
        want = find_eigenvalues(sig)
        assert [round(r.imag, 3) for r in want] == [0.998, 0.501]
        # the region's lower edge lies 6.2e-4 below the sigma = 0.50062 root, so
        # no node count is within COUNT_TOL of an integer and a widened contour counts
        region = ((-1.0, 1.0), (0.5, 1.5))
        assert _contour_seeds(sig, region)[0] is None
        np.testing.assert_allclose(find_eigenvalues(sig, region=region), want, rtol=0, atol=1e-12)
        # an edge 1e-6 from a root, on each side in turn: lower, left, right, upper
        (lower, upper), reals = sorted(want, key=lambda r: r.imag), [r.real for r in want]
        for region in (((-1.0, 1.0), (lower.imag - 1e-6, 1.5)),
                       ((min(reals) - 1e-6, 1.0), (0.25, 1.5)),
                       ((-1.0, max(reals) + 1e-6), (0.25, 1.5)),
                       ((-1.0, 1.0), (0.25, upper.imag + 1e-6)),
                       # the lower edge 1e-4 above a root, which lies outside
                       ((-1.0, 1.0), (lower.imag + 1e-4, 1.5))):
            (re_lo, re_hi), (im_lo, im_hi) = region
            inside = [r for r in want if re_lo <= r.real <= re_hi and im_lo < r.imag <= im_hi]
            got = find_eigenvalues(sig, region=region)
            assert len(got) == len(inside)
            np.testing.assert_allclose(got, inside, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 3, 5])
    @pytest.mark.parametrize("sigmas, dts", [
        ([0.58, 0.5], [2.0, 0.0]),  # Table-1 N=2
        ([0.7, 0.62, 0.5], [-2.85, 1.05, 0.0]),  # Table-1 N=3
    ])
    def test_table_one_pulses_descend(self, sigmas, dts, m):
        # off phase 0 the real parts are discretization errors of either sign
        phis = [2.0 * math.pi * m * (k + 1) / 8 for k in range(len(sigmas) - 1)] + [0.0]
        s = DiscreteSpectrum.from_delta_t(sigmas, None, dts, phis)
        roots = find_eigenvalues(synthesize(s, auto_grid(s, 1e-4)))
        assert len(roots) == s.n
        assert [round(r.imag, 2) for r in roots] == sigmas

    def test_order_ignores_noise_on_the_real_parts(self, monkeypatch):
        want = [-0.55 + 0.5j, 0.7j, 0.62j, 0.5j, 0.55 + 0.5j]
        # every seed converges where it starts
        monkeypatch.setattr(scattering, "_newton", lambda signal, lams, box: (
            np.array(lams), None, np.ones(len(lams), dtype=bool)))
        region = ((-1.0, 1.0), (0.0, 1.0))
        for size in (1e-20, 1e-9, 1.2e-4):
            for signs in itertools.product((-1.0, 1.0), repeat=len(want)):
                noisy = [r + sign * size for r, sign in zip(want, signs)]
                assert scattering._roots_from(None, noisy[::-1], region) == noisy

    @pytest.mark.parametrize("k", [1, 2, 10, 11, 12, 13, 14, 15])
    def test_coarse_grid_rows_descend(self, k):
        # Table-1 N=3 at phases (phi, phi, 0) on the grid of `synth --epsilon 1e-2`:
        # discretization puts its real parts up to 1.1e-4 off zero, on both sides
        phi = 2.0 * math.pi * k / 16
        s = DiscreteSpectrum.from_delta_t([0.7, 0.62, 0.5], None, [-2.85, 1.05, 0.0], [phi, phi, 0.0])
        roots = find_eigenvalues(synthesize(s, auto_grid(s, 1e-2)))
        assert [round(r.imag, 2) for r in roots] == [0.7, 0.62, 0.5]

    def test_mirrored_pair_ascends_in_omega(self):
        s = DiscreteSpectrum([0.5, 0.5], [0.3, -0.3])
        roots = find_eigenvalues(_soliton_signal(s))
        assert [round(r.real, 2) for r in roots] == [-0.3, 0.3]


class TestDiscreteAmplitude:
    def test_single_soliton_value(self):
        # measured b/a' = eta*e^{j phi}*qd_init = 1j for the unit soliton
        sig = _soliton_signal(DiscreteSpectrum([0.5]))
        qd = discrete_amplitude(sig, 0.5j)[0]
        assert abs(qd) == pytest.approx(1.0, rel=1e-2)
        assert qd == pytest.approx(1j, rel=1e-2)

    def test_two_soliton_values(self):
        s = DiscreteSpectrum([1.0, 0.5])
        sig = _soliton_signal(s)
        for k, lam in enumerate(s.lams):
            qd = discrete_amplitude(sig, complex(lam))[0]
            expected = s.etas[k] * np.exp(1j * s.phis[k]) * qd_init(s, k)
            assert qd == pytest.approx(expected, rel=1e-2)

    def test_phase_recovery(self):
        base = DiscreteSpectrum([1.0, 0.5], phis=[0.0, 0.0])
        shifted = DiscreteSpectrum([1.0, 0.5], phis=[0.0, math.pi / 2])
        qd_base = discrete_amplitude(_soliton_signal(base), 0.5j)[0]
        qd_shift = discrete_amplitude(_soliton_signal(shifted), 0.5j)[0]
        dphi = np.angle(qd_shift / qd_base)
        assert dphi == pytest.approx(math.pi / 2, abs=1e-2)

    def test_eta_equals_b_magnitude(self):
        # the amplitude scaling coordinate is |b| at the eigenvalue
        s = DiscreteSpectrum([0.5], etas=[2.5], phis=[1.0])
        sig = _soliton_signal(s)
        a, _, ap = scatter_many(sig, [0.5j])
        qd = discrete_amplitude(sig, 0.5j)[0]
        assert abs(qd * ap[0]) == pytest.approx(2.5, rel=1e-2)

    def test_rejects_real_axis(self):
        sig = _soliton_signal(DiscreteSpectrum([0.5]))
        with pytest.raises(InvalidParameterError):
            discrete_amplitude(sig, 0.5)

    def test_flat_a_is_degenerate_root(self):
        # a = 1 everywhere for the zero signal, so a' vanishes
        sig = SampledSignal(TimeGrid(-10.0, 0.05, 512), np.zeros(512, complex))
        with pytest.raises(DegenerateRootError, match="not simple"):
            discrete_amplitude(sig, [0.5j])

    def test_step_below_real_axis_is_degenerate_root(self):
        # a = (lam - 0.5j) / (lam + 0.5j): one Newton step from 3j lands at -5.75j
        sig = _soliton_signal(DiscreteSpectrum([0.5]))
        with pytest.raises(DegenerateRootError, match="upper half-plane"):
            discrete_amplitude(sig, [0.5j, 3j])

    def test_batch_matches_single_calls(self):
        sig = _soliton_signal(N2_SPECTRUM)
        lams = N2_SPECTRUM.lams
        batch = discrete_amplitude(sig, lams)
        assert batch.shape == (2,)
        for lam, qd in zip(lams, batch):
            assert qd == pytest.approx(discrete_amplitude(sig, lam)[0], rel=1e-13)

    def test_polish_reaches_the_root(self):
        # seeds 1e-3 off the roots need more than one Newton step to agree
        sig = _soliton_signal(DiscreteSpectrum([1.0, 0.5]))
        roots = np.array(find_eigenvalues(sig))
        off = discrete_amplitude(sig, roots + 1e-3 * (1 + 1j))
        assert off == pytest.approx(discrete_amplitude(sig, roots), rel=1e-10)

    def test_polish_runs_to_a_fixed_point(self):
        # Table-1 N=3 at phases (1, 2, 0): this seed needs more than 8 Newton
        # steps to reach the root near 0.7j
        s = DiscreteSpectrum.from_delta_t([0.7, 0.62, 0.5], None, [-2.85, 1.05, 0.0], [1.0, 2.0, 0.0])
        sig = synthesize(s, auto_grid(s, 1e-4))
        root = min(find_eigenvalues(sig), key=lambda r: abs(r - 0.7j))
        got = discrete_amplitude(sig, [1.0753 + 0.6497j])
        assert got[0] == pytest.approx(discrete_amplitude(sig, [root])[0], rel=1e-12)

    def test_no_fixed_point_is_degenerate_root(self, monkeypatch):
        # a found root takes one step; the other seed needs more than two
        sig = _soliton_signal(DiscreteSpectrum([0.5]))
        root = find_eigenvalues(sig)[0]
        monkeypatch.setattr(scattering, "NEWTON_MAX_ITER", 2)
        with pytest.raises(DegenerateRootError, match=r"no fixed point within 2 steps from \[0\.1\+0\.6j\]"):
            discrete_amplitude(sig, [root, 0.1 + 0.6j])

    def test_empty_batch(self):
        sig = _soliton_signal(DiscreteSpectrum([0.5]))
        for out in (*scatter_many(sig, []), discrete_amplitude(sig, [])):
            assert out.shape == (0,) and out.dtype == complex


def _assert_recovers_n2(signal):
    s = N2_SPECTRUM
    rec = recover_spectrum(signal)
    assert rec.n == 2
    for k in range(2):
        i = int(np.argmin(np.abs(rec.lams - s.lams[k])))
        assert abs(rec.lams[i] - s.lams[k]) < 1e-3
        assert rec.etas[i] == pytest.approx(s.etas[k], rel=1e-2)
        assert np.angle(np.exp(1j * (rec.phis[i] - s.phis[k]))) == pytest.approx(
            0.0, abs=1e-2
        )


class TestRoundTrip:
    def test_recover_spectrum_n2(self, rng):
        _assert_recovers_n2(_soliton_signal(N2_SPECTRUM))

    def test_recover_spectrum_through_rescaled_sweeps(self):
        # 250 time units: a near the upper eigenvalue outgrows RESCALE_LIMIT
        sig = synthesize(N2_SPECTRUM, TimeGrid(-125.0, 250.0 / 4096, 4096))
        _, _, _, _, log_scale = _sweep(sig.samples, sig.grid.dt, np.array([0.3 + 1j]), 1, 0)
        assert log_scale[0] > 0.0
        _assert_recovers_n2(sig)

    def test_one_amplitude_call(self, monkeypatch):
        calls = []

        def counted(signal, lams):
            calls.append(len(lams))
            return discrete_amplitude(signal, lams)

        monkeypatch.setattr(scattering, "discrete_amplitude", counted)
        _assert_recovers_n2(_soliton_signal(N2_SPECTRUM))
        assert calls == [2]

    def test_no_roots_is_error(self):
        sig = SampledSignal(TimeGrid(-10.0, 0.05, 512), np.zeros(512, complex))
        with pytest.raises(DegenerateSpectrumError):
            recover_spectrum(sig, region=((-1.0, 1.0), (0.0, 1.0)))

    def test_eigenvalues_invariant_under_propagation(self):
        from soliton_tbp.propagation import PropagationPlan, propagate

        s = DiscreteSpectrum([0.9, 0.45], [0.2, -0.1])
        sig = _soliton_signal(s)
        out = propagate(sig, PropagationPlan.with_dz(1.0, 1e-3))
        roots = find_eigenvalues(out)
        assert len(roots) == 2
        for lam in s.lams:
            assert min(abs(r - lam) for r in roots) < 1e-3
