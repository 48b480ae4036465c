import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from soliton_tbp.darboux import denormalize
from soliton_tbp.errors import DegenerateSpectrumError
from soliton_tbp.spectrum import (
    DiscreteSpectrum,
    PhysicalScaling,
    evolve,
    qd_init,
    transform,
)


class TestTypes:
    def test_eigenvalue_requires_positive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            DiscreteSpectrum([-0.5])
        with pytest.raises(ValueError, match="sigma"):
            DiscreteSpectrum([0.5, 0.0])
        assert DiscreteSpectrum([0.5], [0.3]).lams[0] == 0.3 + 0.5j

    def test_amplitude_phase_normalized(self):
        s = DiscreteSpectrum([0.5, 1.0], phis=[7.0, -0.5])
        assert s.phis[0] == pytest.approx(7.0 - 2 * math.pi)
        assert s.phis[1] == pytest.approx(2 * math.pi - 0.5)
        with pytest.raises(ValueError, match="eta"):
            DiscreteSpectrum([0.5], etas=[0.0])

    def test_non_finite_and_unequal_lengths_refused(self):
        with pytest.raises(ValueError, match="omega"):
            DiscreteSpectrum([0.5], [math.inf])
        with pytest.raises(ValueError, match="phi"):
            DiscreteSpectrum([0.5], phis=[math.nan])
        with pytest.raises(ValueError, match="equal length"):
            DiscreteSpectrum([0.5, 1.0], [0.0])

    def test_arrays_are_read_only_copies(self):
        sigmas = np.array([1.0, 0.5])
        lams = np.array([0.2 + 0.5j, -0.2 + 0.5j])
        s = DiscreteSpectrum(sigmas)
        shell = DiscreteSpectrum(lams.imag, lams.real)
        for values in (s.sigmas, s.omegas, s.etas, s.phis, shell.sigmas, shell.omegas):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 2.0
        assert not np.shares_memory(s.sigmas, sigmas)
        assert not np.shares_memory(shell.sigmas, lams)
        assert sigmas.flags.writeable and lams.flags.writeable
        sigmas[0] = 3.0
        assert s.sigmas[0] == 1.0

    def test_equality_compares_the_arrays(self):
        s = DiscreteSpectrum([1.0, 0.5], phis=[0.0, 7.0])
        assert s == DiscreteSpectrum(np.array([1.0, 0.5]), [0.0, 0.0], [1.0, 1.0],
                                     [0.0, 7.0 - 2 * math.pi])
        assert s != DiscreteSpectrum([1.0, 0.5], etas=[1.0, 2.0])
        assert s != DiscreteSpectrum([1.0])
        with pytest.raises(TypeError):
            hash(s)

    def test_spectrum_rejects_duplicate_eigenvalues(self):
        with pytest.raises(DegenerateSpectrumError):
            DiscreteSpectrum([0.5, 0.5])
        with pytest.raises(DegenerateSpectrumError):
            DiscreteSpectrum([0.5, 0.5 + 1e-8], [0.1, 0.1])
        DiscreteSpectrum([0.5, 0.5], [0.1, -0.1])  # distinct via omega

    def test_spectrum_needs_entries(self):
        with pytest.raises(ValueError, match="at least one entry"):
            DiscreteSpectrum([])

    def test_physical_scaling_invariants(self):
        with pytest.raises(ValueError):
            PhysicalScaling(beta2=1e-27, gamma=1.3e-3, T0=1e-11)
        s = PhysicalScaling(beta2=-2e-26, gamma=1.3e-3, T0=1e-11)
        assert s.p0 == pytest.approx(2e-26 / (1.3e-3 * 1e-22))


class TestQd:
    def test_qd_init_single(self):
        s = DiscreteSpectrum([0.5])
        assert qd_init(s, 0) == pytest.approx(1j)

    def test_qd_init_two_imaginary(self):
        # direct evaluation: (lam2 - conj lam2) * (lam2 - conj lam1)/(lam2 - lam1)
        s = DiscreteSpectrum([1.0, 0.5])
        expected = (1j) * (0.5j + 1j) / (0.5j - 1j)
        assert qd_init(s, 1) == pytest.approx(expected)
        assert abs(qd_init(s, 1)) == pytest.approx(3.0)

    def test_qd_init_complex_pair(self):
        s = DiscreteSpectrum([0.5, 0.5], [0.5, -0.5])
        lam1, lam2 = s.lams
        expected = (lam1 - lam1.conjugate()) * (lam1 - lam2.conjugate()) / (lam1 - lam2)
        value = qd_init(s, 0)
        assert value == pytest.approx(expected)
        assert abs(value) > 0.0 and np.isfinite(value)

    def test_qd_init_index_range(self):
        s = DiscreteSpectrum([0.5])
        with pytest.raises(IndexError):
            qd_init(s, 1)
        with pytest.raises(IndexError):
            qd_init(s, -1)


class TestDeltaT:
    def test_examples(self):
        assert DiscreteSpectrum([0.5]).delta_ts[0] == 0.0
        assert DiscreteSpectrum.from_delta_t([0.5], delta_ts=[2.0]).etas[0] == pytest.approx(
            math.e**2)
        assert DiscreteSpectrum([1.0], etas=[math.e**2]).delta_ts[0] == pytest.approx(1.0)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError, match="eta"):
            DiscreteSpectrum([0.5], etas=[0.0])
        with pytest.raises(ValueError, match="eta"):
            DiscreteSpectrum([0.5, 1.0], etas=[1.0, -2.0])

    def test_one_shift_is_not_broadcast(self):
        with pytest.raises(ValueError, match="equal length"):
            DiscreteSpectrum.from_delta_t([0.5, 0.7], None, [1.0])

    @given(
        sigma=st.floats(0.1, 5.0),
        eta=st.floats(1e-6, 1e6),
    )
    def test_round_trip(self, sigma, eta):
        dt = DiscreteSpectrum([sigma], etas=[eta]).delta_ts
        back = DiscreteSpectrum.from_delta_t([sigma], delta_ts=dt)
        assert back.etas[0] == pytest.approx(eta, rel=1e-12)
        assert back.delta_ts[0] == pytest.approx(dt[0], rel=1e-12, abs=1e-12)


class TestEvolve:
    def test_imaginary_is_phase_rotation(self):
        s = DiscreteSpectrum([0.5], etas=[2.0], phis=[0.3])
        out = evolve(s, 1.7)
        assert out.etas[0] == pytest.approx(2.0)
        # -4j lam^2 z = +j z for sigma = 0.5
        assert out.phis[0] == pytest.approx(0.3 + 1.7)

    def test_magnitude_growth_off_axis(self):
        s = DiscreteSpectrum([0.5], [0.5], [1.0], [0.0])
        out = evolve(s, 1.0)
        assert out.etas[0] == pytest.approx(math.e**2, rel=1e-12)

    def test_group_property(self, rng):
        from conftest import random_spectrum

        for _ in range(20):
            s = random_spectrum(rng)
            z1, z2 = rng.uniform(-2, 2, 2)
            a = evolve(s, z1 + z2)
            b = evolve(evolve(s, z1), z2)
            assert np.allclose(a.etas, b.etas, rtol=1e-12)
            dphi = np.angle(np.exp(1j * (a.phis - b.phis)))
            assert np.max(np.abs(dphi)) < 1e-9

    def test_all_imaginary_keeps_eta(self, rng):
        from conftest import random_spectrum

        s = random_spectrum(rng, imaginary=True)
        out = evolve(s, 3.3)
        assert np.array_equal(out.etas, s.etas)

    def test_eta_overflow_is_an_error(self):
        s = DiscreteSpectrum([2.0], [2.0])
        with pytest.raises(OverflowError):
            evolve(s, 1e4)


class TestTransform:
    def test_time_shift_zero_is_identity(self):
        s = DiscreteSpectrum([0.7, 0.5], [0.1, -0.2], [2.0, 1.0], [0.5, 1.5])
        out = transform(s, "time_shift", 0.0)
        assert np.array_equal(out.etas, s.etas)
        assert np.array_equal(out.phis, s.phis)

    def test_time_shift_example(self):
        s = DiscreteSpectrum([0.5], etas=[1.0], phis=[0.4])
        out = transform(s, "time_shift", 2.0)
        assert out.etas[0] == pytest.approx(math.e**2, rel=1e-12)
        assert out.phis[0] == pytest.approx(0.4)  # omega = 0

    def test_time_reverse_involution(self, rng):
        from conftest import random_spectrum

        s = random_spectrum(rng, n=3)
        out = transform(transform(s, "time_reverse"), "time_reverse")
        assert np.allclose(out.etas, s.etas, rtol=1e-15)
        assert np.array_equal(out.omegas, s.omegas)

    def test_conjugate_involution_and_maps(self):
        s = DiscreteSpectrum([0.5], [0.3], [2.0], [1.0])
        out = transform(s, "conjugate")
        assert out.omegas[0] == -0.3
        assert out.phis[0] == pytest.approx(2 * math.pi - 1.0)

    def test_dilate_requires_positive(self):
        s = DiscreteSpectrum([0.5])
        with pytest.raises(ValueError):
            transform(s, "dilate", -1.0)
        out = transform(s, "dilate", 2.0)
        assert out.sigmas[0] == pytest.approx(0.25)

    def test_unknown_kind(self):
        s = DiscreteSpectrum([0.5])
        with pytest.raises(ValueError):
            transform(s, "mirror")
        with pytest.raises(ValueError):
            transform(s, "time_shift")  # missing parameter


class TestDenormalize:
    def test_pure_relabeling(self):
        from soliton_tbp.darboux import SampledSignal, TimeGrid

        grid = TimeGrid(-1.0, 0.25, 8)
        sig = SampledSignal(grid, np.ones(8, dtype=complex))
        out = denormalize(sig, PhysicalScaling(beta2=-1.3e-3, gamma=1.3e-3, T0=1.0))
        assert out.grid.dt == grid.dt
        assert np.allclose(out.samples, sig.samples)

    def test_sqrt_power_scaling(self):
        from soliton_tbp.darboux import SampledSignal, TimeGrid

        grid = TimeGrid(-1.0, 0.25, 8)
        sig = SampledSignal(grid, np.full(8, 1.0 + 0j))
        # P0 = |beta2|/(gamma T0^2) = 4
        out = denormalize(sig, PhysicalScaling(beta2=-4.0, gamma=1.0, T0=1.0))
        assert np.abs(out.samples).max() == pytest.approx(2.0)

    def test_doubling_t0_quarters_p0(self):
        a = PhysicalScaling(beta2=-2e-26, gamma=1.3e-3, T0=1e-11)
        b = PhysicalScaling(beta2=-2e-26, gamma=1.3e-3, T0=2e-11)
        assert b.p0 == pytest.approx(a.p0 / 4.0)
