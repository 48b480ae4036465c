import math

import numpy as np
import pytest

from soliton_tbp.darboux import auto_grid, synthesize, union_grid
from soliton_tbp.errors import AliasingWarning, InvalidParameterError
from soliton_tbp.propagation import (
    PropagationPlan,
    propagate,
    propagate_with_snapshots,
)
from soliton_tbp.spectrum import DiscreteSpectrum, evolve


def _grid_for(spectrum, z):
    return union_grid([auto_grid(spectrum, 1e-4), auto_grid(evolve(spectrum, z), 1e-4)])


class TestPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            PropagationPlan(1.0, 0)
        assert PropagationPlan.with_dz(2.0, 1e-3).n_steps == 2000
        for dz in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="dz"):
                PropagationPlan.with_dz(1.0, dz)

    def test_negative_distance_allowed(self):
        assert PropagationPlan.with_dz(-1.0, 1e-3).dz < 0


class TestPropagate:
    def test_soliton_keeps_shape(self):
        s = DiscreteSpectrum([0.5])
        sig = synthesize(s, auto_grid(s, 1e-4))
        out = propagate(sig, PropagationPlan.with_dz(1.0, 1e-3))
        assert np.abs(np.abs(out.samples) - np.abs(sig.samples)).max() < 1e-6

    def test_energy_conserved_per_step(self):
        s = DiscreteSpectrum([1.0, 0.5])
        sig = synthesize(s, auto_grid(s, 1e-4))
        out = propagate(sig, PropagationPlan(z_total=0.5, n_steps=1))
        assert out.energy == pytest.approx(sig.energy, rel=1e-10)

    def test_matches_spectral_evolution_n2(self):
        # fully overlapped breather: the splitting constant is ~4e3, so the
        # step-size study puts dz = 1.25e-4 for the 1e-4 target
        s = DiscreteSpectrum([1.0, 0.5])
        grid = _grid_for(s, 2.0)
        sig = synthesize(s, grid)
        out = propagate(sig, PropagationPlan.with_dz(2.0, 1.25e-4))
        oracle = synthesize(evolve(s, 2.0), grid)
        assert np.abs(out.samples - oracle.samples).max() < 1e-4

    def test_second_order_convergence(self):
        s = DiscreteSpectrum([1.0, 0.5], [0.2, -0.3], [1.5, 0.8])
        grid = _grid_for(s, 2.0)
        sig = synthesize(s, grid)
        oracle = synthesize(evolve(s, 2.0), grid)
        errs = []
        for n in (50, 100, 200):
            out = propagate(sig, PropagationPlan(2.0, n))
            errs.append(np.abs(out.samples - oracle.samples).max())
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_back_propagation_inverts(self):
        s = DiscreteSpectrum([0.8, 0.4])
        grid = _grid_for(s, 1.0)
        sig = synthesize(s, grid)
        there = propagate(sig, PropagationPlan.with_dz(1.0, 1e-3))
        back = propagate(there, PropagationPlan.with_dz(-1.0, 1e-3))
        assert np.abs(back.samples - sig.samples).max() < 1e-9

    def test_aliasing_warns(self):
        from soliton_tbp.darboux import SampledSignal, TimeGrid

        grid = TimeGrid(-8.0, 16.0 / 256, 256)
        t = grid.times
        # strong chirp pushes energy to the Nyquist edge
        samples = np.exp(-(t**2) / 4.0) * np.exp(1j * 2.0 * np.pi * t**2)
        with pytest.warns(AliasingWarning):
            propagate(SampledSignal(grid, samples), PropagationPlan(0.1, 10))

    def test_collision_at_half_link(self):
        # the mirrored pair drifts together, collides near z = L*, separates
        s = DiscreteSpectrum.from_delta_t([0.5, 0.5], [0.075, -0.075], [-0.9, 0.9])
        l_star = 6.0
        grid = union_grid(
            [auto_grid(evolve(s, z), 1e-4) for z in (0.0, l_star, 2 * l_star)]
        )
        sig = synthesize(s, grid)

        def centroid_separation(signal):
            w = np.abs(signal.samples) ** 2
            t = signal.grid.times
            center = (t * w).sum() / w.sum()
            left = t <= center
            c_l = (t[left] * w[left]).sum() / w[left].sum()
            c_r = (t[~left] * w[~left]).sum() / w[~left].sum()
            return c_r - c_l

        # the shift precompensation mirrors over L*, so the components meet
        # at mid-link; the separation dips there and grows past L*
        half = propagate(sig, PropagationPlan.with_dz(l_star / 2, 2e-3))
        far = propagate(half, PropagationPlan.with_dz(1.5 * l_star, 2e-3))
        sep = [centroid_separation(x) for x in (sig, half, far)]
        assert sep[1] < sep[0]
        assert sep[1] < sep[2]


class TestSnapshots:
    def test_snapshot_count_and_final_state(self):
        s = DiscreteSpectrum([0.5])
        sig = synthesize(s, auto_grid(s, 1e-4))
        shots = propagate_with_snapshots(sig, PropagationPlan(1.0, 100), 4)
        assert len(shots) == 5
        assert shots[0][0] == 0.0 and shots[-1][0] == 1.0
        direct = propagate(sig, PropagationPlan(1.0, 100))
        assert np.abs(shots[-1][1].samples - direct.samples).max() < 1e-8

    def test_segments_take_the_plans_steps(self):
        s = DiscreteSpectrum([0.5])
        sig = synthesize(s, auto_grid(s, 1e-4))
        plan = PropagationPlan(1.0, 1000)
        shots = propagate_with_snapshots(sig, plan, 3)
        assert shots[-1][0] == plan.z_total
        direct = propagate(sig, plan)
        assert np.abs(shots[-1][1].samples - direct.samples).max() < 1e-12
        with pytest.raises(InvalidParameterError, match="n_snapshots"):
            propagate_with_snapshots(sig, PropagationPlan(1.0, 5), 7)
