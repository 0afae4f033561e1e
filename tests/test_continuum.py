import math

import numpy as np
import pytest

from starkladder import continuum as ct

PAPER_POTENTIAL = ct.ContinuumPotential(v0=-0.117, v1=-0.15, v2=0.3)


class TestBlochBands:
    def test_free_particle_parabolas(self):
        pot = ct.ContinuumPotential()
        k = 0.7
        energies, converged = ct.continuum_bloch_bands(pot, k, cutoff=21, n_bands=5)
        m = np.arange(-10, 11)
        expected = np.sort(ct._KINETIC * (k + 2 * np.pi * m) ** 2)[:5]
        assert converged
        assert np.allclose(energies, expected, atol=1e-12)

    def test_offset_shifts_bands_rigidly(self):
        base = ct.ContinuumPotential(v0=0.0, v1=-0.15, v2=0.3)
        shifted = ct.ContinuumPotential(v0=0.37, v1=-0.15, v2=0.3)
        e0, _ = ct.continuum_bloch_bands(base, 0.4)
        e1, _ = ct.continuum_bloch_bands(shifted, 0.4)
        assert np.max(np.abs(e1 - e0 - 0.37)) < 1e-12

    def test_k_reflection_symmetry_for_real_potential(self):
        e_plus, _ = ct.continuum_bloch_bands(PAPER_POTENTIAL, 0.9)
        e_minus, _ = ct.continuum_bloch_bands(PAPER_POTENTIAL, -0.9)
        assert np.max(np.abs(e_plus - e_minus)) < 1e-10

    def test_variational_monotonicity_in_cutoff(self):
        previous = None
        for cutoff in (21, 31, 41):
            energies, _ = ct.continuum_bloch_bands(PAPER_POTENTIAL, 0.3,
                                                   cutoff=cutoff, n_bands=4)
            if previous is not None:
                assert np.all(energies <= previous + 1e-14)
            previous = energies

    def test_weak_potential_gaps_match_perturbation_theory(self):
        v1 = v2 = 0.01
        pot = ct.ContinuumPotential(v0=0.0, v1=v1, v2=v2)
        # zone edge: degenerate pair at (2m-1)^2/16 for m = 0, 1; V1 couples
        # them directly, the two V1*V2 paths through 9/16 interfere at -1/2
        edge, _ = ct.continuum_bloch_bands(pot, -np.pi, cutoff=31, n_bands=3)
        predicted_edge = v1 - v1 * v2 / 0.5
        assert edge[1] - edge[0] == pytest.approx(predicted_edge, abs=2e-5)
        # zone center: m = +-1 pair at 1/4 coupled by V2 plus the V1^2 path
        # through m = 0
        center, _ = ct.continuum_bloch_bands(pot, 0.0, cutoff=31, n_bands=3)
        predicted_center = v2 + v1**2 / 0.5
        assert center[2] - center[1] == pytest.approx(predicted_center, abs=2e-5)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            ct.continuum_bloch_bands(PAPER_POTENTIAL, 0.0, cutoff=20)

    @pytest.mark.parametrize("n_bands", [0, 22])
    def test_band_count_validation(self, n_bands):
        with pytest.raises(ValueError, match="n_bands"):
            ct.continuum_bloch_bands(PAPER_POTENTIAL, 0.0, cutoff=21, n_bands=n_bands)

    @pytest.mark.parametrize("field,value", [("v0", math.nan), ("v1", math.inf),
                                             ("v2", -math.inf), ("phi1", math.inf),
                                             ("phi2", math.nan)])
    def test_potential_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            ct.ContinuumPotential(**{field: value})


class TestTightBindingFit:
    def synthetic_bands(self, j1, j2, delta, offset=0.13, nk=64):
        k = np.linspace(-np.pi, np.pi, nk, endpoint=False)
        root = np.sqrt(delta**2 + j1**2 + j2**2 + 2 * j1 * j2 * np.cos(k))
        energies = np.stack([offset - root, offset + root], axis=1)
        return ct.ContinuumBands(k_grid=k, energies=energies, converged=True)

    def test_roundtrip_on_ssh_bands(self):
        fit = ct.fit_tight_binding(self.synthetic_bands(1.0, 0.6, 0.0))
        assert fit.j1 == pytest.approx(1.0, abs=1e-8)
        assert fit.j2 == pytest.approx(0.6, abs=1e-8)
        assert fit.delta == 0.0
        assert fit.offset == pytest.approx(0.13, abs=1e-10)
        assert fit.residual < 1e-10
        assert not fit.poor_fit

    def test_staggered_bands_reduce_to_equivalent_hoppings(self):
        # delta only enters the dispersion through delta^2 + j1^2 + j2^2 and
        # j1 j2, so the fit returns the delta = 0 representative with the
        # same invariants and an exact band match
        j1, j2, delta = 1.0, 0.6, 0.2
        bands = self.synthetic_bands(j1, j2, delta)
        fit = ct.fit_tight_binding(bands)
        assert fit.residual < 1e-10
        assert fit.j1 * fit.j2 == pytest.approx(j1 * j2, abs=1e-8)
        assert fit.j1**2 + fit.j2**2 == pytest.approx(
            delta**2 + j1**2 + j2**2, abs=1e-8)

    @pytest.mark.parametrize("k", [[-math.pi], [-0.5, 0.5], []])
    def test_one_value_of_cos_k_is_underdetermined(self, k):
        # two energies at one cos k cannot fix three parameters
        k = np.asarray(k, dtype=float)
        energies = np.stack([-np.ones(k.size), np.ones(k.size)], axis=1)
        with pytest.raises(ValueError, match="cos k"):
            ct.fit_tight_binding(ct.ContinuumBands(k, energies, True))

    def test_two_values_of_cos_k_fix_the_fit(self):
        fit = ct.fit_tight_binding(self.synthetic_bands(1.0, 0.6, 0.0, nk=2))
        assert (fit.j1, fit.j2) == (pytest.approx(1.0, abs=1e-8), pytest.approx(0.6, abs=1e-8))

    def test_paper_lattice_is_tight_binding_like(self):
        k = np.linspace(-np.pi, np.pi, 64, endpoint=False)
        bands = ct.band_structure(PAPER_POTENTIAL, k, cutoff=41, n_bands=2)
        assert bands.converged
        fit = ct.fit_tight_binding(bands)
        assert fit.j2 < fit.j1
        assert fit.delta < 1e-6
        assert not fit.poor_fit
