import cmath
import math

import numpy as np
import pytest
from scipy import special

from starkladder.model import LatticeParams, fold_interval
from starkladder import spectra_exact as se
from starkladder import strong_field as sf

# 1e6-point Riemann sum of int_0^pi sin(4 sin x) dx
OSC_PI_4 = 0.4241607919949325


class TestOscIntegral:
    def test_empty_interval(self):
        assert sf.osc_integral(0.0, 5.0) == 0.0

    def test_zero_argument(self):
        assert sf.osc_integral(2.0, 0.0) == 0.0

    def test_riemann_oracle(self):
        assert sf.osc_integral(math.pi, 4.0) == pytest.approx(OSC_PI_4, abs=1e-10)

    def test_struve_closed_form_at_full_period(self):
        # I(pi, z) = pi H0(z); the quadrature node count grows with z
        for z in np.linspace(0.0, 400.0, 801):
            exact = math.pi * special.struve(0, z)
            assert abs(sf.osc_integral(math.pi, float(z)) - exact) < 1e-12

    @pytest.mark.parametrize("z", [0.5, 3.0, 17.3, 60.8, 100.0])
    def test_jacobi_anger_series_at_interior_times(self, z):
        # I(t, z) = 2 sum_{k odd} J_k(z) (1 - cos kt) / k; terms past k = z + 80
        # are below J_k(z) ~ (ez/2k)^k, far under double precision
        k = np.arange(1, int(z + 80) + 1, 2)
        for t in np.linspace(0.0, math.pi, 15)[1:-1]:
            series = 2.0 * np.sum(special.jv(k, z) * (1.0 - np.cos(k * t)) / k)
            assert abs(sf.osc_integral(float(t), z) - series) < 1e-12

    def test_node_cache_holds_over_a_sweep(self):
        # node counts are powers of two, so a sweep reuses a handful of transforms
        sf._chebyshev_transform.cache_clear()
        for z in np.linspace(0.0, 400.0, 801):
            sf.osc_integral(math.pi, float(z))
        assert sf._chebyshev_transform.cache_info().misses <= 4

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.osc_integral(4.0, 1.0)
        with pytest.raises(ValueError):
            sf.osc_integral(1.0, -1.0)


def ode_propagator(eps, omega, n=60000):
    """RK4 for the driven two-level equation i dY/dt = (eps sz + om cos t sx) Y."""
    h = math.pi / n
    u = np.eye(2, dtype=complex)

    def gen(t):
        oc = omega * math.cos(t)
        return np.array([[-1j * eps, -1j * oc], [-1j * oc, 1j * eps]])

    for k in range(n):
        t = k * h
        k1 = gen(t) @ u
        k2 = gen(t + h / 2) @ (u + h / 2 * k1)
        k3 = gen(t + h / 2) @ (u + h / 2 * k2)
        k4 = gen(t + h) @ (u + h * k3)
        u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


class TestWuYangPropagator:
    def test_identity_at_zero_epsilon(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            omega = rng.uniform(0.0, 8.0)
            t = rng.uniform(0.0, math.pi)
            u = sf.wu_yang_propagator(0.0, omega, t)
            assert np.max(np.abs(u - np.eye(2))) < 1e-12

    def test_drive_free_limit_is_pure_rotation(self):
        eps, t = 0.31, 2.2
        phases = sf.WuYangPhaseSet.evaluate(eps, 0.0, t)
        assert phases.tau == pytest.approx(0.0, abs=1e-12)
        assert phases.beta == pytest.approx(eps * t, abs=1e-10)
        u = sf.wu_yang_propagator(eps, 0.0, t)
        expected = np.diag([cmath.exp(1j * eps * t), cmath.exp(-1j * eps * t)])
        assert np.max(np.abs(u - expected)) < 1e-10

    def test_phases_vanish_at_time_zero(self):
        phases = sf.WuYangPhaseSet.evaluate(0.4, 2.0, 0.0)
        assert (phases.tau, phases.beta, phases.phi, phases.psi) == (0, 0, 0, 0)

    def test_exactly_unitary(self):
        u = sf.wu_yang_propagator(0.3, 1.7, 2.0)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    def test_matches_two_level_ode_to_third_order(self):
        omega = 1.5
        errors = []
        for eps in (0.02, 0.04):
            u_wy = sf.wu_yang_propagator(eps, omega, math.pi)
            u_ode = ode_propagator(eps, omega)
            errors.append(np.max(np.abs(u_wy - u_ode.conj())))
        assert errors[0] < 10.0 * 0.02**3
        ratio = errors[1] / errors[0]
        assert 5.0 < ratio < 11.0  # cubic scaling in epsilon


class TestSpectra:
    def test_wu_yang_trivial_ladder(self):
        p = LatticeParams(0.76, 0.76, 0.0, 0.5)
        spec = sf.spectrum_wu_yang(p, range(-2, 3))
        steps = spec.energies / p.f - 0.5
        assert np.max(np.abs(steps - np.rint(steps))) < 1e-10

    def test_requires_equal_hoppings(self):
        with pytest.raises(ValueError):
            sf.spectrum_wu_yang(LatticeParams(1.0, 0.6, 0.2, 0.5))
        with pytest.raises(ValueError):
            sf.spectrum_expansion(LatticeParams(1.0, 0.6, 0.2, 0.5))

    def test_expansion_trivial_ladder(self):
        p = LatticeParams(0.76, 0.76, 0.0, 0.5)
        for order in (1, 3):
            spec = sf.spectrum_expansion(p, range(-2, 3), order=order)
            steps = spec.energies / p.f - 0.5
            assert np.max(np.abs(steps - np.rint(steps))) < 1e-14

    def test_order_validation(self):
        with pytest.raises(ValueError):
            sf.spectrum_expansion(LatticeParams(0.76, 0.76, 0.2, 0.5), order=2)

    def test_pi_coefficients_against_exact_spectrum_fit(self):
        f = 1.6
        base = LatticeParams(0.76, 0.76, 0.0, f)
        pi1, pi3 = sf.pi_coefficients(base)
        assert pi1 == pytest.approx(f * special.j0(4 * 0.76 / f), abs=1e-14)
        eps_grid = np.array([0.01, 0.02, 0.03, 0.04, 0.05])
        shifts = []
        for eps in eps_grid:
            p = LatticeParams(0.76, 0.76, eps * f, f)
            _, o_plus = se.floquet_branch_offsets(p, se.monodromy(p).eigenphase)
            shifts.append(o_plus - 0.5 * f)
        design = np.vstack([eps_grid, eps_grid**3]).T
        coef, *_ = np.linalg.lstsq(design, np.array(shifts), rcond=None)
        assert abs(coef[0] - pi1) / abs(pi1) < 0.01
        assert abs(coef[1] - pi3) / abs(pi3) < 0.01

    def test_third_order_beats_first_order(self):
        p = LatticeParams(0.76, 0.76, 0.2, 1.0)
        _, exact = se.floquet_branch_offsets(p, se.monodromy(p).eigenphase)
        dev1 = abs(sf.spectrum_expansion(p, range(-1, 2), order=1).branch_offsets()[1] - exact)
        dev3 = abs(sf.spectrum_expansion(p, range(-1, 2), order=3).branch_offsets()[1] - exact)
        assert dev3 < dev1

    def test_wu_yang_agrees_with_expansion_at_small_eps(self):
        p = LatticeParams(0.76, 0.76, 0.02, 1.0)  # eps = 0.02
        wy = sf.spectrum_wu_yang(p, range(-1, 2)).branch_offsets()[1]
        e3 = sf.spectrum_expansion(p, range(-1, 2), order=3).branch_offsets()[1]
        assert abs(wy - e3) < 50 * 0.02**5


class TestAveragedCoupling:
    def test_plain_lattice_matches_first_order_coefficient(self):
        p = LatticeParams(0.76, 0.76, 0.3, 1.4)
        f_bar = sf.averaged_coupling(p)
        pi1, _ = sf.pi_coefficients(p)
        assert f_bar == pytest.approx(p.epsilon2 * pi1 / p.f, abs=1e-15)

    def test_vanishes_for_simple_lattice(self):
        assert sf.averaged_coupling(LatticeParams(0.7, 0.7, 0.0, 1.0)) == 0.0

    def test_dimerized_value_against_bessel(self):
        # labeling fixed against the exact spectrum: intracell-dominant (1, 0.6)
        # carries +(j1 - j2)/F * J1(2(j1+j2)/F)
        p = LatticeParams(1.0, 0.6, 0.0, 1.0)
        assert sf.averaged_coupling(p) == pytest.approx(
            0.4 * special.j1(3.2), abs=1e-14)

    def test_bm_equals_first_order_expansion_for_equal_hoppings(self):
        p = LatticeParams(0.76, 0.76, 0.33, 2.2)
        bm = sf.spectrum_bm(p, range(-2, 3))
        e1 = sf.spectrum_expansion(p, range(-2, 3), order=1)
        assert np.max(np.abs(bm.energies - e1.energies)) < 1e-12

    def test_bm_tracks_exact_at_strong_field(self):
        p = LatticeParams(1.0, 0.6, 0.0, 2.5)  # 1/F = 0.4
        _, exact = se.floquet_branch_offsets(p, se.monodromy(p).eigenphase)
        bm = sf.spectrum_bm(p, range(-1, 2)).branch_offsets()[1]
        assert abs(fold_interval(bm - exact, 2 * p.f)) < 1e-3
