import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from starkladder.errors import DegeneracyError, OutOfValidityError
from starkladder.model import (LatticeParams, _tilted_band_mean, _two_level_eigen, _zak_plus,
                               bloch_dispersion, fold_interval)
from starkladder import spectra_exact as se
from starkladder import weak_field as wf

# gauge-invariant Berry-connection quadrature for (0.76, 0.76, 0.4)
ZAK_076_076_04 = 0.13723046433026978


# fixed oracle points: (j1, j2) with j2/j1 in {0.6, 0.99, 0.999, 0.9999}
ORACLE_HOPPINGS = [(1.0, 0.6), (1.0, 0.99), (0.8, 0.8 * 0.999), (1.0, 0.9999)]


def mp_quad_periodic(integrand):
    """Quadrature over [0, 2pi], split at pi where the integrands peak."""
    return mp.quad(integrand, [0, mp.pi, 2 * mp.pi])


@mp.workdps(30)
def mp_band_mean(j1, j2, dz):
    a = mp.mpf(dz) ** 2 + mp.mpf(j1) ** 2 + mp.mpf(j2) ** 2
    b = 2 * mp.mpf(j1) * mp.mpf(j2)
    return mp_quad_periodic(lambda t: mp.sqrt(a + b * mp.cos(t))) / (2 * mp.pi)


@mp.workdps(30)
def mp_d_coefficient(j1, j2):
    s, d = (mp.mpf(j1) + j2) ** 2, (mp.mpf(j1) - j2) ** 2
    integral = mp_quad_periodic(
        lambda t: (s * mp.cos(t / 2) ** 2 + d * mp.sin(t / 2) ** 2) ** mp.mpf(-2.5))
    return s * d / 32 * integral / (2 * mp.pi)


@mp.workdps(30)
def mp_gap_action(j1, j2):
    """sqrt(j1^2 + j2^2) int_0^theta0 sqrt(1 - q cosh t) dt, from its definition."""
    j1, j2 = mp.mpf(j1), mp.mpf(j2)
    norm_sq, b = j1**2 + j2**2, 2 * j1 * j2
    theta0 = mp.acosh(norm_sq / b)
    return mp.re(mp.quad(lambda t: mp.sqrt(norm_sq - b * mp.cosh(t)), [0, theta0]))


@mp.workdps(30)
def mp_zak_plus(j1, j2, delta):
    """-(1/2pi) int Im<y|dy/dtheta> for y = v/|v|, v = (delta + r, h) the
    explicit upper eigenvector of [[delta, conj(h)], [h, -delta]]."""
    j1, j2, delta = mp.mpf(j1), mp.mpf(j2), mp.mpf(delta)

    def connection(theta):
        h = j1 + j2 * mp.expj(theta)
        r = mp.sqrt(delta**2 + abs(h) ** 2)
        v = (delta + r, h)
        dv = (-j1 * j2 * mp.sin(theta) / r, 1j * j2 * mp.expj(theta))
        overlap = mp.conj(v[0]) * dv[0] + mp.conj(v[1]) * dv[1]
        return mp.im(overlap) / (abs(v[0]) ** 2 + abs(v[1]) ** 2)

    return -mp_quad_periodic(connection) / (2 * mp.pi)


def generating_matrix(params, theta):
    dz = params.delta + 0.5 * params.f
    h = params.j1 + params.j2 * np.exp(1j * theta)
    return np.array([[dz, np.conj(h)], [h, -dz]])


def instantaneous_arguments(params, theta):
    """(dz, h) of ``generating_matrix`` for ``model._two_level_eigen``."""
    return params.delta + 0.5 * params.f, params.j1 + params.j2 * np.exp(1j * theta)


class TestInstantaneousEigen:
    # model._two_level_eigen is the one eigensystem of the generating matrix;
    # its eigenvalues are -+r
    def test_diagonal_limit(self):
        p = LatticeParams(0.0, 0.0, 0.3, 0.2)
        r, y_minus, y_plus = _two_level_eigen(*instantaneous_arguments(p, 1.1))
        assert r == pytest.approx(0.4, abs=1e-15)
        assert abs(y_plus[0]) == pytest.approx(1.0, abs=1e-15)
        assert abs(y_minus[1]) == pytest.approx(1.0, abs=1e-15)

    def test_matches_bloch_dispersion_at_zero_field(self):
        p = LatticeParams(1.0, 0.6, 0.0, 0.0)
        r, _, _ = _two_level_eigen(*instantaneous_arguments(p, 0.0))
        assert r == pytest.approx(1.6, abs=1e-14)

    def test_eigen_residual_random_parameters(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = LatticeParams(rng.uniform(0.2, 1.2), rng.uniform(0.2, 1.2),
                              rng.uniform(0, 0.5), rng.uniform(0, 0.5))
            theta = rng.uniform(0, 2 * math.pi)
            r, y_minus, y_plus = _two_level_eigen(*instantaneous_arguments(p, theta))
            g = generating_matrix(p, theta)
            assert np.linalg.norm(g @ y_plus - r * y_plus) < 1e-12
            assert np.linalg.norm(g @ y_minus + r * y_minus) < 1e-12
            assert abs(np.vdot(y_plus, y_minus)) < 1e-13

    def test_theta_is_twice_kappa_at_zero_field(self):
        p = LatticeParams(0.9, 0.4, 0.2, 0.0)
        for theta in np.linspace(0, 2 * math.pi, 13):
            r, _, _ = _two_level_eigen(*instantaneous_arguments(p, theta))
            d_minus, d_plus = bloch_dispersion(p, theta / 2)
            assert r == pytest.approx(d_plus, abs=1e-13)
            assert -r == pytest.approx(d_minus, abs=1e-13)


class TestAdiabaticConstants:
    def test_trivial_dimerization_zak_zero(self):
        plus, minus = wf.adiabatic_constants(LatticeParams(1.0, 0.6, 0.0, 0.02))
        assert abs(plus.zak) < 1e-8
        assert abs(minus.zak) < 1e-8

    def test_topological_dimerization_zak_half(self):
        plus, minus = wf.adiabatic_constants(LatticeParams(0.6, 1.0, 0.0, 0.02))
        assert min(abs(plus.zak - 0.5), abs(plus.zak + 0.5)) < 1e-8
        assert min(abs(minus.zak - 0.5), abs(minus.zak + 0.5)) < 1e-8

    def test_generic_lattice_zak_not_quantized(self):
        plus, minus = wf.adiabatic_constants(LatticeParams(0.76, 0.76, 0.4, 0.05))
        assert plus.zak == pytest.approx(-ZAK_076_076_04, abs=1e-8)
        assert minus.zak == pytest.approx(ZAK_076_076_04, abs=1e-8)
        for value in (plus.zak, minus.zak):
            assert min(abs(value), abs(abs(value) - 0.5)) > 1e-3

    def test_mirror_mean_energies(self):
        plus, minus = wf.adiabatic_constants(LatticeParams(0.9, 0.5, 0.1, 0.05))
        assert plus.c_const == pytest.approx(-minus.c_const, abs=1e-14)

    def test_mean_energy_approaches_band_mean(self):
        p0 = LatticeParams(0.9, 0.5, 0.4, 0.0)
        c0 = _tilted_band_mean(p0.with_field(0.0))
        gaps = []
        for f in (0.1, 0.05, 0.025):
            plus, _ = wf.adiabatic_constants(p0.with_field(f))
            gaps.append(plus.c_const - c0)
        assert gaps[0] > gaps[1] > gaps[2] > 0
        # linear-in-F convergence from the delta + F/2 shift
        assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.1)

    def test_gauge_invariance_of_berry_product(self):
        p = LatticeParams(0.76, 0.76, 0.4, 0.0)
        grid = 4096
        theta = np.linspace(0, 2 * math.pi, grid, endpoint=False)
        h = p.j1 + p.j2 * np.exp(1j * theta)
        r = np.sqrt(p.delta**2 + np.abs(h) ** 2)
        top = p.delta + r
        norm = np.sqrt(top**2 + np.abs(h) ** 2)
        y = np.stack([top / norm, h / norm])
        rng = np.random.default_rng(3)
        gauge = np.exp(1j * rng.uniform(0, 2 * math.pi, grid))
        for vectors in (y, y * gauge):
            overlaps = np.sum(vectors.conj() * np.roll(vectors, -1, axis=1), axis=0)
            phase = -np.angle(np.prod(overlaps / np.abs(overlaps))) / (2 * math.pi)
            assert phase == pytest.approx(-ZAK_076_076_04, abs=1e-6)

    def test_topological_robustness(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            j1 = 0.6 * (1 + rng.uniform(-0.1, 0.1))
            j2 = 1.0 * (1 + rng.uniform(-0.1, 0.1))
            plus, _ = wf.adiabatic_constants(LatticeParams(j1, j2, 0.0, 0.02))
            assert min(abs(plus.zak - 0.5), abs(plus.zak + 0.5)) < 1e-8


    def test_degenerate_bands_raise(self):
        with pytest.raises(DegeneracyError):
            wf.adiabatic_constants(LatticeParams(0.76, 0.76, 0.0, 0.05))


class TestClosedFormOracles:
    """Each closed form against 30-digit mpmath quadrature of its definition."""

    @pytest.mark.parametrize("j1,j2", ORACLE_HOPPINGS)
    @pytest.mark.parametrize("delta", [0.3, -0.2])
    def test_band_mean_at_finite_field(self, j1, j2, delta):
        p = LatticeParams(j1, j2, delta, 0.15)
        ref = mp_band_mean(j1, j2, delta + 0.075)
        assert abs(_tilted_band_mean(p) - ref) < 1e-14 * ref

    @pytest.mark.parametrize("j1,j2", ORACLE_HOPPINGS)
    def test_d_coefficient(self, j1, j2):
        ref = mp_d_coefficient(j1, j2)
        assert abs(wf.d_coefficient(LatticeParams(j1, j2, 0.0, 0.1)) - ref) < 1e-14 * ref

    @pytest.mark.parametrize("j1,j2", ORACLE_HOPPINGS)
    def test_gap_action(self, j1, j2):
        ref = mp_gap_action(j1, j2)
        assert abs(wf._gap_action(j1, j2) - ref) < 1e-14 * ref

    @pytest.mark.parametrize("j1,j2", ORACLE_HOPPINGS + [(0.6, 1.0), (0.9999, 1.0)])
    @pytest.mark.parametrize("delta", [0.3, -0.2])
    def test_zak_matches_berry_connection_integral(self, j1, j2, delta):
        ref = float(mp_zak_plus(j1, j2, delta))
        assert abs(fold_interval(_zak_plus(LatticeParams(j1, j2, delta)) - ref, 1.0)) < 1e-13


hopping = st.floats(0.0, 2.0)
stagger = st.floats(-1.5, 1.5).filter(lambda d: abs(d) > 1e-3)


def circular_gap(value):
    return abs(fold_interval(value, 1.0))


class TestZakProperties:
    @settings(max_examples=200, deadline=None)
    @given(hopping, hopping, stagger)
    @example(0.76, 0.76, -0.4)
    @example(0.0, 0.0, -0.3)
    def test_odd_in_stagger(self, j1, j2, delta):
        z = _zak_plus(LatticeParams(j1, j2, delta))
        assert circular_gap(z + _zak_plus(LatticeParams(j1, j2, -delta))) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(hopping, hopping, stagger)
    def test_bands_sum_to_zero(self, j1, j2, delta):
        plus, minus = wf.adiabatic_constants(LatticeParams(j1, j2, delta, 0.05))
        assert circular_gap(plus.zak + minus.zak) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(hopping, hopping)
    @example(1.0, 1.0 + 1e-12)
    @example(1.0 + 1e-12, 1.0)
    @example(0.0, 5e-324)
    def test_quantized_without_stagger(self, j1, j2):
        p = LatticeParams(j1, j2, 0.0)
        if abs(j1 - j2) <= 1e-13 * (j1 + j2):
            with pytest.raises(DegeneracyError):
                _zak_plus(p)
        else:
            assert _zak_plus(p) == (0.5 if j2 > j1 else 0.0)

    @pytest.mark.parametrize("delta", [0.4, -0.4, 1e-3, -1e-3])
    def test_continuous_through_equal_hoppings(self, delta):
        # the j1 = j2 winding sign(delta)/2 must join both sides
        z = _zak_plus(LatticeParams(0.76, 0.76, delta))
        for j2 in (0.76 - 1e-12, 0.76 + 1e-12):
            assert circular_gap(_zak_plus(LatticeParams(0.76, j2, delta)) - z) < 1e-8


class TestAdiabaticSpectrum:
    def test_matches_exact_at_weak_field(self):
        p = LatticeParams(1.0, 0.6, 0.0, 0.02)
        exact = se.ws_spectrum_truncated(p, window=(-1.5, 1.5))
        adiab = wf.adiabatic_spectrum(p, range(-80, 81), order=1)
        for energy, conv in zip(exact.energies, exact.converged):
            if conv:
                assert np.min(np.abs(adiab.energies - energy)) < 5e-3

    def test_second_order_reduces_residual(self):
        p = LatticeParams(1.0, 0.6, 0.0, 0.02)
        exact = se.ws_spectrum_truncated(p, window=(-1.0, 1.0))

        def residual(order):
            spec = wf.adiabatic_spectrum(p, range(-60, 61), order=order)
            return max(np.min(np.abs(spec.energies - e)) for e in exact.energies)

        assert residual(2) < residual(1)

    def test_second_order_requires_ssh(self):
        with pytest.raises(ValueError):
            wf.adiabatic_spectrum(LatticeParams(0.76, 0.76, 0.4, 0.05), order=2)

    def test_dimerization_shifts_ladder_by_half_step(self):
        n_range = range(-2, 3)
        a = wf.adiabatic_spectrum(LatticeParams(1.0, 0.6, 0.0, 0.02), n_range)
        b = wf.adiabatic_spectrum(LatticeParams(0.6, 1.0, 0.0, 0.02), n_range)
        b_plus, a_plus = b.energies[b.branches == 1], a.energies[a.branches == 1]
        shift = np.min(np.abs(b_plus[:, None] - a_plus[None, :] - 0.02))
        assert shift < 1e-12


class TestDCoefficient:
    def test_vanishes_for_plain_lattice(self):
        assert wf.d_coefficient(LatticeParams(0.76, 0.76, 0.0, 0.1)) == 0.0

    def test_positive_and_swap_symmetric(self):
        d1 = wf.d_coefficient(LatticeParams(1.0, 0.6, 0.0, 0.1))
        d2 = wf.d_coefficient(LatticeParams(0.6, 1.0, 0.0, 0.1))
        assert d1 > 0
        assert d1 == pytest.approx(d2, rel=1e-12)


class TestGapEstimate:
    def test_equal_hoppings_limit(self):
        # touching bands have no gap to estimate; just off them the action
        # vanishes and the ratio reaches its S = 0 limit 2/pi
        with pytest.raises(DegeneracyError):
            wf.gap_estimate(LatticeParams(0.7, 0.7, 0.0, 0.2))
        assert wf._gap_action(0.7, 0.7) == 0.0
        est = wf.gap_estimate(LatticeParams(0.7, 0.7 * (1.0 + 1e-9), 0.0, 0.2))
        assert est.theta0 < 1e-8
        assert est.ratio == pytest.approx(2.0 / math.pi, abs=1e-15)

    def test_turning_point(self):
        est = wf.gap_estimate(LatticeParams(1.0, 0.6, 0.0, 0.1))
        assert math.cosh(est.theta0) == pytest.approx((1 + 0.36) / 1.2, abs=1e-12)

    def test_monotonicity_in_band_gap(self):
        wide_gap = wf.gap_estimate(LatticeParams(1.0, 0.6, 0.0, 0.1))
        narrow_gap = wf.gap_estimate(LatticeParams(1.0, 0.8, 0.0, 0.1))
        assert narrow_gap.ratio > wide_gap.ratio

    @pytest.mark.parametrize("j1,j2,windows", [
        (1.0, 0.6, [(12.72, 12.82), (13.64, 13.74)]),
        (1.0, 0.4, [(7.61, 7.71), (8.57, 8.67)]),
    ])
    def test_matches_exact_crossings(self, j1, j2, windows):
        # two adjacent exact crossings, each found in a narrow 1/F window
        params = LatticeParams(j1, j2, 0.0, 1.0)
        z, exact, estimate = [], [], []
        for window in windows:
            (crossing,) = se.find_avoided_crossings(params, window, resolution=100)
            z.append(crossing.inv_f_star)
            exact.append(crossing.gap)
            est = wf.gap_estimate(params.with_field(1.0 / crossing.inv_f_star))
            estimate.append(est.ratio / crossing.inv_f_star)
        for zi, e, a in zip(z, exact, estimate):
            assert abs(e / a - 1.0) < 1e-2
        # local exponent -d ln(gap/F)/d(1/F) from the two crossings
        def exponent(gaps):
            return -(math.log(gaps[1] * z[1]) - math.log(gaps[0] * z[0])) / (z[1] - z[0])
        assert abs(exponent(exact) - exponent(estimate)) < 1e-3

    @pytest.mark.parametrize("j2", [1e-320, 5e-324])
    def test_overflowing_turning_point_is_out_of_validity(self, j2):
        # q = 2 j2 is subnormal: theta0 = acosh(1/q) is inf and the action's
        # n = (j1 - j2)^2 / (4 j1 j2) too, where the action would read 0 and
        # the ratio the j1 = j2 value 2/pi
        with pytest.raises(OutOfValidityError, match="theta0.*j2/j1"):
            wf.gap_estimate(LatticeParams(1.0, j2, 0.0, 1.0))

    def test_requires_ssh_lattice(self):
        with pytest.raises(ValueError):
            wf.gap_estimate(LatticeParams(1.0, 0.6, 0.1, 0.1))
        with pytest.raises(ValueError):
            wf.gap_estimate(LatticeParams(1.0, 0.0, 0.0, 0.1))
