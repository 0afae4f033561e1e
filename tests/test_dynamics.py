import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal

from starkladder.errors import EdgeContaminationError
from starkladder.model import LatticeParams, build_chain
from starkladder import dynamics as dyn
from starkladder import spectra_exact as se


def spectral_propagate(params, psi0, t):
    chain = build_chain(params, psi0.size)
    values, vectors = eigh_tridiagonal(chain.diagonal, chain.off_diagonal)
    return vectors @ (np.exp(-1j * values * t) * (vectors.conj().T @ psi0))


def two_level_upper_mean(params, f, n_bloch_periods=20, kappa_grid=16,
                         steps_per_period=1024):
    """Upper-band population averaged over time and kappa, from kappa space.

    Each lower-band Bloch state evolves under the 2x2 cell-gauge equation
    i dc/dt = H(kappa0 - F t) c, where the tilt across the cell (A at -1/2,
    B at +1/2) turns the stagger into delta + F/2, by midpoint
    exponentials over one Bloch period that are then repeated; the upper band
    is the zero-field eigenvector at the drifting kappa. No chain, no
    tridiagonal eigensolver, no band projector.
    """
    def bloch_h(kappa, stagger):
        h = params.j1 + params.j2 * np.exp(2j * kappa)
        m = np.empty(kappa.shape + (2, 2), dtype=complex)
        m[..., 0, 0] = -stagger
        m[..., 1, 1] = stagger
        m[..., 0, 1] = np.conj(h)
        m[..., 1, 0] = h
        return m

    kappa0 = -np.pi / 2 + np.pi * (np.arange(kappa_grid) + 0.5) / kappa_grid
    t_b = math.pi / f
    dt = t_b / steps_per_period
    t = dt * np.arange(steps_per_period + 1)
    _, bands = np.linalg.eigh(bloch_h(kappa0 - f * t[:, None], params.delta))
    h_mid = bloch_h(kappa0 - f * (t[:-1, None] + 0.5 * dt), params.delta + 0.5 * f)
    omega = np.sqrt(np.abs(h_mid[..., 0, 0]) ** 2 + np.abs(h_mid[..., 0, 1]) ** 2)
    steps = (np.cos(omega * dt)[..., None, None] * np.eye(2)
             - 1j * (np.sin(omega * dt) / omega)[..., None, None] * h_mid)
    u = np.empty((steps_per_period + 1, kappa_grid, 2, 2), dtype=complex)
    u[0] = np.eye(2)
    for n in range(steps_per_period):
        u[n + 1] = steps[n] @ u[n]
    c = bands[0, :, :, 0]
    total = 0.0
    for _ in range(n_bloch_periods):
        c_t = np.einsum("tkij,kj->tki", u, c)
        p = np.abs(np.einsum("tki,tki->tk", bands[..., 1].conj(), c_t)) ** 2
        total += np.sum(0.5 * (p[1:] + p[:-1])) * dt
        c = c_t[-1]
    return total / (n_bloch_periods * t_b * kappa_grid)


def per_kappa_population(params, f, n_bloch_periods=20.0, kappa_grid=16,
                         n_sites=None, sigma_cells=12.0, n_time_samples=256):
    """(window mean, trace) of the upper-band population, one kappa at a time.

    The loop that mean_upper_population's batched pass replaced: per kappa
    one lower-band state and one N x N pass, with M_upper = V^H (P_up V)
    from the dense projector application instead of X^H X.
    """
    params = params.with_field(f)
    if n_sites is None:
        n_sites = dyn._chain_size_for_population(params, sigma_cells)
    chain = build_chain(params, n_sites)
    values, vectors = eigh_tridiagonal(chain.diagonal, chain.off_diagonal)
    _, p_upper = dyn.band_projectors(params, n_sites)
    m_upper = vectors.conj().T @ p_upper.apply(vectors)
    t_total = n_bloch_periods * math.pi / f
    arg = (values[:, None] - values[None, :]) * t_total
    kernel = np.ones_like(arg, dtype=complex)
    nz = np.abs(arg) > 1e-12
    kernel[nz] = (np.exp(1j * arg[nz]) - 1.0) / (1j * arg[nz])
    phases = np.exp(-1j * values[:, None] * np.linspace(0.0, t_total, n_time_samples))
    mean, trace = 0.0, np.zeros(n_time_samples)
    for kappa in -np.pi / 2 + np.pi * (np.arange(kappa_grid) + 0.5) / kappa_grid:
        psi0 = dyn.lower_band_state(params, n_sites, float(kappa), sigma_cells).amplitudes
        w = vectors.conj().T @ psi0
        mean += float(np.real(np.sum((w.conj()[:, None] * m_upper) * w[None, :] * kernel)))
        ew = phases * w[:, None]
        trace += np.real(np.sum(ew.conj() * (m_upper @ ew), axis=0))
    return mean / kappa_grid, trace / kappa_grid


class TestBandProjectors:
    def test_invariants(self):
        pl, pu = dyn.band_projectors(LatticeParams(1.0, 0.6, 0.0), 64)
        p = pl.matrix()
        q = pu.matrix()
        assert np.max(np.abs(p @ p - p)) < 1e-10
        assert np.max(np.abs(p + q - np.eye(64))) < 1e-10
        assert np.max(np.abs(p @ q)) < 1e-10

    def test_atomic_limit_selects_a_sites(self):
        pl, _ = dyn.band_projectors(LatticeParams(0.0, 0.0, 0.5), 16)
        expected = np.zeros((16, 16))
        expected[::2, ::2] = np.eye(8)
        assert np.max(np.abs(pl.matrix() - expected)) < 1e-12

    def test_band_touching_rejected(self):
        with pytest.raises(ValueError):
            dyn.band_projectors(LatticeParams(0.7, 0.7, 0.0), 32)

    def test_untilted_ground_state_lives_in_lower_band(self):
        params = LatticeParams(1.0, 0.6, 0.0)
        chain = build_chain(params, 128)
        _, vectors = eigh_tridiagonal(chain.diagonal, chain.off_diagonal)
        ground = vectors[:, 0].astype(complex)
        pl, _ = dyn.band_projectors(params, 128)
        assert pl.population(ground) > 0.99

    def test_lower_band_state_is_band_pure(self):
        params = LatticeParams(1.0, 0.6, 0.0, 0.1)
        state = dyn.lower_band_state(params, 256, 0.4, 8.0)
        _, pu = dyn.band_projectors(params, 256)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert pu.population(state.amplitudes) < 1e-20

    def test_coefficients_are_the_analysis_half_of_apply(self):
        params = LatticeParams(1.0, 0.6, 0.2)
        psi = np.random.default_rng(3).normal(size=(64, 3)) + 0j
        pl, _ = dyn.band_projectors(params, 64)
        coeff = pl.coefficients(psi)
        assert coeff.shape == (32, 3)
        # |<u|psi>|^2 summed over kappa is the band population <psi|P psi>
        populations = [np.vdot(column, pl.apply(column)).real for column in psi.T]
        assert np.allclose(pl.population(psi), populations, atol=1e-12)
        assert np.array_equal(pl.coefficients(psi[:, 1]), coeff[:, 1])

    def test_single_state_is_a_column_of_the_batch(self):
        params = LatticeParams(0.76, 0.76, 0.4, 0.3)
        kappas = -np.pi / 2 + np.pi * (np.arange(16) + 0.5) / 16
        batch = dyn.lower_band_states(params, 428, kappas, 12.0)
        for k, kappa in enumerate(kappas):
            single = dyn.lower_band_state(params, 428, float(kappa), 12.0).amplitudes
            assert np.array_equal(single, batch[:, k])


class TestPropagate:
    def test_hopping_free_chain_only_acquires_phases(self):
        params = LatticeParams(0.0, 0.0, 0.2, 0.3)
        n = 64
        psi = np.zeros(n, dtype=complex)
        psi[n // 2 - 1: n // 2 + 2] = [0.5, 0.7, 0.5]
        psi /= np.linalg.norm(psi)
        out = dyn.propagate(dyn.ChainState(psi), params, None, np.array([3.7]))
        assert np.max(np.abs(np.abs(out[-1].amplitudes) - np.abs(psi))) < 1e-12

    def test_norm_preserved_and_matches_spectral(self):
        params = LatticeParams(1.0, 0.6, 0.0, 1.0 / 9.0)
        state = dyn.lower_band_state(params, 384, 0.3, 8.0)
        t_b = math.pi / params.f
        out = dyn.propagate(state, params, None, np.array([0.5 * t_b, t_b]))
        assert abs(np.linalg.norm(out[-1].amplitudes) - 1.0) < 1e-8
        reference = spectral_propagate(params, state.amplitudes, t_b)
        assert np.max(np.abs(out[-1].amplitudes - reference)) < 1e-8

    def test_ring_truncates_no_worse_than_the_open_chain(self):
        # on 256 sites the packet's tail reaches the ends within a Bloch
        # period; against the same packet inside 1024 sites, seen on the
        # 256 sites both chains hold, the ring must stay within twice the
        # open chain's truncation error
        params = LatticeParams(1.0, 0.6, 0.0, 1.0 / 9.0)
        psi0 = dyn.lower_band_state(params, 256, 0.3, 8.0).amplitudes
        t_b = math.pi / params.f
        ring = dyn.propagate(dyn.ChainState(psi0), params, None, [t_b])[-1].amplitudes
        wall = spectral_propagate(params, psi0, t_b)
        embedded = np.zeros(1024, dtype=complex)
        embedded[384:640] = psi0  # the 256-site positions are sites 384..639 here
        reference = spectral_propagate(params, embedded, t_b)[384:640]
        assert (np.max(np.abs(ring - reference))
                <= 2.0 * np.max(np.abs(wall - reference)))

    def test_hopping_free_ramp_phases_are_exact(self):
        # without hopping the gauge phase exp(-i Phi x) carries the whole tilt
        params = LatticeParams(0.0, 0.0, 0.2, 0.2)
        psi0 = dyn.lower_band_state(LatticeParams(1.0, 0.6, 0.2), 256, 0.3, 8.0).amplitudes
        ramp = dyn.RampProtocol(np.array([0.0, 4.0]), np.array([0.2, 0.24]))
        out = dyn.propagate(dyn.ChainState(psi0), params, ramp, [1.5, 4.0])
        positions = build_chain(params, psi0.size).positions
        stagger = np.tile([-params.delta, params.delta], psi0.size // 2)
        for state in out:
            t = state.time
            tilt = 0.2 * t + 0.5 * 0.01 * t**2
            exact = np.exp(-1j * (tilt * positions + stagger * t)) * psi0
            assert np.max(np.abs(state.amplitudes - exact)) < 1e-12

    def test_ramp_matches_an_ode_solve_on_the_open_chain(self):
        # an adaptive Runge-Kutta integration in the site basis of the open
        # chain, one call per linear segment of the ramp, shares no gauge,
        # ring, step or doubling rule with propagate
        params = LatticeParams(1.0, 0.6, 0.2, 0.2)
        psi0 = dyn.lower_band_state(params, 384, 0.3, 8.0).amplitudes
        ramp = dyn.RampProtocol(np.arange(5.0), np.array([0.2, 0.25, 0.22, 0.3, 0.2]))
        out = dyn.propagate(dyn.ChainState(psi0), params, ramp, [2.5, 4.0], tol=1e-10)
        chain = build_chain(params.with_field(0.0), psi0.size)
        bonds = chain.off_diagonal

        def rhs(t, psi):
            h_psi = (chain.diagonal + ramp.field_at(t) * chain.positions) * psi
            h_psi[:-1] += bonds * psi[1:]
            h_psi[1:] += bonds * psi[:-1]
            return -1j * h_psi

        psi, reference = psi0, {}
        for t_a, t_b in [(0.0, 1.0), (1.0, 2.0), (2.0, 2.5), (2.5, 3.0), (3.0, 4.0)]:
            psi = solve_ivp(rhs, (t_a, t_b), psi, method="DOP853",
                            rtol=1e-12, atol=1e-12).y[:, -1]
            reference[t_b] = psi
        for state in out:
            assert np.max(np.abs(state.amplitudes - reference[state.time])) < 1e-9

    def test_sixth_order_under_a_ramp(self, monkeypatch):
        # fixed steps per piece in place of the doubling rule: each doubling
        # must cut the error about 2^6 = 64x (a fourth-order step gives 16x)
        params = LatticeParams(1.0, 0.6, 0.0, 0.2)
        psi0 = dyn.lower_band_state(params, 256, 0.3, 8.0).amplitudes
        ramp = dyn.RampProtocol(np.arange(5.0), np.array([0.2, 0.25, 0.22, 0.3, 0.2]))

        def at_steps(n):
            def fixed(propagators, size, tol, start):
                a, b = propagators(np.arange(size), n)
                return a, b, np.full(size, n)

            monkeypatch.setattr(dyn, "_converged", fixed)
            return dyn.propagate(dyn.ChainState(psi0), params, ramp, [4.0])[-1].amplitudes

        reference = at_steps(256)
        errors = np.array([np.max(np.abs(at_steps(n) - reference)) for n in (1, 2, 4, 8)])
        assert np.all(errors[:-1] / errors[1:] >= 40.0)

    def test_odd_chain_rejected(self):
        params = LatticeParams(1.0, 0.6, 0.0, 0.2)
        with pytest.raises(ValueError, match="even"):
            dyn.propagate(dyn.ChainState(np.eye(65)[32]), params, None, [1.0])

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        params = LatticeParams(1.0, 0.6, 0.0, 0.2)
        state = dyn.lower_band_state(params, 256, 0.0, 8.0)
        with pytest.raises(ValueError, match="tol"):
            dyn.propagate(state, params, None, [1.0], tol=tol)

    def test_single_ladder_dynamics_is_bloch_periodic(self):
        # j1 = j2 with delta = 0 makes the chain singly periodic: the two
        # ladders merge into one of spacing F, so the density recurs at
        # 2 pi / F = 2 T_B and not yet at T_B = pi / F
        params = LatticeParams(0.76, 0.76, 0.0, 0.25)
        state = dyn.lower_band_state(LatticeParams(0.76, 0.76, 0.01, params.f),
                                     384, 0.0, 10.0)
        t_b = math.pi / params.f
        out = dyn.propagate(state, params, None, np.array([t_b, 2 * t_b]))
        density0 = np.abs(state.amplitudes) ** 2
        at_t_b, at_2t_b = (np.max(np.abs(np.abs(s.amplitudes) ** 2 - density0))
                           for s in out)
        assert at_t_b > 1e-3
        assert at_2t_b < 1e-6

    def test_energy_conserved_at_constant_field(self):
        params = LatticeParams(1.0, 0.6, 0.0, 0.2)
        chain = build_chain(params, 256)
        state = dyn.lower_band_state(params, 256, 0.2, 8.0)

        def mean_energy(psi):
            h_psi = chain.diagonal * psi
            h_psi[:-1] += chain.off_diagonal * psi[1:]
            h_psi[1:] += chain.off_diagonal * psi[:-1]
            return np.real(np.vdot(psi, h_psi))

        out = dyn.propagate(state, params, None,
                            np.array([5.0, 40.0, 3 * math.pi / params.f]))
        e0 = mean_energy(state.amplitudes)
        for snapshot in out:
            assert abs(mean_energy(snapshot.amplitudes) - e0) < 1e-8

    def test_acceleration_theorem(self):
        params = LatticeParams(1.0, 0.6, 0.0, 1.0 / 9.0)
        state = dyn.lower_band_state(params, 384, 0.0, 12.0)
        t_b = math.pi / params.f
        t_grid = np.linspace(0.0, 0.2 * t_b, 5)
        out = dyn.propagate(state, params, None, t_grid)
        kappas = np.array([dyn.mean_quasimomentum(s.amplitudes) for s in out])
        slopes = np.diff(kappas) / np.diff(t_grid)
        assert np.allclose(slopes, -params.f, rtol=0.05)

    def test_edge_contamination_detected(self):
        params = LatticeParams(1.0, 0.6, 0.0, 0.05)
        with pytest.raises(EdgeContaminationError):
            state = dyn.lower_band_state(params, 64, 0.0, 12.0)
            dyn.propagate(state, params, None, np.array([1.0]))

    def test_time_grid_validation(self):
        params = LatticeParams(1.0, 0.6, 0.0, 0.2)
        state = dyn.lower_band_state(params, 256, 0.0, 8.0)
        with pytest.raises(ValueError):
            dyn.propagate(state, params, None, np.array([2.0, 1.0]))


class TestRampProtocol:
    def test_linear_inv_f_endpoints(self):
        ramp = dyn.RampProtocol.linear_inv_f(9.4, 8.7, 100.0)
        assert ramp.field_at(0.0) == pytest.approx(1 / 9.4)
        assert ramp.field_at(100.0) == pytest.approx(1 / 8.7)
        assert ramp.duration == pytest.approx(100.0)

    def test_field_must_stay_positive(self):
        with pytest.raises(ValueError):
            dyn.RampProtocol(np.array([0.0, 1.0]), np.array([0.1, -0.1]))
        with pytest.raises(ValueError):
            dyn.RampProtocol(np.array([0.0, 0.0]), np.array([0.1, 0.1]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_field_must_stay_finite(self, bad):
        with pytest.raises(ValueError):
            dyn.RampProtocol(np.array([0.0, 1.0]), np.array([0.1, bad]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_times_must_be_finite(self, bad):
        # NaN compares false, so "increasing" alone lets it through
        with pytest.raises(ValueError, match="finite"):
            dyn.RampProtocol(np.array([0.0, bad]), np.array([0.1, 0.1]))


class TestMeanUpperPopulation:
    def test_baseline_small_between_crossings(self):
        # between two resonances each Bloch period tunnels the Landau-Zener
        # probability P_LZ = exp(-pi delta^2 / (2 J F)) into the upper band;
        # off resonance the window mean cannot fall below its sudden two-level
        # value P_LZ / 2, and it stays below the per-period P_LZ itself
        params = LatticeParams(0.76, 0.76, 0.2, 0.05)
        zs = np.linspace(19.0, 20.2, 7)
        means = [dyn.mean_upper_population(params, 1.0 / z,
                                           n_time_samples=0).p_upper_mean
                 for z in zs]
        floor = min(means)
        f = 1.0 / zs[int(np.argmin(means))]
        assert floor == pytest.approx(two_level_upper_mean(params, f), abs=3e-4)
        j = 0.5 * (params.j1 + params.j2)
        p_lz = math.exp(-math.pi * params.delta**2 / (2.0 * j * f))
        assert 0.5 * p_lz < floor < p_lz

    def test_peak_at_crossing_approaches_half(self):
        params = LatticeParams(0.76, 0.76, 0.4, 0.1)
        z_star = se.find_avoided_crossings(params, (2.9, 3.4), resolution=100)[0].inv_f_star
        short = dyn.mean_upper_population(params, 1.0 / z_star, n_time_samples=0)
        long = dyn.mean_upper_population(params, 1.0 / z_star, n_bloch_periods=200,
                                         n_time_samples=0)
        assert short.p_upper_mean > 0.4
        assert long.p_upper_mean == pytest.approx(0.5, abs=0.02)

    def test_population_bounds_and_trace(self):
        params = LatticeParams(0.76, 0.76, 0.4, 0.25)
        trace = dyn.mean_upper_population(params, params.f, n_time_samples=64)
        assert 0.0 <= trace.p_upper_mean <= 1.0
        assert np.all(trace.p_upper >= -1e-12) and np.all(trace.p_upper <= 1.0 + 1e-12)
        assert trace.p_upper[0] < 1e-10  # starts band-pure

    def test_trace_beats_at_ladder_differences(self):
        params = LatticeParams(1.0, 0.6, 0.0, 0.25)
        trace = dyn.mean_upper_population(params, params.f, n_bloch_periods=40.0,
                                          kappa_grid=8, n_time_samples=2048)
        signal = trace.p_upper - trace.p_upper.mean()
        freqs = np.fft.rfftfreq(signal.size, d=trace.times[1] - trace.times[0])
        amp = np.abs(np.fft.rfft(signal))
        peak_freq = freqs[1: ][np.argmax(amp[1:])] * 2 * math.pi
        spec = se.ws_spectrum_floquet(params, range(-30, 31))
        diffs = np.abs(spec.energies[:, None] - spec.energies[None, :]).ravel()
        resolution = 2 * math.pi / trace.times[-1]
        assert np.min(np.abs(diffs - peak_freq)) < resolution

    def test_matches_propagated_trace(self):
        params = LatticeParams(0.76, 0.76, 0.4, 0.25)
        trace = dyn.mean_upper_population(params, params.f, kappa_grid=1, sigma_cells=8.0,
                                          n_sites=256, n_bloch_periods=2.0,
                                          n_time_samples=9)
        state = dyn.lower_band_state(params, 256, -np.pi / 2 + np.pi * 0.5, 8.0)
        out = dyn.propagate(state, params, None, trace.times)
        _, pu = dyn.band_projectors(params, 256)
        direct = np.array([pu.population(s.amplitudes) for s in out])
        assert np.max(np.abs(direct - trace.p_upper)) < 1e-6

    @pytest.mark.parametrize("params,inv_f,options", [
        (LatticeParams(0.76, 0.76, 0.4), 3.15, {}),
        (LatticeParams(1.0, 0.6, 0.2), 20.0, {}),
        # 129 cells: an odd cell count, one kappa
        (LatticeParams(0.76, 0.76, 0.4), 4.0,
         {"n_sites": 258, "kappa_grid": 1, "sigma_cells": 8.0}),
    ])
    def test_batched_pass_matches_per_kappa_loop(self, params, inv_f, options):
        trace = dyn.mean_upper_population(params, 1.0 / inv_f, n_time_samples=32,
                                          **options)
        mean, p_upper = per_kappa_population(params, 1.0 / inv_f, n_time_samples=32,
                                             **options)
        assert abs(trace.p_upper_mean - mean) < 1e-12
        assert np.max(np.abs(trace.p_upper - p_upper)) < 1e-12

    def test_edge_guard_checks_each_column(self):
        n = 64
        positions = np.arange(n) - n / 2 + 0.5
        vectors = np.eye(n)  # eigenstate i sits on site i
        weights = np.zeros((n, 2))
        weights[n // 2] = 1.0
        weights[0, 1] = 2e-8  # only the second state exceeds the bound
        with pytest.raises(EdgeContaminationError):
            dyn._eigen_edge_guard(vectors, weights, positions)
        # both states below the bound pass, though their sum exceeds it
        weights[0] = 0.6e-8
        dyn._eigen_edge_guard(vectors, weights, positions)

    def test_gapless_rejected(self):
        with pytest.raises(ValueError):
            dyn.mean_upper_population(LatticeParams(0.7, 0.7, 0.0), 0.1)

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError, match="positive field"):
            dyn.mean_upper_population(LatticeParams(1.0, 0.6, 0.2), 0.0)

    def test_empty_kappa_grid_rejected(self):
        with pytest.raises(ValueError, match="kappa_grid"):
            dyn.mean_upper_population(LatticeParams(0.76, 0.76, 0.4), 0.25, kappa_grid=0)

    @pytest.mark.parametrize("option", [
        {"n_bloch_periods": 0.0}, {"n_bloch_periods": -2.0},
        {"n_bloch_periods": math.nan}, {"n_bloch_periods": math.inf},
        # the chain is sized from sigma_cells before any state is built
        {"sigma_cells": math.inf}, {"sigma_cells": math.nan},
    ])
    def test_window_and_envelope_must_be_positive_and_finite(self, option):
        with pytest.raises(ValueError, match="positive and finite"):
            dyn.mean_upper_population(LatticeParams(0.76, 0.76, 0.4), 0.25, **option)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_envelope_must_be_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma_cells"):
            dyn.lower_band_states(LatticeParams(0.76, 0.76, 0.4), 256, [0.0], sigma)


class TestLorentzianFit:
    def test_roundtrip_on_exact_model(self):
        z = np.linspace(8.0, 10.0, 201)
        width, center, height = 0.23, 9.02, 0.5
        data = height * (width / 2) ** 2 / ((width / 2) ** 2 + (z - center) ** 2)
        fit = dyn.lorentzian_fit(z, data)
        assert fit.center == pytest.approx(center, abs=1e-10)
        assert fit.width == pytest.approx(width, abs=1e-10)
        assert fit.height == pytest.approx(height, abs=1e-10)
        assert fit.residual < 1e-12

    def test_width_tracks_gap_through_level_slope(self):
        # resonance FWHM in 1/F units is 2*gap/s with s = 2 C / z the relative
        # slope of the diabatic ladders; validated against the exact gap
        from starkladder.model import _tilted_band_mean
        params = LatticeParams(0.76, 0.76, 0.4, 0.1)
        z_star, gap = 8.78080, 1.73568e-02
        zs = np.linspace(z_star - 0.35, z_star + 0.35, 41)
        scan = np.array([dyn.mean_upper_population(params, 1 / z, n_bloch_periods=60.0,
                                                   n_time_samples=0).p_upper_mean
                         for z in zs])
        fit = dyn.lorentzian_fit(zs, scan)
        slope = 2.0 * _tilted_band_mean(params.with_field(1 / z_star)) / z_star
        assert fit.width == pytest.approx(2.0 * gap / slope, rel=0.3)
        assert fit.residual < 0.05 * fit.height

    def test_window_must_hold_single_peak(self):
        z = np.linspace(0, 1, 50)
        two_peaks = np.exp(-((z - 0.3) / 0.05) ** 2) + np.exp(-((z - 0.7) / 0.05) ** 2)
        with pytest.raises(ValueError):
            dyn.lorentzian_fit(z, two_peaks)


class TestTransferSmoke:
    def test_short_ramp_flags_non_adiabatic(self):
        result = dyn.bloch_transfer_experiment(
            LatticeParams(1.0, 0.6, 0.0, 1.0 / 9.4), inv_f_start=9.4, inv_f_stop=8.7,
            duration=4 * math.pi * 9.4, n_samples=9, n_sites=384, tol=1e-6)
        assert result.non_adiabatic
        assert result.density.shape == (9, 384)
        assert result.p_upper.shape == (9,)
        assert np.all((result.p_upper >= -1e-9) & (result.p_upper <= 1 + 1e-9))
        assert result.ramp.field_at(0.0) == pytest.approx(1 / 9.4)
