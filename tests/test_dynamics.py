import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal

from starkladder.errors import DegeneracyError, EdgeContaminationError, NonConvergedError
from starkladder.model import LatticeParams, build_chain, fold_interval, site_positions
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

    The open-chain oracle for mean_upper_population, which works on the ring
    and its Floquet modes: per kappa one lower-band state in the eigenbasis
    of the open N-site chain (no ring, no time stepping), with
    M_upper = V^H (P_up V) and the window mean from the full complex kernel
    over all pairs of chain levels.
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
    @pytest.mark.parametrize("n_sites", [64, 258])  # 258: an odd cell count
    def test_invariants(self, n_sites):
        pl, pu = dyn.band_projectors(LatticeParams(1.0, 0.6, 0.0), n_sites)
        p = pl.apply(np.eye(n_sites))
        q = pu.apply(np.eye(n_sites))
        assert np.max(np.abs(p @ p - p)) < 1e-10
        assert np.max(np.abs(p + q - np.eye(n_sites))) < 1e-10
        assert np.max(np.abs(p @ q)) < 1e-10

    def test_atomic_limit_selects_a_sites(self):
        pl, _ = dyn.band_projectors(LatticeParams(0.0, 0.0, 0.5), 16)
        expected = np.zeros((16, 16))
        expected[::2, ::2] = np.eye(8)
        assert np.max(np.abs(pl.apply(np.eye(16)) - expected)) < 1e-12

    def test_band_touching_rejected(self):
        with pytest.raises(DegeneracyError):
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
        # without hopping the gauge phase exp(-i Phi x) carries the whole tilt;
        # with z = 1/F linear in t, Phi(t) = ln(z(t) / z0) / (dz/dt)
        params = LatticeParams(0.0, 0.0, 0.2, 0.2)
        psi0 = dyn.lower_band_state(LatticeParams(1.0, 0.6, 0.2), 256, 0.3, 8.0).amplitudes
        ramp = dyn.RampProtocol(np.array([0.0, 4.0]), np.array([0.2, 0.24]))
        out = dyn.propagate(dyn.ChainState(psi0), params, ramp, [1.5, 4.0])
        positions = site_positions(psi0.size)
        stagger = np.tile([-params.delta, params.delta], psi0.size // 2)
        z0, z_dot = 1 / 0.2, (1 / 0.24 - 1 / 0.2) / 4.0
        for state in out:
            t = state.time
            tilt = math.log((z0 + z_dot * t) / z0) / z_dot
            exact = np.exp(-1j * (tilt * positions + stagger * t)) * psi0
            assert np.max(np.abs(state.amplitudes - exact)) < 1e-12

    # 258 sites is an odd cell count, L = 129, where the ring's kappa grid holds
    # no pi / 2; the packet is narrower there so that its tails at the ends stay
    # below roundoff (an 8-cell packet has 1.6e-8 there, which the open chain
    # and the ring feel differently)
    @pytest.mark.parametrize("n_sites,sigma_cells", [(384, 8.0), (258, 5.0)])
    def test_ramp_matches_an_ode_solve_on_the_open_chain(self, n_sites, sigma_cells):
        # an adaptive Runge-Kutta integration in the site basis of the open
        # chain, one call per linear segment of the ramp, shares no gauge,
        # ring, step or doubling rule with propagate
        params = LatticeParams(1.0, 0.6, 0.2, 0.2)
        psi0 = dyn.lower_band_state(params, n_sites, 0.3, sigma_cells).amplitudes
        ramp = dyn.RampProtocol(np.arange(5.0), np.array([0.2, 0.25, 0.22, 0.3, 0.2]))
        out = dyn.propagate(dyn.ChainState(psi0), params, ramp, [2.5, 4.0], tol=1e-10)
        chain = build_chain(params.with_field(0.0), psi0.size)
        bonds, positions = chain.off_diagonal, site_positions(psi0.size)

        def rhs(t, psi):
            h_psi = (chain.diagonal + ramp.field_at(t) * positions) * psi
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

            monkeypatch.setattr(se, "_converged", fixed)
            return dyn.propagate(dyn.ChainState(psi0), params, ramp, [4.0])[-1].amplitudes

        reference = at_steps(256)
        errors = np.array([np.max(np.abs(at_steps(n) - reference)) for n in (1, 2, 4, 8)])
        assert np.all(errors[:-1] / errors[1:] >= 40.0)

    def test_odd_chain_rejected(self):
        # one size rule (model.site_positions) and one message at every entry
        # point; lower_band_states checks it before shaping the packet into cells
        params = LatticeParams(1.0, 0.6, 0.0, 0.2)
        for call in (lambda: build_chain(params, 7),
                     lambda: dyn.band_projectors(params, 7),
                     lambda: dyn.lower_band_states(params, 7, [0.0], 4.0),
                     lambda: dyn.propagate(dyn.ChainState(np.eye(7)[3]), params, None, [1.0]),
                     lambda: dyn.mean_upper_population(params, 0.2, n_sites=7)):
            with pytest.raises(ValueError, match="^n_sites must be even and at least 2, got 7$"):
                call()
        # one cell is a chain
        site = np.array([1.0, 0.0])
        assert sum(p.population(site) for p in dyn.band_projectors(params, 2)) == pytest.approx(
            1.0, abs=1e-15)

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

    def test_edge_guard_names_the_first_bad_sample(self):
        # the 192-site packet at F = 0.05 spreads toward the ends: its edge
        # weight is 1.3e-9 at 4/8 of the Bloch period, then 4.4e-8, 1.3e-6,
        # 9.4e-6 and 1.7e-5 at 5/8 to 8/8; the guard stops at 5/8, not at the worst
        params = LatticeParams(1.0, 0.6, 0.0, 0.05)
        state = dyn.lower_band_state(params, 192, 0.0, 5.0)
        t_b = math.pi / params.f
        dyn.propagate(state, params, None, np.linspace(0.0, 0.5 * t_b, 5))
        with pytest.raises(EdgeContaminationError, match=f"^edge occupation 4.38e-08 at "
                                                         f"t = {0.625 * t_b:.3f};"):
            dyn.propagate(state, params, None, np.linspace(0.0, t_b, 9))

    @pytest.mark.parametrize("periods,samples,pieces", [(120.0, 161, 160), (1.0, 33, 32)])
    def test_linear_inv_f_ramp_cuts_only_at_the_samples(self, monkeypatch, periods,
                                                        samples, pieces):
        # the default and the benchmark transfer grids: the ramp is one knot
        # interval, so the pieces are the sample intervals
        sizes = []

        def record(propagators, size, tol, n):
            sizes.append(size)
            return np.ones(size, dtype=complex), np.zeros(size, dtype=complex), np.full(size, n)

        monkeypatch.setattr(se, "_converged", record)
        params = LatticeParams(1.0, 0.6, 0.0, 1.0 / 9.4)
        duration = periods * math.pi * 9.4
        ramp = dyn.RampProtocol.linear_inv_f(9.4, 8.7, duration)
        state = dyn.lower_band_state(params, 128, 0.0, 4.0)
        dyn.propagate(state, params, ramp, np.linspace(0.0, duration, samples))
        assert sum(sizes) == pieces * 64

    def test_linear_inv_f_equals_collinear_knots(self):
        # 1/F is linear between knots, so knots collinear in 1/F cut the ramp
        # into pieces without changing it
        params = LatticeParams(1.0, 0.6, 0.0, 1.0 / 9.4)
        duration = 2.0 * math.pi * 9.4
        state = dyn.lower_band_state(params, 256, 0.0, 6.0)
        t_grid = np.linspace(0.0, duration, 5)
        two = dyn.RampProtocol.linear_inv_f(9.4, 8.7, duration)
        nine = dyn.RampProtocol(np.linspace(0.0, duration, 9),
                                1.0 / np.linspace(9.4, 8.7, 9))
        a, b = (dyn.propagate(state, params, ramp, t_grid, tol=1e-10)
                for ramp in (two, nine))
        for x, y in zip(a, b):
            assert np.max(np.abs(x.amplitudes - y.amplitudes)) <= 1e-9

    def test_cut_keeps_every_k_of_a_site_localized_state(self, monkeypatch):
        # one site puts weight 1/L on every k, far above (tol / 64)^2: every k
        # is propagated and the norm stays 1 to roundoff
        sizes, converged = [], se._converged

        def record(propagators, size, tol, n):
            sizes.append(size)
            return converged(propagators, size, tol, n)

        monkeypatch.setattr(se, "_converged", record)
        params = LatticeParams(1.0, 0.6, 0.0, 0.2)
        psi0 = np.eye(128, dtype=complex)[64]
        out = dyn.propagate(dyn.ChainState(psi0), params, None, [1.0, 2.0])
        assert sum(sizes) == 2 * 64
        for state in out:
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-14

    def test_kernel_batch_stays_within_the_block_bound(self, monkeypatch):
        # a site-localized state keeps all 64 k, so two samples make 128
        # propagators; with the bound at 64 no kernel call may see more
        params = LatticeParams(1.0, 0.6, 0.0, 0.2)
        state = dyn.ChainState(np.eye(128, dtype=complex)[64])
        reference = dyn.propagate(state, params, None, [1.0, 2.0])
        batches, kernel = [], se._magnus_product

        def spy(*args):
            batches.append(args[2].size)
            return kernel(*args)

        monkeypatch.setattr(se, "_BLOCK_MATRICES", 64)
        monkeypatch.setattr(se, "_magnus_product", spy)
        out = dyn.propagate(state, params, None, [1.0, 2.0])
        assert 0 < max(batches) <= 64
        for x, y in zip(out, reference):
            assert np.max(np.abs(x.amplitudes - y.amplitudes)) <= 1e-13

    @staticmethod
    def transfer_packet(tol):
        # the benchmark's transfer call: 384 sites, sigma = 10 cells, one
        # Bloch period ramped from 1/F = 9.4 to 8.7, 33 samples
        params = LatticeParams(1.0, 0.6, 0.0, 1.0 / 9.4)
        duration = math.pi * 9.4
        ramp = dyn.RampProtocol.linear_inv_f(9.4, 8.7, duration)
        state = dyn.lower_band_state(params, 384, 0.0, 10.0)
        return dyn.propagate(state, params, ramp, np.linspace(0.0, duration, 33), tol=tol)

    @pytest.mark.parametrize("tol", [1e-4, 1e-6])
    def test_cut_loses_at_most_the_dropped_weight(self, tol):
        # the dropped k take the same weight away at every sample; 1e-14
        # allows for the roundoff of the norm (2e-15 here without a cut)
        loss = np.array([1.0 - np.vdot(s.amplitudes, s.amplitudes).real
                         for s in self.transfer_packet(tol)])
        assert np.all(loss <= (tol / 64.0) ** 2 + 1e-14)
        assert np.ptp(loss) <= 1e-14

    def test_cut_stays_within_the_error_budget(self):
        # psi errs by at most tol / 64 from the cut plus tol / 63 per piece
        # before the sample, in both runs; sample i has i pieces before it
        def budget(tol):
            return tol / 64.0 + np.arange(33) * tol / 63.0

        coarse, fine = self.transfer_packet(1e-6), self.transfer_packet(1e-10)
        errors = np.array([np.linalg.norm(x.amplitudes - y.amplitudes)
                           for x, y in zip(coarse, fine)])
        assert np.all(errors <= budget(1e-6) + budget(1e-10))

    def test_time_grid_validation(self):
        params = LatticeParams(1.0, 0.6, 0.0, 0.2)
        state = dyn.lower_band_state(params, 256, 0.0, 8.0)
        with pytest.raises(ValueError):
            dyn.propagate(state, params, None, np.array([2.0, 1.0]))


class TestRampProtocol:
    def test_linear_inv_f_endpoints(self):
        ramp = dyn.RampProtocol.linear_inv_f(9.4, 8.7, 100.0)
        assert ramp.times.size == 2
        assert 1 / ramp.field_at(25.0) == pytest.approx(9.4 - 0.7 / 4)
        assert ramp.field_at(0.0) == pytest.approx(1 / 9.4)
        assert ramp.field_at(100.0) == pytest.approx(1 / 8.7)
        assert (ramp.times[0], ramp.times[-1]) == (0.0, 100.0)

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
        assert floor == pytest.approx(per_kappa_population(params, f, n_time_samples=1)[0],
                                      abs=1e-12)
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
        # 128 cells: kappa = 0 is on the grid and self-conjugate
        (LatticeParams(0.76, 0.76, 0.4), 4.0,
         {"n_sites": 256, "kappa_grid": 2, "sigma_cells": 8.0}),
    ])
    def test_batched_pass_matches_per_kappa_loop(self, params, inv_f, options):
        trace = dyn.mean_upper_population(params, 1.0 / inv_f, n_time_samples=32,
                                          **options)
        mean, p_upper = per_kappa_population(params, 1.0 / inv_f, n_time_samples=32,
                                             **options)
        assert abs(trace.p_upper_mean - mean) < 1e-12
        assert np.max(np.abs(trace.p_upper - p_upper)) < 1e-12

    @pytest.mark.parametrize("params,inv_f", [
        (LatticeParams(0.76, 0.76, 0.4), np.linspace(3.0, 3.3, 6)),
        (LatticeParams(1.0, 0.6, 0.3), np.linspace(1.0, 6.0, 6)),
        # 2048 pieces and a 1688-site default chain per field
        (LatticeParams(1.0, 0.97, 0.0), np.linspace(5.0, 5.1, 3)),
        # resolved at 256 and 512 pieces (the next test)
        (LatticeParams(1.0, 0.79, 0.0), np.array([0.5, 0.7077, 2.0, 3.0])),
        # one array pass per chain size: 40 fields on the 428- and 432-site chains
        (LatticeParams(0.76, 0.76, 0.4), np.linspace(3.0, 3.3, 40)),
        # the benchmark's resonance scan
        (LatticeParams(0.76, 0.76, 0.4), np.linspace(3.0, 3.3, 48)),
    ])
    def test_sweep_matches_each_field_alone(self, params, inv_f):
        traces = dyn.mean_upper_populations(params, 1.0 / inv_f, n_time_samples=16)
        assert len(traces) == inv_f.size
        for z, trace in zip(inv_f, traces):
            alone = dyn.mean_upper_population(params, 1.0 / z, n_time_samples=16)
            assert trace.p_upper_mean == alone.p_upper_mean
            assert np.array_equal(trace.p_upper, alone.p_upper)
            assert np.array_equal(trace.times, alone.times)

    @pytest.mark.parametrize("lattice", [(1.0, 0.6, 0.0), (1.0, 0.6, 0.3),
                                         (0.76, 0.76, 0.4), (1.0, 0.4, 0.1)])
    def test_quasienergies_are_the_floquet_ladder_offsets(self, lattice):
        # the time-domain engine's Floquet modes and the spectral engine's
        # monodromy solve one generating equation: the quasienergies match the
        # ladder offsets mod 2F (at most 1.9e-14 F over 1/F in [1.5, 12])
        params = LatticeParams(*lattice)
        fields = 1.0 / np.linspace(1.5, 12.0, 9)
        ladders = se.floquet_ladders(params, fields, range(0, 1))
        seen = []
        for i, eps, _, _ in dyn._floquet_harmonics(params, fields):
            f = fields[i]
            diff = np.abs(fold_interval(eps[:, None] - np.array(ladders[i].branch_offsets()),
                                        2.0 * f))
            assert min(max(diff[0, 0], diff[1, 1]), max(diff[0, 1], diff[1, 0])) < 1e-13 * f
            seen.append(i)
        assert sorted(seen) == list(range(fields.size))

    def test_fields_resolved_at_different_piece_counts(self, monkeypatch):
        # at (1, 0.79, 0) the harmonic tail at 256 pieces sits near its bound of
        # 1e-13 of the largest: 1.28e-13 at 1/F = 0.7077, so that field alone
        # re-runs at 512 pieces, and 0.63e-13 to 0.73e-13 at the others, which
        # keep their 256 (the previous test compares each with a one-field call)
        params = LatticeParams(1.0, 0.79, 0.0)
        inv_f = np.array([0.5, 0.7077, 2.0, 3.0])
        passes, overlaps = [], dyn._floquet_overlaps

        def record(params, fields, n_pieces):
            passes.append((fields.tolist(), n_pieces))
            return overlaps(params, fields, n_pieces)

        monkeypatch.setattr(dyn, "_floquet_overlaps", record)
        dyn.mean_upper_populations(params, 1.0 / inv_f, n_time_samples=0)
        assert passes == [((1.0 / inv_f).tolist(), 256), ([1.0 / 0.7077], 512)]

    def test_packets_are_built_once_per_chain_size(self, monkeypatch):
        # the benchmark scan: 48 fields, two default chain sizes
        params = LatticeParams(0.76, 0.76, 0.4)
        fields = 1.0 / np.linspace(3.0, 3.3, 48)
        sizes, states = [], dyn.lower_band_states

        def record(params, n_sites, kappas, sigma_cells):
            sizes.append(n_sites)
            return states(params, n_sites, kappas, sigma_cells)

        monkeypatch.setattr(dyn, "lower_band_states", record)
        dyn.mean_upper_populations(params, fields, n_time_samples=0)
        per_field = [dyn._chain_size_for_population(params.with_field(f), 12.0)
                     for f in fields]
        assert sorted(sizes) == sorted(set(per_field)) == [428, 432]

    def test_sweep_inputs_are_checked_before_any_integration(self, monkeypatch):
        monkeypatch.setattr(dyn, "_period_propagators", None)
        params = LatticeParams(0.76, 0.76, 0.4)
        with pytest.raises(ValueError, match="positive field"):
            dyn.mean_upper_populations(params, [0.3, 0.0, 0.2])
        with pytest.raises(ValueError, match="^n_sites must be even"):
            dyn.mean_upper_populations(params, [0.3, 0.2], n_sites=255)
        for n_time_samples in (-1, 2.5):
            with pytest.raises(ValueError, match="^n_time_samples must be a whole number"):
                dyn.mean_upper_populations(params, [0.3, 0.2], n_time_samples=n_time_samples)
        assert dyn.mean_upper_populations(params, []) == []

    def test_means_alone_match_the_traced_run(self):
        # without samples the traces are empty and the means are the same bits
        params = LatticeParams(0.76, 0.76, 0.4)
        fields = 1.0 / np.linspace(3.0, 3.3, 6)
        bare = dyn.mean_upper_populations(params, fields, kappa_grid=2, n_time_samples=0)
        traced = dyn.mean_upper_populations(params, fields, kappa_grid=2, n_time_samples=5)
        for trace, full in zip(bare, traced):
            assert trace.times.shape == trace.p_upper.shape == (0,)
            assert trace.times.dtype == trace.p_upper.dtype == np.float64
            assert trace.p_upper_mean == full.p_upper_mean
            assert full.p_upper.shape == (5,)

    def test_modes_are_the_same_bits_as_a_scan_over_the_pieces_alone(self, monkeypatch):
        # the benchmark scan at 256 pieces: prefix products that start from the
        # identity multiply the same blocks as a scan over the pieces alone
        params = LatticeParams(0.76, 0.76, 0.4)
        fields = 1.0 / np.linspace(3.0, 3.3, 48)
        eps, overlaps = dyn._floquet_overlaps(params, fields, 256)

        def pieces_alone(a, b):
            a, b, shift = a.copy(), b.copy(), 1
            while shift < a.shape[-1]:
                a[:, shift:], b[:, shift:] = se._su2_mul(a[:, shift:], b[:, shift:],
                                                         a[:, :-shift], b[:, :-shift])
                shift *= 2
            one = np.ones((a.shape[0], 1))
            return np.concatenate([one, a], axis=1), np.concatenate([0 * one, b], axis=1)

        monkeypatch.setattr(dyn, "_prefix_products", pieces_alone)
        scan_eps, scan_overlaps = dyn._floquet_overlaps(params, fields, 256)
        assert np.array_equal(eps, scan_eps)
        assert np.array_equal(overlaps, scan_overlaps)

    def test_near_band_touching_the_default_chain_does_not_set_the_answer(self,
                                                                           monkeypatch):
        # (1, 0.97, 0) has a zone-edge gap of 0.06; the ring's answer on the
        # default chain, sized for the projector's tail (xi = 65.7 cells), and
        # on 448 sites must match the open chain of 1024 sites, whose own
        # eigenbasis at 448 sites is 3.2e-7 off; the Floquet-mode grid doubles
        # from 256 pieces until its harmonics are resolved
        params = LatticeParams(1.0, 0.97, 0.0)
        pieces, overlaps = [], dyn._floquet_overlaps

        def record(params, fields, n_pieces):
            pieces.append(n_pieces)
            return overlaps(params, fields, n_pieces)

        monkeypatch.setattr(dyn, "_floquet_overlaps", record)
        assert dyn._chain_size_for_population(params.with_field(0.2), 12.0) == 1688
        mean = dyn.mean_upper_population(params, 0.2, kappa_grid=4,
                                         n_time_samples=0).p_upper_mean
        assert pieces == [256, 512, 1024, 2048]
        oracle, _ = per_kappa_population(params, 0.2, kappa_grid=4, n_sites=1024,
                                         n_time_samples=1)
        assert oracle == pytest.approx(0.4960992436689, abs=1e-12)
        assert abs(mean - oracle) < 1e-9
        small = dyn.mean_upper_population(params, 0.2, kappa_grid=4, n_sites=448,
                                          n_time_samples=0).p_upper_mean
        assert abs(small - oracle) < 1e-9
        # below the grid this lattice needs, the doubling stops at the cap
        monkeypatch.setattr(dyn, "_MAX_PIECES", 1024)
        with pytest.raises(NonConvergedError, match="unresolved at 1024 pieces"):
            dyn.mean_upper_population(params, 0.2, kappa_grid=4, n_time_samples=0)

    def test_window_mean_at_coincident_levels(self):
        # without hopping at delta = F / 2 the two Floquet quasienergies
        # coincide: W = -1 over a Bloch period, and the packet stays on the A
        # sites; the window mean meets the 0/0 of its sinc at the degenerate
        # pair, which pytest would turn from a RuntimeWarning into an error
        params = LatticeParams(0.0, 0.0, 0.3, 0.6)
        eps, _ = dyn._floquet_overlaps(params, np.array([params.f]), 256)
        assert np.max(np.abs(np.exp(-1j * eps[0] * math.pi / params.f) + 1.0)) < 1e-15
        trace = dyn.mean_upper_population(params, params.f, n_time_samples=16)
        # zero up to the roundoff of |U| = 1 over the 256 pieces
        assert abs(trace.p_upper_mean) < 1e-13
        assert np.max(np.abs(trace.p_upper)) < 1e-13

    def test_edge_guard_checks_each_column(self):
        # the packets at 256 sites keep 7.6e-11 within the edge zone plus the
        # Bloch excursion, 10 + ceil(2 band_edge / F) = 23 sites of either end;
        # at 64 sites they reach the ends
        params = LatticeParams(0.76, 0.76, 0.4)
        dyn.mean_upper_population(params, 0.25, n_sites=256, sigma_cells=8.0,
                                  n_time_samples=0)
        with pytest.raises(EdgeContaminationError):
            dyn.mean_upper_population(params, 0.25, n_sites=64, sigma_cells=8.0,
                                      n_time_samples=0)
        # each packet is checked on its own: two columns at 0.6e-8 pass,
        # though their sum exceeds the bound, and one at 2e-8 does not
        packets = np.zeros((64, 2))
        packets[0] = math.sqrt(0.6e-8)
        dyn._check_edges(packets, 0.0, 23)
        packets[0, 1] = math.sqrt(2e-8)
        with pytest.raises(EdgeContaminationError):
            dyn._check_edges(packets, 0.0, 23)

    def test_gapless_rejected(self, monkeypatch):
        # rejected by the band projectors, before any integration
        monkeypatch.setattr(dyn, "_period_propagators", None)
        with pytest.raises(DegeneracyError, match="bands touch"):
            dyn.mean_upper_population(LatticeParams(0.7, 0.7, 0.0), 0.1)

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError, match="positive field"):
            dyn.mean_upper_population(LatticeParams(1.0, 0.6, 0.2), 0.0)

    def test_empty_kappa_grid_rejected(self):
        with pytest.raises(ValueError, match="kappa_grid"):
            dyn.mean_upper_population(LatticeParams(0.76, 0.76, 0.4), 0.25, kappa_grid=0)

    @pytest.mark.parametrize("kappa_grid", [1.5, math.nan, math.inf])
    def test_non_integral_kappa_grid_rejected(self, monkeypatch, kappa_grid):
        # 1.5 would build two packets and divide their weights by 1.5: 0.6515 at
        # 1/F = 3.15, against 0.4928 for one packet and 0.4933 for two
        monkeypatch.setattr(dyn, "_period_propagators", None)
        with pytest.raises(ValueError, match="^kappa_grid must be a whole number"):
            dyn.mean_upper_population(LatticeParams(0.76, 0.76, 0.4), 1.0 / 3.15,
                                      kappa_grid=kappa_grid)

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


class TestResonanceWidth:
    def test_width_tracks_gap_through_level_slope(self):
        # resonance FWHM in 1/F units is 2*gap/s with s = 2 C / z the relative
        # slope of the diabatic ladders; validated against the exact gap.  The
        # width is read off the scan between its two half-maximum crossings,
        # each interpolated linearly (1.06 times 2*gap/s)
        from starkladder.model import _tilted_band_mean
        params = LatticeParams(0.76, 0.76, 0.4, 0.1)
        z_star, gap = 8.78080, 1.73568e-02
        zs = np.linspace(z_star - 0.35, z_star + 0.35, 41)
        scan = np.array([trace.p_upper_mean for trace in dyn.mean_upper_populations(
            params, 1 / zs, n_bloch_periods=60.0, n_time_samples=0)])
        peak = int(np.argmax(scan))
        half = 0.5 * scan[peak]
        assert scan[0] < half and scan[-1] < half
        left = peak - int(np.argmax(scan[peak::-1] < half))  # last sample below, each side
        right = peak + int(np.argmax(scan[peak:] < half))
        z_left = np.interp(half, scan[left:left + 2], zs[left:left + 2])
        z_right = np.interp(half, scan[[right, right - 1]], zs[[right, right - 1]])
        slope = 2.0 * _tilted_band_mean(params.with_field(1 / z_star)) / z_star
        assert z_right - z_left == pytest.approx(2.0 * gap / slope, rel=0.3)


class TestTransferSmoke:
    def test_short_ramp_shapes_and_population_bounds(self):
        result = dyn.bloch_transfer_experiment(
            LatticeParams(1.0, 0.6, 0.0, 1.0 / 9.4), inv_f_start=9.4, inv_f_stop=8.7,
            duration=4 * math.pi * 9.4, n_samples=9, n_sites=384, tol=1e-6)
        assert result.density.shape == (9, 384)
        assert result.p_upper.shape == (9,)
        assert np.all((result.p_upper >= -1e-9) & (result.p_upper <= 1 + 1e-9))
