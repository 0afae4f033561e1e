import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from starkladder.errors import NonConvergedError
from starkladder.model import (ChainHamiltonian, LatticeParams, _tilted_band_mean,
                               build_chain, fold_interval)
from starkladder import spectra_exact as se
from starkladder import strong_field as sf

# roots of the characteristic polynomial (three-term recurrence) of the seeded
# 8x8 tridiagonal below, refined with 40-digit arithmetic
EIGS8 = np.array([
    -3.52802078666995354, -2.15783333391036964, -1.46562931470826009,
    -0.805400561599424891, 0.142750811514653985, 0.776051629272712318,
    1.13163887373742748, 3.08138327245817667,
])


def tridiag(diagonal, off_diagonal):
    diagonal = np.asarray(diagonal, dtype=float)
    return ChainHamiltonian(diagonal.size, diagonal, np.asarray(off_diagonal, dtype=float))


def seeded_tridiag():
    rng = np.random.default_rng(12345)
    return tridiag(rng.normal(size=8), rng.normal(size=7))


class TestSturm:
    def test_two_by_two(self):
        eigs = se.eigenvalues_symmetric_tridiagonal(tridiag(np.zeros(2), np.ones(1)))
        assert np.allclose(eigs, [-1.0, 1.0], atol=1e-13)

    def test_diagonal_matrix(self):
        d = np.array([3.0, -1.0, 2.0, 0.5])
        eigs = se.eigenvalues_symmetric_tridiagonal(tridiag(d, np.zeros(3)))
        assert np.allclose(eigs, np.sort(d), atol=1e-14)

    def test_single_site(self):
        eigs = se.eigenvalues_symmetric_tridiagonal(tridiag([2.5], []))
        assert eigs == pytest.approx(2.5)

    def test_random_matrix_against_charpoly_roots(self):
        eigs = se.eigenvalues_symmetric_tridiagonal(seeded_tridiag())
        assert np.max(np.abs(eigs - EIGS8)) < 1e-10

    def test_window_restriction(self):
        window = (-1.0, 1.0)
        eigs = se.eigenvalues_symmetric_tridiagonal(seeded_tridiag(), window=window)
        expected = EIGS8[(EIGS8 >= window[0]) & (EIGS8 <= window[1])]
        assert eigs.size == expected.size
        assert np.max(np.abs(eigs - expected)) < 1e-10
        # the window is closed: eigenvalues exactly at both ends are kept
        d = np.array([1.0, -2.0, 0.25, -1.0, 3.0])
        eigs = se.eigenvalues_symmetric_tridiagonal(tridiag(d, np.zeros(4)), window=window)
        assert eigs.tolist() == [-1.0, 0.25, 1.0]
        # NaN compares false both ways; it is refused by name, not left to LAPACK
        with pytest.raises(ValueError, match="window"):
            se.eigenvalues_symmetric_tridiagonal(seeded_tridiag(), window=(math.nan, 0.5))

    def test_tolerance_scales_with_radius(self):
        chain = build_chain(LatticeParams(0.76, 0.76, 0.0, 0.5), 512)
        eigs = se.eigenvalues_symmetric_tridiagonal(chain, window=(-2, 2))
        resid = eigs / 0.5 - 0.5
        assert np.max(np.abs(resid - np.rint(resid))) * 0.5 < 1e-12 * 130


# Pinned reference resolution: the midpoint rule is second order, and this
# count keeps it well inside 1e-9 without depending on the solver under test.
MIDPOINT_STEPS = 655360


def mpmath_monodromy(params, digits=18):
    """Independent reference: mpmath's Taylor-series ODE solver at ``digits``.

    Integrates the four entries of U under dU/dtheta = -i H(theta) U with
    H = (1/2F)[[F/2 + delta, g], [g*, -(F/2 + delta)]], g = j1 + j2 exp(-i theta),
    from U(0) = 1 to theta = 2 pi.
    """
    with mpmath.workdps(digits):
        f = mpmath.mpf(params.f)
        d = (f / 2 + mpmath.mpf(params.delta)) / (2 * f)
        j1, j2 = mpmath.mpf(params.j1), mpmath.mpf(params.j2)

        def rhs(theta, u):
            g = (j1 + j2 * mpmath.expj(-theta)) / (2 * f)
            gc = mpmath.conj(g)
            u11, u12, u21, u22 = u
            return [-1j * (d * u11 + g * u21), -1j * (d * u12 + g * u22),
                    -1j * (gc * u11 - d * u21), -1j * (gc * u12 - d * u22)]

        solution = mpmath.odefun(rhs, 0, [mpmath.mpc(1), mpmath.mpc(0),
                                          mpmath.mpc(0), mpmath.mpc(1)])
        u = solution(2 * mpmath.pi)
        return np.array([[complex(u[0]), complex(u[1])], [complex(u[2]), complex(u[3])]])


def midpoint_monodromy(params, n_steps=MIDPOINT_STEPS):
    """Independent integrator: product of exact midpoint exponentials.

    Each step exponential exp(-i h H(theta_mid)) of the traceless Hermitian
    generator is cos(w) - i sin(w)/w * h H with w = h |H|, evaluated with numpy
    for all steps at once; the product is accumulated by sequential
    left-multiplication in plain complex arithmetic.
    """
    h = 2.0 * math.pi / n_steps
    theta = (np.arange(n_steps) + 0.5) * h
    g12 = params.j1 + params.j2 * np.exp(-1j * theta)
    d = 0.5 * params.f + params.delta
    scale = h / (2.0 * params.f)
    w = scale * np.sqrt(d * d + np.abs(g12) ** 2)
    sin_ratio = np.sin(w) / w * scale
    cos_w = np.cos(w)
    e11 = (cos_w - 1j * sin_ratio * d).tolist()
    e12 = (-1j * sin_ratio * g12).tolist()
    e21 = (-1j * sin_ratio * np.conj(g12)).tolist()
    e22 = (cos_w + 1j * sin_ratio * d).tolist()
    u11, u12, u21, u22 = 1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j
    for a11, a12, a21, a22 in zip(e11, e12, e21, e22):
        u11, u12, u21, u22 = (a11 * u11 + a12 * u21, a11 * u12 + a12 * u22,
                              a21 * u11 + a22 * u21, a21 * u12 + a22 * u22)
    return np.array([[u11, u12], [u21, u22]])


class TestMonodromy:
    def test_hopping_free_lattice(self):
        mono = se.monodromy(LatticeParams(0.0, 0.0, 0.0, 0.7))
        expected = np.diag([cmath.exp(-1j * math.pi / 2), cmath.exp(1j * math.pi / 2)])
        assert np.max(np.abs(mono.matrix - expected)) < 1e-11

    @pytest.mark.parametrize("j,f", [(0.4, 0.3), (0.76, 0.5), (1.0, 2.0)])
    def test_plain_lattice_eigenphases(self, j, f):
        mono = se.monodromy(LatticeParams(j, j, 0.0, f))
        assert mono.eigenphase == pytest.approx(math.pi / 2, abs=1e-10)

    def test_unitarity_and_conjugate_pair(self):
        for params in [LatticeParams(1.0, 0.6, 0.0, 0.1),
                       LatticeParams(0.76, 0.76, 0.4, 0.8)]:
            mono = se.monodromy(params)
            u = mono.matrix
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-10
            lam = np.linalg.eigvals(u)
            lam = lam[np.argsort(lam.imag)]  # the pair exp(-+i phi), phi in [0, pi]
            assert np.max(np.abs(lam - np.exp([-1j * mono.eigenphase,
                                               1j * mono.eigenphase]))) < 1e-10
            det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
            assert abs(det - 1.0) < 1e-10

    def test_against_independent_midpoint_integrator(self):
        params = LatticeParams(1.0, 0.6, 0.0, 0.1)
        mono = se.monodromy(params)
        ref = midpoint_monodromy(params)
        assert np.max(np.abs(mono.matrix - ref)) < 1e-9

    def test_unitary_and_batch_consistent_across_memory_blocks(self):
        # 1/F = 300 needs 32768 steps: the half period the kernel integrates
        # spans several of its blocks
        params = LatticeParams(1.0, 0.6, 0.0, 1.0 / 300.0)
        mono = se.monodromy(params)
        assert mono.integration_steps // 2 > se._BLOCK_MATRICES
        u = mono.matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-13
        # a batch of three fields splits the steps into other blocks, which
        # multiply as the same binary tree
        fields = np.array([params.f, 1.0 / 299.0, 1.0 / 301.0])
        a, b, _ = se._period_propagators(params, fields, 1, se._PHASE_TOL)
        assert mono.eigenphase == se._eigenphase(a[0, 0], b[0, 0])
        # the midpoint reference errs by 1.3e-9 at its default steps here
        assert np.max(np.abs(u - midpoint_monodromy(params, 2 * MIDPOINT_STEPS))) < 1e-9

    def test_field_required(self):
        with pytest.raises(ValueError):
            se.monodromy(LatticeParams(1.0, 0.6, 0.0, 0.0))

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-6, 1e-3])
    def test_eigenphase_accurate_near_pi(self, eps):
        # hopping-free: U = diag(exp(-i pi (1/2 + delta/F)), c.c.), so the
        # principal eigenphase is pi (1 - eps/2) at delta = (F/2)(1 - eps)
        params = LatticeParams(0.0, 0.0, 0.5 * (1.0 - eps), 1.0)
        exact = math.pi * (1.0 - 0.5 * eps)
        assert abs(se.monodromy(params).eigenphase - exact) < 1e-14
        # the crossing scan's splitting (2F/pi)(pi - phi) = eps F
        assert abs(se._gaps(params, [1.0])[0] - eps) < 1e-14

    def test_tolerance_must_be_positive(self):
        # tol = inf would stop after one doubling (128 steps): at F = 1/9 that
        # eigenphase is 2.8e-8 from the converged one
        for tol in (0.0, -1e-9, math.nan, math.inf):
            for solve in (se.monodromy, se.ws_spectrum_floquet):
                with pytest.raises(ValueError, match="tol"):
                    solve(LatticeParams(1.0, 0.6, 0.0, 0.1), tol=tol)

    def test_step_doubling_fails_fast_below_roundoff(self, monkeypatch):
        # at 1/F = 20 the entries cannot settle to 1e-15: once the truncation
        # error is gone each doubling adds roundoff instead of removing it.
        # The message counts steps per period; the kernel integrates half of it
        kernel = se._magnus_product
        calls = []

        def counted(coupling, diagonal, h, n_steps):
            calls.append(n_steps)
            if len(calls) > 10:
                pytest.fail(f"step doubling kept going: {calls}")
            return kernel(coupling, diagonal, h, n_steps)

        monkeypatch.setattr(se, "_magnus_product", counted)
        with pytest.raises(NonConvergedError) as info:
            se.monodromy(LatticeParams(1.0, 0.6, 0.0, 1.0 / 20.0), tol=1e-15)
        message = str(info.value)
        assert f"{2 * calls[-1]} steps" in message and "tol = 1e-15" in message

    @pytest.mark.parametrize("inv_f", [150.0, 300.0, 600.0])
    def test_weak_fields_converge_through_pre_asymptotic_doublings(self, inv_f):
        # at large 1/F the first doublings cut the change by less than 4x;
        # the fail-fast rule must wait until the changes are asymptotic
        params = LatticeParams(1.0, 0.6, 0.3, 1.0 / inv_f)
        mono = se.monodromy(params)
        tight = se.monodromy(params, tol=1e-13)
        assert np.max(np.abs(mono.matrix - tight.matrix)) < 1e-10

    def test_magnus_step_is_sixth_order(self, monkeypatch):
        # step doubling cuts the change 2^6 = 64x in the asymptotic range;
        # a fourth-order step would give 16x and still converge, only slower
        params = LatticeParams(1.0, 0.6, 0.0, 1.0 / 9.0957)

        def at_steps(n):  # fixed steps in place of the doubling rule
            def fixed(propagators, size, tol, start):
                a, b = propagators(np.arange(size), n)
                return a, b, np.full(size, n)

            monkeypatch.setattr(se, "_converged", fixed)
            return se._period_propagators(params, np.array([params.f]), 1, se._PHASE_TOL)[0]

        a = [at_steps(n).item() for n in (128, 256, 512, 1024)]
        changes = np.abs(np.diff(a))
        assert np.all(changes[:-1] / changes[1:] > 40.0)

    def test_matches_mpmath_taylor_integration(self):
        # crossing_a; an 18-digit Taylor-series integration of
        # dU/dtheta = -i H(theta) U shares no step, quadrature or product
        # with the Magnus kernel
        params = LatticeParams(1.0, 0.6, 0.0, 1.0 / 9.0957)
        assert np.max(np.abs(se.monodromy(params, tol=1e-13).matrix
                             - mpmath_monodromy(params))) < 1e-12

    @pytest.mark.parametrize("lattice", [(0.76, 0.76, 0.4, 1.0 / 3.1524),
                                         (1.0, 0.6, -0.3, 0.2)])
    def test_matches_mpmath_taylor_integration_at_nonzero_delta(self, lattice):
        # crossing_b and a negative stagger, where the half-period mirror
        # carries the on-site energies too: 3.6e-15 and 1.0e-15
        params = LatticeParams(*lattice)
        assert np.max(np.abs(se.monodromy(params, tol=1e-13).matrix
                             - mpmath_monodromy(params))) < 1e-12

    @pytest.mark.parametrize("lattice", [(1.0, 0.6, 0.0), (1.0, 0.6, 0.3),
                                         (0.76, 0.76, 0.4), (1.0, 0.4, 0.1)])
    def test_pieces_multiply_to_the_period_propagator(self, lattice):
        # the SU(2) product of the eight pieces of the period, later pieces on
        # the left, is the one-piece propagator; at tol 1e-13 the two sides
        # differ by at most 6.7e-15 over 1/F in [1.5, 12]
        params = LatticeParams(*lattice)
        fields = 1.0 / np.linspace(1.5, 12.0, 9)
        a, b, _ = se._period_propagators(params, fields, 8, 1e-13)
        one_a, one_b, _ = se._period_propagators(params, fields, 1, 1e-13)
        prod_a, prod_b = a[:, 0], b[:, 0]
        for j in range(1, 8):
            prod_a, prod_b = se._su2_mul(a[:, j], b[:, j], prod_a, prod_b)
        assert np.max(np.abs(prod_a - one_a[:, 0])) < 1e-13
        assert np.max(np.abs(prod_b - one_b[:, 0])) < 1e-13


def random_su2(rng, shape):
    v = rng.normal(size=(4, *shape))
    v /= np.linalg.norm(v, axis=0)
    return v[0] + 1j * v[1], v[2] + 1j * v[3]


class TestPrefixProducts:
    @pytest.mark.parametrize("n_pieces", [1, 2, 3, 31, 161])
    def test_matches_one_piece_at_a_time(self, n_pieces):
        # generic SU(2) pieces: the scan and the left-to-right product differ by
        # roundoff that grows with the piece count, 1.1e-15 at 31 and 3.1e-15
        # at 161 pieces over 20 draws; P roundings of unit entries bound it
        a, b = random_su2(np.random.default_rng(n_pieces), (2, 3, n_pieces))
        pre_a, pre_b = se._prefix_products(a, b)
        assert pre_a.shape == pre_b.shape == (2, 3, n_pieces + 1)
        assert np.array_equal(pre_a[..., 0], np.ones((2, 3)))
        assert np.array_equal(pre_b[..., 0], np.zeros((2, 3)))
        prod_a, prod_b = np.ones((2, 3)), np.zeros((2, 3))
        for j in range(n_pieces):
            prod_a, prod_b = se._su2_mul(a[..., j], b[..., j], prod_a, prod_b)
            assert np.max(np.abs(pre_a[..., j + 1] - prod_a)) <= n_pieces * 2.0**-52
            assert np.max(np.abs(pre_b[..., j + 1] - prod_b)) <= n_pieces * 2.0**-52

    def test_leading_axes_are_batch_axes(self):
        # each row of a batch gets the same bits as on its own, and the
        # pieces are left as they were
        a, b = random_su2(np.random.default_rng(5), (2, 3, 37))
        pieces = a.copy(), b.copy()
        pre_a, pre_b = se._prefix_products(a, b)
        assert np.array_equal(a, pieces[0]) and np.array_equal(b, pieces[1])
        for i, j in np.ndindex(2, 3):
            row_a, row_b = se._prefix_products(a[i, j], b[i, j])
            assert np.array_equal(row_a, pre_a[i, j])
            assert np.array_equal(row_b, pre_b[i, j])


class TestHalfPeriod:
    @pytest.mark.parametrize("n_pieces", [0, 3, 6, 12, -2])
    def test_piece_count_must_be_a_power_of_two(self, monkeypatch, n_pieces):
        # the mirror pairs piece j with piece P - 1 - j of the period
        monkeypatch.setattr(se, "_converged", None)
        with pytest.raises(ValueError, match="power of two"):
            se._period_propagators(LatticeParams(1.0, 0.6, 0.0, 0.2), np.array([0.2]),
                                   n_pieces, se._PHASE_TOL)

    @pytest.mark.parametrize("lattice", [(1.0, 0.6, 0.0), (0.76, 0.76, 0.4), (1.0, 0.6, -0.3),
                                         (1.0, 0.0, 0.3), (0.0, 0.8, 0.3)])
    @pytest.mark.parametrize("n_pieces", [1, 2, 8, 256])
    def test_mirrored_half_matches_the_whole_period(self, monkeypatch, lattice, n_pieces):
        # every piece of the period integrated directly on the ring and taken
        # to the lab frame: the same entries to roundoff (worst 1.8e-15) and
        # step counts, from half the kernel's step matrices
        params = LatticeParams(*lattice)
        fields = 1.0 / np.array([1.5, 3.1524, 9.0957])
        matrices, kernel = [], se._magnus_product

        def counted(coupling, diagonal, h, n_steps):
            matrices.append(n_steps * h.size)
            return kernel(coupling, diagonal, h, n_steps)

        monkeypatch.setattr(se, "_magnus_product", counted)
        a, b, steps = se._period_propagators(params, fields, n_pieces, 1e-13)
        half = sum(matrices)
        matrices.clear()
        piece = np.arange(n_pieces)
        phases = np.array([piece, np.ones(n_pieces), np.zeros(n_pieces)]) * math.pi / n_pieces
        ring = se._ring_propagators(params, phases, np.tile(piece, fields.size),
                                    np.repeat(math.pi / (n_pieces * fields), n_pieces),
                                    np.array([params.j2]), 1e-13)
        ring_a, ring_b, ring_steps = (x.reshape(fields.size, n_pieces) for x in ring)
        assert 2 * half == sum(matrices)
        assert np.array_equal(steps, ring_steps)
        assert np.max(np.abs(a - ring_a * np.exp(0.5j * math.pi / n_pieces))) <= 1e-14
        assert np.max(np.abs(b - ring_b * np.exp(
            0.5j * math.pi * (2 * piece + 1) / n_pieces))) <= 1e-14

    @pytest.mark.parametrize("n_pieces", [1, 2, 8, 256])
    def test_one_doubling_pass_over_the_integrated_pieces(self, monkeypatch, n_pieces):
        # P >= 2: only the P / 2 integrated pieces of each field are step-doubled,
        # and their mirrors are built once; P = 1: the closed period of each field
        fields = 1.0 / np.array([1.5, 3.1524, 9.0957])
        sizes, converged = [], se._converged

        def record(propagators, size, tol, periods):
            sizes.append(size)
            return converged(propagators, size, tol, periods)

        monkeypatch.setattr(se, "_converged", record)
        se._period_propagators(LatticeParams(1.0, 0.6, 0.3), fields, n_pieces, 1e-13)
        assert sizes == [fields.size * max(n_pieces // 2, 1)]


def blanes_exponent(g, diagonal, h):
    """The sixth-order Magnus step exponent Omega = -i v . sigma of
    i dU/dt = [[d, g], [g*, -d]] U in real Pauli vectors, built in each step's
    own h (Blanes, Casas, Oteo & Ros 2009): v of shape (3, steps, batch) from g
    at the three Gauss nodes, shape (3, steps, batch), d = ``diagonal`` and the
    step lengths h, shape (batch,)."""
    def cross(x, y):
        return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
                x[0] * y[1] - x[1] * y[0])

    g1, g2, g3 = g
    u1 = h * g2
    u2 = (math.sqrt(15.0) * h / 3.0) * (g3 - g1)
    u3 = (10.0 * h / 3.0) * (g3 - 2.0 * g2 + g1)
    zero = np.zeros(u1.shape)
    alpha1 = (u1.real, -u1.imag, zero + h * diagonal)
    alpha2 = (u2.real, -u2.imag, zero)
    alpha3 = (u3.real, -u3.imag, zero)
    c1 = [2.0 * c for c in cross(alpha1, alpha2)]
    c2 = [-c / 30.0 for c in cross(alpha1, [2.0 * p + q for p, q in zip(alpha3, c1)])]
    left = [-20.0 * p - q + r for p, q, r in zip(alpha1, alpha3, c1)]
    right = [p + q for p, q in zip(alpha2, c2)]
    return np.array([p + q / 12.0 + r / 120.0
                     for p, q, r in zip(alpha1, alpha3, cross(left, right))])


class TestMagnusKernel:
    @pytest.mark.parametrize("seed", range(4))
    def test_exponent_matches_the_real_vector_formula(self, seed):
        # g = j1 exp(-i Phi) + hop exp(i Phi) with complex hops (the ring at
        # kappa != 0), delta != 0; the kernel holds v turned by pi about x
        rng = np.random.default_rng(seed)
        steps, sequences, batch = 8, 5, 40
        phi = rng.uniform(0.0, 2.0 * math.pi, (3, steps, sequences))
        hop = rng.uniform(0.0, 1.0, sequences) * np.exp(2j * math.pi * rng.uniform(size=sequences))
        g = rng.uniform(0.2, 1.0) * np.exp(-1j * phi) + hop * np.exp(1j * phi)
        diagonal = rng.uniform(-0.6, 0.6)
        h = rng.uniform(0.01, 0.3, batch)
        index = rng.integers(0, sequences, batch)
        x, y, z = se._step_exponents(g.copy(), diagonal, h, index)
        v = blanes_exponent(g[..., index], diagonal, h)
        assert np.max(np.abs(np.array([x, -y, -z]) - v)) <= 1e-15
        # a sequence per element, in order: no gather
        x, y, z = se._step_exponents(g[..., index], diagonal, h, slice(None))
        assert np.max(np.abs(np.array([x, -y, -z]) - v)) <= 1e-15

    @pytest.mark.parametrize("lattice, inv_f, n_pieces, tol", [
        # crossing_a's window, one piece per period
        ((1.0, 0.6, 0.0), np.linspace(8.9, 9.3, 34), 1, se._PHASE_TOL),
        # the benchmark's resonance scan
        ((0.76, 0.76, 0.4), np.linspace(3.0, 3.3, 48), 256, 1e-14),
    ])
    def test_the_block_size_changes_no_number(self, monkeypatch, lattice, inv_f, n_pieces, tol):
        # blocks and batch parts of any power-of-two size multiply as one
        # binary tree, so every entry and step count keeps its bits
        params = LatticeParams(*lattice)
        results = []
        for bound in (se._BLOCK_MATRICES, 512, 64):
            monkeypatch.setattr(se, "_BLOCK_MATRICES", bound)
            results.append(se._period_propagators(params, 1.0 / inv_f, n_pieces, tol))
        for result in results[1:]:
            for x, reference in zip(result, results[0]):
                assert np.array_equal(x, reference)

    @staticmethod
    def spy_on_couplings(monkeypatch):
        """(sequences, batch, index) of every coupling call the kernel makes."""
        calls, kernel = [], se._magnus_product

        def spy(coupling, diagonal, h, n_steps):
            def spied(s):
                g, index = coupling(s)
                calls.append((g.shape[-1], h.size, index))
                return g, index

            return kernel(spied, diagonal, h, n_steps)

        monkeypatch.setattr(se, "_magnus_product", spy)
        return calls

    @pytest.mark.parametrize("n_pieces, sequences", [(1, 1), (256, 128)])
    def test_the_fields_of_a_sweep_share_their_sequences(self, monkeypatch, n_pieces,
                                                         sequences):
        # a 16-field crossing proxy integrates one coupling sequence; a
        # resonance pass the P / 2 first-half pieces of the period
        calls = self.spy_on_couplings(monkeypatch)
        fields = 1.0 / np.linspace(3.0, 3.3, 16)
        se._period_propagators(LatticeParams(0.76, 0.76, 0.4), fields, n_pieces, 1e-14)
        assert calls[0][:2] == (sequences, fields.size * sequences)
        for count, batch, index in calls:
            assert count <= sequences
            assert isinstance(index, slice) if count == 1 else index.shape == (batch,)

    def test_a_sequence_per_element_is_not_gathered(self, monkeypatch):
        # the transfer path: three ramped pieces, two ring wavevectors
        calls = self.spy_on_couplings(monkeypatch)
        phases = np.array([[0.0, 1.0, 2.0], np.ones(3), [0.0, 0.1, 0.0]])
        se._ring_propagators(LatticeParams(1.0, 0.6, 0.2), phases, np.arange(3), np.full(3, 2.0),
                             0.6 * np.exp(-2j * np.array([0.1, 0.7])), 1e-10)
        assert calls and all(count == batch and isinstance(index, slice)
                             for count, batch, index in calls)


class TestFloquetLadder:
    def test_trivial_single_ladder(self):
        p = LatticeParams(0.76, 0.76, 0.0, 0.5)
        spec = se.ws_spectrum_floquet(p, range(-3, 4))
        steps = spec.energies / p.f - 0.5
        assert np.max(np.abs(steps - np.rint(steps))) < 1e-12

    def test_small_field_offsets_near_band_means(self):
        p = LatticeParams(1.0, 0.6, 0.0, 0.02)
        c = _tilted_band_mean(p.with_field(0.0))
        spec = se.ws_spectrum_floquet(p, range(-2, 3))
        o_minus, o_plus = spec.branch_offsets()
        assert abs(fold_interval(o_plus - c, 2 * p.f)) < 5e-3
        assert abs(fold_interval(o_minus + c, 2 * p.f)) < 5e-3

    @pytest.mark.parametrize("delta", [0.3, -0.3])
    def test_flat_band_plus_ladder_on_the_upper_sites(self, delta):
        # j1 = j2 = 0: the upper band sits on B (delta > 0, x = 2l + 1/2) or on
        # A (delta < 0, x = 2l - 1/2), so the plus ladder is |delta| +- F/2 + 2Fl
        p = LatticeParams(0.0, 0.0, delta, 0.25)
        o_minus, o_plus = se.ws_spectrum_floquet(p, range(-2, 3)).branch_offsets()
        expected = abs(delta) + math.copysign(0.5 * p.f, delta)
        assert abs(fold_interval(o_plus - expected, 2 * p.f)) < 1e-12
        assert abs(fold_interval(o_minus + expected, 2 * p.f)) < 1e-12

    @pytest.mark.parametrize("lattice", [(1.0, 0.0, 0.3), (1.0, 0.0, -0.7),
                                         (0.0, 0.8, 0.3), (0.0, 0.8, -0.2)])
    def test_isolated_dimers_give_exact_ladders(self, lattice):
        # one bond of the cell cut: the chain falls into tilted dimers, whose
        # levels are +-sqrt((delta + F/2)^2 + j1^2) (j2 = 0, the A-B dimer of
        # a cell) or F +- sqrt((delta - F/2)^2 + j2^2) (j1 = 0, B of one cell
        # with A of the next), each mod 2F; worst 8.9e-14 F over 1/F in [0.5, 200]
        j1, j2, delta = lattice
        fields = 1.0 / np.geomspace(0.5, 200.0, 25)
        for f, spec in zip(fields, se.floquet_ladders(LatticeParams(*lattice), fields)):
            if j2 == 0.0:
                centre, root = 0.0, math.hypot(delta + 0.5 * f, j1)
            else:
                centre, root = f, math.hypot(delta - 0.5 * f, j2)
            o_minus, o_plus = spec.branch_offsets()
            err = min(max(abs(fold_interval(o_minus - lo, 2 * f)),
                          abs(fold_interval(o_plus - hi, 2 * f)))
                      for lo, hi in [(centre - root, centre + root),
                                     (centre + root, centre - root)])
            assert err <= 1e-12 * f

    def test_ladder_periodicity_exact(self):
        p = LatticeParams(1.0, 0.6, 0.3, 0.2)
        spec = se.ws_spectrum_floquet(p, range(-4, 5))
        for branch in (1, -1):
            diffs = np.diff(spec.energies[spec.branches == branch])
            assert np.allclose(diffs, 2 * p.f, atol=1e-12)


class TestFloquetSweep:
    def test_one_batch_matches_each_field_alone(self, monkeypatch):
        # 40 fields, 1/F from 0.2 to 40: each keeps the bits and step count of
        # its own integration; only the kernel's block split differs
        p = LatticeParams(0.76, 0.76, 0.4, 0.0)
        fields = 1.0 / np.linspace(0.2, 40.0, 40)
        batches, kernel = [], se._period_propagators

        def record(params, fields, n_pieces, tol):
            result = kernel(params, fields, n_pieces, tol)
            batches.append(result[2][:, 0])
            return result

        monkeypatch.setattr(se, "_period_propagators", record)
        sweep = se.floquet_ladders(p, fields, range(-3, 4))
        (steps,) = batches
        for f, n_steps, spec in zip(fields, steps, sweep):
            alone = se.ws_spectrum_floquet(p.with_field(f), range(-3, 4))
            assert se.monodromy(p.with_field(f)).integration_steps == n_steps
            assert spec.field == f
            assert np.array_equal(spec.branches, alone.branches)
            assert np.array_equal(spec.indices, alone.indices)
            assert np.array_equal(spec.energies, alone.energies)

    def test_fields_are_checked_before_any_integration(self, monkeypatch):
        monkeypatch.setattr(se, "_period_propagators", None)
        with pytest.raises(ValueError, match="positive field"):
            se.floquet_ladders(LatticeParams(1.0, 0.6, 0.0, 0.0), [0.5, 0.0])


class TestTruncated:
    def test_merged_trivial_ladder(self):
        p = LatticeParams(0.76, 0.76, 0.0, 0.5)
        spec = se.ws_spectrum_truncated(p, window=(-2, 2))
        assert spec.converged.all()
        steps = spec.energies / p.f - 0.5
        assert np.max(np.abs(steps - np.rint(steps))) < 1e-10
        merged = fold_interval(spec.energies, p.f)
        assert np.all(merged > -0.25 - 1e-9) and np.all(merged <= 0.25 + 1e-9)

    def test_cross_method_agreement_case(self):
        p = LatticeParams(1.0, 0.6, 0.0, 0.2)
        trunc = se.ws_spectrum_truncated(p, window=(-3, 3))
        floq = se.ws_spectrum_floquet(p, range(-12, 13))
        for energy, conv in zip(trunc.energies, trunc.converged):
            if conv:
                assert np.min(np.abs(floq.energies - energy)) < 1e-8

    def test_cross_method_agreement_random_parameters(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            j1, j2 = rng.uniform(0.3, 1.2, size=2)
            delta = rng.uniform(0.0, 0.5)
            f = rng.uniform(0.05, 2.0)
            p = LatticeParams(j1, j2, delta, f)
            trunc = se.ws_spectrum_truncated(p, window=(-1.5, 1.5))
            floq = se.ws_spectrum_floquet(
                p, range(-int(3 + 2 / f) - 2, int(3 + 2 / f) + 3))
            for energy, branch, n, conv in zip(trunc.energies, trunc.branches,
                                               trunc.indices, trunc.converged):
                if conv:
                    nearest = np.argmin(np.abs(floq.energies - energy))
                    assert abs(floq.energies[nearest] - energy) < 1e-8
                    assert (branch, n) == (floq.branches[nearest], floq.indices[nearest])

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.3, 1.2), st.floats(0.3, 1.2), st.floats(-0.5, 0.5),
           st.floats(0.5, 15.0))
    def test_converged_levels_are_floquet_levels(self, j1, j2, delta, inv_f):
        # the two exact routes share no solver: every converged level of the
        # truncated chain's default window is a level of the monodromy ladders
        assume(math.hypot(delta, j1 - j2) >= 0.05)
        p = LatticeParams(j1, j2, delta, 1.0 / inv_f)
        trunc = se.ws_spectrum_truncated(p)
        levels = trunc.energies[trunc.converged]
        assert levels.size > 0
        n_max = math.ceil(np.max(np.abs(levels)) / (2.0 * p.f)) + 2
        floq = se.ws_spectrum_floquet(p, range(-n_max, n_max + 1))
        distance = np.abs(levels[:, None] - floq.energies[None, :]).min(axis=1)
        assert np.max(distance) < 1e-9 * max(1.0, p.f)

    def test_labels_without_the_monodromy_integrator(self, monkeypatch):
        p = LatticeParams(1.0, 0.6, 0.0, 0.2)
        floq = se.ws_spectrum_floquet(p, range(-12, 13))

        def unavailable(*args, **kwargs):
            raise AssertionError("the truncated route must not integrate the monodromy")

        monkeypatch.setattr(se, "monodromy", unavailable)
        monkeypatch.setattr(se, "_period_propagators", unavailable)
        trunc = se.ws_spectrum_truncated(p, window=(-2, 2))
        assert trunc.energies.size > 0 and trunc.converged.all()
        assert trunc.branch_offsets() == pytest.approx(floq.branch_offsets(), abs=1e-9)

    @pytest.mark.parametrize("f", [0.25, 0.2])
    def test_flat_band_negative_stagger(self, f):
        # j1 = j2 = 0, delta < 0: the upper band sits on the A sites, so the
        # plus ladder is |delta| - F/2 + 2Fn, offsets folded into (-F, F].
        # At F = 0.2 the two ladders coincide (eigenphase pi): both offsets
        # fold to +0.2 and each doubled level holds one plus and one minus.
        p = LatticeParams(0.0, 0.0, -0.3, f)
        spec = se.ws_spectrum_truncated(p, window=(-1, 1))
        offset = fold_interval(np.where(spec.branches == 1, 0.3 - 0.5 * f, 0.5 * f - 0.3),
                               2 * f)
        assert np.max(np.abs(spec.energies - offset - 2 * f * spec.indices)) < 1e-12
        if f == 0.2:
            assert np.allclose(spec.energies[spec.branches == 1],
                               spec.energies[spec.branches == -1], rtol=0.0, atol=1e-12)

    def test_coincident_ladders_pair_up(self):
        # delta = F/2 without hopping is an exact crossing: both ladders are
        # F + 2Fn, and each doubled level is one of each with the same n
        f = 0.6
        spec = se.ws_spectrum_truncated(LatticeParams(0.0, 0.0, 0.3, f), n_sites=64,
                                        window=(-2, 2))
        plus, minus = spec.branches == 1, spec.branches == -1
        assert plus.sum() == minus.sum() > 1
        assert np.array_equal(spec.indices[plus], spec.indices[minus])
        assert np.max(np.abs(spec.energies[plus] - spec.energies[minus])) < 1e-12
        assert np.all(np.diff(spec.indices[plus]) == 1)
        assert spec.branch_offsets() == pytest.approx((f, f), rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("delta,f", [(0.3, 0.6), (-0.3, 0.2), (0.3, 0.25), (-0.3, 0.25)])
    def test_branch_offsets_agree_across_routes(self, delta, f):
        # both routes read the offset the labels use, E - 2Fn, as a plain number,
        # also where the two ladders coincide on the edge F of the domain
        p = LatticeParams(0.0, 0.0, delta, f)
        trunc = se.ws_spectrum_truncated(p)
        floq = se.ws_spectrum_floquet(p)
        assert trunc.branch_offsets() == pytest.approx(floq.branch_offsets(), rel=0.0,
                                                       abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.3, 1.2), st.floats(0.3, 1.2), st.floats(-0.5, 0.5),
           st.floats(0.1, 2.0))
    def test_self_labelled_ladders_are_periodic(self, j1, j2, delta, f):
        p = LatticeParams(j1, j2, delta, f)
        spec = se.ws_spectrum_truncated(p)
        for branch in (1, -1):
            keep = (spec.branches == branch) & spec.converged
            assert np.all(np.diff(spec.indices[keep]) == 1)
            assert np.max(np.abs(np.diff(spec.energies[keep]) - 2 * f), initial=0.0) < 1e-9

    def test_truncated_ladder_spacing_away_from_edges(self):
        p = LatticeParams(1.0, 0.6, 0.0, 0.2)
        spec = se.ws_spectrum_truncated(p, window=(-2, 2))
        for branch in (1, -1):
            energies = spec.energies[spec.branches == branch]
            assert np.max(np.abs(np.diff(energies) - 2 * p.f)) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.3, 1.2), st.floats(0.3, 1.2), st.floats(0.1, 2.0))
    def test_chiral_symmetry_of_fundamental_domain(self, j1, j2, f):
        # at delta = 0 the spectrum is closed under E -> -E
        p = LatticeParams(j1, j2, 0.0, f)
        spec = se.ws_spectrum_truncated(p)
        folded = fold_interval(spec.energies[spec.converged], 2 * f)
        mirrored = fold_interval(-folded, 2 * f)
        distance = np.abs(fold_interval(mirrored[:, None] - folded[None, :], 2 * f))
        assert folded.size > 0
        assert np.max(distance.min(axis=1)) < 1e-9

    def test_strong_field_offsets_match_expansion(self):
        p = LatticeParams(0.76, 0.76, 0.4, 5.0)
        spec = se.ws_spectrum_truncated(p, window=(-12, 12))
        o_minus, o_plus = spec.branch_offsets()
        pi1, _ = sf.pi_coefficients(p)
        predicted = 0.5 * p.f + p.epsilon2 * pi1
        assert abs(o_plus - predicted) < 5e-3
        assert abs(o_minus + predicted) < 5e-3

    def test_wide_window_rejected(self):
        p = LatticeParams(1.0, 0.6, 0.0, 0.2)
        with pytest.raises(ValueError):
            se.ws_spectrum_truncated(p, n_sites=64, window=(-50, 50))
        # LAPACK's LinAlgError is a ValueError too, so the match tells them apart
        with pytest.raises(ValueError, match="window"):
            se.ws_spectrum_truncated(p, n_sites=64, window=(math.nan, 1.0))
        # no chain holds an infinite window, whatever its size
        with pytest.raises(ValueError, match="window"):
            se.ws_spectrum_truncated(p, window=(-math.inf, 1.0))

    def test_wide_window_sizes_the_default_chain(self):
        # the default chain grows with the window: 860 sites hold these 800
        # levels, whose reach lies beyond the tilt span of 512 sites
        p = LatticeParams(1.0, 0.6, 0.0, 0.5)
        spec = se.ws_spectrum_truncated(p, window=(-200, 200))
        assert se.default_chain_size(p, (-200, 200)) == 860
        assert spec.energies.size == 800 and spec.converged.all()
        o_minus, o_plus = se.ws_spectrum_floquet(p).branch_offsets()
        ladder = np.where(spec.branches == 1, o_plus, o_minus) + 2 * p.f * spec.indices
        assert np.max(np.abs(spec.energies - ladder)) < 1e-10


class TestCrossings:
    def test_ssh_crossing_near_nine(self):
        p = LatticeParams(1.0, 0.6, 0.0, 0.1)
        found = se.find_avoided_crossings(p, (8.5, 9.5), resolution=120)
        assert len(found) == 1
        # reference: monodromy entries to 1e-13, confirmed by a truncated chain
        assert found[0].inv_f_star == pytest.approx(9.095668764648863, rel=1e-6)
        assert found[0].gap == pytest.approx(0.016336402549214608, rel=1e-8)

    def test_single_ladder_has_no_crossings(self):
        p = LatticeParams(0.76, 0.76, 0.0, 0.1)
        assert se.find_avoided_crossings(p, (4.0, 8.0), resolution=100) == []

    def test_gap_symmetric_under_branch_exchange(self):
        # at delta = 0, j1 <-> j2 is a relabelling of the cell: same gaps
        z = np.linspace(1.0, 20.0, 40)
        gap = se._gaps(LatticeParams(1.0, 0.6, 0.0, 1.0), z)
        swapped = se._gaps(LatticeParams(0.6, 1.0, 0.0, 1.0), z)
        assert np.max(np.abs(gap - swapped) / gap) < 1e-9

    def test_exact_atomic_crossing_has_zero_gap(self):
        # j1 = j2 = 0, delta = F/2: the two atomic ladders coincide exactly
        p = LatticeParams(0.0, 0.0, 0.5, 1.0)
        assert se._gaps(p, [1.0])[0] < 1e-12 * p.f

    def test_two_crossings_in_one_window_match_a_dense_direct_scan(self):
        p = LatticeParams(1.0, 0.6, 0.0, 1.0)
        found = se.find_avoided_crossings(p, (12.6, 13.8), resolution=100)
        assert [round(c.inv_f_star, 1) for c in found] == [12.8, 13.7]
        for c in found:
            # integrated directly at 201 points 1e-7 * z apart around the result
            z = c.inv_f_star * (1.0 + 1e-7 * np.arange(-100, 101))
            gaps = se._gaps(p, z)
            best = int(np.argmin(gaps))
            assert 0 < best < z.size - 1
            assert abs(c.inv_f_star - z[best]) < 1e-6 * z[best]
            assert abs(c.gap - gaps[best]) < 1e-8 * gaps[best]

    def test_all_gaps_come_from_one_integration(self, monkeypatch):
        # five crossings over 1/F in [1, 6]: one batch of five gaps, each
        # within 1e-12 of its own integration
        from scipy.optimize import minimize_scalar

        p = LatticeParams(1.0, 0.6, 0.0, 1.0)
        batches, gaps = [], se._gaps

        def record(params, inv_f):
            batches.append(list(inv_f))
            return gaps(params, inv_f)

        monkeypatch.setattr(se, "_gaps", record)
        found = se.find_avoided_crossings(p, (1.0, 6.0))
        z_stars = [c.inv_f_star for c in found]
        assert batches == [z_stars]
        assert z_stars == pytest.approx([1.72716398, 2.63092440, 3.55318882, 4.47860127,
                                         5.40393037], rel=1e-8)
        for c in found:
            alone = gaps(p, [c.inv_f_star])[0]
            assert abs(c.gap - alone) <= 1e-12 * alone
            # on these flat minima roundoff moves a Brent minimum of the direct
            # gap (tol 1e-13) by about 1e-9 relative; the proxy's lie within 7e-10
            z = c.inv_f_star
            brent = minimize_scalar(lambda x: gaps(p, [x])[0], method="brent", tol=1e-13,
                                    bracket=(z * (1.0 - 1e-6), z, z * (1.0 + 1e-6))).x
            assert abs(brent - z) <= 2e-9 * z

    def test_exact_atomic_crossing_is_found_at_its_corner(self):
        # the splitting |z - 1| / z is V-shaped: no parabola fits its minimum
        p = LatticeParams(0.0, 0.0, 0.5, 1.0)
        (found,) = se.find_avoided_crossings(p, (0.55, 1.7), resolution=100)
        assert found.gap == 0.0
        assert abs(found.inv_f_star - 1.0) < 1e-6

    def test_reported_gap_is_one_direct_integration(self):
        p = LatticeParams(0.76, 0.76, 0.4, 1.0)
        (found,) = se.find_avoided_crossings(p, (3.0, 3.3), resolution=100)
        assert found.gap == se._gaps(p, [found.inv_f_star])[0]

    @staticmethod
    def per_minimum_search(params, z_lo, z_hi, resolution):
        # the search with its zoom run one minimum at a time, as a reference
        mid, half = 0.5 * (z_hi + z_lo), 0.5 * (z_hi - z_lo)

        def entries(s):
            a, b, _ = se._period_propagators(params, 1.0 / (mid + half * s), 1, se._PHASE_TOL)
            return np.array([a.real, a.imag, b.real, b.imag])[..., 0]

        coef = sf._chebyshev_series(entries, 16, se._PROXY_MAX_NODES, 1e-13).T

        def proxy_gaps(z):
            re_a, im_a, re_b, im_b = se.chebval((z - mid) / half, coef)
            return se._splitting(z, re_a + 1j * im_a, re_b + 1j * im_b)

        z = np.linspace(z_lo, z_hi, resolution)
        gaps = proxy_gaps(z)
        z_stars = []
        for i in range(1, z.size - 1):
            if not (gaps[i] < gaps[i - 1] and gaps[i] <= gaps[i + 1]):
                continue
            lo, hi = z[i - 1], z[i + 1]
            while hi - lo > 1e-13 * hi:
                grid = np.linspace(lo, hi, se._ZOOM_POINTS)
                j = int(np.argmin(proxy_gaps(grid)))
                lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, se._ZOOM_POINTS - 1)]
            z_stars.append(float(0.5 * (lo + hi)))
        return [se.AvoidedCrossing(z_star, 0.0 if gap < 1e-12 / z_star else gap)
                for z_star, gap in zip(z_stars, se._gaps(params, z_stars).tolist())]

    @pytest.mark.parametrize("lattice, window, resolution, count", [
        ((1.0, 0.6, 0.3), (1.0, 30.0), 2000, 33),
        ((0.0, 0.0, 0.5), (0.55, 5.5), 500, 3),  # exact crossings at 1/F = 1, 3, 5
    ])
    def test_batched_zoom_matches_a_per_minimum_zoom_bit_for_bit(self, lattice, window,
                                                                 resolution, count):
        p = LatticeParams(*lattice, 1.0)
        found = se.find_avoided_crossings(p, window, resolution=resolution)
        assert len(found) == count
        assert found == self.per_minimum_search(p, *window, resolution)
        if lattice[0] == 0.0:
            assert [c.gap for c in found] == [0.0] * 3
            assert np.allclose([c.inv_f_star for c in found], [1.0, 3.0, 5.0], rtol=1e-6)

    def test_zoom_takes_one_proxy_evaluation_per_level(self, monkeypatch):
        # one for the scan and one per zoom level, whatever the number of
        # minima: a per-minimum zoom makes 240 calls here
        calls, chebval = [], se.chebval

        def count(x, c):
            calls.append(np.shape(x))
            return chebval(x, c)

        monkeypatch.setattr(se, "chebval", count)
        found = se.find_avoided_crossings(LatticeParams(1.0, 0.6, 0.3, 1.0), (1.0, 30.0),
                                          resolution=2000)
        assert len(found) == 33
        assert calls[0] == (2000,) and len(calls) <= 9

    def test_unresolved_proxy_raises(self, monkeypatch):
        # [4, 30] needs 128 nodes
        monkeypatch.setattr(se, "_PROXY_MAX_NODES", 64)
        with pytest.raises(NonConvergedError):
            se.find_avoided_crossings(LatticeParams(1.0, 0.6, 0.0, 1.0), (4.0, 30.0))

    def test_input_validation(self, monkeypatch):
        # checked before any integration; an infinite bound would integrate
        # NaN fields and end as a roundoff error, and a fractional or NaN
        # resolution would reach np.linspace only after the proxy
        monkeypatch.setattr(se, "_period_propagators", None)
        p = LatticeParams(1.0, 0.6, 0.0, 0.1)
        for interval, resolution in [((2.0, 1.0), 150), ((1.0, 2.0), 50),
                                     ((1.0, math.inf), 200), ((1.0, math.nan), 200)]:
            with pytest.raises(ValueError):
                se.find_avoided_crossings(p, interval, resolution=resolution)
        for resolution in (150.5, math.nan):
            with pytest.raises(ValueError, match="resolution"):
                se.find_avoided_crossings(p, (1.0, 2.0), resolution=resolution)
