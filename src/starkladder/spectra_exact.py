"""Exact Wannier-Stark spectra via two independent routes.

Route one truncates the tilted chain and takes the eigenvalues of the real
symmetric tridiagonal matrix inside an energy window (LAPACK bisection via
scipy).  Route two integrates the 2x2 generating-function ODE over one period
and quantizes the eigenphases of the resulting monodromy matrix.  Both produce
the same ladders; the truncated route carries per-level convergence flags,
the monodromy route is free of truncation error and is the workhorse for
field sweeps and avoided-crossing searches.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import NonConvergedError
from .model import (ChainHamiltonian, LadderSpectrum, LatticeParams, _tilted_band_mean,
                    _zak_wilson_loop, build_chain, fold_interval)
from .strong_field import averaged_coupling

_PHASE_TOL = 1e-11


# ---------------------------------------------------------------------------
# symmetric tridiagonal eigenvalues
# ---------------------------------------------------------------------------

def eigenvalues_symmetric_tridiagonal(matrix, off_diag=None, window=None) -> np.ndarray:
    """All eigenvalues (ascending) of a real symmetric tridiagonal matrix.

    Accepts a ChainHamiltonian or a (diagonal, off_diagonal) pair.  LAPACK
    bisection through ``scipy.linalg.eigvalsh_tridiagonal``; ``window``
    restricts the output to eigenvalues inside the closed interval.
    """
    if isinstance(matrix, ChainHamiltonian):
        diag, off = matrix.diagonal, matrix.off_diagonal
    else:
        diag = np.asarray(matrix, dtype=float)
        off = np.zeros(0) if off_diag is None else np.asarray(off_diag, dtype=float)
    n = diag.size
    if n < 1:
        raise ValueError("matrix must have size >= 1")
    if off.size != max(n - 1, 0):
        raise ValueError("off-diagonal must have length n - 1")
    if window is None:
        return eigvalsh_tridiagonal(diag, off)
    w_lo, w_hi = float(window[0]), float(window[1])
    if w_hi < w_lo:
        raise ValueError("window must be an increasing interval")
    # scipy selects the half-open (lo, hi]; one ulp down closes it
    return eigvalsh_tridiagonal(diag, off, select="v",
                                select_range=(np.nextafter(w_lo, -np.inf), w_hi))


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Monodromy:
    """Period propagator of the generating-function ODE at trial energy E = 0."""

    matrix: np.ndarray
    eigenvalues: tuple[complex, complex]
    integration_steps: int

    @property
    def eigenphase(self) -> float:
        """Principal eigenphase phi in [0, pi]; the pair is exp(+-i*phi)."""
        return float(np.angle(self.eigenvalues[0]))


@dataclass(frozen=True)
class AvoidedCrossing:
    """Location (in 1/F) and size of a minimal inter-ladder splitting."""

    inv_f_star: float
    gap: float
    branch_pair: tuple[str, str] = ("minus", "plus")


# ---------------------------------------------------------------------------
# monodromy integration
# ---------------------------------------------------------------------------

def _rk4_scalar_kernel(j1: float, j2: float, delta: float, f: float, n_steps: int):
    """Fixed-step RK4 for the 2x2 period propagator, plain complex arithmetic."""
    h = 2.0 * math.pi / n_steps
    c = -0.5j / f
    a11 = c * (0.5 * f + delta)
    u11, u12, u21, u22 = 1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j
    for k in range(n_steps):
        theta = k * h
        out = (u11, u12, u21, u22)
        acc = (0.0j, 0.0j, 0.0j, 0.0j)
        for stage in range(4):
            if stage == 0:
                e_m = cmath.exp(-1j * theta)
                weight, advance = 1.0, 0.5
            elif stage == 3:
                e_m = cmath.exp(-1j * (theta + h))
                weight, advance = 1.0, 0.0
            else:
                e_m = cmath.exp(-1j * (theta + 0.5 * h))
                weight, advance = 2.0, 0.5 if stage == 1 else 1.0
            g = j1 + j2 * e_m
            a12 = c * g
            a21 = c * g.conjugate()
            d1 = a11 * out[0] + a12 * out[2]
            d2 = a11 * out[1] + a12 * out[3]
            d3 = a21 * out[0] - a11 * out[2]
            d4 = a21 * out[1] - a11 * out[3]
            acc = (acc[0] + weight * d1, acc[1] + weight * d2,
                   acc[2] + weight * d3, acc[3] + weight * d4)
            if stage < 3:
                out = (u11 + advance * h * d1, u12 + advance * h * d2,
                       u21 + advance * h * d3, u22 + advance * h * d4)
        u11 += h / 6.0 * acc[0]
        u12 += h / 6.0 * acc[1]
        u21 += h / 6.0 * acc[2]
        u22 += h / 6.0 * acc[3]
    return u11, u12, u21, u22


try:  # the JIT shaves two orders of magnitude off crossing refinement
    from numba import njit as _njit

    _rk4_scalar_fast = _njit(cache=True)(_rk4_scalar_kernel)
except ImportError:  # pragma: no cover - numba is an optional accelerator
    _rk4_scalar_fast = _rk4_scalar_kernel


def _rk4_scalar(j1: float, j2: float, delta: float, f: float, n_steps: int):
    u11, u12, u21, u22 = _rk4_scalar_fast(j1, j2, delta, f, n_steps)
    return np.array([[u11, u12], [u21, u22]], dtype=complex)


def _rk4_batch(j1: float, j2: float, delta: float, f_arr: np.ndarray, n_steps: int):
    """Same integrator vectorized over an array of field values."""
    h = 2.0 * math.pi / n_steps
    c = -0.5j / f_arr
    a11 = c * (0.5 * f_arr + delta)
    m = f_arr.size
    u11 = np.ones(m, dtype=complex)
    u12 = np.zeros(m, dtype=complex)
    u21 = np.zeros(m, dtype=complex)
    u22 = np.ones(m, dtype=complex)

    def deriv(e_m, v11, v12, v21, v22):
        g = j1 + j2 * e_m
        a12 = c * g
        a21 = c * np.conj(g)
        return (
            a11 * v11 + a12 * v21,
            a11 * v12 + a12 * v22,
            a21 * v11 - a11 * v21,
            a21 * v12 - a11 * v22,
        )

    for k in range(n_steps):
        theta = k * h
        e0 = cmath.exp(-1j * theta)
        e1 = cmath.exp(-1j * (theta + 0.5 * h))
        e2 = cmath.exp(-1j * (theta + h))
        k1 = deriv(e0, u11, u12, u21, u22)
        k2 = deriv(e1, u11 + 0.5 * h * k1[0], u12 + 0.5 * h * k1[1],
                   u21 + 0.5 * h * k1[2], u22 + 0.5 * h * k1[3])
        k3 = deriv(e1, u11 + 0.5 * h * k2[0], u12 + 0.5 * h * k2[1],
                   u21 + 0.5 * h * k2[2], u22 + 0.5 * h * k2[3])
        k4 = deriv(e2, u11 + h * k3[0], u12 + h * k3[1],
                   u21 + h * k3[2], u22 + h * k3[3])
        u11 = u11 + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        u12 = u12 + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        u21 = u21 + h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        u22 = u22 + h / 6.0 * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
    return u11, u12, u21, u22


def _generator_scale(params: LatticeParams) -> float:
    return (0.5 * params.f + abs(params.delta) + params.j1 + params.j2) / (2.0 * params.f)


def _estimate_steps(params: LatticeParams, tol: float) -> int:
    omega = max(_generator_scale(params), 1.0)
    h = (19.0 * tol / omega**5) ** 0.25
    n = int(2.0 * math.pi / h) + 1
    return max(256, 1 << (n - 1).bit_length())


def _unitary_project(u: np.ndarray) -> np.ndarray:
    """Polar projection onto the nearest unitary (Heron iteration, 2x2)."""
    x = u.astype(complex)
    for _ in range(4):
        det = x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]
        inv = np.array([[x[1, 1], -x[0, 1]], [-x[1, 0], x[0, 0]]]) / det
        x = 0.5 * (x + inv.conj().T)
    return x


def monodromy(params: LatticeParams, tol: float = _PHASE_TOL) -> Monodromy:
    """Time-ordered period propagator of the tilted-lattice generating ODE.

    Integrates dU/dtheta = -i/(2F) G0(theta) U over one period at trial
    energy E = 0, doubling the fixed RK4 step count until every entry is
    stable to ``tol``, then re-projects onto the unitary group.
    """
    params.require_field()
    n = _estimate_steps(params, tol) // 2
    u_prev = _rk4_scalar(params.j1, params.j2, params.delta, params.f, n)
    for _ in range(18):
        n *= 2
        u = _rk4_scalar(params.j1, params.j2, params.delta, params.f, n)
        if np.max(np.abs(u - u_prev)) < tol:
            break
        u_prev = u
    else:
        raise NonConvergedError("monodromy integration did not stabilize")
    u = _unitary_project(u)
    trace = u[0, 0] + u[1, 1]
    x = min(1.0, max(-1.0, trace.real / 2.0))
    phi = math.acos(x)
    lam = cmath.exp(1j * phi)
    return Monodromy(matrix=u, eigenvalues=(lam, lam.conjugate()), integration_steps=n)


def _eigenphase_batch(params: LatticeParams, f_values: np.ndarray, tol: float = _PHASE_TOL):
    """Principal monodromy eigenphase in [0, pi] for an array of fields."""
    f_values = np.asarray(f_values, dtype=float)
    if np.any(f_values <= 0):
        raise ValueError("all fields must be positive")
    phi = np.empty(f_values.size)
    todo = np.arange(f_values.size)
    # bucket by required step count so easy fields do not pay for hard ones
    est = np.array([
        _estimate_steps(params.with_field(f), tol) for f in f_values
    ])
    for n_est in np.unique(est):
        sel = todo[est == n_est]
        f_sel = f_values[sel]
        n = int(n_est) // 2
        prev = _rk4_batch(params.j1, params.j2, params.delta, f_sel, n)
        pending = np.arange(f_sel.size)
        half_tr = np.empty(f_sel.size, dtype=complex)
        for _ in range(18):
            n *= 2
            cur = _rk4_batch(params.j1, params.j2, params.delta, f_sel[pending], n)
            diffs = np.max(
                np.abs(np.stack(cur) - np.stack(prev)), axis=0
            )
            done = diffs < tol
            half_tr[pending[done]] = 0.5 * (cur[0][done] + cur[3][done])
            pending = pending[~done]
            if pending.size == 0:
                break
            prev = tuple(c[~done] for c in cur)
        else:
            raise NonConvergedError("monodromy sweep did not stabilize")
        phi[sel] = np.arccos(np.clip(half_tr.real, -1.0, 1.0))
    return phi


# ---------------------------------------------------------------------------
# ladder construction and crossing detection
# ---------------------------------------------------------------------------

def _anchor_offset(params: LatticeParams) -> float:
    """Fundamental-domain position of the plus ladder predicted by theory.

    Weak fields use the adiabatic offset C_+(F) + 2F * zak_+; once the ladder
    spacing exceeds the minimal band gap the averaged strong-field offset
    F(1/2 + f_bar) is the better continuation.  Labels near the switchover
    are intrinsically ambiguous (the branches hybridize there).
    """
    gap_scale = math.sqrt(params.delta**2 + (params.j1 - params.j2) ** 2)
    if params.f >= gap_scale:
        offset = params.f * (0.5 + averaged_coupling(params).f_bar)
    else:
        offset = _tilted_band_mean(params) + 2.0 * params.f * _zak_wilson_loop(params, 1)
    return fold_interval(offset, 2.0 * params.f)


def _circular_distance(a, b, width):
    return np.abs(fold_interval(np.asarray(a) - b, width))


def floquet_branch_offsets(params: LatticeParams, phi: float) -> tuple[float, float]:
    """Map a monodromy eigenphase to the (minus, plus) ladder offsets in (-F, F].

    The quantization fixes the level set {+-(F/pi) phi mod 2F}; which sign is
    the plus ladder is anchored to the adiabatic mean energy of the upper
    band, which is exact at small F and remains the natural continuation at
    large F.
    """
    f = params.f
    cand = fold_interval(f * phi / math.pi, 2.0 * f)
    anchor = _anchor_offset(params)
    if _circular_distance(cand, anchor, 2.0 * f) <= _circular_distance(-cand, anchor, 2.0 * f):
        plus, minus = cand, fold_interval(-cand, 2.0 * f)
    else:
        plus, minus = fold_interval(-cand, 2.0 * f), cand
    return float(minus), float(plus)


def ws_spectrum_floquet(params: LatticeParams, n_range=range(-8, 9),
                        tol: float = _PHASE_TOL) -> LadderSpectrum:
    """Wannier-Stark ladders from the monodromy eigenphases, E = offset + 2Fn.

    Exact degeneracies of the eigenphase pair produce coincident levels of the
    two branches rather than an error.
    """
    mono = monodromy(params, tol=tol)
    o_minus, o_plus = floquet_branch_offsets(params, mono.eigenphase)
    return LadderSpectrum.from_offsets(o_minus, o_plus, params.f, n_range, "floquet")


def default_chain_size(params: LatticeParams) -> int:
    """Truncation size so the Bloch localization length sits well inside."""
    n = max(512, int(math.ceil(40.0 * (params.j1 + params.j2) / params.f)))
    return ((n + 3) // 4) * 4


def ws_spectrum_truncated(params: LatticeParams, n_sites: int | None = None,
                          window: tuple[float, float] | None = None,
                          growth: float = 1.25, tol: float = 1e-10) -> LadderSpectrum:
    """Eigenvalues of the truncated chain inside ``window``, edge-checked.

    Every level is recomputed with the chain enlarged by ``growth``; levels
    moving more than ``tol`` are flagged unconverged.  Branch labels and
    ladder indices come from matching against the Floquet fundamental
    offsets.
    """
    params.require_field()
    if n_sites is None:
        n_sites = default_chain_size(params)
    band_edge = math.sqrt(params.delta**2 + (params.j1 + params.j2) ** 2)
    if window is None:
        window = (-(4.0 * params.f + band_edge), 4.0 * params.f + band_edge)

    chain = build_chain(params, n_sites)
    margin = 2.0 * (params.j1 + params.j2)
    lo_ok = chain.diagonal.min() + margin
    hi_ok = chain.diagonal.max() - margin
    if window[0] < lo_ok or window[1] > hi_ok:
        raise ValueError(
            "window exceeds the tilt span of the truncated chain; increase n_sites"
        )

    eigs = eigenvalues_symmetric_tridiagonal(chain, window=window)
    n_big = ((int(math.ceil(growth * n_sites)) + 3) // 4) * 4
    big = build_chain(params, n_big)
    pad = 2.0 * params.f
    eigs_big = eigenvalues_symmetric_tridiagonal(
        big, window=(window[0] - pad, window[1] + pad)
    )
    if eigs_big.size:
        nearest = eigs_big[np.searchsorted(eigs_big, eigs).clip(1, eigs_big.size - 1)]
        below = eigs_big[(np.searchsorted(eigs_big, eigs) - 1).clip(0, eigs_big.size - 1)]
        dist = np.minimum(np.abs(nearest - eigs), np.abs(below - eigs))
    else:
        dist = np.full(eigs.size, np.inf)
    converged = dist < tol

    mono = monodromy(params)
    o_minus, o_plus = floquet_branch_offsets(params, mono.eigenphase)
    d_plus = _circular_distance(eigs - o_plus, 0.0, 2.0 * params.f)
    d_minus = _circular_distance(eigs - o_minus, 0.0, 2.0 * params.f)
    branches = np.where(d_plus <= d_minus, 1, -1)
    offsets = np.where(branches == 1, o_plus, o_minus)
    indices = np.rint((eigs - offsets) / (2.0 * params.f)).astype(int)
    return LadderSpectrum(eigs, branches, indices, field=params.f,
                          method="truncated", converged=converged)


def _gap_at(params: LatticeParams, inv_f: float, tol: float = _PHASE_TOL) -> float:
    """Minimal inter-ladder splitting at field 1/inv_f (energy units)."""
    p = params.with_field(1.0 / inv_f)
    phi = monodromy(p, tol=tol).eigenphase
    return 2.0 * p.f / math.pi * min(phi, math.pi - phi)


def find_avoided_crossings(params: LatticeParams, inv_f_interval: tuple[float, float],
                           resolution: int = 200) -> list[AvoidedCrossing]:
    """Locate minima of the inter-ladder splitting over a 1/F interval.

    Scans ``resolution`` points, keeps interior local minima of the gap and
    refines each by golden-section search to a relative 1e-6 in 1/F.
    Splittings below 1e-12 * F are reported as exact crossings (gap 0).
    """
    z_lo, z_hi = float(inv_f_interval[0]), float(inv_f_interval[1])
    if not (0.0 < z_lo < z_hi):
        raise ValueError("inv_f_interval must satisfy 0 < lo < hi")
    if resolution < 100:
        raise ValueError("resolution must be at least 100 samples")

    z = np.linspace(z_lo, z_hi, resolution)
    phi = _eigenphase_batch(params, 1.0 / z)
    gaps = (2.0 / (z * math.pi)) * np.minimum(phi, math.pi - phi)

    crossings = []
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for i in range(1, resolution - 1):
        if not (gaps[i] < gaps[i - 1] and gaps[i] <= gaps[i + 1]):
            continue
        a, b = z[i - 1], z[i + 1]
        x1 = b - inv_phi * (b - a)
        x2 = a + inv_phi * (b - a)
        f1, f2 = _gap_at(params, x1), _gap_at(params, x2)
        while (b - a) > 1e-6 * z[i]:
            if f1 < f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - inv_phi * (b - a)
                f1 = _gap_at(params, x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + inv_phi * (b - a)
                f2 = _gap_at(params, x2)
        z_star = 0.5 * (a + b)
        gap = _gap_at(params, z_star)
        if gap < 1e-12 / z_star:
            gap = 0.0
        crossings.append(AvoidedCrossing(inv_f_star=float(z_star), gap=float(gap)))
    return crossings


def floquet_offset_sweep(params: LatticeParams, inv_f_values,
                         tol: float = _PHASE_TOL):
    """(minus, plus) ladder offsets for a sweep of 1/F values, batched."""
    inv_f_values = np.asarray(inv_f_values, dtype=float)
    phi = _eigenphase_batch(params, 1.0 / inv_f_values, tol=tol)
    minus = np.empty(inv_f_values.size)
    plus = np.empty(inv_f_values.size)
    for i, (z, p) in enumerate(zip(inv_f_values, phi)):
        m, pl = floquet_branch_offsets(params.with_field(1.0 / z), float(p))
        minus[i], plus[i] = m, pl
    return minus, plus
