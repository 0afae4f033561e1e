"""Exact Wannier-Stark spectra via two independent routes.

Route one truncates the tilted chain and takes the eigenvalues of the real
symmetric tridiagonal matrix inside an energy window (LAPACK bisection via
scipy).  Route two integrates the 2x2 generating-function ODE over one period
with a fourth-order Magnus scheme (exact SU(2) steps, pairwise product, fields
as a batch axis) and quantizes the eigenphase of the unitary monodromy, read
by one formula that stays accurate where the crossing gaps close.  Both give
the same ladders; the truncated route carries per-level convergence flags,
the monodromy route is free of truncation error and is the workhorse for
field sweeps and avoided-crossing searches, which scipy's bounded Brent
minimizer refines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import minimize_scalar

from .errors import NonConvergedError
from .model import (ChainHamiltonian, LadderSpectrum, LatticeParams, _tilted_band_mean,
                    _zak_plus, build_chain, fold_interval)
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

# fields x steps of SU(2) step matrices held at once by the Magnus kernel
_BLOCK_MATRICES = 8192
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0


def _su2_mul(a1, b1, a2, b2):
    """Product of SU(2) matrices stored as (a, b) with U = [[a, b], [-b*, a*]]."""
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def _magnus_propagators(params: LatticeParams, f: np.ndarray, n_steps: int):
    """Period propagators for an array of fields, fourth-order Magnus.

    Writes H(theta) = (1/2F)[[F/2 + delta, g], [g*, -(F/2 + delta)]] with
    g = j1 + j2 exp(-i theta) as a . sigma.  With a and b the Pauli vectors at
    the two Gauss points of a step of length h, the step exponent is -i v . sigma
    with v = (h/2)(a + b) + (sqrt(3)/6) h^2 (b x a) (Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470, 151 (2009)), and the step matrix
    cos|v| - i sin|v| v^ . sigma is unitary by construction.  Step matrices
    are multiplied pairwise (later steps on the left) in blocks of about
    ``_BLOCK_MATRICES``; ``n_steps`` is a power of two, so every block is.
    Returns (a, b) arrays with U = [[a, b], [-b*, a*]].
    """
    h = 2.0 * math.pi / n_steps
    scale = 0.5 / f[:, None]
    z = scale * (0.5 * f[:, None] + params.delta)
    a_tot = np.ones(f.size, dtype=complex)
    b_tot = np.zeros(f.size, dtype=complex)
    comm = _GAUSS_OFFSET * h * h
    per_block = min(n_steps, 1 << max(0, (_BLOCK_MATRICES // f.size).bit_length() - 1))
    for start in range(0, n_steps, per_block):
        theta = h * np.arange(start, start + per_block)
        g1 = params.j1 + params.j2 * np.exp(-1j * (theta + h * (0.5 - _GAUSS_OFFSET)))
        g2 = params.j1 + params.j2 * np.exp(-1j * (theta + h * (0.5 + _GAUSS_OFFSET)))
        ax, ay = scale * g1.real, -scale * g1.imag
        bx, by = scale * g2.real, -scale * g2.imag
        vx = 0.5 * h * (ax + bx) + comm * z * (by - ay)
        vy = 0.5 * h * (ay + by) + comm * z * (ax - bx)
        vz = h * z + comm * (bx * ay - by * ax)
        norm = np.sqrt(vx * vx + vy * vy + vz * vz)
        sinc = np.sinc(norm / math.pi)
        a = np.cos(norm) - 1j * sinc * vz
        b = -sinc * (vy + 1j * vx)
        while a.shape[1] > 1:
            a, b = _su2_mul(a[:, 1::2], b[:, 1::2], a[:, ::2], b[:, ::2])
        a_tot, b_tot = _su2_mul(a[:, 0], b[:, 0], a_tot, b_tot)
    return a_tot, b_tot


def _generator_scale(params: LatticeParams) -> float:
    return (0.5 * params.f + abs(params.delta) + params.j1 + params.j2) / (2.0 * params.f)


def _estimate_steps(params: LatticeParams, tol: float) -> int:
    omega = max(_generator_scale(params), 1.0)
    h = (19.0 * tol / omega**5) ** 0.25
    n = int(2.0 * math.pi / h) + 1
    return max(256, 1 << (n - 1).bit_length())


def _converged_propagators(params: LatticeParams, f_values: np.ndarray, tol: float):
    """Period propagators (a, b) and step counts for an array of fields.

    Fields are bucketed by their estimated step count so easy fields do not
    pay for hard ones; each bucket doubles its step count until every entry
    of every pending field is stable to ``tol``.  A doubling that cuts the
    largest pending change less than 4x (fourth order gives 16x) raises.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    a_out = np.empty(f_values.size, dtype=complex)
    b_out = np.empty(f_values.size, dtype=complex)
    steps = np.empty(f_values.size, dtype=int)
    est = np.array([_estimate_steps(params.with_field(f), tol) for f in f_values])
    for n_est in np.unique(est):
        pending = np.flatnonzero(est == n_est)
        n = int(n_est) // 2
        prev = _magnus_propagators(params, f_values[pending], n)
        last = np.inf
        while True:
            n *= 2
            a, b = _magnus_propagators(params, f_values[pending], n)
            change = np.maximum(np.abs(a - prev[0]), np.abs(b - prev[1]))
            done = change < tol
            a_out[pending[done]], b_out[pending[done]] = a[done], b[done]
            steps[pending[done]] = n
            pending = pending[~done]
            if pending.size == 0:
                break
            worst = float(change[~done].max())
            if not worst <= 0.25 * last:
                raise NonConvergedError(f"monodromy entries still change by {worst:.2g} "
                                        f"at {n} steps (tol = {tol:g}); roundoff-limited")
            prev, last = (a[~done], b[~done]), worst
    return a_out, b_out, steps


def _eigenphase(a, b):
    """Principal eigenphase in [0, pi] of U = [[a, b], [-b*, a*]] in SU(2).

    The eigenvalues are Re a +- i sqrt(Im a^2 + |b|^2); atan2 keeps full
    accuracy at phi -> 0 and pi, where an inverse cosine loses half the digits.
    """
    return np.arctan2(np.sqrt(a.imag ** 2 + np.abs(b) ** 2), a.real)


def monodromy(params: LatticeParams, tol: float = _PHASE_TOL) -> Monodromy:
    """Time-ordered period propagator of the tilted-lattice generating ODE.

    Integrates dU/dtheta = -i/(2F) G0(theta) U over one period at trial
    energy E = 0 with the fourth-order Magnus kernel (a batch of one field),
    doubling the step count until every entry is stable to ``tol``.  Each
    step is an exact SU(2) exponential, so U is unitary to roundoff without
    any projection.
    """
    params.require_field()
    a, b, steps = _converged_propagators(params, np.array([params.f]), tol)
    u = np.array([[a[0], b[0]], [-np.conj(b[0]), np.conj(a[0])]])
    phi = float(_eigenphase(a[0], b[0]))
    lam = complex(math.cos(phi), math.sin(phi))
    return Monodromy(matrix=u, eigenvalues=(lam, lam.conjugate()),
                     integration_steps=int(steps[0]))


def _eigenphase_batch(params: LatticeParams, f_values: np.ndarray):
    """Principal monodromy eigenphase in [0, pi] for an array of fields."""
    f_values = np.asarray(f_values, dtype=float)
    if np.any(f_values <= 0):
        raise ValueError("all fields must be positive")
    a, b, _ = _converged_propagators(params, f_values, _PHASE_TOL)
    return _eigenphase(a, b)


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
        offset = params.f * (0.5 + averaged_coupling(params))
    else:
        offset = _tilted_band_mean(params) + 2.0 * params.f * _zak_plus(params)
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


def _gaps(params: LatticeParams, inv_f) -> np.ndarray:
    """Minimal inter-ladder splittings (energy units) at fields 1/inv_f."""
    z = np.asarray(inv_f, dtype=float)
    phi = _eigenphase_batch(params, 1.0 / z)
    return (2.0 / (math.pi * z)) * np.minimum(phi, math.pi - phi)


def find_avoided_crossings(params: LatticeParams, inv_f_interval: tuple[float, float],
                           resolution: int = 200) -> list[AvoidedCrossing]:
    """Locate minima of the inter-ladder splitting over a 1/F interval.

    Scans ``resolution`` points, keeps interior local minima of the gap and
    refines each between its neighbours by scipy's bounded Brent search to a
    relative 1e-6 in 1/F.  Splittings below 1e-12 * F are reported as exact
    crossings (gap 0).
    """
    z_lo, z_hi = float(inv_f_interval[0]), float(inv_f_interval[1])
    if not (0.0 < z_lo < z_hi):
        raise ValueError("inv_f_interval must satisfy 0 < lo < hi")
    if resolution < 100:
        raise ValueError("resolution must be at least 100 samples")

    z = np.linspace(z_lo, z_hi, resolution)
    gaps = _gaps(params, z)

    crossings = []
    for i in range(1, resolution - 1):
        if not (gaps[i] < gaps[i - 1] and gaps[i] <= gaps[i + 1]):
            continue
        res = minimize_scalar(lambda x: float(_gaps(params, [x])[0]),
                              bounds=(z[i - 1], z[i + 1]), method="bounded",
                              options={"xatol": 1e-6 * z[i]})
        if not res.success:
            raise NonConvergedError(
                f"crossing refinement near 1/F = {z[i]:g} failed: {res.message}")
        z_star, gap = float(res.x), float(res.fun)
        if gap < 1e-12 / z_star:
            gap = 0.0
        crossings.append(AvoidedCrossing(inv_f_star=z_star, gap=gap))
    return crossings
