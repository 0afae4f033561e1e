"""Exact Wannier-Stark spectra via two independent routes.

Route one truncates the tilted chain and takes the eigenvalues of the real
symmetric tridiagonal matrix inside an energy window (LAPACK bisection via
scipy).  Route two integrates the 2x2 generating-function ODE over one period
with a sixth-order Magnus scheme (exact SU(2) steps, pairwise product, fields
as a batch axis) and quantizes the eigenphase of the unitary monodromy, read
by one formula that stays accurate where the crossing gaps close.  Both give
the same ladders; the truncated route carries per-level convergence flags
and labels its branches from its own levels; the monodromy route is free of
truncation error and is the workhorse for field sweeps and avoided-crossing
searches, which scipy's bounded Brent minimizer refines.
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
_LEVEL_TOL = 1e-10  # truncated-chain level agreement


# ---------------------------------------------------------------------------
# symmetric tridiagonal eigenvalues
# ---------------------------------------------------------------------------

def eigenvalues_symmetric_tridiagonal(matrix: ChainHamiltonian, window=None) -> np.ndarray:
    """All eigenvalues (ascending) of a chain Hamiltonian.

    LAPACK bisection through ``scipy.linalg.eigvalsh_tridiagonal``; ``window``
    restricts the output to eigenvalues inside the closed interval.
    """
    diag, off = matrix.diagonal, matrix.off_diagonal
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
    eigenphase: float  # principal eigenphase phi in [0, pi]
    integration_steps: int

    @property
    def eigenvalues(self) -> tuple[complex, complex]:
        """The conjugate pair exp(+-i*phi)."""
        lam = complex(math.cos(self.eigenphase), math.sin(self.eigenphase))
        return lam, lam.conjugate()


@dataclass(frozen=True)
class AvoidedCrossing:
    """Location (in 1/F) and size of a minimal inter-ladder splitting."""

    inv_f_star: float
    gap: float


# ---------------------------------------------------------------------------
# monodromy integration
# ---------------------------------------------------------------------------

# fields x steps of SU(2) step matrices held at once by the Magnus kernel
_BLOCK_MATRICES = 8192
_START_STEPS = 64  # first step count of every doubling sequence
_ASYMPTOTIC = 1e-3  # changes below this must fall 4x per doubling
_GAUSS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0


def _su2_mul(a1, b1, a2, b2):
    """Product of SU(2) matrices stored as (a, b) with U = [[a, b], [-b*, a*]]."""
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def _cross(x, y):
    """x cross y for Pauli vectors stored as (x, y, z) component tuples."""
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])


def _magnus_product(coupling, scale, diagonal, h, n_steps: int, batch: int):
    """Sixth-order Magnus propagators of a batch of traceless 2x2 equations.

    Integrates i dU/dt = scale [[d, g(t)], [g*, -d]] U over ``n_steps`` steps
    of length ``h`` from U = 1, with a constant diagonal d = ``diagonal``;
    ``coupling(s)`` gives g at t = h s for an array s of step coordinates
    (steps x 3 Gauss nodes), broadcastable to (batch, steps, 3).  Writing the
    Hamiltonian as a . sigma, dU/dt = A U with A = -i a . sigma, and a
    commutator [-i x . sigma, -i y . sigma] is -i (2 x cross y) . sigma.
    With A1, A2, A3 at the Gauss points 1/2 -+ sqrt(15)/10 and 1/2 of a step,
    the step exponent is
    Omega = alpha1 + alpha3/12 + (1/240)[-20 alpha1 - alpha3 + C1, alpha2 + C2]
    with alpha1 = h A2, alpha2 = (sqrt(15) h/3)(A3 - A1),
    alpha3 = (10h/3)(A3 - 2A2 + A1), C1 = [alpha1, alpha2] and
    C2 = -(1/60)[alpha1, 2 alpha3 + C1] (Blanes, Casas, Oteo & Ros, Phys. Rep.
    470, 151 (2009)).  For Omega = -i v . sigma the step matrix
    cos|v| - i sin|v| v^ . sigma is unitary by construction.  Step matrices
    are multiplied pairwise (later steps on the left) in blocks of about
    ``_BLOCK_MATRICES``; ``n_steps`` is a power of two, so every block is.
    Returns (a, b) arrays with U = [[a, b], [-b*, a*]].
    """
    z = h * scale * diagonal
    a_tot = np.ones(batch, dtype=complex)
    b_tot = np.zeros(batch, dtype=complex)
    per_block = min(n_steps, 1 << max(0, (_BLOCK_MATRICES // batch).bit_length() - 1))
    for start in range(0, n_steps, per_block):
        g1, g2, g3 = np.moveaxis(
            coupling(np.arange(start, start + per_block)[:, None] + _GAUSS_NODES), -1, 0)
        u1 = h * g2
        u2 = (math.sqrt(15.0) * h / 3.0) * (g3 - g1)
        u3 = (10.0 * h / 3.0) * (g3 - 2.0 * g2 + g1)
        # the sigma_z part of a is constant: alpha2 and alpha3 lie in the xy plane
        alpha1 = (scale * u1.real, -scale * u1.imag, z)
        alpha2 = (scale * u2.real, -scale * u2.imag, 0.0)
        alpha3 = (scale * u3.real, -scale * u3.imag, 0.0)
        c1 = [2.0 * c for c in _cross(alpha1, alpha2)]
        c2 = [-c / 30.0 for c in _cross(alpha1, [2.0 * p + q for p, q in zip(alpha3, c1)])]
        left = [-20.0 * p - q + r for p, q, r in zip(alpha1, alpha3, c1)]
        right = [p + q for p, q in zip(alpha2, c2)]
        vx, vy, vz = (p + q / 12.0 + r / 120.0
                      for p, q, r in zip(alpha1, alpha3, _cross(left, right)))
        norm = np.sqrt(vx * vx + vy * vy + vz * vz)
        sinc = np.sinc(norm / math.pi)
        a = np.cos(norm) - 1j * sinc * vz
        b = -sinc * (vy + 1j * vx)
        while a.shape[1] > 1:
            a, b = _su2_mul(a[:, 1::2], b[:, 1::2], a[:, ::2], b[:, ::2])
        a_tot, b_tot = _su2_mul(a[:, 0], b[:, 0], a_tot, b_tot)
    return a_tot, b_tot


def _magnus_propagators(params: LatticeParams, f: np.ndarray, n_steps: int):
    """Period propagators of dU/dtheta = -i H(theta) U, theta in [0, 2 pi], for an
    array of fields: H = (1/2F)[[F/2 + delta, g], [g*, -(F/2 + delta)]] with
    g = j1 + j2 exp(-i theta)."""
    h = 2.0 * math.pi / n_steps
    return _magnus_product(lambda s: params.j1 + params.j2 * np.exp(-1j * (h * s)),
                           0.5 / f[:, None], 0.5 * f[:, None] + params.delta, h, n_steps, f.size)


def _converged(propagators, size: int, tol: float, n: int = _START_STEPS):
    """Step-doubled propagators (a, b) and step counts for a batch of equations.

    ``propagators(index, n_steps)`` integrates the batch elements ``index``
    with ``n_steps`` steps.  Every element starts at ``n`` steps in one
    batch, and the batch doubles its step count; an element leaves it once
    each entry changes by less than ``tol``.  Once the largest pending change
    is below ``_ASYMPTOTIC``, a doubling that cuts it less than 4x (sixth
    order gives 64x) raises.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    a_out = np.empty(size, dtype=complex)
    b_out = np.empty(size, dtype=complex)
    steps = np.empty(size, dtype=int)
    pending = np.arange(size)
    prev = propagators(pending, n)
    last = np.inf
    while pending.size:
        n *= 2
        a, b = propagators(pending, n)
        change = np.maximum(np.abs(a - prev[0]), np.abs(b - prev[1]))
        done = change < tol
        a_out[pending[done]], b_out[pending[done]] = a[done], b[done]
        steps[pending[done]] = n
        pending = pending[~done]
        worst = float(change[~done].max(initial=0.0))
        if not (last >= _ASYMPTOTIC or worst <= 0.25 * last):  # NaN raises too
            raise NonConvergedError(f"propagator entries still change by {worst:.2g} "
                                    f"at {n} steps (tol = {tol:g}); roundoff-limited")
        prev, last = (a[~done], b[~done]), worst
    return a_out, b_out, steps


def _converged_propagators(params: LatticeParams, f_values: np.ndarray, tol: float):
    """Period propagators (a, b) and step counts for an array of fields, each
    step-doubled from ``_START_STEPS`` until its entries are stable to ``tol``."""
    return _converged(lambda index, n: _magnus_propagators(params, f_values[index], n),
                      f_values.size, tol)


def _eigenphase(a, b):
    """Principal eigenphase in [0, pi] of U = [[a, b], [-b*, a*]] in SU(2).

    The eigenvalues are Re a +- i sqrt(Im a^2 + |b|^2); atan2 keeps full
    accuracy at phi -> 0 and pi, where an inverse cosine loses half the digits.
    """
    return np.arctan2(np.sqrt(a.imag ** 2 + np.abs(b) ** 2), a.real)


def monodromy(params: LatticeParams, tol: float = _PHASE_TOL) -> Monodromy:
    """Time-ordered period propagator of the tilted-lattice generating ODE.

    Integrates dU/dtheta = -i/(2F) G0(theta) U over one period at trial
    energy E = 0 with the sixth-order Magnus kernel (a batch of one field),
    doubling the step count until every entry is stable to ``tol``.  Each
    step is an exact SU(2) exponential, so U is unitary to roundoff without
    any projection.
    """
    params.require_field()
    a, b, steps = _converged_propagators(params, np.array([params.f]), tol)
    u = np.array([[a[0], b[0]], [-np.conj(b[0]), np.conj(a[0])]])
    return Monodromy(matrix=u, eigenphase=float(_eigenphase(a[0], b[0])),
                     integration_steps=int(steps[0]))


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
                          window: tuple[float, float] | None = None) -> LadderSpectrum:
    """Eigenvalues of the truncated chain inside ``window``, edge-checked.

    Every level is recomputed with the chain enlarged by a quarter; levels
    moving more than 1e-10 are flagged unconverged.  The levels label
    themselves: the converged level E nearest 0 (any level if none converged)
    fixes the eigenphase phi = pi |fold(E, 2F)| / F, from which
    ``floquet_branch_offsets`` gives the two ladders' offsets.  Ladders closer
    than 1e-10 coincide: both take the offset of phi = 0 or pi, and each
    degenerate pair holds one level of each branch with the same index.
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
    n_big = ((int(math.ceil(1.25 * n_sites)) + 3) // 4) * 4
    big = build_chain(params, n_big)
    pad = 2.0 * params.f
    eigs_big = eigenvalues_symmetric_tridiagonal(
        big, window=(window[0] - pad, window[1] + pad)
    )
    dist = np.abs(np.subtract.outer(eigs, eigs_big)).min(axis=1, initial=np.inf)
    converged = dist < _LEVEL_TOL

    two_f = 2.0 * params.f
    phi = 0.0
    if eigs.size:
        ref = eigs[converged] if converged.any() else eigs
        e_ref = ref[np.argmin(np.abs(ref))]
        phi = math.pi * abs(fold_interval(e_ref, two_f)) / params.f
    # the offsets +-F phi / pi lie 2F min(phi, pi - phi) / pi apart; rounding
    # can also put phi one ulp past pi
    if two_f / math.pi * min(phi, math.pi - phi) < _LEVEL_TOL:
        phi = math.pi * round(phi / math.pi)
    o_minus, o_plus = floquet_branch_offsets(params, phi)
    d_plus = _circular_distance(eigs - o_plus, 0.0, two_f)
    d_minus = _circular_distance(eigs - o_minus, 0.0, two_f)
    branches = np.where(d_plus <= d_minus, 1, -1)
    offsets = np.where(branches == 1, o_plus, o_minus)
    indices = np.rint((eigs - offsets) / two_f).astype(int)
    if o_minus == o_plus:  # ascending: the first level of each degenerate pair is minus
        branches = np.where(np.diff(indices, prepend=indices[:1] - 1) == 0, 1, -1)
    return LadderSpectrum(eigs, branches, indices, field=params.f,
                          method="truncated", converged=converged)


def _gaps(params: LatticeParams, inv_f) -> np.ndarray:
    """Minimal inter-ladder splittings (energy units) at fields 1/inv_f."""
    z = np.asarray(inv_f, dtype=float)
    phi = _eigenphase(*_converged_propagators(params, 1.0 / z, _PHASE_TOL)[:2])
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
