"""Exact Wannier-Stark spectra via two independent routes.

Route one truncates the tilted chain and keeps the eigenvalues of the real
symmetric tridiagonal matrix inside an energy window (all eigenvalues from one
LAPACK call via scipy).  Route two integrates the 2x2 generating-function ODE
over one period with a sixth-order Magnus scheme (exact SU(2) steps, pairwise
product, fields as a batch axis; the step exponent is a polynomial in the step
length, built once per coupling sequence, which the fields of a sweep share)
and quantizes the eigenphase of the unitary monodromy, read by one formula
that stays accurate where the crossing gaps close.  Both give the same
ladders; the truncated route carries per-level convergence flags and labels
its branches from its own levels; the monodromy route is free of truncation
error and is the workhorse for field sweeps and avoided-crossing searches,
which locate the splitting's minima on one Chebyshev series of the period
propagator's entries over the whole 1/F interval.  Every time evolution runs
on one integrator of the ring's acceleration-gauge equation
(``_ring_propagators``): ``dynamics.propagate`` directly, and the lab-frame
pieces of a Bloch period (``_period_propagators``; one piece: the period
propagator, which ``monodromy`` alone maps to the generating ODE's frame) at
kappa = 0, where the ring's equation at constant field is time-reversal
symmetric about the middle of each Bloch period, so they integrate only its
first half.  A field sweep and the gaps at a search's minima each take one
batched integration, every field to its own step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .errors import NonConvergedError
from .model import (ChainHamiltonian, LadderSpectrum, LatticeParams, _excursion_sites,
                    _tilted_band_mean, _zak_plus, build_chain, fold_interval)
from .strong_field import _chebyshev_series, averaged_coupling

_PHASE_TOL = 1e-11
_LEVEL_TOL = 1e-10  # truncated-chain level agreement


# ---------------------------------------------------------------------------
# symmetric tridiagonal eigenvalues
# ---------------------------------------------------------------------------

def eigenvalues_symmetric_tridiagonal(matrix: ChainHamiltonian, window=None) -> np.ndarray:
    """All eigenvalues (ascending) of a chain Hamiltonian.

    One all-eigenvalue LAPACK call (``scipy.linalg.eigvalsh_tridiagonal``, the
    root-free QL/QR iteration of ``sterf``); ``window`` keeps the eigenvalues
    inside the closed interval.  On the default chains of
    ``ws_spectrum_truncated`` (1/F = 9 to 1000) that is about four times
    faster than bisecting for the window's levels alone.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    if window is not None:
        w_lo, w_hi = float(window[0]), float(window[1])
        if not w_lo <= w_hi:  # NaN fails here too, before it reaches LAPACK
            raise ValueError(f"window must be an increasing interval, got {tuple(window)}")
    eigs = eigvalsh_tridiagonal(matrix.diagonal, matrix.off_diagonal)
    return eigs if window is None else eigs[(eigs >= w_lo) & (eigs <= w_hi)]


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Monodromy:
    """Period propagator of the generating-function ODE at trial energy E = 0."""

    matrix: np.ndarray
    eigenphase: float  # principal eigenphase phi in [0, pi]
    # Magnus steps per period; the kernel integrates half of them (the half
    # period) and mirrors the rest
    integration_steps: int


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
_START_STEPS = 64  # first step count per Bloch period of every doubling sequence
_ASYMPTOTIC = 1e-3  # changes below this must fall 4x per doubling
_GAUSS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0
# a2 and a3 of a step are these multiples of g3 - g1 and g1 - 2 g2 + g3
_C2, _C3 = math.sqrt(15.0) / 3.0, 10.0 / 3.0


def _su2_mul(a1, b1, a2, b2):
    """Product of SU(2) matrices stored as (a, b) with U = [[a, b], [-b*, a*]]."""
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def _prefix_products(a, b):
    """U_0 = 1, U_1, ..., U_P along the last axis, U_j = u_j ... u_1 the product
    of the first j pieces u of (a, b), shape (..., P); leading axes are batch
    axes.  A scan of ceil(log2(P + 1)) passes (Hillis & Steele, CACM 29, 1170 (1986))."""
    start = np.ones(a.shape[:-1] + (1,))
    a, b = np.concatenate([start, a], axis=-1), np.concatenate([0 * start, b], axis=-1)
    shift = 1  # element j becomes U_j
    while shift < a.shape[-1]:
        a[..., shift:], b[..., shift:] = _su2_mul(a[..., shift:], b[..., shift:],
                                                  a[..., :-shift], b[..., :-shift])
        shift *= 2
    return a, b


def _step_exponents(g, diagonal, h, index):
    """Exponents of the Magnus steps of ``_magnus_product``: an array of shape
    (3, steps, batch) holding the components of each step's v.

    ``g`` holds the coupling at the three Gauss nodes of every step of every
    distinct coupling sequence, shape (3, steps, sequences), and is
    overwritten.  Batch element j steps by ``h[j]`` through sequence
    ``index[j]``; ``index`` is slice(None) if there is one sequence, or one
    per element in order.

    Vectors are held turned by pi about x, (x, y, z) -> (x, -y, -z): the
    Hamiltonian [[d, g], [g*, -d]] is then (Re g, Im g, -d), and cross
    products keep their form.  With the field-free a1 (at the middle node),
    a2 = _C2 (g3 - g1) and a3 = _C3 (g1 - 2 g2 + g3), alpha_i = h a_i and the
    Blanes formula of ``_magnus_product`` is v = h V1 + h^2 V2 + ... + h^5 V5:
    with c1 = 2 a1 x a2, and a1 . c1 = 0 reducing each double cross product,
    V1 = a1 + a3 / 12,  V2 = (a2 x a3 - 10 c1) / 120,
    V3 = (k1 a1 - k3 a3 + 2 (a1 . a2) a2) / 120,
    V4 = -(lam c1 + (a3 . c1 / 30) a1) / 120,  V5 = -|c1|^2 a1 / 3600,
    k1 = 4 a1 . a3 / 3 + |a3|^2 / 15 - 2 |a2|^2, k3 = 4 |a1|^2 / 3 + a1 . a3 / 15,
    lam = 2 |a1|^2 / 3 + a1 . a3 / 30.  a2 and a3 lie in the xy plane and the
    z of a1 is a constant.  Each V_k is built once per sequence and taken into a
    Horner evaluation in each element's own h, from V5 down.
    """
    pick = (lambda x: x) if isinstance(index, slice) else (lambda x: np.take(x, index, -1))
    e = -diagonal
    g[2] -= g[0]  # g3 - g1, in place: a fresh array costs more than the arithmetic
    g[0] += g[0]
    g[0] += g[2]
    g[0] -= g[1]
    g[0] -= g[1]  # g1 - 2 g2 + g3
    # a1 = (x1, y1, e), a2 = _C2 (x2, y2, 0), a3 = _C3 (x3, y3, 0)
    x1, y1, x2, y2, x3, y3 = g[1].real, g[1].imag, g[2].real, g[2].imag, g[0].real, g[0].imag
    a1a1 = x1 * x1 + y1 * y1 + e * e
    a2a2 = _C2 * _C2 * (x2 * x2 + y2 * y2)
    a12 = _C2 * _C2 / 60.0 * (x1 * x2 + y1 * y2)  # 2 (a1 . a2) _C2 / 120
    a13 = _C3 * (x1 * x3 + y1 * y3)
    c1z = 2.0 * _C2 * (x1 * y2 - y1 * x2)  # c1 = (-2 e _C2 y2, 2 e _C2 x2, c1z)
    a23 = _C2 * _C3 * (x2 * y3 - y2 * x3)  # (a2 x a3)_z; a3 . c1 = 2 e a23
    coef = np.empty((3, *x1.shape))
    cx, cy, cz = coef

    # V5 = m a1, m = -|c1|^2 / 3600
    m = (-e * e / 900.0) * a2a2 - c1z * c1z / 3600.0
    np.multiply(m, x1, out=cx)
    np.multiply(m, y1, out=cy)
    np.multiply(m, e, out=cz)
    v = pick(coef) * h
    # V4 = -lam c1 / 120 - q a1, q = a3 . c1 / 3600
    lam = (2.0 / 3.0) * a1a1 + a13 / 30.0
    q = (e / 1800.0) * a23
    np.subtract(lam * c1z / -120.0, q * e, out=cz)
    lam *= e * _C2 / 60.0
    np.subtract(lam * y2, q * x1, out=cx)
    np.add(lam * x2, q * y1, out=cy)
    np.negative(cy, out=cy)
    v += pick(coef)
    v *= h
    # V3 = (k1 a1 - k3 a3 + 2 (a1 . a2) a2) / 120
    k1 = (_C3 * _C3 / 1800.0 * (x3 * x3 + y3 * y3) + a13 / 90.0 - a2a2 / 60.0)
    k3 = _C3 / 90.0 * a1a1 + _C3 / 1800.0 * a13
    np.add(k1 * x1 - k3 * x3, a12 * x2, out=cx)
    np.add(k1 * y1 - k3 * y3, a12 * y2, out=cy)
    np.multiply(k1, e, out=cz)
    v += pick(coef)
    v *= h
    # V2 = (a2 x a3 - 10 c1) / 120
    np.multiply(y2, e * _C2 / 6.0, out=cx)
    np.multiply(x2, -e * _C2 / 6.0, out=cy)
    np.subtract(a23 / 120.0, c1z / 12.0, out=cz)
    v += pick(coef)
    v *= h
    # V1 = a1 + a3 / 12
    np.add(x1, _C3 / 12.0 * x3, out=cx)
    np.add(y1, _C3 / 12.0 * y3, out=cy)
    cz.fill(e)
    v += pick(coef)
    v *= h
    return v


def _magnus_product(coupling, diagonal, h, n_steps: int):
    """Sixth-order Magnus propagators of a batch of traceless 2x2 equations.

    Integrates i dU/dt = [[d, g(t)], [g*, -d]] U over ``n_steps`` steps of
    length ``h[j]`` for batch element j from U = 1, with a constant diagonal
    d = ``diagonal``.  ``coupling(s)`` gives (g, index) for an array s of step
    coordinates (3 Gauss nodes x steps x 1): g at t = h s for each distinct
    coupling sequence, shape (3, steps, sequences), and the sequence of each
    element as in ``_step_exponents``.  Writing the Hamiltonian as
    a . sigma, dU/dt = A U with A = -i a . sigma, and a commutator
    [-i x . sigma, -i y . sigma] is -i (2 x cross y) . sigma.  With A1, A2,
    A3 at the Gauss points 1/2 -+ sqrt(15)/10 and 1/2 of a step, the step
    exponent is
    Omega = alpha1 + alpha3/12 + (1/240)[-20 alpha1 - alpha3 + C1, alpha2 + C2]
    with alpha1 = h A2, alpha2 = (sqrt(15) h/3)(A3 - A1),
    alpha3 = (10h/3)(A3 - 2A2 + A1), C1 = [alpha1, alpha2] and
    C2 = -(1/60)[alpha1, 2 alpha3 + C1] (Blanes, Casas, Oteo & Ros, Phys. Rep.
    470, 151 (2009)).  Every alpha is h times a field-free vector, so
    ``_step_exponents`` expands Omega in powers of h once per sequence and
    evaluates it in each element's h: the fields of a sweep share one
    sequence.  For Omega = -i v . sigma the step matrix
    cos|v| - i sin|v| v^ . sigma is unitary by construction.  Step matrices
    are multiplied pairwise (later steps on the left) in blocks of about
    ``_BLOCK_MATRICES``, and the blocks likewise by a binary counter; as
    ``n_steps`` and the blocks are powers of two, that is one binary tree
    whatever the block size, so no batch changes an element's bits.
    Returns (a, b) arrays with U = [[a, b], [-b*, a*]].
    """
    done = []  # products of the earlier whole subtrees, largest first
    per_block = min(n_steps, 1 << max(0, (_BLOCK_MATRICES // max(h.size, 1)).bit_length() - 1))
    for block, start in enumerate(range(0, n_steps, per_block), 1):
        g, index = coupling(_GAUSS_NODES[:, None, None]
                            + np.arange(start, start + per_block)[:, None])
        x, y, z = _step_exponents(g, diagonal, h, index)  # v turned by pi about x
        norm = np.sqrt(x * x + y * y + z * z)
        sinc = np.divide(np.sin(norm), norm, out=np.ones_like(norm), where=norm > 0.0)
        a = np.empty(norm.shape, dtype=complex)
        b = np.empty(norm.shape, dtype=complex)
        np.cos(norm, out=a.real)
        np.multiply(sinc, z, out=a.imag)
        np.multiply(sinc, y, out=b.real)
        np.multiply(sinc, x, out=b.imag)
        np.negative(b.imag, out=b.imag)
        while a.shape[0] > 1:
            a, b = _su2_mul(a[1::2], b[1::2], a[::2], b[::2])
        a, b = a[0], b[0]  # 1-D: numpy rounds a (1,) x (1, 1) complex product in another loop
        for _ in range((block & -block).bit_length() - 1):  # one merge per trailing zero
            a, b = _su2_mul(a, b, *done.pop())
        done.append((a, b))
    return done[0]


def _converged(propagators, size: int, tol: float, periods: float):
    """Step-doubled propagators (a, b) and step counts for a batch of equations.

    ``propagators(index, n_steps)`` integrates the batch elements ``index``
    with ``n_steps`` steps.  The longest element spans ``periods`` Bloch
    periods; the whole batch starts at the power of two at or above
    ``_START_STEPS`` steps per period of it (one step at least) and doubles
    its step count, and an element leaves it once each entry changes by less
    than ``tol``.  Once the largest pending change is below ``_ASYMPTOTIC``,
    a doubling that cuts it less than 4x (sixth order gives 64x) raises.  A
    ``propagators`` call gets at most ``_BLOCK_MATRICES`` elements, the
    kernel's bound along its step axis too.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol:g}")

    def integrate(index, n_steps):
        parts = np.array_split(index, max(1, -(-index.size // _BLOCK_MATRICES)))
        return tuple(map(np.concatenate, zip(*(propagators(p, n_steps) for p in parts))))

    a_out = np.empty(size, dtype=complex)
    b_out = np.empty(size, dtype=complex)
    steps = np.empty(size, dtype=int)
    pending = np.arange(size)
    n = 1 << math.ceil(math.log2(max(1.0, _START_STEPS * periods)))
    prev = integrate(pending, n)
    last = np.inf
    while pending.size:
        n *= 2
        a, b = integrate(pending, n)
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


def _advance(span, curve, sigma):
    """Integral of F over the fraction sigma of a piece whose 1/F rises by ``curve``
    times its start z0: span sigma log1p(curve sigma) / (curve sigma), span = duration / z0."""
    x = curve * sigma
    return span * sigma * np.divide(np.log1p(x), x, out=np.ones_like(x), where=x != 0)


def _ring_kernel(params: LatticeParams, phases, key, duration, hops):
    """The kernel callback ``propagators(index, n_steps)`` that ``_ring_propagators``
    step-doubles with the same arguments: the (piece, hop) pairs ``index``.

    Its coupling callback takes exp(i Phi) once per phase sequence and returns g
    once per distinct (sequence, hop) pair with each element's pair as an
    index, slice(None) where one pair serves all or each element has its own
    in order; ``_magnus_product`` builds a step exponent once per pair."""
    start, span, curve = np.asarray(phases, dtype=float)

    def propagators(index, n_steps):
        piece, hop = np.divmod(index, hops.size)
        if start.size * hops.size == 1:
            pairs, inverse = np.zeros(1, int), slice(None)
        else:
            keys = key[piece] * hops.size + hop
            pairs, inverse = np.unique(keys, return_inverse=True)
            if pairs.size == 1 or np.array_equal(pairs, keys):
                inverse = slice(None)
        seqs, at = np.unique(pairs // hops.size, return_inverse=True)

        def coupling(s):  # s counts steps from the start of each piece
            e = np.exp(1j * (start[seqs] + _advance(span[seqs], curve[seqs], s / n_steps)))
            g = np.take(e, at, axis=-1)
            g *= hops[pairs % hops.size]
            g += np.take(np.conj(e, out=e), at, axis=-1) * params.j1
            return g, inverse

        return _magnus_product(coupling, -params.delta, duration[piece] / n_steps, n_steps)

    return propagators


def _ring_propagators(params: LatticeParams, phases, key, duration, hops, tol: float):
    """Propagators (a, b) and step counts of i dc/dt = [[-delta, g], [g*, delta]] c,
    g = j1 exp(-i Phi) + hop exp(i Phi), one per (piece p, hop) pair, piece-major.

    A ring cell wavevector kappa in the acceleration gauge: hop = j2 exp(-2i kappa),
    Phi the time integral of F, from c = 1 over ``duration[p]``; at its fraction
    sigma Phi = start + ``_advance(span, curve, sigma)``, the phase sequence
    (start, span, curve) being ``phases[:, key[p]]``.  A kernel call takes
    exp(i Phi) once per sequence and g and its step exponents once per
    (sequence, hop) (``_ring_kernel``); all pairs are one ``_converged`` batch
    from the longest Phi / pi.
    """
    periods = float(np.max(_advance(*np.asarray(phases, dtype=float)[1:], 1.0))) / math.pi
    return _converged(_ring_kernel(params, phases, key, duration, hops),
                      key.size * hops.size, tol, periods)


def _period_propagators(params: LatticeParams, fields: np.ndarray, n_pieces: int, tol: float):
    """Lab-frame propagators (a, b) and step counts, each of shape (fields, n_pieces),
    of i dV/ds = [[-(delta + F/2), g], [g*, delta + F/2]] V, g = j1 + j2 exp(2i F s),
    over s in [pi j, pi (j + 1)] / (F P) for each piece j and field F; P =
    ``n_pieces`` is a power of two (1: the monodromies).  V is the ring amplitude
    at kappa = 0 in the lab frame: with E(s) = diag(exp(i F s / 2), exp(-i F s / 2))
    and C the ring piece, Phi = F s, V(s1, s0) = E(s1) C E(s0)^H, so
    a -> a exp(i pi / 2P) and b -> b exp(i pi (2j + 1) / 2P).

    Only the ring pieces with Phi in [0, pi / 2] are integrated.  With real j1,
    j2 and delta, kappa = 0 and a constant F the ring Hamiltonian obeys
    H(T - t) = sigma_z H(t)* sigma_z over the period T = pi / F, so
    C(T - t0, T - t1) = sigma_z C(t1, t0)^T sigma_z, (a, b) -> (a, b*).  For
    P >= 2 all fields' P / 2 first-half pieces are one batch of
    ``_ring_propagators``; once converged, piece P - 1 - j is piece j mirrored,
    which changes by as much at each doubling, so the step counts are those of
    comparing all P pieces.  At P = 1 the doubling compares the closed period,
    the half period followed by its mirror, and counts steps per period.  The
    Gauss-Magnus step is time-symmetric, so a mirrored step is the step of the
    mirrored interval to roundoff.  The mirror needs each condition: a complex
    hop (j2 exp(-2i kappa) at kappa != 0) turns g(T - t) into something other
    than -g(t)*, and a ramped F makes Phi(T - t) differ from pi - Phi(t).
    ``dynamics.propagate`` runs at kappa != 0 and under ramps, so it
    integrates every piece.
    """
    if n_pieces < 1 or n_pieces & (n_pieces - 1):  # odd P > 1 has a self-mirrored middle piece
        raise ValueError(f"n_pieces must be a power of two, got {n_pieces}")
    halves = max(n_pieces // 2, 1)  # integrated ring pieces per field
    width = math.pi / max(n_pieces, 2)
    half = np.arange(halves)
    ring = (params, np.array([half, np.ones(halves), np.zeros(halves)]) * width,
            np.tile(half, fields.size), np.repeat(width / fields, halves),
            np.array([params.j2]))
    if n_pieces == 1:
        kernel = _ring_kernel(*ring)

        def period(index, n_steps):
            a, b = kernel(index, n_steps // 2)
            return _su2_mul(a, np.conj(b), a, b)

        a, b, steps = (x[:, None] for x in _converged(period, fields.size, tol, 1.0))
    else:
        a, b, steps = (x.reshape(fields.size, halves) for x in _ring_propagators(*ring, tol))
        a, b, steps = (np.concatenate([x, mirror[:, ::-1]], axis=1)
                       for x, mirror in ((a, a), (b, np.conj(b)), (steps, steps)))
    return (a * np.exp(0.5j * math.pi / n_pieces),
            b * np.exp(0.5j * math.pi * (2 * np.arange(n_pieces) + 1) / n_pieces), steps)


def _eigenphase(a, b):
    """Principal eigenphase in [0, pi] of U = [[a, b], [-b*, a*]] in SU(2).

    The eigenvalues are Re a +- i sqrt(Im a^2 + |b|^2); atan2 keeps full
    accuracy at phi -> 0 and pi, where an inverse cosine loses half the digits.
    """
    return np.arctan2(np.sqrt(a.imag ** 2 + np.abs(b) ** 2), a.real)


def monodromy(params: LatticeParams, tol: float = _PHASE_TOL) -> Monodromy:
    """Time-ordered period propagator of the tilted-lattice generating ODE.

    Integrates dU/dtheta = -i/(2F) G0(theta) U over one period at trial
    energy E = 0: U = sigma_z W* sigma_z, (a, b) -> (a*, -b*), at theta = 2 F s
    for W the one-field, one-piece case of ``_period_propagators``, which
    closes the first half period with its time-reversed mirror, step-doubled
    until every entry of W is stable to ``tol``.  Exact SU(2) steps, an exact
    SU(2) product and unitary frame maps keep U unitary to roundoff without
    projection.
    """
    params.require_field()
    a, b, steps = (x.item() for x in _period_propagators(params, np.array([params.f]), 1, tol))
    u = np.array([[np.conj(a), -np.conj(b)], [b, a]])  # sigma_z W* sigma_z
    return Monodromy(matrix=u, eigenphase=float(_eigenphase(a, b)), integration_steps=steps)


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


def floquet_ladders(params: LatticeParams, fields, n_range=range(-8, 9),
                    tol: float = _PHASE_TOL) -> list[LadderSpectrum]:
    """Wannier-Stark ladders E = offset + 2Fn at each field F in ``fields``
    (``params.f`` is ignored), from the monodromy eigenphases.

    All fields are step-doubled to ``tol`` in one batch of
    ``_period_propagators`` at one piece per period; each gets the bits and
    step count it gets when integrated alone.
    ``floquet_branch_offsets`` labels each field's pair.  Exact degeneracies of
    the eigenphase pair produce coincident levels of the two branches rather
    than an error.
    """
    fields = np.asarray(fields, dtype=float)
    lattices = [params.with_field(f) for f in fields.tolist()]
    for lattice in lattices:
        lattice.require_field()
    a, b, _ = _period_propagators(params, fields, 1, tol)
    return [LadderSpectrum.from_offsets(*floquet_branch_offsets(p, phi), p.f, n_range)
            for p, phi in zip(lattices, _eigenphase(a[:, 0], b[:, 0]).tolist())]


def ws_spectrum_floquet(params: LatticeParams, n_range=range(-8, 9),
                        tol: float = _PHASE_TOL) -> LadderSpectrum:
    """``floquet_ladders`` at the one field ``params.f``."""
    return floquet_ladders(params, [params.f], n_range, tol)[0]


# sites past the reach, tilt margin and excursion on each side: twice the 8 at
# which default-window levels reach their roundoff floor (4 leaves 9e-14)
_SIZE_MARGIN = 16


def _default_window(params: LatticeParams) -> tuple[float, float]:
    """Energies within 4F of the bands: |E| <= 4F + band_edge."""
    reach = params.f * (4.0 + 0.5 * _excursion_sites(params))
    return -reach, reach


def default_chain_size(params: LatticeParams, window=None) -> int:
    """Sites of a truncated chain for ``window`` (default ``_default_window``):
    each half spans the reach max|window| and the tilt margin 2(j1 + j2), both
    over F, the Bloch excursion 2 band_edge / F, where the Wannier-Stark states
    live, and ``_SIZE_MARGIN`` sites; the total is rounded up to a multiple of 4."""
    lo, hi = window if window is not None else _default_window(params)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"window must be finite, got {(lo, hi)}")
    half = ((max(abs(lo), abs(hi)) + 2.0 * (params.j1 + params.j2)) / params.f
            + _excursion_sites(params) + _SIZE_MARGIN)
    return 4 * math.ceil(0.5 * half)


def ws_spectrum_truncated(params: LatticeParams, n_sites: int | None = None,
                          window: tuple[float, float] | None = None) -> LadderSpectrum:
    """Eigenvalues of the truncated chain inside ``window``, edge-checked.

    The window defaults to |E| <= 4F + band_edge, the chain to
    ``default_chain_size`` of the window.  Every level is recomputed with the
    chain enlarged by a quarter; levels moving more than 1e-10 are flagged
    unconverged.  The levels label themselves: the converged level E nearest
    0 (any level if none converged) fixes the eigenphase
    phi = pi |fold(E, 2F)| / F, from which ``floquet_branch_offsets`` gives
    the two ladders' offsets.  Ladders closer
    than 1e-10 coincide: both take the offset of phi = 0 or pi, and each
    degenerate pair holds one level of each branch with the same index.
    """
    params.require_field()
    if window is None:
        window = _default_window(params)
    if n_sites is None:
        n_sites = default_chain_size(params, window)

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
    return LadderSpectrum(eigs, branches, indices, field=params.f, converged=converged)


def _splitting(inv_f, a, b) -> np.ndarray:
    """Minimal inter-ladder splitting (2F/pi) min(phi, pi - phi) at fields
    1/inv_f from the period propagator's entries (a, b) there."""
    phi = _eigenphase(a, b)
    return (2.0 / (math.pi * inv_f)) * np.minimum(phi, math.pi - phi)


def _gaps(params: LatticeParams, inv_f) -> np.ndarray:
    """Minimal inter-ladder splittings (energy units) at fields 1/inv_f."""
    z = np.asarray(inv_f, dtype=float)
    a, b, _ = _period_propagators(params, 1.0 / z, 1, _PHASE_TOL)
    return _splitting(z, a[:, 0], b[:, 0])


_PROXY_MAX_NODES = 1 << 12  # Chebyshev node cap of the crossing search's proxy
_ZOOM_POINTS = 65  # proxy samples per bracket; each zoom shrinks it 32x


def find_avoided_crossings(params: LatticeParams, inv_f_interval: tuple[float, float],
                           resolution: int = 200) -> list[AvoidedCrossing]:
    """Locate minima of the inter-ladder splitting over a 1/F interval.

    The entries a and b of the period propagator (``_period_propagators`` at
    one piece per period) are analytic in 1/F, so one batched integration at
    first-kind Chebyshev points gives a series (the proxy) of Re a, Im a,
    Re b and Im b over the whole interval.  The node count starts
    at 16 and doubles until the last eighth of the coefficients is below
    1e-13 of the largest; past 4096 nodes NonConvergedError is raised.  The
    splitting formula on the proxy's entries is scanned at ``resolution``
    equally spaced points, which cost no integration, so minima closer than
    one step merge.  Each interior local minimum is refined on the proxy: a
    grid of 65 points zooms onto its smallest sample until the bracket is
    below 1e-13 of 1/F.  That is far inside the relative 1e-6 the location
    must meet at any interval width, and it resolves the corner of an exact
    crossing too.  The reported gaps come from one batched direct integration
    at all the minima; splittings below 1e-12 * F are reported as exact
    crossings (gap 0).  Every input is checked before any integration.
    """
    z_lo, z_hi = float(inv_f_interval[0]), float(inv_f_interval[1])
    if not (0.0 < z_lo < z_hi < math.inf):  # NaN fails here too
        raise ValueError("inv_f_interval must satisfy 0 < lo < hi < inf")
    if not (resolution >= 100 and float(resolution).is_integer()):  # NaN fails here too
        raise ValueError(f"resolution must be a whole number of at least 100, got {resolution}")

    mid, half = 0.5 * (z_hi + z_lo), 0.5 * (z_hi - z_lo)

    def entries(s):
        a, b, _ = _period_propagators(params, 1.0 / (mid + half * s), 1, _PHASE_TOL)
        return np.array([a.real, a.imag, b.real, b.imag])[..., 0]

    coef = _chebyshev_series(entries, 16, _PROXY_MAX_NODES, 1e-13).T

    def proxy_gaps(z):
        re_a, im_a, re_b, im_b = chebval((z - mid) / half, coef)
        return _splitting(z, re_a + 1j * im_a, re_b + 1j * im_b)

    z = np.linspace(z_lo, z_hi, int(resolution))
    gaps = proxy_gaps(z)
    z_stars = []
    for i in range(1, z.size - 1):
        if not (gaps[i] < gaps[i - 1] and gaps[i] <= gaps[i + 1]):
            continue
        lo, hi = z[i - 1], z[i + 1]
        while hi - lo > 1e-13 * hi:
            grid = np.linspace(lo, hi, _ZOOM_POINTS)
            j = int(np.argmin(proxy_gaps(grid)))
            lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, _ZOOM_POINTS - 1)]
        z_stars.append(float(0.5 * (lo + hi)))
    return [AvoidedCrossing(inv_f_star=z_star, gap=0.0 if gap < 1e-12 / z_star else gap)
            for z_star, gap in zip(z_stars, _gaps(params, z_stars).tolist())]
