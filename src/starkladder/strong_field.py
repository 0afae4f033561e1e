"""Strong-field asymptotics of the Wannier-Stark ladders.

Two routes to the merged-ladder corrections: the second-order iterative
propagator of the driven two-level mapping (lattice with j1 = j2), and the
first-order averaged coupling which also covers j1 != j2.  Both need only
the Bessel functions J0 and J1 (from scipy.special) and the oscillatory
integral I(t, z) = int_0^t sin(z sin x) dx, which scipy lacks.  I and the
nested integrals built from it are Chebyshev (Clenshaw-Curtis) antiderivatives
from one helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .errors import NonConvergedError, OutOfValidityError
from .model import LadderSpectrum, LatticeParams


@lru_cache(maxsize=16)
def _chebyshev_transform(n: int):
    """First-kind Chebyshev points cos(pi (k + 1/2) / n) and DCT-II twiddles:
    samples f there have coefficients Re(twiddle * FFT(f, reversed f)[:n])."""
    k = np.arange(n)
    twiddle = np.exp(-0.5j * np.pi * k / n) / n
    twiddle[0] *= 0.5
    return np.cos(np.pi * (k + 0.5) / n), twiddle


def _chebyshev_series(sample, n: int, n_max: int, tail: float) -> np.ndarray:
    """Chebyshev coefficients on [-1, 1] of the functions ``sample`` evaluates.

    ``sample`` maps an array of points s in [-1, 1] to samples, one row per
    function.  From ``n`` first-kind points the count doubles, up to
    ``n_max``, until the last eighth of the coefficients is below ``tail``
    times the largest.  Returns coefficients (functions x nodes): chebval(s,
    coef.T) gives the values at s.
    """
    while n <= n_max:
        s, twiddle = _chebyshev_transform(n)
        f = np.atleast_2d(sample(s))
        coef = (np.fft.fft(np.hstack([f, f[:, ::-1]]))[:, :n] * twiddle).real
        if np.max(np.abs(coef[:, -n // 8:])) <= tail * np.max(np.abs(coef)):
            return coef
        n *= 2
    raise NonConvergedError(f"Chebyshev series unresolved at {n_max} nodes")


def _antiderivative(integrand, t: float, z: float) -> np.ndarray:
    """Chebyshev series of x -> int_0^x integrand on [0, t].

    ``integrand`` maps an array of points in [0, t] to samples, one row per
    integrand.  The node count starts from the oscillation scale z (a power
    of two, so a sweep in z reuses a few transforms) and doubles up to 2^15
    until the last eighth of the coefficients is below 1e-13 of the largest,
    or 4e-16 z once the roundoff of the phase z sin x dominates.
    Returns coefficients in s = 2x/t - 1 along axis 0, one column per row:
    chebval(s, coef) gives interior values and coef.sum(axis=0) the value at t.
    """
    coef = _chebyshev_series(lambda s: integrand(0.5 * t * (s + 1.0)),
                             1 << max(7, int(2.0 * z + 32.0).bit_length()), 1 << 15,
                             max(1e-13, 4e-16 * z))
    rows, n = coef.shape
    # chebint's recurrence b_k = (c_{k-1} - c_{k+1}) / 2k with c_0 doubled, as
    # one array expression: chebint loops in Python over the coefficients
    c = np.hstack([2.0 * coef[:, :1], coef[:, 1:], np.zeros((rows, 2))])
    b = 0.25 * t * (c[:, :-2] - c[:, 2:]) / np.arange(1, n + 1)
    b0 = b @ (-1.0) ** np.arange(n)  # the antiderivative vanishes at x = 0
    return np.hstack([b0[:, None], b]).T


@dataclass(frozen=True)
class WuYangPhaseSet:
    """The four accumulated phases of the second-order strong-coupling propagator.

    All four vanish at t = 0 and vanish identically when epsilon = 0.
    """

    tau: float
    beta: float
    phi: float
    psi: float

    @classmethod
    def evaluate(cls, epsilon: float, omega: float, t: float) -> "WuYangPhaseSet":
        """Accumulate the nested phase integrals from Chebyshev antiderivatives."""
        if not -1e-12 <= t <= math.pi + 1e-12:
            raise ValueError("t must lie in [0, pi]")
        if epsilon < 0 or omega < 0:
            raise ValueError("epsilon and omega must be non-negative")
        if t <= 0.0 or epsilon == 0.0:
            return cls(0.0, 0.0, 0.0, 0.0)

        from scipy.special import j0

        z = 2.0 * omega
        big_a = 2.0 * math.pi * epsilon * float(j0(z))
        # columns I(x) = int_0^x sin(z sin), K(x) = int_0^x sin(z cos)
        inner = _antiderivative(lambda x: np.sin(z * np.array([np.sin(x), np.cos(x)])), t, z)

        def phase_integrands(x):
            inner_i, inner_k = chebval(2.0 * x / t - 1.0, inner)
            c1 = np.cos(z * np.sin(x))
            angle = big_a - 2.0 * epsilon * inner_k
            sin2ei = np.sin(2.0 * epsilon * inner_i)
            return np.array([c1 * np.cos(2.0 * epsilon * inner_i),
                             -c1 * sin2ei * np.cos(angle),
                             c1 * sin2ei * np.sin(angle)])

        beta, phi, psi = epsilon * _antiderivative(phase_integrands, t, z).sum(axis=0)
        tau = epsilon * inner[:, 0].sum()
        return cls(float(tau), float(beta), float(phi), float(psi))


def wu_yang_propagator(epsilon: float, omega: float, t: float) -> np.ndarray:
    """Approximate interaction-frame propagator of the driven two-level map.

    Assembled from the four phases as the SU(2) product N(tau, phi) R(psi)
    diag(e^{i beta}, e^{-i beta}); exactly unitary by construction, identity
    at epsilon = 0.
    """
    p = WuYangPhaseSet.evaluate(epsilon, omega, t)
    ct, st = math.cos(p.tau), math.sin(p.tau)
    cp, sp = math.cos(p.phi), math.sin(p.phi)
    cs, ss = math.cos(p.psi), math.sin(p.psi)
    n = np.array([[ct * cp - 1j * st * sp, 1j * ct * sp - st * cp],
                  [st * cp + 1j * ct * sp, ct * cp + 1j * st * sp]])
    r = np.array([[cs, ss], [-ss, cs]])
    return n @ r @ np.diag(np.exp([1j * p.beta, -1j * p.beta]))


def _require_equal_hoppings(params: LatticeParams) -> float:
    if abs(params.j1 - params.j2) > 1e-12 * max(params.j1, params.j2):
        raise ValueError("this spectrum requires j1 = j2")
    return params.j1


def spectrum_wu_yang(params: LatticeParams, n_range=range(-8, 9)) -> LadderSpectrum:
    """Merged-ladder spectrum from the second-order propagator at t = pi.

    E_{n,+-} = F(2n +- 1/2) +- (F/pi) arcsin((U11 - U22)/(2i)); the arcsin
    argument leaving [-1, 1] means the expansion broke down and raises
    OutOfValidityError.
    """
    _require_equal_hoppings(params)
    params.require_field()
    u = wu_yang_propagator(params.epsilon2, params.omega, math.pi)
    quotient = (u[0, 0] - u[1, 1]) / 2j
    arg = quotient.real
    if abs(arg) > 1.0:
        raise OutOfValidityError(
            f"arcsin argument {arg:.6f} outside [-1, 1]; expansion invalid here"
        )
    shift = params.f / math.pi * math.asin(arg)
    return _two_ladder(params, shift, n_range)


def pi_coefficients(params: LatticeParams) -> tuple[float, float]:
    """First and third order coefficients (Pi1, Pi3) of the epsilon expansion.

    Pi1 = F J0(4J/F); Pi3 = (2F/pi) int_0^pi [I(t, 4J/F) - I(pi, 4J/F)/2]^2
    cos(4J/F sin t) dt.
    """
    from scipy.special import j0

    j = _require_equal_hoppings(params)
    params.require_field()
    zeta = 4.0 * j / params.f
    pi1 = params.f * float(j0(zeta))

    i_coef = _antiderivative(lambda x: np.sin(zeta * np.sin(x)), math.pi, zeta)
    half_total = 0.5 * i_coef.sum()

    def integrand(x):
        i_x = chebval(2.0 * x / math.pi - 1.0, i_coef[:, 0])
        return (i_x - half_total) ** 2 * np.cos(zeta * np.sin(x))

    # overall sign pinned by a cubic fit of the exact spectrum in epsilon
    pi3 = -(2.0 * params.f / math.pi) * float(_antiderivative(integrand, math.pi, zeta).sum())
    return pi1, pi3


def spectrum_expansion(params: LatticeParams, n_range=range(-8, 9),
                       order: int = 3) -> LadderSpectrum:
    """Ladder spectrum from the epsilon expansion, first or third order."""
    if order not in (1, 3):
        raise ValueError("order must be 1 or 3")
    pi1, pi3 = pi_coefficients(params)
    eps = params.epsilon2
    shift = eps * pi1
    if order == 3:
        shift += eps**3 * pi3
    return _two_ladder(params, shift, n_range)


def averaged_coupling(params: LatticeParams) -> float:
    """First-order averaged coupling of the u-v system.

    f_bar = (delta/F) J0(2(j1+j2)/F) + ((j1-j2)/F) J1(2(j1+j2)/F); vanishes
    for the plain lattice delta = 0, j1 = j2.
    """
    from scipy.special import j0, j1

    params.require_field()
    z = 2.0 * (params.j1 + params.j2) / params.f
    return (params.delta / params.f) * float(j0(z)) \
        + ((params.j1 - params.j2) / params.f) * float(j1(z))


def spectrum_bm(params: LatticeParams, n_range=range(-8, 9)) -> LadderSpectrum:
    """Averaged spectrum E_{n,+-} = F(2n +- 1/2 +- f_bar)."""
    shift = params.f * averaged_coupling(params)
    return _two_ladder(params, shift, n_range)


def _two_ladder(params: LatticeParams, shift: float, n_range) -> LadderSpectrum:
    """Merged-ladder pair E_{n,+-} = F(2n +- 1/2) +- shift."""
    half = 0.5 * params.f + shift
    return LadderSpectrum.from_offsets(-half, half, params.f, n_range)
