"""Weak-field adiabatic theory: Zak phases, the adiabatic ladder with its
second-order correction, and the avoided-crossing gap estimate.

The ladder constants split cleanly: C_+- carries all the smooth field
dependence through the shifted instantaneous eigenvalues, while the
geometric offset c_+- is the field-free Zak phase of the Bloch band (using
finite-field eigenvectors would smuggle O(F) pieces into a constant that the
F^2 correction already accounts for, and would break the exact quantization
of the dimerized lattice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfValidityError
from .model import (LadderSpectrum, LatticeParams, _check_gap, _tilted_band_mean,
                    _zak_plus, fold_interval)


@dataclass(frozen=True)
class AdiabaticLadder:
    """Mean energy and geometric offset of one adiabatic Wannier-Stark ladder."""

    c_const: float
    zak: float


@dataclass(frozen=True)
class GapEstimate:
    """Multiphoton-resonance estimate of the avoided-crossing gap.

    ``theta0`` is the turning point cosh(theta0) = (j1^2+j2^2)/(2 j1 j2) and
    ``ratio`` the predicted gap over field, Delta E / F.
    """

    theta0: float
    ratio: float


def adiabatic_constants(params: LatticeParams) -> tuple[AdiabaticLadder, AdiabaticLadder]:
    """Ladder constants (plus, minus): mean energies C_+- and Zak offsets c_+-.

    C_+ is the mean of the shifted instantaneous eigenvalue (its mirror
    C_- = -C_+ exactly) and c_+ = -c_- the field-free Zak phase, both
    complete elliptic integrals in closed form.  Raises DegeneracyError when
    the field-free bands touch (``model._check_gap``).
    """
    params.require_field()
    c_plus = _tilted_band_mean(params)
    zak_plus = _zak_plus(params)
    return (
        AdiabaticLadder(c_const=c_plus, zak=zak_plus),
        AdiabaticLadder(c_const=-c_plus, zak=fold_interval(-zak_plus, 1.0)),
    )


def d_coefficient(params: LatticeParams) -> float:
    """Second-order (F^2) coefficient of the SSH adiabatic ladder.

    D = s d / 32 * (1/2pi) int_0^2pi [s cos^2(t/2) + d sin^2(t/2)]^{-5/2} dt
    with s = (j1+j2)^2 and d = (j1-j2)^2.  With p = d/s the integral is a
    complete elliptic one,
    D = d s^{-3/2} / (16 pi) * [2(1 + p) E(1 - p) - p K(1 - p)] / (3 p^2),
    and K(1 - p) comes from ``ellipkm1(p)`` so p -> 0 keeps its digits.
    """
    from scipy.special import ellipe, ellipkm1

    s = (params.j1 + params.j2) ** 2
    d = (params.j1 - params.j2) ** 2
    if s * d == 0.0:
        return 0.0
    p = d / s
    bracket = (2.0 * (1.0 + p) * ellipe(1.0 - p) - p * ellipkm1(p)) / (3.0 * p * p)
    return float(d * s**-1.5 / (16.0 * math.pi) * bracket)


def adiabatic_spectrum(params: LatticeParams, n_range=range(-8, 9),
                       order: int = 1) -> LadderSpectrum:
    """Adiabatic ladders E_{n,+-} = C_+- + 2F(n + c_+-), optionally with the
    field-squared correction (order 2, derived for delta = 0 only), which
    raises OutOfValidityError above F/2, a quarter of the ladder spacing."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if order == 2 and params.delta != 0.0:
        raise ValueError("the F^2 correction is only available for delta = 0")
    plus, minus = adiabatic_constants(params)
    correction = d_coefficient(params) * params.f**2 if order == 2 else 0.0
    if abs(correction) > 0.5 * params.f:
        raise OutOfValidityError(f"F^2 correction {correction:.3g} exceeds F/2 = "
                                 f"{0.5 * params.f:.3g}; weak-field expansion invalid here")
    two_f = 2.0 * params.f
    return LadderSpectrum.from_offsets(
        minus.c_const + two_f * minus.zak - correction,
        plus.c_const + two_f * plus.zak + correction,
        params.f, n_range)


def _gap_action(j1: float, j2: float) -> float:
    """Tunnelling action S of the delta = 0 gap law, in closed form.

    The interband transition amplitude per Bloch period is
    exp(-Im int (E_+ - E_-) dt) along the path to the complex degeneracy of
    E^2(theta) = j1^2 + j2^2 + 2 j1 j2 cos theta, which sits at
    theta = pi + i theta0 with cosh(theta0) = 1/q, q = 2 j1 j2/(j1^2 + j2^2).
    With theta = 2Ft and E(pi + i t)^2 = (j1^2 + j2^2)(1 - q cosh t) the
    exponent is S/F with

        S = sqrt(j1^2 + j2^2) int_0^theta0 sqrt(1 - q cosh t) dt.

    Substituting sinh(t/2) = sinh(theta0/2) sin(phi) turns the integral into
    sqrt(2q) c [R_F(0, 1+n, 1) - R_D(0, 1+n, 1)/3] with c = 1/q - 1 and
    n = c/2 (Carlson's symmetric forms), so

        S = (j1 - j2)^2 / sqrt(j1 j2) [R_F(0, 1+n, 1) - R_D(0, 1+n, 1)/3],
        n = (j1 - j2)^2 / (4 j1 j2),

    which avoids the cancellation in 1 - q and is 0 at j1 = j2.
    """
    from scipy.special import elliprd, elliprf

    n = (j1 - j2) ** 2 / (4.0 * j1 * j2)
    carlson = elliprf(0.0, 1.0 + n, 1.0) - elliprd(0.0, 1.0 + n, 1.0) / 3.0
    return float((j1 - j2) ** 2 / math.sqrt(j1 * j2) * carlson)


def gap_estimate(params: LatticeParams) -> GapEstimate:
    """Exponential estimate of the avoided-crossing gap for the delta = 0 lattice.

    Delta E / F = (2/pi) exp(-S/F) with the tunnelling action S of
    ``_gap_action``; the turning point is cosh(theta0) = 1/q with
    q = 2 j1 j2/(j1^2 + j2^2).  Raises DegeneracyError when the bands touch
    (``model._check_gap``): there is no gap to cross and no ladder pair.
    """
    if params.delta != 0.0:
        raise ValueError("the gap formula is derived for delta = 0 only")
    if params.j1 <= 0 or params.j2 <= 0:
        raise ValueError("both hoppings must be positive")
    _check_gap(params)
    params.require_field()
    q = 2.0 * params.j1 * params.j2 / (params.j1**2 + params.j2**2)
    theta0 = math.acosh(1.0 / q) if q < 1.0 else 0.0
    if not math.isfinite(theta0):  # q subnormal: n of ``_gap_action`` overflows too
        raise OutOfValidityError(f"theta0 overflows at j2/j1 = {params.j2 / params.j1:.3g}")
    action = _gap_action(params.j1, params.j2)
    return GapEstimate(theta0=theta0, ratio=2.0 / math.pi * math.exp(-action / params.f))
