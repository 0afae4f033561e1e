"""Weak-field adiabatic theory: instantaneous eigensystem, Zak phases, the
adiabatic ladder with its second-order correction, and the avoided-crossing
gap estimate.

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

import numpy as np
from scipy.integrate import quad

from .errors import DegeneracyError, NonConvergedError
from .model import (LadderSpectrum, LatticeParams, _tilted_band_mean, _two_level_eigen,
                    _zak_wilson_loop, fold_interval)


@dataclass(frozen=True)
class AdiabaticLadder:
    """Mean energy and geometric offset of one adiabatic Wannier-Stark ladder."""

    c_const: float
    zak: float
    branch: int


@dataclass(frozen=True)
class GapEstimate:
    """Multiphoton-resonance estimate of the avoided-crossing gap.

    ``theta0`` is the turning point cosh(theta0) = (j1^2+j2^2)/(2 j1 j2) and
    ``ratio`` the predicted gap over field, Delta E / F.
    """

    theta0: float
    ratio: float


def instantaneous_eigen(params: LatticeParams, theta: float):
    """Eigenpairs of the shifted generating-function matrix at angle theta.

    Returns (e_minus, e_plus, y_minus, y_plus) with
    e_plus = sqrt((delta + F/2)^2 + |j1 + j2 e^{i theta}|^2) and normalized
    eigenvectors in a gauge smooth along theta.
    """
    if params.f < 0:
        raise ValueError("f must be non-negative")
    dz = params.delta + 0.5 * params.f
    h = params.j1 + params.j2 * np.exp(1j * theta)
    r, y_minus, y_plus = _two_level_eigen(dz, h)
    scale = params.j1 + params.j2 + abs(dz)
    if r <= 1e-13 * max(scale, 1e-300):
        raise DegeneracyError("instantaneous spectrum is degenerate at this theta")
    return -float(r), float(r), y_minus, y_plus


def _zak_phase(params: LatticeParams, branch: int, tol: float = 1e-8) -> float:
    grid = 1024
    prev = _zak_wilson_loop(params, branch, grid)
    for _ in range(12):
        grid *= 2
        value = _zak_wilson_loop(params, branch, grid)
        if abs(value - prev) < 0.5 * tol:
            return fold_interval(value, 1.0)
        prev = value
    raise NonConvergedError("Zak phase grid refinement did not stabilize")


def adiabatic_constants(params: LatticeParams) -> tuple[AdiabaticLadder, AdiabaticLadder]:
    """Ladder constants (plus, minus): mean energies C_+- and Zak offsets c_+-.

    C_+ comes from quadrature of the shifted instantaneous eigenvalue (its
    mirror C_- = -C_+ exactly); c_+- from the gauge-invariant Berry product,
    refined until stable to 1e-8.
    """
    params.require_field()
    c_plus = _tilted_band_mean(params)
    zak_plus = _zak_phase(params, 1)
    zak_minus = _zak_phase(params, -1)
    return (
        AdiabaticLadder(c_const=c_plus, zak=zak_plus, branch=1),
        AdiabaticLadder(c_const=-c_plus, zak=zak_minus, branch=-1),
    )


def d_coefficient(params: LatticeParams) -> float:
    """Second-order (F^2) coefficient of the SSH adiabatic ladder.

    D = (j1+j2)^2 (j1-j2)^2 / 32 * (1/2pi) *
        int [(j1+j2)^2 cos^2(t/2) + (j1-j2)^2 sin^2(t/2)]^{-5/2} dt.
    """
    s = (params.j1 + params.j2) ** 2
    d = (params.j1 - params.j2) ** 2
    if s * d == 0.0:
        return 0.0

    def integrand(theta: float) -> float:
        half = 0.5 * theta
        return (s * math.cos(half) ** 2 + d * math.sin(half) ** 2) ** -2.5

    value, _ = quad(integrand, 0.0, 2.0 * math.pi, epsabs=1e-10, epsrel=1e-10, limit=200)
    return s * d / 32.0 * value / (2.0 * math.pi)


def adiabatic_spectrum(params: LatticeParams, n_range=range(-8, 9),
                       order: int = 1) -> LadderSpectrum:
    """Adiabatic ladders E_{n,+-} = C_+- + 2F(n + c_+-), optionally with the
    field-squared correction (order 2, derived for delta = 0 only)."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if order == 2 and params.delta != 0.0:
        raise ValueError("the F^2 correction is only available for delta = 0")
    plus, minus = adiabatic_constants(params)
    correction = d_coefficient(params) * params.f**2 if order == 2 else 0.0
    two_f = 2.0 * params.f
    return LadderSpectrum.from_offsets(
        minus.c_const + two_f * minus.zak - correction,
        plus.c_const + two_f * plus.zak + correction,
        params.f, n_range, f"adiabatic-{order}")


def gap_estimate(params: LatticeParams) -> GapEstimate:
    """Exponential estimate of the avoided-crossing gap for the delta = 0 lattice.

    Delta E / F = (2/pi) exp(-(1/F) * int_0^theta0 sqrt(1 - q cosh t) dt)
    with q = 2 j1 j2/(j1^2 + j2^2); the endpoint square-root singularity is
    removed by the substitution t = theta0 - u^2.
    """
    if params.delta != 0.0:
        raise ValueError("the gap formula is derived for delta = 0 only")
    if params.j1 <= 0 or params.j2 <= 0:
        raise ValueError("both hoppings must be positive")
    params.require_field()
    q = 2.0 * params.j1 * params.j2 / (params.j1**2 + params.j2**2)
    theta0 = math.acosh(1.0 / q) if q < 1.0 else 0.0
    if theta0 == 0.0:
        return GapEstimate(theta0=0.0, ratio=2.0 / math.pi)

    def integrand(u: float) -> float:
        return 2.0 * u * math.sqrt(max(0.0, 1.0 - q * math.cosh(theta0 - u * u)))

    action, _ = quad(integrand, 0.0, math.sqrt(theta0),
                     epsabs=1e-12, epsrel=1e-12, limit=200)
    return GapEstimate(theta0=theta0, ratio=2.0 / math.pi * math.exp(-action / params.f))
