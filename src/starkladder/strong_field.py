"""Strong-field asymptotics of the Wannier-Stark ladders.

Two routes to the merged-ladder corrections: the second-order iterative
propagator of the driven two-level mapping (lattice with j1 = j2), and the
first-order averaged coupling which also covers j1 != j2.  Both need only
the Bessel functions J0 and J1 (from scipy.special) and the oscillatory
integral I(t, z) = int_0^t sin(z sin x) dx, which scipy lacks and which is
evaluated here by Gauss-Legendre quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special
from scipy.integrate import cumulative_simpson

from .errors import NonConvergedError, OutOfValidityError
from .model import LadderSpectrum, LatticeParams


@lru_cache(maxsize=64)
def _gauss_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def osc_integral(t: float, z: float) -> float:
    """I(t, z) = int_0^t sin(z sin x) dx for t in [0, pi], z >= 0."""
    if not -1e-12 <= t <= math.pi + 1e-12:
        raise ValueError("t must lie in [0, pi]")
    if z < 0:
        raise ValueError("z must be non-negative")
    if t <= 0.0:
        return 0.0
    # a power of two keeps the node cache small over a sweep in z
    n = 1 << (47 + int(0.8 * z)).bit_length()
    x, w = _gauss_nodes(n)
    nodes = 0.5 * t * (x + 1.0)
    vals = np.sin(z * np.sin(nodes))
    return float(np.dot(w, vals)) * 0.5 * t


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
    def evaluate(cls, epsilon: float, omega: float, t: float,
                 tol: float = 1e-10) -> "WuYangPhaseSet":
        """Accumulate the nested phase integrals on a refined uniform grid."""
        if not -1e-12 <= t <= math.pi + 1e-12:
            raise ValueError("t must lie in [0, pi]")
        if epsilon < 0 or omega < 0:
            raise ValueError("epsilon and omega must be non-negative")
        if t <= 0.0 or epsilon == 0.0:
            return cls(0.0, 0.0, 0.0, 0.0)

        big_a = 2.0 * math.pi * epsilon * float(special.j0(2.0 * omega))
        prev = None
        n = max(256, 64 * (1 + int(omega)))
        for _ in range(14):
            x = np.linspace(0.0, t, n + 1)
            dx = t / n
            two_om_sin = 2.0 * omega * np.sin(x)
            c1 = np.cos(two_om_sin)
            inner_i = cumulative_simpson(np.sin(two_om_sin), dx=dx, initial=0.0)
            inner_k = cumulative_simpson(np.sin(2.0 * omega * np.cos(x)), dx=dx, initial=0.0)
            angle = big_a - 2.0 * epsilon * inner_k
            sin2ei = np.sin(2.0 * epsilon * inner_i)
            tau = epsilon * inner_i[-1]
            beta = epsilon * cumulative_simpson(c1 * np.cos(2.0 * epsilon * inner_i),
                                                dx=dx, initial=0.0)[-1]
            phi = -epsilon * cumulative_simpson(c1 * sin2ei * np.cos(angle),
                                                dx=dx, initial=0.0)[-1]
            psi = epsilon * cumulative_simpson(c1 * sin2ei * np.sin(angle),
                                               dx=dx, initial=0.0)[-1]
            current = (tau, beta, phi, psi)
            if prev is not None and max(abs(a - b) for a, b in zip(current, prev)) < tol:
                return cls(tau, beta, phi, psi)
            prev = current
            n *= 2
        raise NonConvergedError("phase integrals did not stabilize")


def wu_yang_propagator(epsilon: float, omega: float, t: float,
                       tol: float = 1e-10) -> np.ndarray:
    """Approximate interaction-frame propagator of the driven two-level map.

    Assembled from the four phases as the SU(2) product N(tau, phi) R(psi)
    diag(e^{i beta}, e^{-i beta}); exactly unitary by construction, identity
    at epsilon = 0.
    """
    p = WuYangPhaseSet.evaluate(epsilon, omega, t, tol=tol)
    ct, st = math.cos(p.tau), math.sin(p.tau)
    cp, sp = math.cos(p.phi), math.sin(p.phi)
    cs, ss = math.cos(p.psi), math.sin(p.psi)
    n11 = ct * cp - 1j * st * sp
    n12 = 1j * ct * sp - st * cp
    n21 = st * cp + 1j * ct * sp
    n22 = ct * cp + 1j * st * sp
    eb = complex(math.cos(p.beta), math.sin(p.beta))
    return np.array(
        [
            [eb * (n11 * cs - n12 * ss), eb.conjugate() * (n11 * ss + n12 * cs)],
            [eb * (n21 * cs - n22 * ss), eb.conjugate() * (n21 * ss + n22 * cs)],
        ],
        dtype=complex,
    )


def _require_equal_hoppings(params: LatticeParams) -> float:
    if abs(params.j1 - params.j2) > 1e-12:
        raise ValueError("this spectrum requires j1 = j2")
    return params.j1


def spectrum_wu_yang(params: LatticeParams, n_range=range(-8, 9),
                     tol: float = 1e-10) -> LadderSpectrum:
    """Merged-ladder spectrum from the second-order propagator at t = pi.

    E_{n,+-} = F(2n +- 1/2) +- (F/pi) arcsin((U11 - U22)/(2i)); the arcsin
    argument leaving [-1, 1] means the expansion broke down and raises
    OutOfValidityError.
    """
    _require_equal_hoppings(params)
    params.require_field()
    u = wu_yang_propagator(params.epsilon2, params.omega, math.pi, tol=tol)
    quotient = (u[0, 0] - u[1, 1]) / 2j
    arg = quotient.real
    if abs(arg) > 1.0:
        raise OutOfValidityError(
            f"arcsin argument {arg:.6f} outside [-1, 1]; expansion invalid here"
        )
    shift = params.f / math.pi * math.asin(arg)
    return _two_ladder(params, shift, n_range, "wu-yang")


def pi_coefficients(params: LatticeParams) -> tuple[float, float]:
    """First and third order coefficients (Pi1, Pi3) of the epsilon expansion.

    Pi1 = F J0(4J/F); Pi3 = (2F/pi) int_0^pi [I(t, 4J/F) - I(pi, 4J/F)/2]^2
    cos(4J/F sin t) dt.
    """
    j = _require_equal_hoppings(params)
    params.require_field()
    zeta = 4.0 * j / params.f
    pi1 = params.f * float(special.j0(zeta))

    half_total = 0.5 * osc_integral(math.pi, zeta)
    n = 96 + int(1.2 * zeta)
    x, w = _gauss_nodes(n)
    nodes = 0.5 * math.pi * (x + 1.0)
    vals = np.array(
        [
            (osc_integral(t, zeta) - half_total) ** 2 * math.cos(zeta * math.sin(t))
            for t in nodes
        ]
    )
    # overall sign pinned by a cubic fit of the exact spectrum in epsilon
    pi3 = -(2.0 * params.f / math.pi) * float(np.dot(w, vals)) * 0.5 * math.pi
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
    return _two_ladder(params, shift, n_range, f"expansion-{order}")


@dataclass(frozen=True)
class AveragedCoupling:
    """Mean of the rotating-frame coupling over one period."""

    f_bar: float


def averaged_coupling(params: LatticeParams) -> AveragedCoupling:
    """First-order averaged coupling of the u-v system.

    f_bar = (delta/F) J0(2(j1+j2)/F) + ((j1-j2)/F) J1(2(j1+j2)/F); vanishes
    for the plain lattice delta = 0, j1 = j2.
    """
    params.require_field()
    z = 2.0 * (params.j1 + params.j2) / params.f
    f_bar = (params.delta / params.f) * float(special.j0(z)) \
        + ((params.j1 - params.j2) / params.f) * float(special.j1(z))
    return AveragedCoupling(f_bar=f_bar)


def spectrum_bm(params: LatticeParams, n_range=range(-8, 9)) -> LadderSpectrum:
    """Averaged spectrum E_{n,+-} = F(2n +- 1/2 +- f_bar)."""
    shift = params.f * averaged_coupling(params).f_bar
    return _two_ladder(params, shift, n_range, "bm")


def _two_ladder(params: LatticeParams, shift: float, n_range, method: str) -> LadderSpectrum:
    """Merged-ladder pair E_{n,+-} = F(2n +- 1/2) +- shift."""
    half = 0.5 * params.f + shift
    return LadderSpectrum.from_offsets(-half, half, params.f, n_range, method)
