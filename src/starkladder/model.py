"""Double-periodic tight-binding lattice: parameters, Bloch bands, tilted chain.

Conventions (hbar = 1, nearest-site spacing a = 1):

* a unit cell holds sites A and B; cell l puts A at x = 2l - 1/2 and B at
  x = 2l + 1/2, so the potential origin x0 = 0 sits mid-bond inside cell 0;
* ``j1`` is the intracell hopping (A_l - B_l), ``j2`` the intercell hopping
  (B_l - A_{l+1});
* A sites carry on-site energy -delta, B sites +delta;
* the static field adds F*x, i.e. 2F(l - 1/4) on A and 2F(l + 1/4) on B.

With this labeling (1, 0.6) is the trivial dimerization (Zak phase 0) and
(0.6, 1) the topological one (Zak phase 1/2), matching the spectra produced
by every solver in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipe, elliprf, elliprj

from .errors import DegeneracyError


@dataclass(frozen=True)
class LatticeParams:
    """The four parameters of the tilted double-periodic chain."""

    j1: float
    j2: float
    delta: float = 0.0
    f: float = 0.0

    def __post_init__(self):
        for name in ("j1", "j2", "delta", "f"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.j1 < 0 or self.j2 < 0:
            raise ValueError("hoppings must be non-negative; phases are gauged away")
        if self.f < 0:
            raise ValueError("field f must be non-negative")

    def require_field(self) -> None:
        """Raise unless f > 0 (any Wannier-Stark computation needs a tilt)."""
        if self.f <= 0:
            raise ValueError("this operation requires a positive field f")

    @property
    def epsilon1(self) -> float:
        """Hopping-staggering coupling (j2 - j1)/F of the merged-ladder regime."""
        self.require_field()
        return (self.j2 - self.j1) / self.f

    @property
    def epsilon2(self) -> float:
        """On-site coupling delta/F of the merged-ladder regime."""
        self.require_field()
        return self.delta / self.f

    @property
    def omega(self) -> float:
        """Rabi frequency 2J/F of the mapped driven two-level system, J = (j1+j2)/2."""
        self.require_field()
        return (self.j1 + self.j2) / self.f

    def with_field(self, f: float) -> "LatticeParams":
        return LatticeParams(self.j1, self.j2, self.delta, f)


@dataclass(frozen=True)
class ChainHamiltonian:
    """Real symmetric tridiagonal matrix of the truncated tilted chain.

    ``diagonal`` holds the on-site energies in site order A,B,A,B,...;
    ``off_diagonal`` the N-1 bond amplitudes alternating j1 (intracell) and
    j2 (intercell).  Cells run symmetrically about l = 0.
    """

    size: int
    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def to_dense(self) -> np.ndarray:
        h = np.diag(self.diagonal)
        idx = np.arange(self.size - 1)
        h[idx, idx + 1] = self.off_diagonal
        h[idx + 1, idx] = self.off_diagonal
        return h

    @property
    def positions(self) -> np.ndarray:
        """Site coordinates x_i; the potential energy is f * x_i."""
        n_cells = self.size // 2
        return np.arange(self.size) - 2 * (n_cells // 2) - 0.5


def fold_interval(values, width):
    """Reduce energies to the half-open fundamental domain (-width/2, width/2]."""
    values = np.asarray(values, dtype=float)
    folded = values - width * np.ceil(values / width - 0.5)
    return folded if folded.ndim else float(folded)


@dataclass
class LadderSpectrum:
    """A set of Wannier-Stark levels tagged with ladder branch and index.

    ``branches`` holds +1/-1 for the two ladders; ``indices`` the integer n
    so that within one branch consecutive levels differ by 2F.
    """

    energies: np.ndarray
    branches: np.ndarray
    indices: np.ndarray
    field: float
    method: str = ""
    converged: np.ndarray | None = None

    def __post_init__(self):
        order = np.argsort(self.energies, kind="stable")
        self.energies = np.asarray(self.energies, dtype=float)[order]
        self.branches = np.asarray(self.branches, dtype=int)[order]
        self.indices = np.asarray(self.indices, dtype=int)[order]
        if self.converged is not None:
            self.converged = np.asarray(self.converged, dtype=bool)[order]

    @classmethod
    def from_offsets(cls, minus: float, plus: float, field: float, n_range,
                     method: str) -> "LadderSpectrum":
        """Both ladders E = offset + 2F n over ``n_range`` from their offsets."""
        ns = np.asarray(list(n_range), dtype=int)
        energies = np.concatenate([minus + 2.0 * field * ns, plus + 2.0 * field * ns])
        branches = np.concatenate([np.full(ns.size, -1), np.full(ns.size, 1)])
        return cls(energies, branches, np.concatenate([ns, ns]), field=field,
                   method=method)

    @property
    def levels(self):
        """Levels as (energy, 'plus'|'minus', n) tuples, ascending in energy."""
        names = {1: "plus", -1: "minus"}
        return [
            (float(e), names[int(b)], int(n))
            for e, b, n in zip(self.energies, self.branches, self.indices)
        ]

    def fundamental(self, merged: bool = False) -> np.ndarray:
        """Energies folded to (-F, F], or to (-F/2, F/2] for merged-ladder display."""
        width = self.field if merged else 2.0 * self.field
        return fold_interval(self.energies, width)

    def select(self, branch: int) -> np.ndarray:
        return self.energies[self.branches == branch]

    def branch_offsets(self) -> tuple[float, float]:
        """Fundamental-domain representative (minus, plus) of each ladder."""
        offsets = []
        for b in (-1, 1):
            folded = fold_interval(self.select(b), 2.0 * self.field)
            if folded.size == 0:
                offsets.append(np.nan)
            else:
                ref = folded[0]
                folded = ref + fold_interval(folded - ref, 2.0 * self.field)
                offsets.append(fold_interval(np.median(folded), 2.0 * self.field))
        return float(offsets[0]), float(offsets[1])


def reduce_zone(kappa):
    """Fold quasimomenta into the reduced Brillouin zone [-pi/2, pi/2)."""
    kappa = np.asarray(kappa, dtype=float)
    folded = np.mod(kappa + np.pi / 2, np.pi) - np.pi / 2
    return folded if folded.ndim else float(folded)


def bloch_dispersion(params: LatticeParams, kappa):
    """Two Bloch bands E_-(kappa) <= 0 <= E_+(kappa) of the untilted lattice.

    E_pm = +-sqrt(delta^2 + j1^2 + j2^2 + 2 j1 j2 cos 2 kappa); kappa is folded
    into [-pi/2, pi/2) first.  Accepts scalars or arrays.
    """
    kappa = reduce_zone(kappa)
    e_plus = np.sqrt(
        params.delta**2
        + params.j1**2
        + params.j2**2
        + 2.0 * params.j1 * params.j2 * np.cos(2.0 * np.asarray(kappa))
    )
    return -e_plus, e_plus


def band_mean_energy(params: LatticeParams) -> float:
    """Mean energy C of the upper Bloch band over the reduced zone.

    C = (1/pi) * integral of E_+(kappa) over [-pi/2, pi/2); the lower band's
    mean is exactly -C.  Closed form, see ``_tilted_band_mean``.
    """
    return _tilted_band_mean(params.with_field(0.0))


def build_chain(params: LatticeParams, n_sites: int) -> ChainHamiltonian:
    """Truncated chain Hamiltonian with n_sites sites (n_sites even, >= 2).

    f = 0 is allowed (band-projector construction); odd n_sites is rejected.
    """
    if n_sites < 2 or n_sites % 2 != 0:
        raise ValueError("n_sites must be even and at least 2")
    n_cells = n_sites // 2
    cells = np.arange(n_cells) - n_cells // 2

    diagonal = np.empty(n_sites)
    diagonal[0::2] = 2.0 * params.f * (cells - 0.25) - params.delta
    diagonal[1::2] = 2.0 * params.f * (cells + 0.25) + params.delta

    off_diagonal = np.empty(n_sites - 1)
    off_diagonal[0::2] = params.j1
    off_diagonal[1::2] = params.j2
    return ChainHamiltonian(size=n_sites, diagonal=diagonal, off_diagonal=off_diagonal)


def _tilted_band_mean(params: LatticeParams) -> float:
    """Mean of the upper instantaneous eigenvalue sqrt((delta+F/2)^2 + |h|^2).

    Reduces to band_mean_energy at f = 0; used as the branch anchor of the
    Floquet ladders and as the adiabatic constant C_+.  With
    a = (delta + F/2)^2 + j1^2 + j2^2 and b = 2 j1 j2 the eigenvalue is
    sqrt(a + b cos theta), whose mean over theta is the complete elliptic
    integral (2/pi) sqrt(a + b) E(2b/(a + b)).
    """
    dz = params.delta + 0.5 * params.f
    apb = dz * dz + (params.j1 + params.j2) ** 2
    if apb == 0.0:
        return 0.0
    m = min(1.0, 4.0 * params.j1 * params.j2 / apb)  # rounding can exceed 1
    return 2.0 / math.pi * math.sqrt(apb) * float(ellipe(m))


def _two_level_eigen(dz, h):
    """Eigensystem of the 2x2 Bloch matrix [[dz, conj(h)], [h, -dz]].

    Returns (r, y_minus, y_plus): eigenvalues are -+r with
    r = sqrt(dz^2 + |h|^2), and the normalized eigenvectors, stacked along
    axis 0 and vectorized over h, sit in the gauge smooth wherever
    dz + r > 0.  Where h = 0 and dz <= 0 (which includes the degeneracy
    r = 0) the vectors are nan; callers that can reach r = 0 test it.
    """
    r = np.sqrt(dz**2 + np.abs(h) ** 2)
    top = dz + r
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.sqrt(top**2 + np.abs(h) ** 2)
        y_plus = np.stack([top / norm, h / norm])
        y_minus = np.stack([-np.conj(h) / norm, top / norm])
    return r, y_minus, y_plus


def _zak_plus(params: LatticeParams) -> float:
    """Zak phase Z_+ (units of 2pi, folded to (-1/2, 1/2]) of the upper band.

    The lower band's is -Z_+ (mod 1); the field is ignored.  For the
    eigenvector (delta + r, h) of [[delta, conj(h)], [h, -delta]] with
    h = j1 + j2 e^{i theta} and r = sqrt(delta^2 + |h|^2), the Berry
    connection j2 (j2 + j1 cos theta) / (2 r (r + delta)) splits into half the
    winding rate of h and -delta (|h|^2 + j2^2 - j1^2) / (4 r |h|^2), so
    Z_+ = -(2 pi W - delta I)/(4 pi).  W = 1, sign(delta)/2, 0 for j2 >, =, < j1
    (the middle value is the common limit of both sides).  With A = j1^2 + j2^2,
    a = delta^2 + A, b = 2 j1 j2, m = 2b/(a + b) and n = 2b/(A + b), the
    integral I = int (|h|^2 + j2^2 - j1^2) / (2 r |h|^2) dtheta is

        I = (2/sqrt(a + b)) [R_F(0, 1-m, 1) + (j2^2 - j1^2)/(A + b) Pi(n|m)],
        Pi(n|m) = R_F(0, 1-m, 1) + (n/3) R_J(0, 1-m, 1, 1-n)

    (Carlson's symmetric forms; the Pi term vanishes at j1 = j2).  At delta = 0
    Z_+ is exactly 0 or 1/2.  Raises DegeneracyError when the bands touch.
    """
    scale = params.j1 + params.j2 + abs(params.delta)
    if math.hypot(params.delta, params.j1 - params.j2) <= 1e-13 * scale:
        raise DegeneracyError("Berry loop passes through an exact degeneracy")
    # Z_+ is scale-free; unit scale keeps the squares below from underflowing
    j1, j2, delta = params.j1 / scale, params.j2 / scale, params.delta / scale
    pair = j1 + j2  # A + b = (j1 + j2)^2
    apb = delta * delta + pair * pair
    one_m = (delta * delta + (j1 - j2) ** 2) / apb
    bracket = float(elliprf(0.0, one_m, 1.0))
    if j1 == j2:
        winding = 0.5 * math.copysign(1.0, delta)
    else:
        winding = float(j2 > j1)
        n = 4.0 * (j1 / pair) * (j2 / pair)
        pi_nm = bracket + n / 3.0 * float(elliprj(0.0, one_m, 1.0, ((j1 - j2) / pair) ** 2))
        bracket += (j2 - j1) / pair * pi_nm
    integral = 2.0 / math.sqrt(apb) * bracket
    return fold_interval(-(2.0 * math.pi * winding - delta * integral) / (4.0 * math.pi), 1.0)
