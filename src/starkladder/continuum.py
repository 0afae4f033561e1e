"""Plane-wave Bloch solver for the continuous double-periodic optical lattice.

The potential V(x) = V0 + V1 cos(2 pi x + phi1) + V2 cos(4 pi x + phi2) has
period one (two wells per period); quasimomentum lives in k in [-pi, pi).
The Hamiltonian is pentadiagonal in the plane-wave basis e^{i(k + 2 pi m)x};
its lowest eigenvalues come from LAPACK's banded Hermitian solver, and the
two lowest bands can be reduced to effective tight-binding parameters by
least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Kinetic prefactor of the dimensionless Hamiltonian: energies are measured
# in units of the short-lattice recoil (4 pi)^2 / 2, the depth scale of the
# wells formed by the 4 pi harmonic.  Amplitudes |V| ~ 0.3 then bind a
# narrow two-band doublet inside the potential range; with a literal
# (k + 2 pi m)^2 / 2 the same amplitudes describe a nearly free particle and
# no tight-binding reduction exists.
_KINETIC = 1.0 / (16.0 * math.pi**2)


@dataclass(frozen=True)
class ContinuumPotential:
    """Double-periodic optical-lattice potential, period 1, real amplitudes."""

    v0: float = 0.0
    v1: float = 0.0
    v2: float = 0.0
    phi1: float = 0.0
    phi2: float = 0.0

    def __post_init__(self):
        for name in ("v0", "v1", "v2", "phi1", "phi2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass
class ContinuumBands:
    """Bloch bands on a quasimomentum grid, ascending per k."""

    k_grid: np.ndarray
    energies: np.ndarray  # shape (nk, n_bands)
    converged: bool


def _bloch_matrix(pot: ContinuumPotential, k: float, cutoff: int) -> np.ndarray:
    """Pentadiagonal plane-wave Hamiltonian in LAPACK upper-band storage.

    Row 2 holds the diagonal, rows 1 and 0 the first and second
    superdiagonals (entry j of row 2 - d is H[j - d, j]).
    """
    if cutoff < 21 or cutoff % 2 == 0:
        raise ValueError("cutoff must be an odd plane-wave count of at least 21")
    m_max = cutoff // 2
    m = np.arange(-m_max, m_max + 1)
    band = np.zeros((3, cutoff), dtype=complex)
    band[2] = _KINETIC * (k + 2.0 * np.pi * m) ** 2 + pot.v0
    band[1, 1:] = 0.5 * pot.v1 * np.exp(-1j * pot.phi1)
    band[0, 2:] = 0.5 * pot.v2 * np.exp(-1j * pot.phi2)
    return band


def continuum_bloch_bands(pot: ContinuumPotential, k: float, cutoff: int = 41,
                          n_bands: int = 8) -> tuple[np.ndarray, bool]:
    """Lowest Bloch bands at quasimomentum k with a convergence verdict.

    The lowest ``n_bands`` eigenvalues come from LAPACK's banded Hermitian
    solver.  A dense solver's error grows with the largest kinetic energy of
    the basis and breaks the variational ordering of the bands across
    cutoffs at the 1e-14 level; the banded route keeps it.  The verdict
    compares against a basis enlarged by five reciprocal vectors on each
    side; converged means the returned bands moved by less than 1e-10.
    """
    from scipy.linalg import eigvals_banded

    if not 1 <= n_bands <= cutoff:
        raise ValueError(f"n_bands must lie in [1, cutoff = {cutoff}], got {n_bands}")
    lowest = (0, n_bands - 1)
    values = eigvals_banded(_bloch_matrix(pot, k, cutoff), select="i",
                            select_range=lowest)
    bigger = eigvals_banded(_bloch_matrix(pot, k, cutoff + 10), select="i",
                            select_range=lowest)
    converged = bool(np.max(np.abs(values - bigger)) < 1e-10)
    return values, converged


def band_structure(pot: ContinuumPotential, k_grid, cutoff: int = 41,
                   n_bands: int = 8) -> ContinuumBands:
    """Assemble ContinuumBands over a quasimomentum grid."""
    k_grid = np.asarray(k_grid, dtype=float)
    energies = np.empty((k_grid.size, n_bands))
    all_ok = True
    for i, k in enumerate(k_grid):
        energies[i], ok = continuum_bloch_bands(pot, float(k), cutoff, n_bands)
        all_ok = all_ok and ok
    return ContinuumBands(k_grid=k_grid, energies=energies, converged=all_ok)


@dataclass(frozen=True)
class TightBindingFit:
    """Effective tight-binding parameters extracted from the lowest doublet."""

    j1: float
    j2: float
    delta: float
    offset: float
    residual: float
    poor_fit: bool


def fit_tight_binding(bands: ContinuumBands) -> TightBindingFit:
    """Least-squares reduction of the two lowest bands to the two-band model.

    Fits offset -+ sqrt(delta^2 + j1^2 + j2^2 + 2 j1 j2 cos k) to the doublet
    (the tight-binding zone is half the continuum one, kappa = k/2).  The
    dispersion constrains only the two combinations delta^2 + j1^2 + j2^2 and
    j1*j2, so delta is not identifiable from band energies alone; the fit
    returns the canonical representative with delta = 0 and j1 >= j2.  Any
    other (j1, j2, delta) giving the same combinations produces identical
    bands.  A residual above 10% of the doublet bandwidth sets ``poor_fit``.
    The grid must hold at least two distinct values of cos k: at one, the
    three parameters see only two energies.
    """
    from scipy.optimize import least_squares

    if bands.energies.shape[1] < 2:
        raise ValueError("need at least two bands to fit")
    k = bands.k_grid
    if np.unique(np.cos(k)).size < 2:
        raise ValueError("need at least two distinct values of cos k to fit the bands")
    lower = bands.energies[:, 0]
    upper = bands.energies[:, 1]

    half_split = 0.5 * (upper - lower)
    design = np.vstack([np.ones_like(k), np.cos(k)]).T
    lin, *_ = np.linalg.lstsq(design, half_split**2, rcond=None)
    p0 = max(float(lin[0]), 1e-12)
    q0 = min(max(float(lin[1]) / 2.0, 0.0), 0.5 * p0)
    x0 = np.array([p0, q0, float(np.mean(0.5 * (upper + lower)))])

    def model(x):
        p, q, offset = x
        root = np.sqrt(np.maximum(p + 2.0 * q * np.cos(k), 0.0))
        return np.concatenate([(offset - root) - lower, (offset + root) - upper])

    sol = least_squares(model, x0=x0, bounds=([0.0, 0.0, -np.inf], np.inf))
    p, q, offset = sol.x
    q = min(q, 0.5 * p)
    j_sum = math.sqrt(max(p + 2.0 * q, 0.0))
    j_dif = math.sqrt(max(p - 2.0 * q, 0.0))
    j1 = 0.5 * (j_sum + j_dif)
    j2 = 0.5 * (j_sum - j_dif)
    residual = float(np.sqrt(np.mean(sol.fun**2)))
    bandwidth = float(upper.max() - lower.min())
    return TightBindingFit(
        j1=float(j1), j2=float(j2), delta=0.0, offset=float(offset),
        residual=residual,
        poor_fit=bool(residual > 0.1 * bandwidth),
    )
