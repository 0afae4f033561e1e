"""Time-domain engine on the truncated chain.

Band projectors are assembled from the Bloch eigenvectors on the full
quasimomentum grid of the chain, applied in O(N log N) through cell-space
FFTs.  Propagation under a (possibly ramped) field closes the chain into a
ring and works in the acceleration gauge, where the field only twists the
bond phases: every cell wavevector then follows the driven two-level
equation of the monodromy, and the monodromy's sixth-order Magnus step and
step-doubling rule integrate it; an edge guard makes sure the packet never
feels the ring's seam.  Constant-field population statistics bypass time
stepping entirely through the exact eigenbasis representation in one
batched pass per field (W = V^T Psi0, M_upper = X^H X, a column-wise edge
guard); the two engines are cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import least_squares

from .errors import EdgeContaminationError, NonConvergedError
from .model import LatticeParams, _two_level_eigen, build_chain
from .spectra_exact import _START_STEPS, _converged, _magnus_product

_EDGE_ZONE = 10
_EDGE_WEIGHT = 1e-8
# (piece, k) propagators step-doubled at once; the work arrays grow with it (one batch
# of all 49152 on the benchmark transfer call added 38 MB of peak memory, 2048 adds 5)
_CHUNK = 2048


# ---------------------------------------------------------------------------
# states and schedules
# ---------------------------------------------------------------------------

@dataclass
class ChainState:
    """Normalized complex amplitudes over the chain sites at one time."""

    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)


@dataclass(frozen=True)
class RampProtocol:
    """Piecewise-linear field schedule F(t) on [0, duration]."""

    times: np.ndarray
    fields: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "fields", np.asarray(self.fields, dtype=float))
        if self.times.size != self.fields.size or self.times.size < 2:
            raise ValueError("need matching times/fields with at least two samples")
        if not np.all(np.isfinite(self.times)) or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be finite and strictly increasing")
        if not np.all(np.isfinite(self.fields) & (self.fields > 0)):
            raise ValueError("the field must stay positive and finite along the ramp")

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def field_at(self, t):
        return np.interp(t, self.times, self.fields)

    @classmethod
    def linear_inv_f(cls, inv_f_start: float, inv_f_stop: float,
                     duration: float) -> "RampProtocol":
        """Ramp linear in 1/F, tabulated at 257 samples so F(t) interpolation is faithful."""
        t = np.linspace(0.0, duration, 257)
        inv = np.linspace(inv_f_start, inv_f_stop, 257)
        return cls(t, 1.0 / inv)


# ---------------------------------------------------------------------------
# band projectors
# ---------------------------------------------------------------------------

def _bloch_eigenvectors(params: LatticeParams, kappa):
    """Lower/upper eigenvectors of the 2x2 Bloch Hamiltonian at each kappa.

    In the chain's (A, B) cell basis they are sigma_x times the conjugate of
    the generating-function eigenvectors at theta = 2 kappa.
    """
    h = params.j1 + params.j2 * np.exp(2j * np.asarray(kappa))
    _, y_minus, y_plus = _two_level_eigen(params.delta, h)
    return y_minus[::-1].conj(), y_plus[::-1].conj()


def _twist(n_cells: int) -> np.ndarray:
    # kappa_m = -pi/2 + pi m / L  ->  phase twist (-1)^l times a plain DFT
    return ((-1.0) ** np.arange(n_cells))[:, None, None]


def _kappa_grid(n_cells: int) -> np.ndarray:
    """Reduced-zone quasimomenta kappa_m = -pi/2 + pi m / L of an L-cell chain."""
    return -np.pi / 2 + np.pi * np.arange(n_cells) / n_cells


def _reduced_zone(psi: np.ndarray):
    """The kappa grid of the chain psi lives on and the unitary cell transform
    of psi onto it: tilde[m, s, k] is the amplitude of cell site s at kappa_m
    in column k of psi."""
    n_cells = psi.shape[0] // 2
    tilde = np.fft.fft(psi.reshape(n_cells, 2, -1) * _twist(n_cells), axis=0)
    return _kappa_grid(n_cells), tilde / math.sqrt(n_cells)


@dataclass(frozen=True)
class BandProjector:
    """Rank-N/2 orthogonal projector onto one Bloch band of the chain.

    Stores the per-kappa 2x2 projector data; application goes through a
    cell-space FFT, so the dense matrix is only materialized on request.
    """

    n_sites: int
    vectors: np.ndarray  # shape (2, n_cells)

    def coefficients(self, psi: np.ndarray) -> np.ndarray:
        """Band amplitudes <u_kappa|psi>: a row per kappa, a column per column of psi."""
        psi = np.asarray(psi, dtype=complex)
        _, tilde = _reduced_zone(psi)
        coeff = np.einsum("sm,msk->mk", self.vectors.conj(), tilde)
        return coeff[:, 0] if psi.ndim == 1 else coeff

    def apply(self, psi: np.ndarray) -> np.ndarray:
        coeff = self.coefficients(psi)
        n_cells = self.n_sites // 2
        proj = np.einsum("sm,mk->msk", self.vectors, coeff.reshape(n_cells, -1))
        out = np.fft.ifft(proj, axis=0) * math.sqrt(n_cells) * _twist(n_cells)
        return out.reshape(self.n_sites, *coeff.shape[1:])

    def matrix(self) -> np.ndarray:
        return self.apply(np.eye(self.n_sites, dtype=complex))

    def population(self, psi: np.ndarray):
        """Band weight <psi|P|psi> = sum_kappa |<u_kappa|psi>|^2, per column of psi."""
        return np.sum(np.abs(self.coefficients(psi)) ** 2, axis=0)


def band_projectors(params: LatticeParams, n_sites: int):
    """(lower, upper) band projectors for an n_sites chain at zero field.

    Rejected when the bands touch (delta = 0 and j1 = j2): the band character
    is undefined at the zone edge there.
    """
    if n_sites < 4 or n_sites % 2:
        raise ValueError("n_sites must be even and at least 4")
    if params.delta == 0.0 and abs(params.j1 - params.j2) < 1e-15:
        raise ValueError("bands touch for delta = 0, j1 = j2; projectors undefined")
    lower, upper = _bloch_eigenvectors(params, _kappa_grid(n_sites // 2))
    return BandProjector(n_sites, lower), BandProjector(n_sites, upper)


def lower_band_states(params: LatticeParams, n_sites: int, kappas,
                      sigma_cells: float) -> np.ndarray:
    """Gaussian-envelope Bloch states about the middle cell, projected onto the
    lower band: one normalized column per kappa in ``kappas``."""
    if not (math.isfinite(sigma_cells) and sigma_cells > 0):
        raise ValueError("sigma_cells must be positive and finite")
    kappas = np.asarray(kappas, dtype=float)
    n_cells = n_sites // 2
    lower, _ = _bloch_eigenvectors(params, kappas)
    cells = np.arange(n_cells) - n_cells // 2
    envelope = np.exp(-(cells**2) / (4.0 * sigma_cells**2))
    bloch = envelope[:, None] * np.exp(2j * kappas * cells[:, None])
    psi = (bloch[:, None, :] * lower).reshape(n_sites, kappas.size)
    p_low, _ = band_projectors(params, n_sites)
    psi = p_low.apply(psi)
    # one vector norm per column, so a column does not depend on its neighbours
    return psi / np.array([np.linalg.norm(column) for column in psi.T])


def lower_band_state(params: LatticeParams, n_sites: int, kappa: float,
                     sigma_cells: float) -> ChainState:
    """Single-kappa case of ``lower_band_states``, as a state at t = 0."""
    psi = lower_band_states(params, n_sites, [kappa], sigma_cells)
    return ChainState(psi[:, 0], 0.0)


# ---------------------------------------------------------------------------
# propagation in the acceleration gauge
# ---------------------------------------------------------------------------

def _check_edges(psi: np.ndarray, t: float) -> None:
    w = float(np.sum(np.abs(psi[:_EDGE_ZONE]) ** 2) + np.sum(np.abs(psi[-_EDGE_ZONE:]) ** 2))
    if w > _EDGE_WEIGHT:
        raise EdgeContaminationError(
            f"edge occupation {w:.2e} at t = {t:.3f}; enlarge the chain"
        )


def propagate(state: ChainState, params: LatticeParams,
              field: RampProtocol | None, t_grid, tol: float = 1e-8) -> list[ChainState]:
    """Unitary evolution of ``state`` sampled at the times in ``t_grid``.

    ``field`` is a RampProtocol, or None for the constant field params.f.
    The chain is closed into a ring and evolved in the acceleration gauge
    psi_i = exp(-i Phi(t) x_i) phi_i, Phi the time integral of F: each cell
    wavevector k obeys i dc/dt = [[-delta, g], [g*, delta]] c with
    g = j1 exp(-i Phi) + j2 exp(i (Phi - k)).  Cut at the samples and the ramp
    breakpoints, Phi is quadratic on each piece; each (piece, k) propagator
    takes the monodromy's sixth-order Magnus steps, from 64 per Bloch period
    (Phi advancing by pi) of the longest piece, doubled until every entry
    changes by less than ``tol``.  A piece then errs by about tol / 63 and a
    sample by the sum over the pieces before it; the norm is kept to
    roundoff.  The ring acts as the open chain while weight in the 10-site
    edge zones stays below 1e-8, checked at every sample
    (EdgeContaminationError).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a non-empty 1D array of times")
    if t_grid[0] < state.time - 1e-12 or np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be non-decreasing and start at/after state.time")
    n_sites = state.amplitudes.size
    if n_sites < 4 or n_sites % 2:
        raise ValueError("n_sites must be even and at least 4")
    _check_edges(state.amplitudes, state.time)
    if t_grid[-1] <= state.time:
        return [ChainState(state.amplitudes.copy(), float(t)) for t in t_grid]

    t0, samples = state.time, np.maximum(t_grid, state.time)
    if field is None:
        field = RampProtocol(np.array([t0, t_grid[-1]]), np.full(2, params.f))
    breaks = field.times[(field.times > t0) & (field.times < t_grid[-1])]
    edges = np.unique(np.concatenate([[t0], samples, breaks]))
    f_edges = field.field_at(edges)
    dt = np.diff(edges)
    phi_edges = np.concatenate([[0.0], np.cumsum(0.5 * (f_edges[1:] + f_edges[:-1]) * dt)])
    half_slope = 0.5 * np.diff(f_edges) / dt

    n_cells = n_sites // 2
    hop = params.j2 * np.exp(-2j * np.pi * np.arange(n_cells) / n_cells)

    def propagators(index, n_steps):
        piece, cell = np.divmod(index, n_cells)
        h = dt[piece, None] / n_steps
        phi0, f0, curve = (x[piece, None, None] for x in (phi_edges, f_edges, half_slope))
        hop_k = hop[cell, None, None]

        def coupling(s):
            tau = h[:, :, None] * s
            e = np.exp(1j * (phi0 + tau * (f0 + curve * tau)))
            return params.j1 * e.conj() + hop_k * e

        return _magnus_product(coupling, 1.0, -params.delta, h, n_steps, index.size)

    bloch_periods = float(np.max(np.diff(phi_edges))) / math.pi
    start = 1 << math.ceil(math.log2(max(1.0, _START_STEPS * bloch_periods)))
    a, b = np.empty((2, dt.size * n_cells), dtype=complex)
    for chunk in np.array_split(np.arange(a.size), -(-a.size // _CHUNK)):
        a[chunk], b[chunk], _ = _converged(lambda i, n: propagators(chunk[i], n),
                                           chunk.size, tol, start)
    a, b = a.reshape(dt.size, n_cells), b.reshape(dt.size, n_cells)

    positions = build_chain(params, n_sites).positions
    c_a, c_b = np.fft.fft(state.amplitudes.reshape(n_cells, 2), axis=0).T
    states, edge = [], 0
    for t, stop in zip(t_grid, np.searchsorted(edges, samples)):
        for p in range(edge, stop):
            c_a, c_b = a[p] * c_a + b[p] * c_b, np.conj(a[p]) * c_b - np.conj(b[p]) * c_a
        edge = stop
        cells = np.fft.ifft(np.stack([c_a, c_b], axis=1), axis=0)
        psi = np.exp(-1j * phi_edges[stop] * positions) * cells.ravel()
        states.append(ChainState(psi, float(t)))
        _check_edges(psi, float(t))
    return states


# ---------------------------------------------------------------------------
# constant-field population statistics (exact eigenbasis route)
# ---------------------------------------------------------------------------

@dataclass
class PopulationTrace:
    """Upper-band occupation versus time and its window average."""

    times: np.ndarray
    p_upper: np.ndarray
    p_upper_mean: float


def _chain_size_for_population(params: LatticeParams, sigma_cells: float) -> int:
    # envelope tail below 1e-10 in occupation needs ~7 sigma of clearance
    band_edge = math.sqrt(params.delta**2 + (params.j1 + params.j2) ** 2)
    excursion_sites = 2.0 * band_edge / params.f
    half_cells = int(math.ceil(0.5 * excursion_sites + 7.0 * sigma_cells + 18))
    return max(256, 4 * half_cells)


def _eigen_edge_guard(vectors, weights, positions):
    """Raise if any one column of ``weights`` puts > _EDGE_WEIGHT on edge states."""
    centers = positions @ np.abs(vectors) ** 2
    edge = (centers < positions[0] + _EDGE_ZONE) | (centers > positions[-1] - _EDGE_ZONE)
    worst = float(np.max(np.sum(weights[edge], axis=0)))
    if worst > _EDGE_WEIGHT:
        raise EdgeContaminationError(
            f"initial state puts {worst:.2e} on Wannier-Stark states at the chain edge"
        )


def mean_upper_population(params: LatticeParams, f: float,
                          n_bloch_periods: float = 20.0, kappa_grid: int = 16,
                          n_sites: int | None = None, sigma_cells: float = 12.0,
                          n_time_samples: int = 256) -> PopulationTrace:
    """Time- and quasimomentum-averaged upper-band population at constant field.

    For every kappa on a uniform grid the lower-band Bloch state (broad
    Gaussian envelope) evolves for ``n_bloch_periods`` Bloch periods
    T_B = pi/F.  One eigenbasis pass serves all K kappas: with eigenvectors V,
    W = V^T Psi0 (states as columns), M = X^H X (X = <u_up|V>) and
    B = M o conj(W) W^T / K, P(t) = Re sum_ij B_ij exp(i (E_i - E_j) t), whose
    window mean is closed form, so long windows cost the same; each column of
    |W|^2 is edge-guarded.  Off resonance the mean is bounded below by about
    half the per-period interband tunnelling probability, P_LZ / 2 with
    P_LZ = exp(-pi delta^2 / (2 J F)) and J = (j1 + j2) / 2.
    """
    params = params.with_field(float(f))
    params.require_field()
    if params.delta == 0.0 and abs(params.j1 - params.j2) < 1e-15:
        raise ValueError("band populations need a gapped band structure")
    if kappa_grid < 1:
        raise ValueError("kappa_grid must be at least 1")
    if not all(math.isfinite(v) and v > 0 for v in (n_bloch_periods, sigma_cells)):
        raise ValueError("n_bloch_periods and sigma_cells must be positive and finite")
    if n_sites is None:
        n_sites = _chain_size_for_population(params, sigma_cells)

    chain = build_chain(params, n_sites)
    values, vectors = eigh_tridiagonal(chain.diagonal, chain.off_diagonal)
    _, p_upper = band_projectors(params, n_sites)
    # M = X^H X is real (V is real and time reversal pairs kappa with -kappa
    # in the projector), so M = Re(X^H X) = Y^T Y with Y = [Re X; Im X]
    x = p_upper.coefficients(vectors)
    y = np.concatenate([x.real, x.imag])
    m_upper = y.T @ y

    kappas = -np.pi / 2 + np.pi * (np.arange(kappa_grid) + 0.5) / kappa_grid
    w = vectors.T @ lower_band_states(params, n_sites, kappas, sigma_cells)
    _eigen_edge_guard(vectors, np.abs(w) ** 2, chain.positions)
    b = m_upper * (w.conj() @ w.T) / kappa_grid

    t_total = n_bloch_periods * math.pi / params.f
    # window mean of exp(i a) is (exp(i a) - 1) / (i a) = sinc(a/pi) + i (a/2) sinc(a/2pi)^2
    arg = (values[:, None] - values[None, :]) * t_total
    mean = float(np.sum(b.real * np.sinc(arg / np.pi))
                 - np.sum(b.imag * (0.5 * arg) * np.sinc(arg / (2.0 * np.pi)) ** 2))

    times = np.linspace(0.0, t_total, n_time_samples)
    phases = np.exp(-1j * values[:, None] * times[None, :])
    trace = np.real(np.sum(phases.conj() * (b @ phases), axis=0))
    return PopulationTrace(times=times, p_upper=trace, p_upper_mean=mean)


# ---------------------------------------------------------------------------
# Lorentzian resonance fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LorentzianPeak:
    """Least-squares resonance parameters of one population peak."""

    center: float
    width: float
    height: float
    residual: float


def lorentzian_fit(inv_f: np.ndarray, p_mean: np.ndarray) -> LorentzianPeak:
    """Fit P(z) = h (w/2)^2 / ((w/2)^2 + (z - z0)^2) to one resonance peak.

    The data must contain exactly one local maximum.  Returns the center z0,
    the width parameter w (the gap value in the resonance model), the height
    h and the RMS residual.
    """
    z = np.asarray(inv_f, dtype=float)
    p = np.asarray(p_mean, dtype=float)
    if z.size < 5:
        raise ValueError("need at least five samples around the peak")
    interior = (p[1:-1] > p[:-2]) & (p[1:-1] >= p[2:])
    if int(np.sum(interior)) != 1:
        raise ValueError("the data must contain exactly one local maximum")

    i0 = int(np.argmax(p))
    h0 = float(p[i0])
    z0 = float(z[i0])
    above = p > 0.5 * h0
    w0 = max(2.0 * (z[above].max() - z[above].min()), 4 * (z[1] - z[0]))

    def model(x):
        c, w, h = x
        half_sq = (0.5 * w) ** 2
        return h * half_sq / (half_sq + (z - c) ** 2) - p

    sol = least_squares(model, x0=np.array([z0, w0, h0]), method="lm")
    if not sol.success:
        raise NonConvergedError(
            f"Lorentzian fit failed: {sol.message}; residual {np.abs(sol.fun).max():.2e}"
        )
    rms = float(np.sqrt(np.mean(sol.fun**2)))
    return LorentzianPeak(center=float(sol.x[0]), width=abs(float(sol.x[1])),
                          height=float(sol.x[2]), residual=rms)


# ---------------------------------------------------------------------------
# adiabatic band-transfer experiment
# ---------------------------------------------------------------------------

@dataclass
class TransferResult:
    """Full trajectory of the ramped Bloch-oscillation transfer protocol."""

    times: np.ndarray
    density: np.ndarray
    mean_kappa: np.ndarray
    p_upper: np.ndarray
    ramp: RampProtocol
    non_adiabatic: bool


def mean_quasimomentum(psi: np.ndarray):
    """Circular mean of the quasimomentum distribution (period pi zone), per
    column of psi."""
    kappa, tilde = _reduced_zone(psi)
    weight = np.sum(np.abs(tilde) ** 2, axis=1)
    mean = 0.5 * np.angle(np.sum(weight * np.exp(2j * kappa)[:, None], axis=0))
    return mean if psi.ndim > 1 else float(mean[0])


def bloch_transfer_experiment(params: LatticeParams, inv_f_start: float,
                              inv_f_stop: float, duration: float,
                              packet_sigma: float = 10.0, n_sites: int = 512,
                              n_samples: int = 161, tol: float = 1e-8) -> TransferResult:
    """Ramp 1/F linearly through (or past) an avoided crossing and record
    site density, mean quasimomentum and band populations versus time.

    The packet starts as a lower-band Gaussian; the final upper-band
    population is the transfer fraction.  Ramps shorter than 50 Bloch
    periods are flagged non-adiabatic.
    """
    t_bloch = math.pi * inv_f_start
    non_adiabatic = duration < 50.0 * t_bloch
    ramp = RampProtocol.linear_inv_f(inv_f_start, inv_f_stop, duration)

    state = lower_band_state(params, n_sites, 0.0, packet_sigma)
    t_grid = np.linspace(0.0, duration, n_samples)
    states = propagate(state, params, ramp, t_grid, tol=tol)

    _, p_up = band_projectors(params, n_sites)
    amplitudes = np.array([s.amplitudes for s in states])  # a row per sample
    return TransferResult(times=t_grid, density=np.abs(amplitudes) ** 2,
                          mean_kappa=mean_quasimomentum(amplitudes.T),
                          p_upper=p_up.population(amplitudes.T), ramp=ramp,
                          non_adiabatic=bool(non_adiabatic))
