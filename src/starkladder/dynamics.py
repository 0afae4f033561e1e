"""Time-domain engine on the truncated chain.

Band projectors are assembled from the Bloch eigenvectors on the full
quasimomentum grid of the chain, applied in O(N log N) through cell-space
FFTs.  Propagation under a (possibly ramped) field uses an unconditionally
unitary split-step scheme: exact 2x2 bond exponentials for the alternating
hoppings, exact diagonal phases for the tilt, Strang-composed and optionally
raised to fourth order, with the step auto-refined until the final state is
converged.  Constant-field population statistics bypass time stepping
entirely through the exact eigenbasis representation in one batched pass per
field (W = V^T Psi0, M_upper = X^H X, a column-wise edge guard); the two
engines are cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import least_squares

from .errors import EdgeContaminationError, NonConvergedError
from .model import LatticeParams, _two_level_eigen, build_chain

_EDGE_ZONE = 10
_EDGE_WEIGHT = 1e-8


# ---------------------------------------------------------------------------
# states and schedules
# ---------------------------------------------------------------------------

@dataclass
class ChainState:
    """Normalized complex amplitudes over the chain sites at one time."""

    amplitudes: np.ndarray
    time: float = 0.0
    norm: float = dataclass_field(init=False)

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        self.norm = float(np.linalg.norm(self.amplitudes))


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
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.fields) & (self.fields > 0)):
            raise ValueError("the field must stay positive and finite along the ramp")

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def field_at(self, t):
        return np.interp(t, self.times, self.fields)

    @classmethod
    def constant(cls, f: float, duration: float) -> "RampProtocol":
        return cls(np.array([0.0, duration]), np.array([f, f]))

    @classmethod
    def linear_inv_f(cls, inv_f_start: float, inv_f_stop: float, duration: float,
                     samples: int = 257) -> "RampProtocol":
        """Ramp linear in 1/F, tabulated densely so F(t) interpolation is faithful."""
        t = np.linspace(0.0, duration, samples)
        inv = np.linspace(inv_f_start, inv_f_stop, samples)
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
        n_cells = self.n_sites // 2
        cells = psi.reshape(n_cells, 2, -1)
        tilde = np.fft.fft(cells * _twist(n_cells), axis=0) / math.sqrt(n_cells)
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

    def population(self, psi: np.ndarray) -> float:
        return float(np.real(np.vdot(psi, self.apply(psi))))


def band_projectors(params: LatticeParams, n_sites: int):
    """(lower, upper) band projectors for an n_sites chain at zero field.

    Rejected when the bands touch (delta = 0 and j1 = j2): the band character
    is undefined at the zone edge there.
    """
    if n_sites < 4 or n_sites % 2:
        raise ValueError("n_sites must be even and at least 4")
    if params.delta == 0.0 and abs(params.j1 - params.j2) < 1e-15:
        raise ValueError("bands touch for delta = 0, j1 = j2; projectors undefined")
    n_cells = n_sites // 2
    kappa = -np.pi / 2 + np.pi * np.arange(n_cells) / n_cells
    lower, upper = _bloch_eigenvectors(params, kappa)
    return BandProjector(n_sites, lower), BandProjector(n_sites, upper)


def lower_band_states(params: LatticeParams, n_sites: int, kappas,
                      sigma_cells: float, center_cell: float = 0.0) -> np.ndarray:
    """Gaussian-envelope Bloch states projected onto the lower band, one
    normalized column per kappa in ``kappas`` (shape n_sites x len(kappas))."""
    kappas = np.asarray(kappas, dtype=float)
    n_cells = n_sites // 2
    lower, _ = _bloch_eigenvectors(params, kappas)
    cells = np.arange(n_cells) - n_cells // 2
    envelope = np.exp(-((cells - center_cell) ** 2) / (4.0 * sigma_cells**2))
    bloch = envelope[:, None] * np.exp(2j * kappas * cells[:, None])
    psi = (bloch[:, None, :] * lower).reshape(n_sites, kappas.size)
    p_low, _ = band_projectors(params, n_sites)
    psi = p_low.apply(psi)
    # one vector norm per column, so a column does not depend on its neighbours
    return psi / np.array([np.linalg.norm(column) for column in psi.T])


def lower_band_state(params: LatticeParams, n_sites: int, kappa: float,
                     sigma_cells: float, center_cell: float = 0.0) -> ChainState:
    """Single-kappa case of ``lower_band_states``, as a state at t = 0."""
    psi = lower_band_states(params, n_sites, [kappa], sigma_cells, center_cell)
    return ChainState(psi[:, 0], 0.0)


# ---------------------------------------------------------------------------
# split-step propagation
# ---------------------------------------------------------------------------

def _check_edges(psi: np.ndarray, t: float) -> None:
    w = float(np.sum(np.abs(psi[:_EDGE_ZONE]) ** 2) + np.sum(np.abs(psi[-_EDGE_ZONE:]) ** 2))
    if w > _EDGE_WEIGHT:
        raise EdgeContaminationError(
            f"edge occupation {w:.2e} at t = {t:.3f}; enlarge the chain"
        )


def _rotate_bonds(left, right, c, s):
    """Exact bond exponential [[c, -is], [-is, c]] on each (left, right) pair."""
    new_left = c * left - 1j * s * right
    right *= c
    right -= 1j * s * left
    left[:] = new_left


def _chunk_kernel(psi, phases, ratios, c_intra, s_intra, c_inter, s_inter,
                  n_steps):
    """Advance the split-step composition over one linear-field chunk.

    Each composition stage is a symmetric sandwich of whole-array updates:
    half-step tilt phases, half-step intra-cell rotations on the bonds
    (psi[0::2], psi[1::2]), a full-step inter-cell rotation on the bonds
    (psi[1:-1:2], psi[2::2]), then the mirrored halves.  ``phases`` holds,
    per stage, the half-step diagonal phase vector at the chunk start;
    within the chunk the midpoint field moves linearly, so each step
    multiplies the stage phase by its constant ``ratios`` vector instead of
    re-exponentiating.  Bond rotations use the exact 2x2 exponential, so the
    whole step is unitary to roundoff.
    """
    n = psi.shape[0]
    intra = (psi[0:n - 1:2], psi[1:n:2])
    inter = (psi[1:n - 1:2], psi[2:n:2])
    for _ in range(n_steps):
        for si in range(phases.shape[0]):
            psi *= phases[si]
            _rotate_bonds(*intra, c_intra[si], s_intra[si])
            _rotate_bonds(*inter, c_inter[si], s_inter[si])
            _rotate_bonds(*intra, c_intra[si], s_intra[si])
            psi *= phases[si]
            phases[si] *= ratios[si]


_SUZUKI_P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
_STAGE_WEIGHTS = {
    2: np.array([1.0]),
    4: np.array([_SUZUKI_P, _SUZUKI_P, 1.0 - 4.0 * _SUZUKI_P, _SUZUKI_P, _SUZUKI_P]),
}


class _SplitStepper:
    """Chunked split-step engine over a piecewise-linear field schedule."""

    def __init__(self, params: LatticeParams, n_sites: int, order: int):
        if order not in (2, 4):
            raise ValueError("order must be 2 or 4")
        self.positions = build_chain(params.with_field(0.0), n_sites).positions
        stagger = np.empty(n_sites)
        stagger[0::2] = -params.delta
        stagger[1::2] = params.delta
        self.stagger = stagger
        self.j_intra = params.j1
        self.j_inter = params.j2
        self.weights = _STAGE_WEIGHTS[order]

    def run_chunk(self, psi: np.ndarray, t_start: float, span: float,
                  f_start: float, slope: float, dt_target: float) -> None:
        """Advance psi across [t_start, t_start + span] with F = f_start +
        slope * (t - t_start), using steps no coarser than dt_target."""
        if span <= 0.0:
            return
        n_steps = max(1, int(math.ceil(span / dt_target - 1e-12)))
        dt = span / n_steps
        w = self.weights * dt
        offsets = np.concatenate([[0.0], np.cumsum(w)])[:-1]
        t_mid0 = offsets + 0.5 * w
        f_mid0 = f_start + slope * t_mid0
        half = -0.5j * w[:, None]
        phases = np.exp(half * (f_mid0[:, None] * self.positions[None, :]
                                + self.stagger[None, :]))
        ratios = np.exp(half * (slope * dt) * self.positions[None, :])
        c_intra = np.cos(self.j_intra * 0.5 * w)
        s_intra = np.sin(self.j_intra * 0.5 * w)
        c_inter = np.cos(self.j_inter * w)
        s_inter = np.sin(self.j_inter * w)
        _chunk_kernel(psi, phases, ratios, c_intra, s_intra,
                      c_inter, s_inter, n_steps)


def _schedule(params: LatticeParams, field) -> RampProtocol:
    if field is None:
        params.require_field()
        return RampProtocol.constant(params.f, math.inf)
    if isinstance(field, RampProtocol):
        return field
    f = float(field)
    if f <= 0:
        raise ValueError("field must be positive")
    return RampProtocol.constant(f, math.inf)


def propagate(state: ChainState, params: LatticeParams, field=None,
              t_grid=None, tol: float = 1e-8, order: int = 4,
              max_refinements: int = 14) -> list[ChainState]:
    """Unitary evolution of ``state`` sampled at the times in ``t_grid``.

    ``field`` is a constant (float), a RampProtocol, or None for params.f.
    The split step is refined (halving dt, Richardson acceptance) until the
    final amplitudes are converged to ``tol``; the norm is preserved to
    machine precision by construction.  Wave-packet weight reaching the
    10-site edge zone raises EdgeContaminationError.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a non-empty 1D array of times")
    if t_grid[0] < state.time - 1e-12 or np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be non-decreasing and start at/after state.time")
    ramp = _schedule(params, field)
    stepper = _SplitStepper(params, state.amplitudes.size, order)
    _check_edges(state.amplitudes, state.time)

    span = float(t_grid[-1] - state.time)
    if span == 0.0:
        return [ChainState(state.amplitudes.copy(), float(t)) for t in t_grid]

    j_scale = max(params.j1, params.j2, 1e-3)
    f0 = float(ramp.field_at(state.time))
    err_const = (0.05 if order == 4 else 0.15) * j_scale**3 \
        + 0.05 * (f0 + 2 * abs(params.delta)) * j_scale**2
    dt = (tol / max(span * err_const, 1e-30)) ** (1.0 / order)
    dt = min(dt, span / 8.0, 0.5 / j_scale)

    breakpoints = ramp.times

    def run(dt_run: float):
        psi = state.amplitudes.astype(complex).copy()
        t = state.time
        states = []
        for t_target in t_grid:
            t_target = float(t_target)
            while t < t_target - 1e-12 * max(1.0, abs(t_target)):
                idx = int(np.searchsorted(breakpoints, t, side="right"))
                seg_end = float(breakpoints[idx]) if idx < breakpoints.size else math.inf
                chunk_end = min(seg_end, t_target)
                chunk = chunk_end - t
                f_here = float(ramp.field_at(t))
                slope = ((float(ramp.field_at(chunk_end)) - f_here) / chunk
                         if math.isfinite(chunk_end) and chunk > 0 else 0.0)
                stepper.run_chunk(psi, t, chunk, f_here, slope, dt_run)
                t = chunk_end
            t = t_target
            states.append(ChainState(psi.copy(), t))
            _check_edges(psi, t)
        return states

    # Richardson acceptance against a doubled step: the coarse check run costs
    # half of the candidate, and a rejected candidate becomes the next check.
    factor = 2.0**order - 1.0
    check = run(2.0 * dt)
    for _ in range(max_refinements):
        candidate = run(dt)
        diff = float(np.max(np.abs(candidate[-1].amplitudes - check[-1].amplitudes)))
        if diff / factor < tol:
            return candidate
        check = candidate
        dt *= 0.5
    raise NonConvergedError("split-step refinement did not reach the tolerance")


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


def mean_upper_population(params: LatticeParams, f: float | None = None,
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
    params = params.with_field(float(params.f if f is None else f))
    params.require_field()
    if params.delta == 0.0 and abs(params.j1 - params.j2) < 1e-15:
        raise ValueError("band populations need a gapped band structure")
    if kappa_grid < 1:
        raise ValueError("kappa_grid must be at least 1")
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


def lorentzian_fit(inv_f: np.ndarray, p_mean: np.ndarray,
                   peak_window: tuple[float, float] | None = None) -> LorentzianPeak:
    """Fit P(z) = h (w/2)^2 / ((w/2)^2 + (z - z0)^2) to one resonance peak.

    ``peak_window`` restricts the data; it must contain exactly one local
    maximum.  Returns the center z0, the width parameter w (the gap value in
    the resonance model), the height h and the RMS residual.
    """
    z = np.asarray(inv_f, dtype=float)
    p = np.asarray(p_mean, dtype=float)
    if peak_window is not None:
        mask = (z >= peak_window[0]) & (z <= peak_window[1])
        z, p = z[mask], p[mask]
    if z.size < 5:
        raise ValueError("need at least five samples in the peak window")
    interior = (p[1:-1] > p[:-2]) & (p[1:-1] >= p[2:])
    if int(np.sum(interior)) != 1:
        raise ValueError("peak window must contain exactly one local maximum")

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
    p_lower: np.ndarray
    transfer_fraction: float
    ramp: RampProtocol
    non_adiabatic: bool


def mean_quasimomentum(psi: np.ndarray) -> float:
    """Circular mean of the quasimomentum distribution (period pi zone)."""
    n_cells = psi.size // 2
    tilde = np.fft.fft(psi.reshape(n_cells, 2, 1) * _twist(n_cells), axis=0)
    weight = np.sum(np.abs(tilde) ** 2, axis=(1, 2))
    kappa = -np.pi / 2 + np.pi * np.arange(n_cells) / n_cells
    phase = np.sum(weight * np.exp(2j * kappa))
    return 0.5 * float(np.angle(phase))


def bloch_transfer_experiment(params: LatticeParams | None = None,
                              inv_f_start: float = 9.4, inv_f_stop: float = 8.7,
                              duration: float | None = None,
                              packet_sigma: float = 10.0, n_sites: int = 512,
                              n_samples: int = 161, tol: float = 1e-8,
                              order: int = 4) -> TransferResult:
    """Ramp 1/F linearly through (or past) an avoided crossing and record
    site density, mean quasimomentum and band populations versus time.

    The packet starts as a lower-band Gaussian; the transfer fraction is the
    final upper-band population.  Ramps shorter than 50 Bloch periods are
    flagged non-adiabatic.
    """
    if params is None:
        params = LatticeParams(1.0, 0.6, 0.0, 1.0 / inv_f_start)
    t_bloch = math.pi * inv_f_start
    if duration is None:
        duration = 120.0 * t_bloch
    non_adiabatic = duration < 50.0 * t_bloch
    ramp = RampProtocol.linear_inv_f(inv_f_start, inv_f_stop, duration)

    state = lower_band_state(params, n_sites, 0.0, packet_sigma)
    t_grid = np.linspace(0.0, duration, n_samples)
    states = propagate(state, params, ramp, t_grid, tol=tol, order=order)

    _, p_up = band_projectors(params, n_sites)
    density = np.stack([np.abs(s.amplitudes) ** 2 for s in states])
    p_upper = np.array([p_up.population(s.amplitudes) for s in states])
    p_lower = 1.0 - p_upper
    kappa = np.array([mean_quasimomentum(s.amplitudes) for s in states])
    return TransferResult(
        times=t_grid, density=density, mean_kappa=kappa,
        p_upper=p_upper, p_lower=p_lower, transfer_fraction=float(p_upper[-1]),
        ramp=ramp, non_adiabatic=bool(non_adiabatic),
    )
