"""Time-domain engine on the truncated chain.

One unitary cell transform (``_reduced_zone``) reads the chain as a ring of L
cells on kappa_k = pi k / L, self-conjugate at kappa = 0 and (L even) pi / 2;
band projectors hold the Bloch eigenvectors there and apply in O(N log N).
Every time evolution works on that ring in the acceleration gauge: each
kappa_k keeps its weight and follows a driven two-level equation, integrated by
the one ring-frame integrator of ``spectra_exact`` (``_ring_propagators``),
whose pieces reach each sample time through one prefix-product kernel
(``spectra_exact._prefix_products``).  ``propagate`` integrates the occupied
kappa_k under a (possibly ramped) field and takes its samples from the prefix
products of the pieces; at constant field all kappa_k share one set of Floquet
modes, built from the same prefix products, which give the population
statistics in closed form.  Their equation is the ring's at
kappa = 0 in the lab frame, the frame ``spectra_exact._period_propagators``
returns its pieces in: a resonance scan (``mean_upper_populations``) takes
every field's modes from one batch of those pieces, builds its packets once
per chain size and takes the populations of the fields sharing a chain size
and a piece count in one array pass.  Edge guards keep the packets off the
ring's seam, where the ring and the open chain differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EdgeContaminationError, NonConvergedError
from .model import (LatticeParams, _check_gap, _excursion_sites, _two_level_eigen,
                    site_positions)
from .spectra_exact import _advance, _period_propagators, _prefix_products, _ring_propagators

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

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)


@dataclass(frozen=True)
class RampProtocol:
    """Field schedule F(t) on [0, duration] with 1/F linear between the knots,
    which ``propagate`` integrates exactly: a ramp linear in 1/F needs two."""

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

    def field_at(self, t):
        return 1.0 / np.interp(t, self.times, 1.0 / self.fields)

    @classmethod
    def linear_inv_f(cls, inv_f_start: float, inv_f_stop: float,
                     duration: float) -> "RampProtocol":
        """Ramp linear in 1/F from inv_f_start to inv_f_stop: two knots."""
        return cls(np.array([0.0, duration]), 1.0 / np.array([inv_f_start, inv_f_stop]))


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


def _kappa_grid(n_cells: int) -> np.ndarray:
    """Reduced-zone quasimomenta kappa_k = pi k / L of an L-cell ring."""
    return np.pi * np.arange(n_cells) / n_cells


def _reduced_zone(psi: np.ndarray):
    """The kappa grid of the ring psi lives on and the unitary cell transform
    of psi onto it: tilde[k, s, ...] = L^(-1/2) sum_l psi[2l + s, ...]
    exp(-2i kappa_k l) is the amplitude of cell site s at kappa_k."""
    n_cells = psi.shape[0] // 2
    return _kappa_grid(n_cells), np.fft.fft(psi.reshape(n_cells, 2, *psi.shape[1:]),
                                            axis=0, norm="ortho")


def _from_reduced_zone(tilde: np.ndarray) -> np.ndarray:
    """Site amplitudes from tilde[k, s, ...]: the inverse of ``_reduced_zone``."""
    return np.fft.ifft(tilde, axis=0, norm="ortho").reshape(-1, *tilde.shape[2:])


@dataclass(frozen=True)
class BandProjector:
    """Rank-N/2 orthogonal projector onto one Bloch band of the chain.

    Stores the per-kappa 2x2 projector data; application goes through a
    cell-space FFT, so the dense matrix is never materialized.
    """

    vectors: np.ndarray  # shape (2, n_cells)

    def coefficients(self, psi: np.ndarray) -> np.ndarray:
        """Band amplitudes <u_kappa|psi>: a row per kappa, a column per column of psi."""
        _, tilde = _reduced_zone(np.asarray(psi, dtype=complex))
        return np.einsum("sk,ks...->k...", self.vectors.conj(), tilde)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        coeff = self.coefficients(psi)
        return _from_reduced_zone(np.einsum("sk,k...->ks...", self.vectors, coeff))

    def population(self, psi: np.ndarray):
        """Band weight <psi|P|psi> = sum_kappa |<u_kappa|psi>|^2, per column of psi."""
        return np.sum(np.abs(self.coefficients(psi)) ** 2, axis=0)


def band_projectors(params: LatticeParams, n_sites: int):
    """(lower, upper) band projectors for an n_sites chain at zero field.

    DegeneracyError when the bands touch (``model._check_gap``): the band
    character is undefined at the zone edge there.
    """
    kappa = _kappa_grid(site_positions(n_sites).size // 2)
    _check_gap(params)
    lower, upper = _bloch_eigenvectors(params, kappa)
    return BandProjector(lower), BandProjector(upper)


def lower_band_states(params: LatticeParams, n_sites: int, kappas,
                      sigma_cells: float) -> np.ndarray:
    """Gaussian-envelope Bloch states about the middle cell, projected onto the
    lower band: one normalized column per kappa in ``kappas``.  A non-finite
    kappa or ``sigma_cells`` raises ValueError before any state is built."""
    p_low, _ = band_projectors(params, n_sites)  # checks n_sites before the reshape
    if not (math.isfinite(sigma_cells) and sigma_cells > 0):
        raise ValueError("sigma_cells must be positive and finite")
    kappas = np.asarray(kappas, dtype=float)
    if not np.all(np.isfinite(kappas)):
        raise ValueError("kappas must be finite")
    lower, _ = _bloch_eigenvectors(params, kappas)
    cells = (site_positions(n_sites)[0::2] + 0.5) / 2  # A of cell l sits at 2l - 1/2
    envelope = np.exp(-(cells**2) / (4.0 * sigma_cells**2))
    bloch = envelope[:, None] * np.exp(2j * kappas * cells[:, None])
    psi = (bloch[:, None, :] * lower).reshape(n_sites, kappas.size)
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

def _check_edges(psi: np.ndarray, t: float, zone: int = _EDGE_ZONE) -> None:
    """Raise if any column of psi puts more than 1e-8 within ``zone`` sites of an end."""
    w = float(np.max(np.sum(np.abs(psi[:zone]) ** 2 + np.abs(psi[-zone:]) ** 2, axis=0)))
    if w > _EDGE_WEIGHT:
        raise EdgeContaminationError(f"edge occupation {w:.2e} at t = {t:.3f}; "
                                     "enlarge the chain")


def propagate(state: ChainState, params: LatticeParams,
              field: RampProtocol | None, t_grid, tol: float = 1e-8) -> list[ChainState]:
    """Unitary evolution of ``state`` sampled at the times in ``t_grid``.

    ``field`` is a RampProtocol, or None for the constant field params.f.
    The chain is closed into a ring and evolved in the acceleration gauge
    psi_i = exp(-i Phi(t) x_i) phi_i, Phi the time integral of F: each kappa_k
    of ``_reduced_zone`` obeys i dc/dt = [[-delta, g], [g*, delta]] c with
    g = j1 exp(-i Phi) + j2 exp(i (Phi - 2 kappa_k)).  The time axis is cut
    at the samples and the ramp's knots; 1/F is linear on each piece, so Phi is
    integrated there in closed form.  Each k keeps its weight |c_a|^2 + |c_b|^2,
    so the lightest k are dropped while their summed weight stays at most
    (tol / 64)^2: that changes psi by exactly the square root of the dropped
    weight, at most tol / 64, at every time.  The (piece, kept k) propagators
    are one batch of ``spectra_exact._ring_propagators``: Magnus steps from 64
    per Bloch period (Phi advancing by pi) of the longest piece, doubled until
    every entry changes by less than ``tol``, so a piece errs by about tol / 63.
    Each sample takes the prefix product of the pieces before it
    (``spectra_exact._prefix_products``), applied to every kept k at once, and
    all samples return to the sites in one inverse cell transform.  A sample
    thus errs in the 2-norm by at most tol / 64 from the cut plus about
    tol / 63 per piece before it; the norm loses the dropped weight and is
    otherwise kept to roundoff.
    ``tol`` bounds only these two errors.  Truncation of the chain is checked
    only by the edge guard: the ring acts as the open chain while the weight
    |psi|^2 in the 10-site edge zones stays at most 1e-8, checked at every
    sample (EdgeContaminationError), so amplitudes up to 1e-4 pass.  A packet
    can thus end much further than tol from the infinite-chain answer: the
    256-site, sigma = 8 cell packet at (j1, j2, F) = (1, 0.6, 1/9) ends one
    Bloch period 1.5e-6 from the same packet in 1024 sites at tol 1e-8.
    A non-finite time in ``t_grid`` or amplitude in ``state`` raises
    ValueError before any integration, and so does an invalid ``tol``.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol:g}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid must be a non-empty 1D array of finite times")
    if not np.all(np.isfinite(state.amplitudes)):
        raise ValueError("state amplitudes must be finite")
    if t_grid[0] < state.time - 1e-12 or np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be non-decreasing and start at/after state.time")
    positions = site_positions(state.amplitudes.size)
    _check_edges(state.amplitudes, state.time)
    if t_grid[-1] <= state.time:
        return [ChainState(state.amplitudes.copy(), float(t)) for t in t_grid]

    t0, samples = state.time, np.maximum(t_grid, state.time)
    if field is None:
        field = RampProtocol(np.array([t0, t_grid[-1]]), np.full(2, params.f))
    breaks = field.times[(field.times > t0) & (field.times < t_grid[-1])]
    edges = np.unique(np.concatenate([[t0], samples, breaks]))
    z_edges = np.interp(edges, field.times, 1.0 / field.fields)
    dt = np.diff(edges)
    span, curve = dt / z_edges[:-1], np.diff(z_edges) / z_edges[:-1]
    phi_edges = np.concatenate([[0.0], np.cumsum(_advance(span, curve, 1.0))])

    # the k cut of the docstring; the heaviest k always stays, so no batch is empty
    kappa, c_0 = _reduced_zone(state.amplitudes)
    weight = np.sum(np.abs(c_0) ** 2, axis=1)
    order = np.argsort(weight)
    cut = np.searchsorted(np.cumsum(weight[order]), (tol / 64.0) ** 2, side="right")
    kept = np.sort(order[min(cut, kappa.size - 1):])
    a, b, _ = (x.reshape(dt.size, kept.size).T for x in _ring_propagators(
        params, (phi_edges[:-1], span, curve), np.arange(dt.size), dt,
        params.j2 * np.exp(-2j * kappa[kept]), tol))

    # U(t, t0) of each sample at each kept k, applied to its c(t0)
    stops = np.searchsorted(edges, samples)
    a, b = (x[:, stops] for x in _prefix_products(a, b))
    c_a, c_b = c_0[kept, 0, None], c_0[kept, 1, None]
    c_t = np.zeros((kappa.size, 2, stops.size), dtype=complex)  # the dropped k stay zero
    c_t[kept, 0], c_t[kept, 1] = a * c_a + b * c_b, np.conj(a) * c_b - np.conj(b) * c_a
    psi = np.exp(-1j * np.outer(phi_edges[stops], positions)) * _from_reduced_zone(c_t).T
    for t, amplitudes in zip(t_grid.tolist(), psi):  # the first bad sample raises
        _check_edges(amplitudes, t)
    return [ChainState(amplitudes, t) for t, amplitudes in zip(t_grid.tolist(), psi)]


# ---------------------------------------------------------------------------
# constant-field population statistics (Floquet modes of the ring)
# ---------------------------------------------------------------------------

_PIECE_TOL = 1e-14  # step-doubling tolerance of each piece of the Bloch period
# cap of the Floquet-mode grid, about 1 s and 100 MB per field, and of the
# field x piece elements of one pass
_MAX_PIECES = 1 << 17


@dataclass
class PopulationTrace:
    """Upper-band occupation versus time and its window average."""

    times: np.ndarray
    p_upper: np.ndarray
    p_upper_mean: float


def _chain_size_for_population(params: LatticeParams, sigma_cells: float) -> int:
    # a packet's tails fall below 1e-10 in occupation within ~7 sigma of
    # envelope and 6 xi of the band projector's tail, whose occupation falls as
    # exp(-4 d / xi) over d cells, xi = (j1 + j2) / hypot(delta, j1 - j2)
    xi = (params.j1 + params.j2) / math.hypot(params.delta, params.j1 - params.j2)
    clearance = max(7.0 * sigma_cells, 6.0 * xi)
    return max(256, 4 * math.ceil(0.5 * _excursion_sites(params) + clearance + 18))


def _floquet_overlaps(params: LatticeParams, fields: np.ndarray, n_pieces: int):
    """Quasienergies eps[i] and M_i(s_j) = Phi^H P_up Phi at s_j = j T_B / n_pieces
    for each field F_i in ``fields`` (T_B = pi / F_i; ``params.f`` is ignored).

    V = diag(exp(i F t / 2), exp(-i F t / 2)) c, c the ring amplitudes of
    ``propagate`` at kappa_k, is the lab-frame amplitude at kappa = -F s and obeys
    i dV/ds = [[-(delta + F/2), g], [g*, delta + F/2]] V, g = j1 + j2 exp(2i F s),
    at s = t - kappa_k / F for every k.  ``_period_propagators`` returns the
    pieces of V (mapped from the ring's at kappa = 0, to 1e-14; the second half
    of the period is the first half's time-reversed mirror), and their prefix
    products (``spectra_exact._prefix_products``) give U(s_j, 0); the
    eigenvectors of W = U(T_B, 0), W v = exp(-i eps T_B) v, give
    Phi = U v exp(i eps s).
    """
    t_b = math.pi / fields
    a, b, _ = _period_propagators(params, fields, n_pieces, _PIECE_TOL)
    a, b = _prefix_products(a, b)  # U(s_j, 0), j = 0, ..., n_pieces
    # W = Re a - i K, K Hermitian: eigh keeps the modes orthonormal at degeneracy too
    w_a, w_b = a[:, -1], b[:, -1]
    mu, v = np.linalg.eigh(np.moveaxis(np.array([[-w_a.imag, 1j * w_b],
                                                 [-1j * np.conj(w_b), w_a.imag]]), -1, 0))
    eps = np.arctan2(mu, w_a.real[:, None]) / t_b[:, None]
    a, b = a[:, :-1], b[:, :-1]
    s = t_b[:, None] * np.arange(n_pieces) / n_pieces
    u_a, u_b = _bloch_eigenvectors(params, -fields[:, None] * s)[1].conj()  # <u_up| U(s, 0)
    q = (np.stack([u_a * a - u_b * np.conj(b), u_a * b + u_b * np.conj(a)], axis=-1) @ v
         * np.exp(1j * (s[:, :, None] * eps[:, None, :])))  # <u_up|phi_a>
    return eps, q.conj()[..., :, None] * q[..., None, :]


def _floquet_harmonics(params: LatticeParams, fields: np.ndarray):
    """Yield (i, eps, y, m) for each field F_i in ``fields`` once its modes are
    resolved: the quasienergies eps and the FFT harmonics y[m] of M_ba over the
    Bloch period, m the harmonic numbers.

    Every field starts at 256 pieces, and the fields whose last eighth of y is
    not below 1e-13 of the largest re-run together at twice the pieces
    (NonConvergedError past ``_MAX_PIECES``).  A pass holds at most
    ``_MAX_PIECES`` field x piece elements, the working set of one field at the cap.
    """
    pending, n_pieces = np.arange(fields.size), 256
    while pending.size:
        if n_pieces > _MAX_PIECES:
            raise NonConvergedError(f"Floquet modes unresolved at {_MAX_PIECES} pieces")
        m = (np.arange(n_pieces) + n_pieces // 2) % n_pieces - n_pieces // 2
        tail = np.abs(m) >= 7 * n_pieces // 16
        unresolved = []
        for batch in np.array_split(pending, -(-pending.size * n_pieces // _MAX_PIECES)):
            eps, overlaps = _floquet_overlaps(params, fields[batch], n_pieces)
            y = np.fft.fft(overlaps.swapaxes(-1, -2), axis=1) / n_pieces  # of M_ba
            resolved = (np.abs(y[:, tail]).max(axis=(1, 2, 3))
                        <= 1e-13 * np.abs(y).max(axis=(1, 2, 3)))
            for i in np.flatnonzero(resolved):
                yield batch[i], eps[i], y[i], m
            unresolved.append(batch[~resolved])
        pending, n_pieces = np.concatenate(unresolved), 2 * n_pieces


def _population_traces(fields: np.ndarray, eps, y, m, weight, n_bloch_periods: float,
                       n_time_samples: int) -> list[PopulationTrace]:
    """The populations of ``mean_upper_populations`` at the constant fields
    ``fields`` from their modes (``_floquet_harmonics``: eps of shape
    (fields, 2), y of shape (fields, harmonics, 2, 2), one set of harmonic
    numbers m) and the ring weights w_k of the packets they share."""
    # M_ba(s_k) at s_k = -T_B k / L: the harmonics folded onto the L cells
    fold = m % weight.size
    at_start = np.zeros((fields.size, weight.size, 2, 2), dtype=complex)
    np.add.at(at_start, (slice(None), fold), y)
    at_start = np.fft.fft(at_start, axis=1)
    # sum_k w_k (delta_ab - M_ab(s_k)) exp(2i F m s_k), per harmonic m
    h = y * np.fft.fft(weight[:, None, None] * (np.eye(2) - at_start.conj()), axis=1)[:, fold]
    omega = (2.0 * fields[:, None, None, None] * m[:, None, None]
             - (eps[:, None, :, None] - eps[:, None, None, :]))
    t_total = n_bloch_periods * math.pi / fields
    half = 0.5 * t_total[:, None, None, None] * omega
    means = np.sum(h * np.exp(1j * half) * np.sinc(half / math.pi), axis=(1, 2, 3)).real
    if n_time_samples == 0:  # the means alone, as a resonance scan asks
        return [PopulationTrace(np.zeros(0), np.zeros(0), mean) for mean in means.tolist()]
    traces = []
    for t_end, w, c, mean in zip(t_total.tolist(), omega, h, means.tolist()):
        times = np.linspace(0.0, t_end, int(n_time_samples))
        trace = np.concatenate([(np.exp(1j * np.outer(t, w)) @ c.ravel()).real  # <= 2^20 values
                                for t in np.array_split(times, 1 + (times.size * m.size >> 18))])
        traces.append(PopulationTrace(times=times, p_upper=trace, p_upper_mean=mean))
    return traces


def mean_upper_populations(params: LatticeParams, fields, n_bloch_periods: float = 20.0,
                           kappa_grid: int = 16, n_sites: int | None = None,
                           sigma_cells: float = 12.0,
                           n_time_samples: int = 256) -> list[PopulationTrace]:
    """Time- and quasimomentum-averaged upper-band population at each constant
    field F in ``fields`` (``params.f`` is ignored).

    Lower-band Gaussian packets, one per kappa of a uniform grid, are built on
    the ``n_sites`` chain and evolve for ``n_bloch_periods`` periods T_B = pi/F.
    On the ring of its cells each kappa_k keeps its weight w_k, and with the
    modes of ``_floquet_overlaps`` at s_k = -kappa_k / F the population is
    sum_k w_k sum_ab (delta_ab - M_ab(s_k)) M_ba(s_k + t) exp(-i (eps_a - eps_b) t).
    From M_ba(s) = sum_m y_m exp(2i F m s), its trace and window mean are sums
    over w = 2 F m - eps_a + eps_b; exp(i w t) has window mean exp(i h) sin(h) / h
    with h = w t_total / 2.  Every field's modes come from one batch of pieces
    per piece count (``_floquet_harmonics``), the packets and their w_k are
    built once per distinct chain size, and the fields sharing a chain size and
    a piece count take their populations in one array pass
    (``_population_traces``), edge-checked once at the group's widest zone.

    Error budget: each piece errs by about 1e-14 / 63 (step-doubled to
    1e-14), the modes by n_pieces times that.  The piece count doubles from
    256 until the last eighth of the y_m is below 1e-13 of the largest
    (NonConvergedError past 2^17).  The ring equals the open chain while no
    packet puts over 1e-8 within 10 + ceil(2 band_edge / F) sites of an end,
    the edge zone plus the field's Bloch excursion (EdgeContaminationError).
    The default chain adds to each side's excursion the larger of 7 sigma and
    6 xi cells: the band projector's tail holds an occupation falling as
    exp(-4 d / xi) at d cells, xi = (j1 + j2) / hypot(delta, j1 - j2).  At
    (1, 0.97, 0), 1/F = 5, ``kappa_grid`` = 4 (2048 pieces) the ring on 448
    sites is 3.3e-11 from the eigenbasis of a 1024-site open chain.  Off
    resonance the mean stays above about half the per-period tunnelling
    exp(-pi delta^2 / (2 J F)), J = (j1 + j2) / 2.  Every input is checked
    before any integration.
    """
    fields = np.asarray(fields, dtype=float)
    lattices = [params.with_field(f) for f in fields.tolist()]
    for lattice in lattices:
        lattice.require_field()
    if not (kappa_grid >= 1 and kappa_grid % 1 == 0):
        raise ValueError(f"kappa_grid must be a whole number of at least 1, got {kappa_grid}")
    if not (n_time_samples >= 0 and n_time_samples % 1 == 0):
        raise ValueError(f"n_time_samples must be a whole number of at least 0, "
                         f"got {n_time_samples}")
    if not all(math.isfinite(v) and v > 0 for v in (n_bloch_periods, sigma_cells)):
        raise ValueError("n_bloch_periods and sigma_cells must be positive and finite")
    _check_gap(params)
    if n_sites is not None:
        site_positions(n_sites)

    # the modes need 30-40 xi pieces whatever F, so their cap stops a lattice too
    # near band touching (xi above about 4000) before a chain of 24 xi sites is
    # built: a field's packets are looked up only once its modes are resolved
    kappas = -np.pi / 2 + np.pi * (np.arange(kappa_grid) + 0.5) / kappa_grid
    groups = {}  # (chain size, piece count) -> the fields' (i, eps, y, m)
    for mode in _floquet_harmonics(params, fields):
        lattice = lattices[mode[0]]
        size = n_sites if n_sites is not None else _chain_size_for_population(lattice,
                                                                            sigma_cells)
        groups.setdefault((size, mode[3].size), []).append(mode)
    packets = {}  # chain size -> (packets, ring weights w_k)
    traces = [None] * fields.size
    for (size, _), group in groups.items():
        index, eps, y, m = zip(*group)
        index = list(index)
        if size not in packets:
            psi0 = lower_band_states(lattices[index[0]], size, kappas, sigma_cells)
            _, tilde = _reduced_zone(psi0)
            packets[size] = psi0, np.sum(np.abs(tilde) ** 2, axis=(1, 2)) / kappa_grid
        psi0, weight = packets[size]
        excursion = max(_excursion_sites(lattices[i]) for i in index)
        _check_edges(psi0, 0.0, _EDGE_ZONE + math.ceil(excursion))
        for i, trace in zip(index, _population_traces(fields[index], np.array(eps), np.array(y),
                                                      m[0], weight, n_bloch_periods,
                                                      n_time_samples)):
            traces[i] = trace
    return traces


def mean_upper_population(params: LatticeParams, f: float,
                          n_bloch_periods: float = 20.0, kappa_grid: int = 16,
                          n_sites: int | None = None, sigma_cells: float = 12.0,
                          n_time_samples: int = 256) -> PopulationTrace:
    """``mean_upper_populations`` at the one field ``f``."""
    return mean_upper_populations(params, [f], n_bloch_periods, kappa_grid, n_sites,
                                  sigma_cells, n_time_samples)[0]


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


def mean_quasimomentum(psi: np.ndarray):
    """Circular mean of the quasimomentum distribution (period pi zone), per
    column of psi."""
    kappa, tilde = _reduced_zone(psi)
    weight = np.sum(np.abs(tilde) ** 2, axis=1)
    mean = 0.5 * np.angle(np.exp(2j * kappa) @ weight)
    return mean if psi.ndim > 1 else float(mean)


def bloch_transfer_experiment(params: LatticeParams, inv_f_start: float,
                              inv_f_stop: float, duration: float,
                              packet_sigma: float = 10.0, n_sites: int = 512,
                              n_samples: int = 161, tol: float = 1e-8) -> TransferResult:
    """Ramp 1/F linearly through (or past) an avoided crossing and record
    site density, mean quasimomentum and band populations versus time.

    The ramp has two knots, so 1/F is exactly linear in t and integrated with
    no interpolation error.  The packet starts as a lower-band Gaussian; the
    final upper-band population is the transfer fraction.
    """
    ramp = RampProtocol.linear_inv_f(inv_f_start, inv_f_stop, duration)

    state = lower_band_state(params, n_sites, 0.0, packet_sigma)
    t_grid = np.linspace(0.0, duration, n_samples)
    states = propagate(state, params, ramp, t_grid, tol=tol)

    _, p_up = band_projectors(params, n_sites)
    amplitudes = np.array([s.amplitudes for s in states])  # a row per sample
    return TransferResult(times=t_grid, density=np.abs(amplitudes) ** 2,
                          mean_kappa=mean_quasimomentum(amplitudes.T),
                          p_upper=p_up.population(amplitudes.T))
