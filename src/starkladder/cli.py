"""Command-line front end: deterministic CSV artifacts for every figure-style
computation (band structures, ladder spectra by any method, avoided
crossings, gap estimates, resonance scans, transfer trajectories, continuum
bands and their tight-binding reduction).

Every sweep runs in the calling process: a Floquet ladder sweep, the gaps of
a crossing search and a resonance scan each integrate all their fields in one
batch, and every other method solves field by field.  A plain
``key = value`` config file can seed any flag; explicit flags win.  Every
subcommand hands its named columns to one writer, ``_write_csv``, which owns
the number format (%.17g) and refuses a non-finite float (exit 3).  A column
holds bools, ints, floats or strs; the writer formats each column's distinct
values once (a trajectory's repeated sample times are printed once each),
gathers them back row by row and writes the rows in blocks of a fixed row
count.  Importing this module loads numpy alone: scipy is loaded by the
solver that needs it.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import continuum, dynamics, spectra_exact, strong_field, weak_field
from .errors import (ConfigError, DegeneracyError, EdgeContaminationError,
                     NonConvergedError, OutOfValidityError, StarkLadderError)
from .model import LatticeParams, bloch_dispersion


# rows joined into one string per write: the cells of one block are the only
# per-row objects alive at a time, whatever the row count
_BLOCK_ROWS = 8192


def _cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The text of each distinct value of a column, formatted once, and the
    index of every row's value among them."""
    if values.dtype.kind == "f":
        # told apart by bit pattern, so -0.0 is not 0.0; a narrower float
        # prints as the float64 it widens to
        distinct, index = np.unique(values.astype(np.float64, copy=False).view(np.uint64),
                                    return_inverse=True)
        text = ["%.17g" % value for value in distinct.view(np.float64).tolist()]
    else:
        distinct, index = np.unique(values, return_inverse=True)
        text = [str(value) for value in distinct.tolist()]
    return np.array(text, dtype=object), index


def _write_csv(path: str, columns: dict) -> None:
    """Write ``columns``, header name -> 1-D values of one length, as a CSV.

    A column holds bools, ints, floats or strs (numpy kind b, i, u, f or U).
    Floats print %.17g, which reads back exactly; every other kind prints
    through str.  Each column's distinct values (floats told apart by bit
    pattern) are formatted once and gathered back row by row, and the rows
    are written in blocks of ``_BLOCK_ROWS``.  Everything is checked before
    the file is opened: a column that is not 1-D, of another kind or of
    another length raises ValueError, and a non-finite float a
    FloatingPointError naming its column.
    """
    columns = {name: np.asarray(values) for name, values in columns.items()}
    for name, values in columns.items():
        if values.ndim != 1:
            raise ValueError(f"column {name} is not 1-D: shape {values.shape}")
        if values.dtype.kind not in "biufU":
            raise ValueError(f"column {name} holds {values.dtype}, not bools, ints, "
                             f"floats or strs")
        if values.dtype.kind == "f" and not np.isfinite(values).all():
            raise FloatingPointError(f"non-finite {name} in the result")
    lengths = {name: values.size for name, values in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns of unequal lengths: {lengths}")
    n_rows = max(lengths.values(), default=0)
    cells = [_cells(values) for values in columns.values()]
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(columns) + "\n")
            for start in range(0, n_rows, _BLOCK_ROWS):
                block = [text[index[start:start + _BLOCK_ROWS]].tolist()
                         for text, index in cells]
                fh.write("\n".join(map(",".join, zip(*block))) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def _split(spec: str, flag: str, *kinds) -> list:
    """The fields of a ``lo:hi`` or ``lo:hi:count`` flag value, one converter
    in ``kinds`` per field, with lo <= hi; every message names ``flag``."""
    form = ":".join(["lo", "hi", "count"][:len(kinds)])
    try:  # a strict zip raises ValueError on a wrong field count too
        values = [kind(field) for kind, field in zip(kinds, spec.split(":"), strict=True)]
    except ValueError as exc:
        raise ConfigError(f"{flag} must look like {form}, got {spec!r}") from exc
    if not values[0] <= values[1]:
        raise ConfigError(f"{flag} must satisfy lo <= hi, got {spec!r}")
    return values


# largest 1/F of a monodromy: its step count grows as 1/F (5e5 steps at 1e4),
# and its Magnus exponents overflow long before 1/F reaches the float range
_MAX_INV_F = 1e4


def _inv_f_sweep(spec: str, inv_f_max: float = math.inf) -> np.ndarray:
    lo, hi, count = _split(spec, "--inv-f", float, float, int)
    if count < 2 or not 0 < lo < hi < math.inf:
        raise ConfigError(f"--inv-f needs 0 < lo < hi < inf and count >= 2, got {spec!r}")
    if hi > inv_f_max:
        raise ConfigError(f"--inv-f needs hi <= {inv_f_max:g} (the monodromy's field "
                          f"bound), got {spec!r}")
    return np.linspace(lo, hi, count)


def _lattice(ns: argparse.Namespace, f: float = 0.0) -> LatticeParams:
    return LatticeParams(ns.j1, ns.j2, ns.delta, f)


def _positive(value: float, flag: str) -> float:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{flag} must be positive and finite, got {value:g}")
    return value


def _count(value: int, flag: str) -> int:
    if value < 1:
        raise ConfigError(f"{flag} must be at least 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

# the per-field solver of every --method but floquet and truncated
_LADDERS = {"wu-yang": strong_field.spectrum_wu_yang,
            "expansion": strong_field.spectrum_expansion,
            "bm": strong_field.spectrum_bm,
            "adiabatic": weak_field.adiabatic_spectrum}


def _ladder(ns: argparse.Namespace, params, inv_f, n_range, window):
    """The ladder at one field 1/inv_f by ``--method``, any method but floquet."""
    p = params.with_field(1.0 / inv_f)
    if ns.method != "truncated":
        # without --order each method keeps its own default
        order = {} if ns.order is None else {"order": ns.order}
        return _LADDERS[ns.method](p, n_range, **order)
    spectrum = spectra_exact.ws_spectrum_truncated(p, n_sites=ns.n_sites, window=window)
    if not bool(np.all(spectrum.converged)):
        raise NonConvergedError(
            f"unconverged truncated levels at 1/F = {inv_f:g}; increase n-sites"
        )
    return spectrum


def _cmd_bands(ns: argparse.Namespace) -> None:
    params = _lattice(ns)
    kappa = np.linspace(-np.pi / 2, np.pi / 2, _count(ns.points, "--points"),
                        endpoint=False)
    e_minus, e_plus = bloch_dispersion(params, kappa)
    _write_csv(ns.out, {"kappa": kappa, "e_minus": e_minus, "e_plus": e_plus})


def _cmd_spectrum(ns: argparse.Namespace) -> None:
    params = _lattice(ns)
    if (ns.f is None) == (ns.inv_f is None):
        raise ConfigError("choose exactly one of --f or --inv-f")
    inv_f_max = _MAX_INV_F if ns.method == "floquet" else math.inf
    if ns.f is not None:
        inv_fs = np.array([1.0 / _positive(ns.f, "--f")])
        if inv_fs[0] > inv_f_max:
            raise ConfigError(f"--f needs F >= {1.0 / inv_f_max:g} (the monodromy's field "
                              f"bound), got {ns.f:g}")
    else:
        inv_fs = _inv_f_sweep(ns.inv_f, inv_f_max)
    for flag, value, methods in (("--order", ns.order, ("expansion", "adiabatic")),
                                 ("--n-sites", ns.n_sites, ("truncated",)),
                                 ("--window", ns.window, ("truncated",))):
        if value is not None and ns.method not in methods:
            raise ConfigError(f"{flag} does not apply to --method {ns.method}")
    lo, hi = _split(ns.n_range, "--n-range", int, int)
    n_range = range(lo, hi + 1)
    window = None if ns.window is None else tuple(_split(ns.window, "--window", float, float))
    inv_fs = inv_fs.tolist()
    if ns.method == "floquet":  # one batched integration for the whole sweep
        spectra = spectra_exact.floquet_ladders(params, [1.0 / z for z in inv_fs], n_range)
    else:
        spectra = [_ladder(ns, params, z, n_range, window) for z in inv_fs]
    # each field's levels by branch (plus first), then by index
    orders = [np.lexsort((s.indices, -s.branches)) for s in spectra]
    inv_f = np.repeat(inv_fs, [order.size for order in orders])
    energy, branch, n = (np.concatenate([getattr(s, key)[order]
                                         for s, order in zip(spectra, orders)])
                         for key in ("energies", "branches", "indices"))
    _write_csv(ns.out, {"inv_f": inv_f, "energy": energy, "scaled_energy": energy * inv_f,
                        "branch": np.where(branch > 0, "plus", "minus"), "n": n,
                        "method": [ns.method] * energy.size})


def _cmd_crossings(ns: argparse.Namespace) -> None:
    params = _lattice(ns, f=1.0)
    sweep = _inv_f_sweep(ns.inv_f, _MAX_INV_F)
    if sweep.size < 100:
        raise ConfigError(f"--inv-f needs at least 100 samples for a crossing search, "
                          f"got {sweep.size}")
    found = spectra_exact.find_avoided_crossings(
        params, (float(sweep[0]), float(sweep[-1])), resolution=sweep.size)
    _write_csv(ns.out, {"inv_f_star": [c.inv_f_star for c in found],
                        "gap": [c.gap for c in found],
                        "branch_pair": ["minus-plus"] * len(found)})


def _cmd_gap_estimate(ns: argparse.Namespace) -> None:
    sweep = _inv_f_sweep(ns.inv_f)
    estimates = [weak_field.gap_estimate(_lattice(ns, f=1.0 / z)) for z in sweep.tolist()]
    _write_csv(ns.out, {"inv_f": sweep, "gap": [e.ratio for e in estimates] / sweep,
                        "theta0": [e.theta0 for e in estimates]})


def _cmd_resonances(ns: argparse.Namespace) -> None:
    params = _lattice(ns)
    sweep = _inv_f_sweep(ns.inv_f)
    periods = _positive(ns.periods, "--periods")
    kappa_grid = _count(ns.kappa_grid, "--kappa-grid")
    sigma_cells = _positive(ns.sigma_cells, "--sigma-cells")
    traces = dynamics.mean_upper_populations(
        params, 1.0 / sweep, n_bloch_periods=periods, kappa_grid=kappa_grid,
        sigma_cells=sigma_cells, n_sites=ns.n_sites, n_time_samples=0)
    _write_csv(ns.out, {"inv_f": sweep,
                        "p_upper_mean": [trace.p_upper_mean for trace in traces]})


def _cmd_transfer(ns: argparse.Namespace) -> None:
    _positive(ns.inv_f_stop, "--inv-f-stop")
    params = _lattice(ns, f=1.0 / _positive(ns.inv_f_start, "--inv-f-start"))
    duration = _positive(ns.periods, "--periods") * math.pi * ns.inv_f_start
    result = dynamics.bloch_transfer_experiment(
        params, inv_f_start=ns.inv_f_start, inv_f_stop=ns.inv_f_stop, duration=duration,
        packet_sigma=_positive(ns.sigma_cells, "--sigma-cells"), n_sites=ns.n_sites,
        n_samples=_count(ns.samples, "--samples"), tol=_positive(ns.tol, "--tol"))
    n_samples, n_sites = result.density.shape
    _write_csv(ns.out, {"time": np.repeat(result.times, n_sites),
                        "site": np.tile(np.arange(n_sites), n_samples),
                        "density": result.density.ravel()})
    stem, ext = os.path.splitext(ns.out)
    companion = f"{stem}_observables{ext or '.csv'}"
    _write_csv(companion, {"time": result.times, "mean_kappa": result.mean_kappa,
                           "p_upper": result.p_upper})


def _continuum_bands(ns: argparse.Namespace, n_bands: int) -> continuum.ContinuumBands:
    pot = continuum.ContinuumPotential(v0=ns.v0, v1=ns.v1, v2=ns.v2,
                                       phi1=ns.phi1, phi2=ns.phi2)
    ks = np.linspace(-np.pi, np.pi, _count(ns.k_points, "--k-points"), endpoint=False)
    bands = continuum.band_structure(pot, ks, cutoff=ns.cutoff, n_bands=n_bands)
    if not bands.converged:
        raise NonConvergedError("continuum bands unconverged; raise --cutoff")
    return bands


def _cmd_continuum_bands(ns: argparse.Namespace) -> None:
    if not 1 <= ns.n_bands <= ns.cutoff:
        raise ConfigError(f"--n-bands must lie in [1, --cutoff = {ns.cutoff}], "
                          f"got {ns.n_bands}")
    bands = _continuum_bands(ns, ns.n_bands)
    n_k, n_bands = bands.energies.shape
    _write_csv(ns.out, {"k": np.repeat(bands.k_grid, n_bands),
                        "band_index": np.tile(np.arange(n_bands), n_k),
                        "energy": bands.energies.ravel()})


def _cmd_tb_fit(ns: argparse.Namespace) -> None:
    fit = continuum.fit_tight_binding(_continuum_bands(ns, 2))
    _write_csv(ns.out, {key: [getattr(fit, key)]
                        for key in ("j1", "j2", "delta", "offset", "residual")})


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                values[key.strip().replace("_", "-")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _merge_config_file(argv: list[str]) -> list[str]:
    """Inject config-file values as flags ahead of explicit ones (which win)."""
    path = None
    cleaned = []
    i = 0
    while i < len(argv):
        if argv[i] == "--config":
            if i + 1 >= len(argv):
                raise ConfigError("--config needs a file path")
            path = argv[i + 1]
            i += 2
        elif argv[i].startswith("--config="):
            path = argv[i].split("=", 1)[1]
            i += 1
        else:
            cleaned.append(argv[i])
            i += 1
    if path is None:
        return cleaned
    if not cleaned or cleaned[0].startswith("-"):
        raise ConfigError("a subcommand is required before flags")
    # one --key=value token, so argparse cannot take a value like -1:1 for a flag
    injected = [f"--{key}={value}" for key, value in _load_config_file(path).items()]
    return [cleaned[0]] + injected + cleaned[1:]


def _add_lattice_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--j1", type=float, required=True,
                     help="intracell hopping energy")
    sub.add_argument("--j2", type=float, required=True,
                     help="intercell hopping energy")
    sub.add_argument("--delta", type=float, default=0.0,
                     help="staggered on-site energy (default 0)")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", required=True, help="output CSV path")
    sub.add_argument("--workers", type=int, default=1,
                     help="accepted for the benchmark harness (perfbench), at least "
                          "1; no effect: every sweep runs in this process")
    sub.add_argument("--config", help="key = value config file; flags override it")


def _add_potential_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--v0", type=float, default=0.0, help="energy offset")
    sub.add_argument("--v1", type=float, required=True, help="long-lattice amplitude")
    sub.add_argument("--v2", type=float, required=True, help="short-lattice amplitude")
    sub.add_argument("--phi1", type=float, default=0.0, help="long-lattice phase")
    sub.add_argument("--phi2", type=float, default=0.0, help="short-lattice phase")
    sub.add_argument("--k-points", type=int, default=64,
                     help="quasimomentum samples, at least 1 (tb-fit needs two)")
    sub.add_argument("--cutoff", type=int, default=41, help="plane-wave count (odd)")


@functools.cache  # built once per process; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starkladder",
        description="Wannier-Stark ladders and Bloch-oscillation dynamics of "
                    "1D double-periodic lattices")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("bands", help="Bloch bands of the untilted lattice")
    _add_lattice_args(p)
    p.add_argument("--points", type=int, default=256, help="kappa samples, at least 1")
    _add_common(p)

    p = subs.add_parser("spectrum", help="Wannier-Stark ladder by any method")
    _add_lattice_args(p)
    p.add_argument("--method", required=True,
                   choices=["truncated", "floquet", "wu-yang", "expansion",
                            "bm", "adiabatic"])
    p.add_argument("--f", type=float,
                   help="single field value (at least 1e-4 for the floquet method)")
    p.add_argument("--inv-f", help="1/F sweep lo:hi:count (hi at most 1e4 for the "
                                   "floquet method)")
    p.add_argument("--n-range", default="-3:3", help="ladder index range lo:hi")
    p.add_argument("--order", type=int, default=None,
                   help="expansion order (1|3 for expansion, 1|2 for adiabatic)")
    p.add_argument("--n-sites", type=int, default=None,
                   help="chain size for the truncated method (default: per half, "
                        "(max|window| + 2 (j1 + j2) + 2 band_edge) / F + 16 sites)")
    p.add_argument("--window", default=None,
                   help="energy window lo:hi for the truncated method")
    _add_common(p)

    p = subs.add_parser("crossings", help="avoided crossings over a 1/F interval")
    _add_lattice_args(p)
    p.add_argument("--inv-f", required=True,
                   help="1/F interval lo:hi:count, hi at most 1e4; the splitting is "
                        "scanned for minima at count (at least 100) equally spaced "
                        "points of a Chebyshev proxy of the monodromy, not integrated "
                        "one by one, so minima closer than one step merge")
    _add_common(p)

    p = subs.add_parser("gap-estimate", help="multiphoton gap estimate (delta = 0)")
    _add_lattice_args(p)
    p.add_argument("--inv-f", required=True, help="1/F sweep lo:hi:count")
    _add_common(p)

    p = subs.add_parser("resonances", help="time-averaged upper-band population scan")
    _add_lattice_args(p)
    p.add_argument("--inv-f", required=True, help="1/F sweep lo:hi:count")
    p.add_argument("--periods", type=float, default=20.0,
                   help="averaging window in Bloch periods (default 20)")
    p.add_argument("--kappa-grid", type=int, default=16,
                   help="quasimomentum samples of the initial band")
    p.add_argument("--sigma-cells", type=float, default=12.0,
                   help="envelope width in cells")
    p.add_argument("--n-sites", type=int, default=None,
                   help="sites of the chain the packets are built on, which set the "
                        "kappa grid; packets near an end exit 4")
    _add_common(p)

    p = subs.add_parser("transfer", help="adiabatic band-transfer trajectory")
    _add_lattice_args(p)
    p.add_argument("--inv-f-start", type=float, default=9.4,
                   help="1/F at the start of the ramp (default 9.4); 1/F is linear "
                        "in time and the field is integrated exactly")
    p.add_argument("--inv-f-stop", type=float, default=8.7,
                   help="1/F at the end of the ramp (default 8.7)")
    p.add_argument("--periods", type=float, default=120.0,
                   help="ramp duration in Bloch periods at the initial field")
    p.add_argument("--sigma-cells", type=float, default=10.0,
                   help="packet width in cells")
    p.add_argument("--n-sites", type=int, default=512)
    p.add_argument("--samples", type=int, default=161,
                   help="trajectory samples, at least 1 (default 161)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="largest change of a propagator entry in the last step "
                        "doubling, per sample interval (default 1e-8); cell "
                        "wavevectors of summed weight at most (tol/64)^2 are not "
                        "propagated, an error of at most tol/64 in psi; it bounds "
                        "only these two errors: chain truncation is "
                        "checked only by the edge guard, edge-zone weight |psi|^2 "
                        "<= 1e-8, so amplitudes up to 1e-4 pass (a 256-site packet "
                        "ends 1.5e-6 from the 1024-site answer at tol 1e-8)")
    _add_common(p)

    p = subs.add_parser("continuum-bands", help="plane-wave Bloch bands of the "
                                                "optical lattice")
    _add_potential_args(p)
    p.add_argument("--n-bands", type=int, default=5, help="bands to emit")
    _add_common(p)

    p = subs.add_parser("tb-fit", help="tight-binding reduction of the lowest doublet")
    _add_potential_args(p)
    _add_common(p)

    return parser


_DISPATCH = {
    "bands": _cmd_bands,
    "spectrum": _cmd_spectrum,
    "crossings": _cmd_crossings,
    "gap-estimate": _cmd_gap_estimate,
    "resonances": _cmd_resonances,
    "transfer": _cmd_transfer,
    "continuum-bands": _cmd_continuum_bands,
    "tb-fit": _cmd_tb_fit,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = build_parser().parse_args(_merge_config_file(argv))
        _count(ns.workers, "--workers")
        _DISPATCH[ns.subcommand](ns)
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (NonConvergedError, OutOfValidityError, DegeneracyError, ArithmeticError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except EdgeContaminationError as exc:
        print(f"error: edge-contamination: {exc}", file=sys.stderr)
        return 4
    except StarkLadderError as exc:  # pragma: no cover - safety net
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
