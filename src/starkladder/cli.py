"""Command-line front end: deterministic CSV artifacts for every figure-style
computation (band structures, ladder spectra by any method, avoided
crossings, gap estimates, resonance scans, transfer trajectories, continuum
bands and their tight-binding reduction).

Field sweeps of ``spectrum`` and ``resonances`` run on a process pool;
results are merged in sweep order, so the output is byte-identical for any
worker count.  A plain ``key = value``
config file can seed any flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import continuum, dynamics, spectra_exact, strong_field, weak_field
from .errors import (ConfigError, DegeneracyError, EdgeContaminationError,
                     NonConvergedError, OutOfValidityError, StarkLadderError)
from .model import LatticeParams, bloch_dispersion


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: str, header: list[str], rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def _parse_sweep(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, count_s = spec.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise ConfigError(f"sweep must look like lo:hi:count, got {spec!r}") from exc
    if count < 2:
        raise ConfigError("sweep count must be at least 2")
    if not (0 < lo < hi) :
        raise ConfigError("sweep bounds must satisfy 0 < lo < hi")
    return np.linspace(lo, hi, count)


def _parse_range(spec: str) -> range:
    try:
        lo_s, hi_s = spec.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise ConfigError(f"range must look like lo:hi, got {spec!r}") from exc
    if hi < lo:
        raise ConfigError("range upper bound must be >= lower bound")
    return range(lo, hi + 1)


def _parse_window(spec: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = spec.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise ConfigError(f"--window must look like lo:hi, got {spec!r}") from exc
    if not lo <= hi:
        raise ConfigError(f"--window must satisfy lo <= hi, got {spec!r}")
    return lo, hi


def _lattice(ns: argparse.Namespace, f: float = 0.0) -> LatticeParams:
    return LatticeParams(ns.j1, ns.j2, ns.delta, f)


def _positive(value: float, flag: str) -> float:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{flag} must be positive and finite, got {value:g}")
    return value


def _parallel_map(fn, items, workers: int):
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        chunk = max(1, len(items) // (4 * workers))
        return list(pool.map(fn, items, chunksize=chunk))


# ---------------------------------------------------------------------------
# sweep workers (module level so they pickle for the process pool)
# ---------------------------------------------------------------------------

_BRANCH_NAME = {1: "plus", -1: "minus"}


def _spectrum_rows(task):
    params, inv_f, method, n_range, options = task
    p = params.with_field(1.0 / inv_f)
    # without --order each method keeps its own default
    order = {} if options.get("order") is None else {"order": options["order"]}
    if method == "floquet":
        spectrum = spectra_exact.ws_spectrum_floquet(p, n_range)
    elif method == "truncated":
        spectrum = spectra_exact.ws_spectrum_truncated(
            p, n_sites=options.get("n_sites"), window=options.get("window"))
        if not bool(np.all(spectrum.converged)):
            raise NonConvergedError(
                f"unconverged truncated levels at 1/F = {inv_f:g}; increase n-sites"
            )
    elif method == "wu-yang":
        spectrum = strong_field.spectrum_wu_yang(p, n_range)
    elif method == "expansion":
        spectrum = strong_field.spectrum_expansion(p, n_range, **order)
    elif method == "bm":
        spectrum = strong_field.spectrum_bm(p, n_range)
    elif method == "adiabatic":
        spectrum = weak_field.adiabatic_spectrum(p, n_range, **order)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown method {method}")
    rows = []
    order = np.lexsort((spectrum.indices, -spectrum.branches))
    for idx in order:
        e = float(spectrum.energies[idx])
        rows.append((inv_f, e, e * inv_f, _BRANCH_NAME[int(spectrum.branches[idx])],
                     int(spectrum.indices[idx]), method))
    return rows


def _resonance_row(task):
    params, inv_f, options = task
    trace = dynamics.mean_upper_population(
        params, 1.0 / inv_f, n_bloch_periods=options["periods"],
        kappa_grid=options["kappa_grid"], sigma_cells=options["sigma_cells"],
        n_sites=options.get("n_sites"), n_time_samples=0)
    return (inv_f, trace.p_upper_mean)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_bands(ns: argparse.Namespace) -> None:
    params = _lattice(ns)
    kappa = np.linspace(-np.pi / 2, np.pi / 2, ns.points, endpoint=False)
    e_minus, e_plus = bloch_dispersion(params, kappa)
    _write_csv(ns.out, ["kappa", "e_minus", "e_plus"],
               zip(kappa, e_minus, e_plus))


def _cmd_spectrum(ns: argparse.Namespace) -> None:
    params = _lattice(ns)
    if (ns.f is None) == (ns.inv_f is None):
        raise ConfigError("choose exactly one of --f or --inv-f")
    if ns.f is not None:
        inv_fs = np.array([1.0 / _positive(ns.f, "--f")])
    else:
        inv_fs = _parse_sweep(ns.inv_f)
    n_range = _parse_range(ns.n_range)
    options = {"order": ns.order, "n_sites": ns.n_sites}
    if ns.window is not None:
        options["window"] = _parse_window(ns.window)
    tasks = [(params, float(z), ns.method, n_range, options) for z in inv_fs]
    chunks = _parallel_map(_spectrum_rows, tasks, ns.workers)
    _write_csv(ns.out, ["inv_f", "energy", "scaled_energy", "branch", "n", "method"],
               (row for chunk in chunks for row in chunk))


def _cmd_crossings(ns: argparse.Namespace) -> None:
    params = _lattice(ns, f=1.0)
    sweep = _parse_sweep(ns.inv_f)
    if sweep.size < 100:
        raise ConfigError(f"--inv-f needs at least 100 samples for a crossing search, "
                          f"got {sweep.size}")
    found = spectra_exact.find_avoided_crossings(
        params, (float(sweep[0]), float(sweep[-1])), resolution=sweep.size)
    rows = [(c.inv_f_star, c.gap, "minus-plus") for c in found]
    _write_csv(ns.out, ["inv_f_star", "gap", "branch_pair"], rows)


def _cmd_gap_estimate(ns: argparse.Namespace) -> None:
    sweep = _parse_sweep(ns.inv_f)
    rows = []
    for z in sweep:
        params = _lattice(ns, f=1.0 / float(z))
        est = weak_field.gap_estimate(params)
        rows.append((float(z), est.ratio / z, est.theta0))
    _write_csv(ns.out, ["inv_f", "gap", "theta0"], rows)


def _cmd_resonances(ns: argparse.Namespace) -> None:
    params = _lattice(ns)
    sweep = _parse_sweep(ns.inv_f)
    if ns.kappa_grid < 1:
        raise ConfigError(f"--kappa-grid must be at least 1, got {ns.kappa_grid}")
    options = {"periods": _positive(ns.periods, "--periods"), "kappa_grid": ns.kappa_grid,
               "sigma_cells": _positive(ns.sigma_cells, "--sigma-cells"),
               "n_sites": ns.n_sites}
    tasks = [(params, float(z), options) for z in sweep]
    rows = _parallel_map(_resonance_row, tasks, ns.workers)
    _write_csv(ns.out, ["inv_f", "p_upper_mean"], rows)


def _cmd_transfer(ns: argparse.Namespace) -> None:
    _positive(ns.inv_f_stop, "--inv-f-stop")
    params = _lattice(ns, f=1.0 / _positive(ns.inv_f_start, "--inv-f-start"))
    duration = _positive(ns.periods, "--periods") * math.pi * ns.inv_f_start
    result = dynamics.bloch_transfer_experiment(
        params, inv_f_start=ns.inv_f_start, inv_f_stop=ns.inv_f_stop, duration=duration,
        packet_sigma=_positive(ns.sigma_cells, "--sigma-cells"), n_sites=ns.n_sites,
        n_samples=ns.samples, tol=_positive(ns.tol, "--tol"))
    rows = ((t, site, float(result.density[i, site]))
            for i, t in enumerate(result.times)
            for site in range(result.density.shape[1]))
    _write_csv(ns.out, ["time", "site", "density"], rows)
    stem, ext = os.path.splitext(ns.out)
    companion = f"{stem}_observables{ext or '.csv'}"
    _write_csv(companion, ["time", "mean_kappa", "p_upper"],
               zip(result.times, result.mean_kappa, result.p_upper))


def _continuum_bands(ns: argparse.Namespace, n_bands: int) -> continuum.ContinuumBands:
    pot = continuum.ContinuumPotential(v0=ns.v0, v1=ns.v1, v2=ns.v2,
                                       phi1=ns.phi1, phi2=ns.phi2)
    ks = np.linspace(-np.pi, np.pi, ns.k_points, endpoint=False)
    bands = continuum.band_structure(pot, ks, cutoff=ns.cutoff, n_bands=n_bands)
    if not bands.converged:
        raise NonConvergedError("continuum bands unconverged; raise --cutoff")
    return bands


def _cmd_continuum_bands(ns: argparse.Namespace) -> None:
    if not 1 <= ns.n_bands <= ns.cutoff:
        raise ConfigError(f"--n-bands must lie in [1, --cutoff = {ns.cutoff}], "
                          f"got {ns.n_bands}")
    bands = _continuum_bands(ns, ns.n_bands)
    _write_csv(ns.out, ["k", "band_index", "energy"],
               ((k, band, e) for k, row in zip(bands.k_grid, bands.energies)
                for band, e in enumerate(row)))


def _cmd_tb_fit(ns: argparse.Namespace) -> None:
    fit = continuum.fit_tight_binding(_continuum_bands(ns, 2))
    _write_csv(ns.out, ["j1", "j2", "delta", "offset", "residual"],
               [(fit.j1, fit.j2, fit.delta, fit.offset, fit.residual)])


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
    injected = []
    for key, value in _load_config_file(path).items():
        injected.extend([f"--{key}", value])
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
    sub.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                     help="sweep processes, at least 1 (default: the CPU count)")
    sub.add_argument("--config", help="key = value config file; flags override it")


def _add_potential_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--v0", type=float, default=0.0, help="energy offset")
    sub.add_argument("--v1", type=float, required=True, help="long-lattice amplitude")
    sub.add_argument("--v2", type=float, required=True, help="short-lattice amplitude")
    sub.add_argument("--phi1", type=float, default=0.0, help="long-lattice phase")
    sub.add_argument("--phi2", type=float, default=0.0, help="short-lattice phase")
    sub.add_argument("--k-points", type=int, default=64, help="quasimomentum samples")
    sub.add_argument("--cutoff", type=int, default=41, help="plane-wave count (odd)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starkladder",
        description="Wannier-Stark ladders and Bloch-oscillation dynamics of "
                    "1D double-periodic lattices")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("bands", help="Bloch bands of the untilted lattice")
    _add_lattice_args(p)
    p.add_argument("--points", type=int, default=256, help="kappa samples")
    _add_common(p)

    p = subs.add_parser("spectrum", help="Wannier-Stark ladder by any method")
    _add_lattice_args(p)
    p.add_argument("--method", required=True,
                   choices=["truncated", "floquet", "wu-yang", "expansion",
                            "bm", "adiabatic"])
    p.add_argument("--f", type=float, help="single field value")
    p.add_argument("--inv-f", help="1/F sweep lo:hi:count")
    p.add_argument("--n-range", default="-3:3", help="ladder index range lo:hi")
    p.add_argument("--order", type=int, default=None,
                   help="expansion order (1|3 for expansion, 1|2 for adiabatic)")
    p.add_argument("--n-sites", type=int, default=None,
                   help="chain size for the truncated method")
    p.add_argument("--window", default=None,
                   help="energy window lo:hi for the truncated method")
    _add_common(p)

    p = subs.add_parser("crossings", help="avoided crossings over a 1/F interval")
    _add_lattice_args(p)
    p.add_argument("--inv-f", required=True, help="1/F sweep lo:hi:count")
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
    p.add_argument("--n-sites", type=int, default=None, help="chain size override")
    _add_common(p)

    p = subs.add_parser("transfer", help="adiabatic band-transfer trajectory")
    _add_lattice_args(p)
    p.add_argument("--inv-f-start", type=float, default=9.4)
    p.add_argument("--inv-f-stop", type=float, default=8.7)
    p.add_argument("--periods", type=float, default=120.0,
                   help="ramp duration in Bloch periods at the initial field")
    p.add_argument("--sigma-cells", type=float, default=10.0,
                   help="packet width in cells")
    p.add_argument("--n-sites", type=int, default=512)
    p.add_argument("--samples", type=int, default=161, help="trajectory samples")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="largest change of a propagator entry in the last step "
                        "doubling, per piece of the time axis (default 1e-8)")
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
        if ns.workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {ns.workers}")
        _DISPATCH[ns.subcommand](ns)
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (NonConvergedError, OutOfValidityError, DegeneracyError) as exc:
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
