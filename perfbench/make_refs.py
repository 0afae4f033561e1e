"""Regenerate ``references.json``: the answer to every benchmark call at the
canonical seed, computed at a tighter tolerance than the CLI call uses and
confirmed by a second method wherever one exists.  Each entry records where
it came from and what the confirmation found.

    python3 perfbench/make_refs.py     # about five minutes on one core

The second methods are independent of the code path the CLI takes:
truncated-chain levels come from scipy's ``eigvalsh_tridiagonal`` (not the
package's Sturm bisection) and are compared with Floquet offsets plus 2Fn;
continuum bands come from ``numpy.linalg.eigvalsh`` on a wider plane-wave
basis (not the package's Jacobi solver).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.linalg import eigvalsh_tridiagonal  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from starkladder import (LatticeParams, bloch_transfer_experiment,  # noqa: E402
                         build_chain, floquet_branch_offsets, mean_upper_population,
                         monodromy, ws_spectrum_floquet)
from starkladder.spectra_exact import default_chain_size  # noqa: E402

from workloads import CANONICAL_SEED, REFERENCES, calls_for  # noqa: E402

TIGHT = 1e-13  # monodromy entry tolerance; the CLI uses 1e-11
NAMES = {1: "plus", -1: "minus"}


def lattice(call, f=0.0) -> LatticeParams:
    return LatticeParams(float(call.flag("--j1")), float(call.flag("--j2")),
                         float(call.flag("--delta")) if "--delta" in call.args else 0.0, f)


def sweep(call) -> np.ndarray:
    lo, hi, count = call.flag("--inv-f").split(":")
    return np.linspace(float(lo), float(hi), int(count))


def gap(params, z, tol=TIGHT) -> float:
    p = params.with_field(1.0 / z)
    phi = monodromy(p, tol=tol).eigenphase
    return 2.0 * p.f / math.pi * min(phi, math.pi - phi)


def chain_levels(p: LatticeParams, window, n_sites: int) -> np.ndarray:
    chain = build_chain(p, n_sites)
    return eigvalsh_tridiagonal(chain.diagonal, chain.off_diagonal,
                                select="v", select_range=window)


def circular(x, width):
    return np.abs(x - width * np.round(x / width))


def chain_gap(p: LatticeParams) -> float:
    """Minimal splitting of the two ladders from truncated-chain levels."""
    f = p.f
    levels = chain_levels(p, (-4.0 * f, 4.0 * f), 2 * default_chain_size(p))
    folded = levels - 2.0 * f * np.round(levels / (2.0 * f))
    first = circular(folded - folded[0], 2.0 * f) < 1e-6 * f
    a, b = folded[first][0], folded[~first][0]
    d = float(circular(a - b, 2.0 * f))
    return min(d, 2.0 * f - d)


def crossing(call) -> dict:
    params = lattice(call)
    z = np.linspace(*sweep(call)[[0, -1]], 41)
    coarse = [gap(params, v, tol=1e-11) for v in z]
    i = int(np.argmin(coarse))
    a, b = z[i - 1], z[i + 1]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - inv_phi * (b - a), a + inv_phi * (b - a)
    g1, g2 = gap(params, x1), gap(params, x2)
    while b - a > 1e-9 * z[i]:
        if g1 < g2:
            b, x2, g2 = x2, x1, g1
            x1 = b - inv_phi * (b - a)
            g1 = gap(params, x1)
        else:
            a, x1, g1 = x1, x2, g2
            x2 = a + inv_phi * (b - a)
            g2 = gap(params, x2)
    z_star = 0.5 * (a + b)
    g = gap(params, z_star)
    g_chain = chain_gap(params.with_field(1.0 / z_star))
    return {
        "inv_f_star": z_star, "gap": g,
        "source": f"golden section on the monodromy gap, entries to {TIGHT:g}, "
                  "bracket to 1e-9 * z",
        "confirm": {"method": "min ladder splitting of a 2x default truncated chain "
                              "(scipy eigvalsh_tridiagonal)",
                    "gap": g_chain, "abs_diff": abs(g_chain - g)},
    }


def ordered_rows(energies, branches, indices) -> list:
    order = np.lexsort((indices, -branches))  # the CLI's row order per field
    return [[float(energies[k]), NAMES[int(branches[k])], int(indices[k])] for k in order]


def floquet(call) -> dict:
    params = lattice(call)
    levels, worst = [], 0.0
    for z in sweep(call):
        p = params.with_field(1.0 / z)
        spec = ws_spectrum_floquet(p, range(-3, 4), tol=TIGHT)
        levels += ordered_rows(spec.energies, spec.branches, spec.indices)
        top = float(np.max(np.abs(spec.energies))) + p.f
        chain = chain_levels(p, (-top, top), 2 * default_chain_size(p))
        worst = max(worst, max(float(np.min(np.abs(chain - e))) for e in spec.energies))
    return {"levels": levels,
            "source": f"ws_spectrum_floquet with monodromy entries to {TIGHT:g}",
            "confirm": {"method": "nearest level of a 2x default truncated chain "
                                  "(scipy eigvalsh_tridiagonal)",
                        "max_abs_diff": worst}}


def truncated(call) -> dict:
    params = lattice(call)
    band_edge = math.sqrt(params.delta ** 2 + (params.j1 + params.j2) ** 2)
    levels, worst = [], 0.0
    for z in sweep(call):
        p = params.with_field(1.0 / z)
        window = (-(4.0 * p.f + band_edge), 4.0 * p.f + band_edge)
        eigs = chain_levels(p, window, 2 * default_chain_size(p))
        o_minus, o_plus = floquet_branch_offsets(p, monodromy(p, tol=TIGHT).eigenphase)
        d_plus = circular(eigs - o_plus, 2.0 * p.f)
        d_minus = circular(eigs - o_minus, 2.0 * p.f)
        branches = np.where(d_plus <= d_minus, 1, -1)
        offsets = np.where(branches == 1, o_plus, o_minus)
        indices = np.rint((eigs - offsets) / (2.0 * p.f)).astype(int)
        worst = max(worst, float(np.max(np.abs(eigs - offsets - 2.0 * p.f * indices))))
        levels += ordered_rows(eigs, branches, indices)
    return {"levels": levels,
            "source": "scipy eigvalsh_tridiagonal on a 2x default chain in the CLI's "
                      f"window; labels from Floquet offsets, entries to {TIGHT:g}",
            "confirm": {"method": "levels against Floquet offsets plus 2Fn",
                        "max_abs_diff": worst}}


def resonances(call) -> dict:
    params = lattice(call)
    z = sweep(call)
    values = [mean_upper_population(params, 1.0 / v, n_time_samples=0).p_upper_mean
              for v in z]
    mid = float(z[z.size // 2])
    trace = mean_upper_population(params, 1.0 / mid, n_time_samples=4097)
    sampled = float(np.trapezoid(trace.p_upper, trace.times) / trace.times[-1])
    big = mean_upper_population(params, 1.0 / mid, n_sites=1024, n_time_samples=0)
    return {"p_upper_mean": values,
            "source": "mean_upper_population, closed-form window average in the "
                      "chain eigenbasis (exact for the chain; no step tolerance)",
            "confirm": {"method": f"trapezoid average of the explicit time trace "
                                  f"(4097 samples) at 1/F = {mid!r}",
                        "abs_diff": abs(sampled - values[z.size // 2]),
                        "chain_1024_abs_diff": abs(big.p_upper_mean - values[z.size // 2])}}


def plane_wave_bands(k: float, cutoff: int, v0, v1, v2) -> np.ndarray:
    """Lowest two bands from numpy's Hermitian eigensolver; the kinetic
    prefactor 1/(16 pi^2) is the package's short-lattice recoil unit."""
    m = np.arange(-(cutoff // 2), cutoff // 2 + 1)
    h = np.diag((k + 2.0 * np.pi * m) ** 2 / (16.0 * np.pi ** 2) + v0).astype(complex)
    h += np.diag(np.full(cutoff - 1, 0.5 * v1), 1) + np.diag(np.full(cutoff - 1, 0.5 * v1), -1)
    h += np.diag(np.full(cutoff - 2, 0.5 * v2), 2) + np.diag(np.full(cutoff - 2, 0.5 * v2), -2)
    return np.linalg.eigvalsh(h)[:2]


def continuum(call) -> dict:
    pot = [float(call.flag(f"--v{i}")) for i in range(3)]
    ks = np.linspace(-np.pi, np.pi, int(call.flag("--k-points")), endpoint=False)
    bands = np.array([plane_wave_bands(k, 61, *pot) for k in ks])
    wider = np.array([plane_wave_bands(k, 81, *pot) for k in ks])
    return {"k": ks.tolist(), "energies": bands.tolist(),
            "source": "numpy.linalg.eigvalsh, 61 plane waves (the CLI uses 41)",
            "confirm": {"method": "81 plane waves",
                        "max_abs_diff": float(np.max(np.abs(wider - bands)))}}


def transfer(call) -> dict:
    start, stop = float(call.flag("--inv-f-start")), float(call.flag("--inv-f-stop"))
    kwargs = dict(inv_f_start=start, inv_f_stop=stop,
                  duration=float(call.flag("--periods")) * math.pi * start,
                  packet_sigma=10.0, n_sites=int(call.flag("--n-sites")),
                  n_samples=int(call.flag("--samples")))
    params = lattice(call, f=1.0 / start)
    ref = bloch_transfer_experiment(params, tol=1e-8, **kwargs)
    check = bloch_transfer_experiment(params, tol=1e-9, **kwargs)
    sites = np.arange(ref.density.shape[1])
    return {
        "p_upper": ref.p_upper.tolist(), "mean_kappa": ref.mean_kappa.tolist(),
        "mean_site": (ref.density @ sites).tolist(),
        "final_density": ref.density[-1].tolist(),
        "source": "bloch_transfer_experiment, split-step tol 1e-8 (the CLI uses 1e-6)",
        "confirm": {"method": "same run at tol 1e-9 (no second method exists for a "
                              "ramped field)",
                    "p_upper_max_abs_diff": float(np.max(np.abs(check.p_upper - ref.p_upper))),
                    "density_max_abs_diff": float(np.max(np.abs(check.density - ref.density)))},
    }


MAKERS = {"crossing_a": crossing, "crossing_b": crossing, "floquet": floquet,
            "truncated": truncated, "resonances": resonances, "continuum": continuum,
            "transfer": transfer}


def main() -> None:
    refs = {"canonical_seed": CANONICAL_SEED}
    for workload in ("crossings", "transfer", "eigensweep"):
        for call in calls_for(workload, CANONICAL_SEED):
            refs[call.key] = {"argv": [call.subcommand, *call.args],
                              **MAKERS[call.key](call)}
            print(call.key, json.dumps(refs[call.key].get("confirm")), flush=True)
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
