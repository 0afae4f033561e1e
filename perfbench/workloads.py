"""Workload definitions and output checks for the starkladder benchmark.

A workload is a list of CLI calls whose inputs come from the seed.  Seed 0
is the canonical seed: it runs the nominal inputs, and every output is
compared against ``references.json``.  Any other seed shifts each call's
1/F window (or ramp end) by a uniform draw in [-0.05, 0.05]; the outputs
are then checked against the answers that do not depend on the seed (the
crossing location and gap, the continuum bands) and against invariants
(ladder spacing 2F, E -> -E symmetry at delta = 0, unit row norm of the
transfer density, populations inside [0, 1]).

The shift leaves every monodromy and split-step step count where the
nominal inputs put it and moves chain sizes by under 1%, so the work of a
call hardly moves with the seed; the timing spread between seeds is
machine noise.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).resolve().parent / "references.json"
CANONICAL_SEED = 0
JITTER = 0.05


@dataclass(frozen=True)
class Call:
    """One CLI invocation: the check that applies to it, subcommand and flags."""

    key: str
    subcommand: str
    args: tuple[str, ...]

    def argv(self, out: Path, workers: int) -> list[str]:
        return [self.subcommand, *self.args, "--out", str(out),
                "--workers", str(workers)]

    def flag(self, name: str) -> str:
        return self.args[self.args.index(name) + 1]


def _sweep(lo: float, hi: float, count: int, shift: float) -> str:
    return f"{lo + shift!r}:{hi + shift!r}:{count}"


def _crossings(rng) -> list[Call]:
    return [
        # the crossing the transfer ramp passes through
        Call("crossing_a", "crossings",
             ("--j1", "1", "--j2", "0.6", "--delta", "0",
              "--inv-f", _sweep(8.9, 9.3, 100, rng()))),
        Call("crossing_b", "crossings",
             ("--j1", "0.76", "--j2", "0.76", "--delta", "0.4",
              "--inv-f", _sweep(3.0, 3.3, 100, rng()))),
        # "--n-range -3:3" would be read as a flag by argparse
        Call("floquet", "spectrum",
             ("--method", "floquet", "--j1", "1", "--j2", "0.6",
              "--inv-f", _sweep(8.5, 9.5, 8, rng()), "--n-range=-3:3")),
    ]


def _transfer(rng) -> list[Call]:
    return [
        Call("transfer", "transfer",
             ("--j1", "1", "--j2", "0.6",
              "--inv-f-start", repr(9.4 + rng()), "--inv-f-stop", repr(8.7 + rng()),
              "--periods", "1", "--n-sites", "384", "--samples", "33",
              "--tol", "1e-6")),
    ]


def _eigensweep(rng) -> list[Call]:
    return [
        Call("truncated", "spectrum",
             ("--method", "truncated", "--j1", "1", "--j2", "0.6",
              "--inv-f", _sweep(8.5, 9.5, 12, rng()))),
        Call("resonances", "resonances",
             ("--j1", "0.76", "--j2", "0.76", "--delta", "0.4",
              "--inv-f", _sweep(3.0, 3.3, 48, rng()))),
        Call("continuum", "continuum-bands",
             ("--v0", "-0.117", "--v1", "-0.15", "--v2", "0.3",
              "--k-points", "24", "--n-bands", "2")),
    ]


WORKLOADS = {"crossings": _crossings, "transfer": _transfer,
             "eigensweep": _eigensweep}

# one tiny call per layer each workload uses, run by the set-up probe
WARMUPS = {
    "crossings": [
        ("crossings", "--j1", "1", "--j2", "0.6", "--inv-f", "0.5:0.6:100"),
        ("spectrum", "--method", "floquet", "--j1", "1", "--j2", "0.6", "--f", "2",
         "--n-range=-1:1"),
    ],
    "transfer": [
        ("transfer", "--j1", "1", "--j2", "0.6", "--inv-f-start", "2",
         "--inv-f-stop", "1.9", "--periods", "0.1", "--n-sites", "96",
         "--sigma-cells", "3", "--samples", "3", "--tol", "1e-4"),
    ],
    "eigensweep": [
        ("spectrum", "--method", "truncated", "--j1", "1", "--j2", "0.6", "--f", "1"),
        ("resonances", "--j1", "0.76", "--j2", "0.76", "--delta", "0.4",
         "--inv-f", "1:1.1:2", "--periods", "2", "--kappa-grid", "2"),
        ("continuum-bands", "--v0", "-0.117", "--v1", "-0.15", "--v2", "0.3",
         "--k-points", "2", "--cutoff", "21", "--n-bands", "2"),
    ],
}


def calls_for(workload: str, seed: int) -> list[Call]:
    """The workload's calls with inputs drawn from ``seed``."""
    if seed == CANONICAL_SEED:
        return WORKLOADS[workload](lambda: 0.0)
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](lambda: rng.uniform(-JITTER, JITTER))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """Achieved error of one correctness check against its tolerance."""

    name: str
    err: float
    tol: float

    @property
    def ok(self) -> bool:
        return bool(self.err <= self.tol)


def read_csv(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _floats(values) -> np.ndarray:
    return np.array([float(v) for v in values])


def _sweep_points(call: Call) -> np.ndarray:
    lo, hi, count = call.flag("--inv-f").split(":")
    return np.linspace(float(lo), float(hi), int(count))


def _circular(x, width):
    """Distance of x from 0 on a circle of circumference ``width``."""
    return np.abs(x - width * np.round(x / width))


def _count(name: str, got: int, want: int) -> Check:
    return Check(f"{name}.count", float(abs(got - want)), 0.0)


def _ladder_errors(z: float, energies, branches, indices) -> tuple[float, float]:
    """Deviation from spacing 2F within each branch, and from E -> -E symmetry
    modulo 2F (exact at delta = 0)."""
    f = 1.0 / z
    spacing = 0.0
    for b in ("plus", "minus"):
        sel = branches == b
        order = np.argsort(indices[sel])
        e, n = energies[sel][order], indices[sel][order]
        step = np.diff(n) == 1
        if step.any():
            spacing = max(spacing, float(np.max(np.abs(np.diff(e)[step] - 2.0 * f))))
    mirror = max(float(np.min(_circular(e + energies, 2.0 * f))) for e in energies)
    return spacing, mirror


def _check_crossing(call, out, ref, canonical):
    table = read_csv(out)
    checks = [_count("rows", len(table["inv_f_star"]), 1)]
    if len(table["inv_f_star"]) == 1:
        z, gap = float(table["inv_f_star"][0]), float(table["gap"][0])
        checks += [
            # golden-section refinement stops at a bracket of 1e-6 * z
            Check("z_star", abs(z - ref["inv_f_star"]) / ref["inv_f_star"], 1e-6),
            Check("gap", abs(gap - ref["gap"]) / ref["gap"], 1e-8),
            Check("branch_pair", float(table["branch_pair"][0] != "minus-plus"), 0.0),
        ]
    return checks


def _check_ladder_csv(call, out, ref, canonical, spacing_tol, ref_tol):
    table = read_csv(out)
    z_all = _floats(table["inv_f"])
    energy = _floats(table["energy"])
    scaled = _floats(table["scaled_energy"])
    branch = np.array(table["branch"])
    index = np.array([int(v) for v in table["n"]])
    points = _sweep_points(call)
    fields = np.unique(z_all)
    sweep_order = (fields.size == points.size and bool(np.all(fields == points))
                   and bool(np.all(np.diff(z_all) >= 0)))
    checks = [Check("inv_f", float(not sweep_order), 0.0),
              Check("scaled", float(np.max(np.abs(scaled - energy * z_all))), 1e-12)]
    if not sweep_order:
        return checks
    errors = [_ladder_errors(z, energy[z_all == z], branch[z_all == z], index[z_all == z])
              for z in points]
    spacing = max(e[0] for e in errors)
    symmetry = max(e[1] for e in errors)
    checks += [Check("spacing", spacing, spacing_tol),
               Check("symmetry", symmetry, spacing_tol)]
    if canonical:
        want = ref["levels"]
        got = [[float(e), b, int(n)] for e, b, n in zip(energy, branch, index)]
        checks.append(_count("levels", len(got), len(want)))
        if len(got) == len(want):
            checks.append(Check("labels", float(sum(
                g[1:] != w[1:] for g, w in zip(got, want))), 0.0))
            checks.append(Check("energy", max(
                abs(g[0] - w[0]) for g, w in zip(got, want)), ref_tol))
    return checks


def _check_floquet(call, out, ref, canonical):
    n_range = next(a for a in call.args if a.startswith("--n-range="))
    n_lo, n_hi = (int(v) for v in n_range.split("=", 1)[1].split(":"))
    checks = _check_ladder_csv(call, out, ref, canonical,
                               spacing_tol=1e-12, ref_tol=1e-9)
    rows = len(read_csv(out)["inv_f"])
    want = 2 * (n_hi - n_lo + 1) * _sweep_points(call).size
    return [_count("rows", rows, want)] + checks


def _check_truncated(call, out, ref, canonical):
    # levels are converged to 1e-10 against a 1.25x chain
    return _check_ladder_csv(call, out, ref, canonical,
                             spacing_tol=1e-8, ref_tol=1e-9)


def _check_transfer(call, out, ref, canonical):
    table = read_csv(out)
    obs = read_csv(out.with_name(out.stem + "_observables" + out.suffix))
    n_sites = int(call.flag("--n-sites"))
    samples = int(call.flag("--samples"))
    duration = float(call.flag("--periods")) * math.pi * float(call.flag("--inv-f-start"))
    checks = [_count("rows", len(table["density"]), samples * n_sites),
              _count("samples", len(obs["time"]), samples)]
    if len(table["density"]) != samples * n_sites or len(obs["time"]) != samples:
        return checks
    density = _floats(table["density"]).reshape(samples, n_sites)
    times = _floats(obs["time"])
    p_upper = _floats(obs["p_upper"])
    kappa = _floats(obs["mean_kappa"])
    checks += [
        Check("time", float(np.max(np.abs(times - np.linspace(0.0, duration, samples)))),
              1e-12 * duration),
        Check("row_norm", float(np.max(np.abs(density.sum(axis=1) - 1.0))), 1e-10),
        Check("p_upper_range", float(max(0.0, -p_upper.min(), p_upper.max() - 1.0)), 1e-12),
        Check("kappa_range", float(max(0.0, np.abs(kappa).max() - 0.5 * math.pi)), 1e-12),
    ]
    if canonical:
        x_mean = density @ np.arange(n_sites)
        checks += [
            Check("p_upper", float(np.max(np.abs(p_upper - ref["p_upper"]))), 1e-5),
            Check("mean_kappa", float(np.max(_circular(kappa - ref["mean_kappa"], math.pi))),
                  1e-5),
            Check("mean_site", float(np.max(np.abs(x_mean - ref["mean_site"]))), 1e-4),
            Check("final_density",
                  float(np.max(np.abs(density[-1] - ref["final_density"]))), 1e-6),
        ]
    return checks


def _check_resonances(call, out, ref, canonical):
    table = read_csv(out)
    points = _sweep_points(call)
    z = _floats(table["inv_f"])
    p = _floats(table["p_upper_mean"])
    checks = [_count("rows", z.size, points.size)]
    if z.size != points.size:
        return checks
    checks += [Check("inv_f", float(np.max(np.abs(z - points))), 0.0),
               Check("p_range", float(max(0.0, -p.min(), p.max() - 1.0)), 1e-10)]
    if canonical:
        checks.append(Check("p_upper_mean", float(np.max(np.abs(p - ref["p_upper_mean"]))),
                            1e-9))
    return checks


def _check_continuum(call, out, ref, canonical):
    table = read_csv(out)
    k = _floats(table["k"])
    energy = _floats(table["energy"])
    want = np.array(ref["energies"]).ravel()
    checks = [_count("rows", energy.size, want.size)]
    if energy.size != want.size:
        return checks
    return checks + [
        Check("k", float(np.max(np.abs(k - np.repeat(ref["k"], 2)))), 0.0),
        # the CLI declares a band converged when it moves < 1e-10 against
        # a basis five plane waves wider on each side
        Check("energy", float(np.max(np.abs(energy - want))), 1e-9),
    ]


CHECKERS = {"crossing_a": _check_crossing, "crossing_b": _check_crossing,
            "floquet": _check_floquet, "transfer": _check_transfer,
            "truncated": _check_truncated, "resonances": _check_resonances,
            "continuum": _check_continuum}


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def check_call(call: Call, out: Path, refs: dict, canonical: bool) -> list[Check]:
    """All checks of one call's outputs, prefixed with the call's key."""
    checks = CHECKERS[call.key](call, out, refs[call.key], canonical)
    return [Check(f"{call.key}.{c.name}", c.err, c.tol) for c in checks]
