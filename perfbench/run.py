"""Benchmark of the starkladder CLI on the paper's three figure computations.

Run from the repository root:

    python3 perfbench/run.py --workload crossings --seed 1 --seconds 36 --trace 0

Workloads (see ``workloads.py``):

* ``crossings``  - two avoided-crossing searches and a pooled Floquet ladder
  sweep: the monodromy layer and nothing else.
* ``transfer``   - one ramped Bloch-oscillation transfer run: the split-step
  propagator, then CSV writing.
* ``eigensweep`` - pooled truncated-chain ladders, resonance populations and
  continuum bands: the Sturm, eigenbasis and Jacobi layers.

Each CLI call runs in this process through ``starkladder.cli.main``, exactly
as a user regenerates a figure's CSV, and its output is checked afterwards
(outside the timed region).  A call that raises, exits non-zero or misses
its reference counts as failed; it is never retried or dropped.

``--trace 0`` measures the end-to-end metrics: set-up probes, then whole
passes over the workload's calls until ``--seconds`` is used up (at least
one pass), reporting medians over passes.  ``--trace 1`` runs one untraced
and one traced pass on a single worker, so every span is recorded in this
process, and reports per-layer self time and work counts.

The last line of standard output is the result as JSON; the line before it
records the environment, each pass and each check.
"""

import os

# pinned before numpy is imported, here and in the pool workers
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 3
MAX_WORKERS = 2  # pooled sweeps use min(2, nproc), so bigger machines stay comparable

# per-layer metrics read from the tracer: layer -> ((key, unit), ...)
LAYER_METRICS = {
    "spectra_exact.monodromy": (("calls", "count"), ("self_s", "s"), ("steps", "count")),
    "spectra_exact.find_avoided_crossings": (("self_s", "s"), ("fields", "count")),
    "spectra_exact.ws_spectrum_floquet": (("self_s", "s"),),
    "spectra_exact.ws_spectrum_truncated": (("self_s", "s"),),
    "spectra_exact.eigenvalues_symmetric_tridiagonal": (
        ("calls", "count"), ("self_s", "s"), ("rows", "count"), ("levels", "count")),
    "dynamics.propagate": (("calls", "count"), ("self_s", "s"), ("site_time", "site-time")),
    "dynamics.bloch_transfer_experiment": (("self_s", "s"),),
    "dynamics.mean_quasimomentum": (("self_s", "s"),),
    "dynamics.band_projectors": (("self_s", "s"),),
    "dynamics.BandProjector.apply": (("calls", "count"), ("self_s", "s")),
    "dynamics.lower_band_state": (("self_s", "s"),),
    "dynamics.mean_upper_population": (("calls", "count"), ("self_s", "s")),
    "dynamics.eigh_tridiagonal": (("self_s", "s"),),
    "continuum.hermitian_eigen_small": (("calls", "count"), ("self_s", "s"),
                                        ("n_cubed", "count")),
    "continuum.continuum_bloch_bands": (("self_s", "s"),),
    "model.build_chain": (("calls", "count"), ("self_s", "s")),
    "cli.main": (("self_s", "s"),),
}


def import_cli():
    """starkladder.cli from this checkout's source tree, never from elsewhere."""
    package = SRC / "starkladder"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no starkladder package under {SRC}")
    sys.path.insert(0, str(SRC))
    from starkladder import cli
    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: starkladder was imported from {cli.__file__}")
    return cli


def environment(workers: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "workers": workers,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # without numba every _njit kernel runs as pure Python: runs that
        # differ here must not be compared
        "numba": importlib.util.find_spec("numba") is not None,
    }


def cpu_seconds() -> float:
    """User + system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class CallResult:
    call: workloads.Call
    wall_s: float
    code: int
    error: str
    csv_bytes: int = 0
    checks: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or not self.checks or not all(c.ok for c in self.checks)


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    calls: list


def invoke(cli, argv: list[str]) -> tuple[int, str]:
    """Exit code of one CLI call; an escaping exception is a failure too."""
    try:
        return cli.main(argv), ""
    except SystemExit as exc:  # argparse rejected the arguments
        return (exc.code if isinstance(exc.code, int) else 1), f"SystemExit({exc.code})"
    except Exception:  # noqa: BLE001 - the benchmark records and counts it
        return 1, traceback.format_exc()


def run_pass(cli, calls, out_dir: Path, workers: int, refs: dict,
             canonical: bool) -> PassResult:
    results = []
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for call in calls:
        out = out_dir / f"{call.key}.csv"
        for stale in out_dir.glob(f"{call.key}*"):
            stale.unlink()
        start = time.perf_counter()
        code, error = invoke(cli, call.argv(out, workers))
        results.append(CallResult(call, time.perf_counter() - start, code, error))
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    for result in results:
        call = result.call
        written = list(out_dir.glob(f"{call.key}*"))
        result.csv_bytes = sum(p.stat().st_size for p in written)
        if result.code != 0:
            continue
        try:
            result.checks = workloads.check_call(call, out_dir / f"{call.key}.csv",
                                                 refs, canonical)
        except Exception:  # noqa: BLE001 - unreadable output fails the call
            result.error = traceback.format_exc()
            result.checks = [workloads.Check(f"{call.key}.readable", 1.0, 0.0)]
    return PassResult(wall, cpu, results)


def probe_setup(workload: str, out_dir: Path) -> float:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(out_dir)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
    return elapsed


def warm_up(cli, workload: str, out_dir: Path) -> None:
    """Tiny in-process calls, so lazy imports and first-call costs, which
    ``setup_s`` measures, stay out of the timed passes."""
    for args in workloads.WARMUPS[workload]:
        invoke(cli, [*args, "--out", str(out_dir / "warmup.csv"), "--workers", "1"])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(cli, args, calls, out_dir, workers, refs, canonical):
    setup = [probe_setup(args.workload, out_dir) for _ in range(SETUP_PROBES)]
    warm_up(cli, args.workload, out_dir)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, calls, out_dir, workers, refs, canonical))
        if time.perf_counter() - start + passes[-1].wall_s > args.seconds:
            break
    results = [r for p in passes for r in p.calls]
    failed = sum(r.failed for r in results)
    metrics = {
        "wall_s": metric(statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": metric(statistics.median(p.cpu_s for p in passes), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "ok_frac": metric((len(results) - failed) / len(results), "fraction"),
    }
    info = {"samples": {"wall_s": len(passes), "cpu_s": len(passes),
                        "setup_s": len(setup), "peak_rss_mb": 1, "ok_frac": len(results)},
            "setup_s": setup}
    return passes, metrics, info


def check_ratio(results, key: str) -> float:
    """Largest achieved error of a call's checks, as a fraction of its tolerance."""
    ratios = [c.err / c.tol for r in results if r.call.key == key
              for c in r.checks if c.tol > 0]
    return max(ratios, default=0.0)


def per_layer(cli, workload, calls, out_dir, refs, canonical):
    warm_up(cli, workload, out_dir)
    untraced = run_pass(cli, calls, out_dir, 1, refs, canonical)
    with Tracer() as tracer:
        traced = run_pass(cli, calls, out_dir, 1, refs, canonical)
    stats = tracer.layer_stats()
    metrics = {}
    for layer, keys in LAYER_METRICS.items():
        for key, unit in keys:
            metrics[f"{layer}.{key}"] = metric(stats[layer].get(key, 0), unit)
    propagate = stats["dynamics.propagate"]
    metrics["dynamics.propagate.site_time_per_s"] = metric(
        propagate.get("site_time", 0) / propagate["total_s"] if propagate["calls"] else 0.0,
        "site-time/s")
    metrics["dynamics.mean_upper_population.chain_sites"] = metric(
        tracer.child_counts("dynamics.mean_upper_population", "model.build_chain", "sites"),
        "count")
    metrics["cli.csv_bytes"] = metric(sum(r.csv_bytes for r in traced.calls), "B")
    subcommands = {call.subcommand for name in workloads.WORKLOADS
                   for call in workloads.calls_for(name, workloads.CANONICAL_SEED)}
    for sub in sorted(subcommands):
        metrics[f"cli.{sub}.wall_s"] = metric(
            sum(r.wall_s for r in untraced.calls if r.call.subcommand == sub), "s")
    for key in workloads.CHECKERS:
        metrics[f"check.{key}.err"] = metric(check_ratio(traced.calls, key), "tol")
    metrics["trace.overhead_s"] = metric(traced.wall_s - untraced.wall_s, "s")
    info = {"untraced_wall_s": untraced.wall_s, "traced_wall_s": traced.wall_s}
    return [untraced, traced], metrics, info


def describe(passes) -> list:
    return [{"wall_s": p.wall_s, "cpu_s": p.cpu_s,
             "calls": [{"key": r.call.key, "wall_s": r.wall_s, "code": r.code,
                        "failed": r.failed, "error": r.error,
                        "checks": {c.name: [c.err, c.tol] for c in r.checks}}
                       for r in p.calls]}
            for p in passes]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    refs = workloads.load_references()
    calls = workloads.calls_for(args.workload, args.seed)
    canonical = args.seed == workloads.CANONICAL_SEED
    workers = min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    out_dir = SCRATCH / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            passes, metrics, info = per_layer(cli, args.workload, calls,
                                              out_dir, refs, canonical)
        else:
            passes, metrics, info = end_to_end(cli, args, calls, out_dir,
                                               workers, refs, canonical)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    results = [r for p in passes for r in p.calls]
    failed = sum(r.failed for r in results)
    info.update(workload=args.workload, seed=args.seed, canonical=canonical,
                environment=environment(1 if args.trace else workers),
                passes=describe(passes))
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
