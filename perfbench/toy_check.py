"""Toy-size tests of the benchmark itself; a few seconds in total.

The file name keeps them out of the repository's own test run (pytest
collects ``test_*.py``), which must never start the full workloads.  Run
from the repository root:

    python3 -m pytest perfbench/toy_check.py
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CLI = run.import_cli()
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TOY = [workloads.Call("resonances", "resonances",
                      ("--j1", "0.76", "--j2", "0.76", "--delta", "0.4",
                       "--inv-f", "1:1.1:2", "--periods", "2", "--kappa-grid", "2"))]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(workload):
    assert workloads.calls_for(workload, 7) == workloads.calls_for(workload, 7)
    assert workloads.calls_for(workload, 7) != workloads.calls_for(workload, 8)
    canonical = workloads.calls_for(workload, workloads.CANONICAL_SEED)
    refs = workloads.load_references()
    for call in canonical:
        assert refs[call.key]["argv"] == [call.subcommand, *call.args]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_call_parses(workload, tmp_path):
    parser = CLI.build_parser()
    for call in workloads.calls_for(workload, 3):
        parser.parse_args(call.argv(tmp_path / "x.csv", 2))
    for args in workloads.WARMUPS[workload]:
        parser.parse_args([*args, "--out", "x.csv"])


def test_ladder_errors_see_a_broken_spacing():
    z = 4.0
    e = [0.1 + 0.5 * n for n in range(-2, 3)] + [-0.1 + 0.5 * n for n in range(-2, 3)]
    branches = ["plus"] * 5 + ["minus"] * 5
    n = list(range(-2, 3)) * 2
    spacing, mirror = workloads._ladder_errors(z, np.array(e), np.array(branches),
                                               np.array(n))
    assert spacing < 1e-15 and mirror < 1e-15
    e[1] += 1e-3
    spacing, mirror = workloads._ladder_errors(z, np.array(e), np.array(branches),
                                               np.array(n))
    assert spacing == pytest.approx(1e-3) and mirror == pytest.approx(1e-3)


def test_tracer_records_self_time_counts_and_restores():
    from starkladder import spectra_exact
    from starkladder.model import LatticeParams

    original = spectra_exact.monodromy
    with Tracer() as tracer:
        assert spectra_exact.monodromy is not original
        spectra_exact.ws_spectrum_truncated(LatticeParams(1.0, 0.6, 0.0, 1.0))
    assert spectra_exact.monodromy is original
    stats = tracer.layer_stats()
    mono = stats["spectra_exact.monodromy"]
    assert mono["calls"] == 1 and mono["steps"] >= 256
    assert stats["model.build_chain"]["calls"] == 2
    assert stats["spectra_exact.eigenvalues_symmetric_tridiagonal"]["calls"] == 2
    outer = stats["spectra_exact.ws_spectrum_truncated"]
    inner = sum(s["total_s"] for k, s in stats.items()
                if k != "spectra_exact.ws_spectrum_truncated" and s["calls"])
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner)


def test_tracer_skips_layers_the_package_no_longer_has(monkeypatch):
    import tracer

    monkeypatch.setitem(tracer.LAYERS, "gone.module", ("no_such_module", "f", None))
    monkeypatch.setitem(tracer.LAYERS, "gone.method", ("model", "NoClass.apply", None))
    with Tracer() as t:
        pass
    assert t.layer_stats()["gone.module"]["calls"] == 0


def test_failed_calls_are_counted_not_dropped(tmp_path):
    bad = workloads.Call("floquet", "spectrum",
                         ("--method", "floquet", "--j1", "1", "--j2", "0.6",
                          "--inv-f", "1:2:2", "--n-range", "-3:3"))
    result = run.run_pass(CLI, [bad], tmp_path, 1,
                          workloads.load_references(), canonical=False)
    assert result.calls[0].code == 2 and result.calls[0].failed


def test_per_layer_metrics_match_benchmark_json(tmp_path):
    _, metrics, _ = run.per_layer(CLI, "eigensweep", TOY, tmp_path,
                                  workloads.load_references(), canonical=False)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["dynamics.mean_upper_population.calls"]["value"] == 2
    assert metrics["dynamics.mean_upper_population.chain_sites"]["value"] >= 2 * 256
    assert metrics["spectra_exact.monodromy.calls"]["value"] == 0
    assert metrics["check.resonances.err"]["value"] == 0.0


def test_end_to_end_metrics_match_benchmark_json(tmp_path):
    args = argparse.Namespace(workload="eigensweep", seconds=0.0)
    _, metrics, info = run.end_to_end(CLI, args, TOY, tmp_path, 1,
                                      workloads.load_references(), canonical=False)
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    assert metrics["ok_frac"]["value"] == 1.0
    assert info["samples"]["wall_s"] == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crossings", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
