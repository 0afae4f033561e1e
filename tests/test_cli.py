import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import starkladder
from starkladder.cli import build_parser, main

SUBCOMMANDS = ["bands", "spectrum", "crossings", "gap-estimate", "resonances",
               "transfer", "continuum-bands", "tb-fit"]


def run_cli(args):
    return main(args)


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_every_subcommand_has_help(sub, capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args([sub, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "--out" in out


def test_bands_schema_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["bands", "--j1", "1", "--j2", "0.6", "--delta", "0", "--points", "32"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    content = out1.read_bytes()
    assert content == out2.read_bytes()
    header = content.decode().splitlines()[0]
    assert header == "kappa,e_minus,e_plus"
    assert len(content.decode().splitlines()) == 33


def test_spectrum_sweep_worker_independence(tmp_path):
    base = ["spectrum", "--method", "floquet", "--j1", "1", "--j2", "0.6",
            "--delta", "0", "--inv-f", "0.5:2.5:5", "--n-range=-1:1"]
    out1 = tmp_path / "w1.csv"
    out2 = tmp_path / "w2.csv"
    assert run_cli(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert run_cli(base + ["--workers", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "inv_f,energy,scaled_energy,branch,n,method"
    assert len(lines) == 1 + 5 * 6  # 5 sweep points, 2 branches x 3 indices
    # row ordering: sweep key, then branch (plus before minus), then n
    first = lines[1].split(",")
    assert first[0] == "0.5" and first[3] == "plus" and first[4] == "-1"


def test_resonances_sweep_worker_independence(tmp_path):
    base = ["resonances", "--j1", "0.76", "--j2", "0.76", "--delta", "0.4",
            "--inv-f", "3.0:3.3:4", "--periods", "2", "--kappa-grid", "2"]
    out1 = tmp_path / "w1.csv"
    out2 = tmp_path / "w2.csv"
    assert run_cli(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert run_cli(base + ["--workers", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 5


def test_spectrum_single_field_truncated(tmp_path):
    out = tmp_path / "t.csv"
    code = run_cli(["spectrum", "--method", "truncated", "--j1", "0.76",
                    "--j2", "0.76", "--f", "0.5", "--window=-2:2",
                    "--n-range=-2:2", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    energies = sorted(float(r.split(",")[1]) for r in rows)
    steps = np.array(energies) / 0.5 - 0.5
    assert np.max(np.abs(steps - np.rint(steps))) < 1e-9


@pytest.mark.parametrize("method,default", [("expansion", "3"), ("adiabatic", "1")])
def test_spectrum_without_order_uses_method_default(tmp_path, method, default):
    base = ["spectrum", "--method", method, "--j1", "0.76", "--j2", "0.76",
            "--delta", "0.2", "--f", "0.5", "--n-range=-1:1", "--workers", "1"]
    implicit = tmp_path / "implicit.csv"
    explicit = tmp_path / "explicit.csv"
    assert run_cli(base + ["--out", str(implicit)]) == 0
    assert run_cli(base + ["--order", default, "--out", str(explicit)]) == 0
    assert implicit.read_bytes() == explicit.read_bytes()


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("j1 = 1.0\nj2 = 0.9  # overridden below\ndelta = 0.0\n"
                      "points = 16\n")
    out = tmp_path / "c.csv"
    code = run_cli(["bands", "--config", str(config), "--j2", "0.6",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 17
    # kappa = 0 row shows e_plus = j1 + j2 = 1.6, so the flag won
    center = [line for line in lines if line.startswith("0,")][0]
    assert float(center.split(",")[2]) == pytest.approx(1.6, abs=1e-12)


def test_truncated_spectrum_with_an_empty_window_writes_only_the_header(tmp_path):
    out = tmp_path / "empty.csv"
    code = run_cli(["spectrum", "--method", "truncated", "--j1", "1", "--j2", "0.6",
                    "--f", "0.3", "--window=0.05:0.06", "--out", str(out)])
    assert code == 0
    assert out.read_text() == "inv_f,energy,scaled_energy,branch,n,method\n"


def test_crossings_csv(tmp_path):
    out = tmp_path / "cross.csv"
    code = run_cli(["crossings", "--j1", "0.76", "--j2", "0.76", "--delta", "0.4",
                    "--inv-f", "2.9:3.4:100", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "inv_f_star,gap,branch_pair"
    assert len(lines) == 2
    z_star = float(lines[1].split(",")[0])
    assert abs(z_star - 3.158) < 0.02


def test_gap_estimate_csv(tmp_path):
    out = tmp_path / "gap.csv"
    code = run_cli(["gap-estimate", "--j1", "1", "--j2", "0.6", "--delta", "0",
                    "--inv-f", "8:10:5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "inv_f,gap,theta0"
    assert len(lines) == 6


def test_resonances_csv(tmp_path):
    out = tmp_path / "res.csv"
    code = run_cli(["resonances", "--j1", "0.76", "--j2", "0.76", "--delta", "0.4",
                    "--inv-f", "3.0:3.3:3", "--periods", "10",
                    "--kappa-grid", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "inv_f,p_upper_mean"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(values) == 3
    assert all(0 <= v <= 1 for v in values)


def test_transfer_writes_trajectory_and_observables(tmp_path):
    out = tmp_path / "traj.csv"
    code = run_cli(["transfer", "--j1", "1", "--j2", "0.6", "--delta", "0",
                    "--periods", "3", "--n-sites", "384", "--samples", "5",
                    "--tol", "1e-6", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "time,site,density"
    assert len(lines) == 1 + 5 * 384
    companion = tmp_path / "traj_observables.csv"
    obs = companion.read_text().splitlines()
    assert obs[0] == "time,mean_kappa,p_upper"
    assert len(obs) == 6


def test_continuum_bands_and_fit(tmp_path):
    out = tmp_path / "cb.csv"
    code = run_cli(["continuum-bands", "--v0", "-0.117", "--v1", "-0.15",
                    "--v2", "0.3", "--k-points", "8", "--n-bands", "3",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,band_index,energy"
    assert len(lines) == 1 + 8 * 3

    fit_out = tmp_path / "fit.csv"
    code = run_cli(["tb-fit", "--v0", "-0.117", "--v1", "-0.15", "--v2", "0.3",
                    "--k-points", "32", "--out", str(fit_out)])
    assert code == 0
    rows = fit_out.read_text().splitlines()
    assert rows[0] == "j1,j2,delta,offset,residual"
    j1, j2, delta, _, _ = map(float, rows[1].split(","))
    assert j2 < j1 and delta < 1e-6


@pytest.mark.parametrize("n_bands", ["25", "0"])
def test_continuum_bands_rejects_n_bands_outside_cutoff(tmp_path, capsys, n_bands):
    code = run_cli(["continuum-bands", "--v1", "-0.15", "--v2", "0.3",
                    "--cutoff", "21", "--n-bands", n_bands,
                    "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "--n-bands" in err and "--cutoff" in err


def test_exit_code_config_error(tmp_path, capsys):
    code = run_cli(["spectrum", "--method", "floquet", "--j1", "1", "--j2", "0.6",
                    "--inv-f", "9:8:10", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: config:")


@pytest.mark.parametrize("args,flag", [
    (["spectrum", "--method", "floquet", "--f", "0"], "--f"),
    (["transfer", "--inv-f-start", "0"], "--inv-f-start"),
    (["transfer", "--inv-f-stop", "0"], "--inv-f-stop"),
    (["resonances", "--inv-f", "3.0:3.3:3", "--kappa-grid", "0"], "--kappa-grid"),
    (["transfer", "--tol", "0"], "--tol"),
    (["transfer", "--tol=-1e-6"], "--tol"),
    (["transfer", "--tol", "nan"], "--tol"),
    (["transfer", "--periods", "nan"], "--periods"),
    (["transfer", "--periods", "inf"], "--periods"),
    (["transfer", "--sigma-cells", "0"], "--sigma-cells"),
    (["resonances", "--inv-f", "3.0:3.3:3", "--periods=-2"], "--periods"),
    (["resonances", "--inv-f", "3.0:3.3:3", "--periods", "0"], "--periods"),
    (["resonances", "--inv-f", "3.0:3.3:3", "--periods", "nan"], "--periods"),
    (["resonances", "--inv-f", "3.0:3.3:3", "--periods", "inf"], "--periods"),
    (["resonances", "--inv-f", "3.0:3.3:3", "--sigma-cells", "0"], "--sigma-cells"),
])
def test_flags_that_divide_must_be_positive(tmp_path, capsys, args, flag):
    code = run_cli(args + ["--j1", "1", "--j2", "0.6", "--delta", "0.2",
                           "--workers", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("window", ["1", "a:b", "2:-2", "nan:nan"])
def test_malformed_window_names_the_flag(tmp_path, capsys, window):
    code = run_cli(["spectrum", "--method", "truncated", "--j1", "1", "--j2", "0.6",
                    "--f", "0.5", "--window", window, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "--window" in capsys.readouterr().err


def test_adiabatic_at_band_touching_is_numerical_error(tmp_path, capsys):
    code = run_cli(["spectrum", "--method", "adiabatic", "--j1", "0.76", "--j2", "0.76",
                    "--f", "0.1", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: numerical:")


def test_adiabatic_near_band_touching_raises_no_warning(tmp_path):
    # warnings are errors here, so a quadrature warning would fail the run;
    # at F = 1e-7 the F^2 correction |D| F^2 = 2.7e-8 is below F/2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(starkladder.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "starkladder.cli", "spectrum",
         "--method", "adiabatic", "--order", "2", "--j1", "1", "--j2", "0.9999",
         "--f", "1e-7", "--workers", "1", "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr


def test_adiabatic_second_order_beyond_validity_is_numerical_error(tmp_path, capsys):
    # near band touching D ~ 2.7e6, so at F = 0.1 the correction dwarfs the spacing
    code = run_cli(["spectrum", "--method", "adiabatic", "--order", "2", "--j1", "1",
                    "--j2", "0.9999", "--f", "0.1", "--workers", "1",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: numerical:")


def test_exit_code_requires_one_field_spec(tmp_path, capsys):
    code = run_cli(["spectrum", "--method", "floquet", "--j1", "1", "--j2", "0.6",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_exit_code_edge_contamination(tmp_path, capsys):
    code = run_cli(["resonances", "--j1", "0.76", "--j2", "0.76", "--delta", "0.4",
                    "--inv-f", "3.0:3.2:2", "--n-sites", "64", "--workers", "1",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: edge-contamination:")


def test_exit_code_numerical(tmp_path, capsys):
    # a window beyond the tilt span of the chain is a config error (2); an
    # unconverged truncated level is a numerical error (3): the levels at
    # -1.687 and 1.287 sit too close to the ends of a 48-site chain
    truncated = ["spectrum", "--method", "truncated", "--j1", "1", "--j2", "0.6",
                 "--out", str(tmp_path / "x.csv")]
    assert run_cli(truncated + ["--f", "0.05", "--n-sites", "96", "--window=-0.4:0.4"]) == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert run_cli(truncated + ["--f", "0.2", "--n-sites", "48", "--window=-1.69:1.29"]) == 3
    assert capsys.readouterr().err.startswith("error: numerical:")


def test_unreachable_transfer_tolerance_fails_fast(tmp_path, capsys):
    # below the roundoff floor the step doubling stops with exit 3
    # instead of refining without end
    code = run_cli(["transfer", "--j1", "1", "--j2", "0.6", "--inv-f-start", "2",
                    "--inv-f-stop", "1.9", "--periods", "0.1", "--n-sites", "96",
                    "--sigma-cells", "3", "--samples", "3", "--tol", "1e-300",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical:") and "tol = 1e-300" in err


def test_crossing_sweep_below_100_samples_names_the_flag(tmp_path, capsys):
    code = run_cli(["crossings", "--j1", "1", "--j2", "0.6", "--inv-f", "8.9:9.3:99",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "--inv-f" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["bands", "--j1", "1", "--j2", "0.6"],
    ["crossings", "--j1", "1", "--j2", "0.6", "--inv-f", "8.9:9.3:100"],
])
def test_workers_below_one_rejected_for_every_subcommand(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    assert run_cli(args + ["--workers", "0", "--out", str(out)]) == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()
