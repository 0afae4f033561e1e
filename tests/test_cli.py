import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import starkladder
from starkladder import dynamics
from starkladder.cli import _BLOCK_ROWS, _write_csv, build_parser, main
from starkladder.model import LatticeParams

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


def test_floquet_sweep_integrates_every_field_in_one_batch(tmp_path, monkeypatch):
    from starkladder import spectra_exact

    batches, kernel = [], spectra_exact._period_propagators

    def record(params, fields, n_pieces, tol):
        batches.append(fields.size * n_pieces)
        return kernel(params, fields, n_pieces, tol)

    monkeypatch.setattr(spectra_exact, "_period_propagators", record)
    assert run_cli(["spectrum", "--method", "floquet", "--j1", "1", "--j2", "0.6",
                    "--inv-f", "8.5:9.5:8", "--n-range=-3:3",
                    "--out", str(tmp_path / "f.csv")]) == 0
    assert batches == [8]


def test_resonance_sweep_integrates_every_field_in_one_batch(tmp_path, monkeypatch):
    # every field's Bloch-period pieces are step-doubled in one batch: at 256
    # pieces the 8 fields resolve together, in one _period_propagators call
    from starkladder import dynamics

    batches, kernel = [], dynamics._period_propagators

    def record(params, fields, n_pieces, tol):
        batches.append(fields.size * n_pieces)
        return kernel(params, fields, n_pieces, tol)

    monkeypatch.setattr(dynamics, "_period_propagators", record)
    assert run_cli(["resonances", "--j1", "0.76", "--j2", "0.76", "--delta", "0.4",
                    "--inv-f", "3.0:3.3:8", "--out", str(tmp_path / "r.csv")]) == 0
    assert batches == [8 * 256]


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


@pytest.mark.parametrize("key,value,method", [("n_range", "-1:1", "floquet"),
                                              ("window", "-2:2", "truncated")])
def test_config_file_sets_negative_bounds(tmp_path, key, value, method):
    # the value must reach argparse glued to its flag, or "-1:1" reads as a flag
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    base = ["spectrum", "--method", method, "--j1", "1", "--j2", "0.6", "--f", "0.5",
            "--workers", "1", "--out"]
    from_file, from_flag, default = (tmp_path / f"{name}.csv"
                                     for name in ("file", "flag", "default"))
    assert run_cli(base + [str(from_file), "--config", str(config)]) == 0
    assert run_cli(base + [str(from_flag), f"--{key.replace('_', '-')}={value}"]) == 0
    assert run_cli(base + [str(default)]) == 0
    assert from_file.read_bytes() == from_flag.read_bytes() != default.read_bytes()


def test_write_csv_cells(tmp_path):
    out = tmp_path / "cells.csv"
    floats = [0.1, np.float64(1.0 / 3.0), -0.0, np.float64(-0.0), 5e-324, 2.5e17]
    _write_csv(str(out), {"a": ["plus"], "b": [3], "c": [np.int64(-2)],
                          **{name: [value] for name, value in zip("defghi", floats)}})
    header, line = out.read_text().splitlines()
    assert header == "a,b,c,d,e,f,g,h,i"
    assert line == ("plus,3,-2,0.10000000000000001,0.33333333333333331,-0,-0,"
                    "4.9406564584124654e-324,2.5e+17")
    for cell, value in zip(line.split(",")[3:], floats):
        assert float(cell) == value
        assert math.copysign(1.0, float(cell)) == math.copysign(1.0, value)


def test_write_csv_bytes_follow_the_per_column_rule(tmp_path):
    # a float column prints %.17g, whatever mix of float and np.float64 it
    # holds; int, bool and name columns print through str
    columns = {"x": [np.float64(0.1), 1.0 / 3.0, -0.0, np.float64(-0.0), 5e-324, 1e300, 2.5e17],
               "n": [np.int64(-7), 10**17 + 1, 0, 3, -1, np.int64(2), 7],
               "flag": [True, False, np.True_, False, True, False, True],
               "name": ["minus", "plus", "minus-plus", "a", "b", "c", "d"]}
    out = tmp_path / "edge.csv"
    _write_csv(str(out), columns)
    expected = "x,n,flag,name\n" + "".join(
        f"{format(x, '.17g')},{n},{flag},{name}\n" for x, n, flag, name in zip(*columns.values()))
    assert out.read_bytes() == expected.encode()
    assert out.read_text().splitlines()[2] == "0.33333333333333331,100000000000000001,False,plus"
    assert out.read_text().splitlines()[6] == "1.0000000000000001e+300,2,False,c"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_write_csv_refuses_a_non_finite_float_column(tmp_path, bad):
    # the check runs before the file is opened: nothing is written
    out = tmp_path / "x.csv"
    with pytest.raises(FloatingPointError, match="non-finite energy"):
        _write_csv(str(out), {"n": [1, 2], "energy": [0.5, bad]})
    assert not out.exists()


@pytest.mark.parametrize("columns, message", [
    ({"a": [1.0, 2.0, 3.0], "b": [1, 2]}, "unequal lengths"),
    ({"a": [1.0, 2.0], "b": np.zeros((2, 2))}, "b is not 1-D"),
    ({"a": 1.0}, "a is not 1-D"),
    ({"a": [1 + 2j]}, "complex128"),
    ({"a": [None, 1]}, "object"),
])
def test_write_csv_refuses_a_bad_column_before_opening(tmp_path, columns, message):
    out = tmp_path / "x.csv"
    with pytest.raises(ValueError, match=message):
        _write_csv(str(out), columns)
    assert not out.exists()


def test_write_csv_repeated_values_across_write_blocks(tmp_path):
    # each distinct value is formatted once and gathered back: repeats, -0.0
    # beside 0.0, a float32 column and the rows on both sides of every block
    # edge print as a row-by-row writer prints them
    n = 20_000
    assert n > 2 * _BLOCK_ROWS
    columns = {"x": np.tile([0.0, -0.0, 0.1, 1.0 / 3.0, 5e-324], n // 5),
               "n": np.repeat(np.arange(-2, 2), n // 4),
               "flag": np.tile([True, False], n // 2),
               "name": np.tile(["minus", "plus", "minus-plus", "a"], n // 4),
               "x32": np.tile(np.float32([0.1, -0.0, 3.4028235e38, 1e-45]), n // 4)}
    out = tmp_path / "blocks.csv"
    _write_csv(str(out), columns)
    expected = "x,n,flag,name,x32\n" + "".join(
        f"{format(x, '.17g')},{k},{flag},{name},{format(x32, '.17g')}\n"
        for x, k, flag, name, x32 in zip(*(v.tolist() for v in columns.values())))
    assert out.read_bytes() == expected.encode()


def test_write_csv_with_no_rows_writes_only_the_header(tmp_path):
    out = tmp_path / "empty.csv"
    _write_csv(str(out), {"x": [], "n": np.array([], dtype=int),
                          "name": np.array([], dtype=str)})
    assert out.read_bytes() == b"x,n,name\n"


def test_transfer_density_csv_matches_the_experiment_row_by_row(tmp_path):
    out = tmp_path / "traj.csv"
    assert run_cli(["transfer", "--j1", "1", "--j2", "0.6", "--inv-f-start", "2",
                    "--inv-f-stop", "1.9", "--periods", "0.1", "--n-sites", "96",
                    "--sigma-cells", "3", "--samples", "3", "--tol", "1e-4",
                    "--out", str(out)]) == 0
    result = dynamics.bloch_transfer_experiment(
        LatticeParams(1.0, 0.6, 0.0, 1.0 / 2.0), inv_f_start=2.0, inv_f_stop=1.9,
        duration=0.1 * math.pi * 2.0, packet_sigma=3.0, n_sites=96, n_samples=3, tol=1e-4)
    expected = "time,site,density\n" + "".join(
        f"{format(t, '.17g')},{site},{format(d, '.17g')}\n"
        for t, row in zip(result.times.tolist(), result.density.tolist())
        for site, d in enumerate(row))
    assert out.read_bytes() == expected.encode()


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


def test_transfer_at_the_cli_defaults(tmp_path):
    # the paper-scale run: 120 Bloch periods on 512 sites, 161 samples, tol 1e-8
    out = tmp_path / "traj.csv"
    assert run_cli(["transfer", "--j1", "1", "--j2", "0.6", "--out", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    assert table.shape == (161 * 512, 3)
    density = table[:, 2].reshape(161, 512)
    assert np.max(np.abs(density.sum(axis=1) - 1.0)) <= 1e-10
    obs = np.loadtxt(tmp_path / "traj_observables.csv", delimiter=",", skiprows=1)
    assert obs.shape == (161, 3)
    assert np.all((obs[:, 2] >= 0.0) & (obs[:, 2] <= 1.0))


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
    # an odd chain is refused before the packet is built
    code = run_cli(["transfer", "--j1", "1", "--j2", "0.6", "--n-sites", "97",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "n_sites" in err


@pytest.mark.parametrize("args,flag", [
    (["bands", "--j1", "1", "--j2", "0.6", "--points", "0"], "--points"),
    (["continuum-bands", "--v1", "-0.15", "--v2", "0.3", "--k-points", "0"], "--k-points"),
    (["tb-fit", "--v1", "-0.15", "--v2", "0.3", "--k-points", "-1"], "--k-points"),
    (["transfer", "--j1", "1", "--j2", "0.6", "--samples", "0"], "--samples"),
    (["transfer", "--j1", "1", "--j2", "0.6", "--samples", "-2"], "--samples"),
    (["resonances", "--j1", "1", "--j2", "0.6", "--inv-f", "3:3.3:3",
      "--kappa-grid", "-1"], "--kappa-grid"),
])
def test_counts_below_one_name_the_flag(tmp_path, capsys, args, flag):
    out = tmp_path / "x.csv"
    assert run_cli(args + ["--workers", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and f"{flag} must be at least 1" in err
    assert not out.exists()


def test_tb_fit_on_one_k_point_is_refused(tmp_path, capsys):
    # one k gives two energies for three parameters
    code = run_cli(["tb-fit", "--v0", "-0.117", "--v1", "-0.15", "--v2", "0.3",
                    "--k-points", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "cos k" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["spectrum", "--method", "adiabatic", "--f", "0.1"],
    ["resonances", "--inv-f", "3:3.3:3"],
    ["transfer"],
    ["gap-estimate", "--inv-f", "8:10:3"],
])
def test_touching_bands_are_a_numerical_error(tmp_path, capsys, args):
    code = run_cli(args + ["--j1", "1", "--j2", "1", "--workers", "1",
                           "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: numerical:")


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


@pytest.mark.parametrize("args", [
    ["spectrum", "--method", "floquet", "--inv-f", "1:2"],
    ["spectrum", "--method", "floquet", "--inv-f", "a:b:3"],
    ["spectrum", "--method", "floquet", "--inv-f", "0:1:5"],
    ["spectrum", "--method", "floquet", "--inv-f", "1:inf:3"],
    ["crossings", "--inv-f", "9:8:100"],
    ["gap-estimate", "--inv-f", "1:2:1"],
    ["resonances", "--inv-f", "1:2:3:4"],
])
def test_malformed_inv_f_names_the_flag(tmp_path, capsys, args):
    code = run_cli(args + ["--j1", "1", "--j2", "0.6", "--workers", "1",
                           "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "--inv-f" in err


@pytest.mark.parametrize("args, flag", [
    (["crossings", "--inv-f", "1:1e308:100"], "--inv-f"),
    (["spectrum", "--method", "floquet", "--inv-f", "1:1e308:3"], "--inv-f"),
    (["spectrum", "--method", "floquet", "--f", "1e-308"], "--f"),
])
def test_monodromy_field_bound_names_the_flag(tmp_path, capsys, args, flag):
    # checked before any integration: 1/F = 1e308 used to overflow in the
    # Magnus step (warnings are errors here) and exit 3
    code = run_cli(args + ["--j1", "1", "--j2", "0.6", "--workers", "1",
                           "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and flag in err and "bound" in err


@pytest.mark.parametrize("n_range", ["1", "a:b", "0.5:2", "3:-3"])
def test_malformed_n_range_names_the_flag(tmp_path, capsys, n_range):
    code = run_cli(["spectrum", "--method", "floquet", "--j1", "1", "--j2", "0.6",
                    "--f", "0.5", f"--n-range={n_range}", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "--n-range" in err


def test_relative_band_touching_states_the_rule(tmp_path, capsys):
    # delta = 1 is below 1e-13 of j1 + j2 = 2e154: the bands touch by the
    # relative rule, though delta is not 0
    code = run_cli(["resonances", "--j1", "1e154", "--j2", "1e154", "--delta", "1",
                    "--inv-f", "1:2:2", "--n-sites", "64", "--workers", "1",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical: bands touch: hypot(delta, j1 - j2) <= 1e-13")
    assert "delta = 0" not in err


def test_adiabatic_at_band_touching_is_numerical_error(tmp_path, capsys):
    code = run_cli(["spectrum", "--method", "adiabatic", "--j1", "0.76", "--j2", "0.76",
                    "--f", "0.1", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: numerical:")


@pytest.mark.parametrize("args", [
    ["bands", "--j1", "1e200", "--j2", "0.6"],
    ["gap-estimate", "--j1", "1e200", "--j2", "0.6", "--inv-f", "1:2:2"],
    ["spectrum", "--method", "truncated", "--j1", "1e200", "--j2", "0.6", "--f", "0.5"],
    ["spectrum", "--method", "adiabatic", "--j1", "1e200", "--j2", "0.6", "--f", "0.5"],
    # here the Python float sum rounds to inf, and the energies are checked
    ["spectrum", "--method", "adiabatic", "--j1", "1", "--j2", "0.6", "--delta", "1e200",
     "--f", "0.5"],
])
def test_overflowing_energy_scale_is_a_numerical_error(tmp_path, capsys, args):
    # squaring 1e200 as a Python float raises OverflowError
    out = tmp_path / "x.csv"
    assert run_cli(args + ["--workers", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: numerical:")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["resonances", "--j1", "1e200", "--j2", "0.6", "--inv-f", "1:2:2", "--n-sites", "64"],
    ["bands", "--j1", "1e154", "--j2", "1e154"],
])
def test_non_finite_results_are_a_numerical_error(tmp_path, capsys, args):
    # numpy arithmetic overflows to inf and nan with a RuntimeWarning instead of
    # raising; the result arrays are checked before any row is written
    out = tmp_path / "x.csv"
    with pytest.warns(RuntimeWarning):
        code = run_cli(args + ["--workers", "1", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: numerical:")
    assert not out.exists()


def test_underflowing_gap_estimate_is_a_numerical_error(tmp_path, capsys):
    # q = 2 j1 j2 / (j1^2 + j2^2) is 2e-320, so theta0 = acosh(1/q) is inf
    # without a RuntimeWarning; gap_estimate refuses it
    out = tmp_path / "x.csv"
    assert run_cli(["gap-estimate", "--j1", "1", "--j2", "1e-320", "--inv-f", "1:2:2",
                    "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical:") and "theta0" in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["config-last", "flag-first", "unreadable", "no-equals",
                                  "out-is-a-directory"])
def test_input_output_errors_are_config_errors(tmp_path, capsys, case):
    good = tmp_path / "good.cfg"
    good.write_text("j1 = 1\nj2 = 0.6\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text("j1 = 1\nj2 0.6\n")
    out = tmp_path / "x.csv"
    bands = ["bands", "--j1", "1", "--j2", "0.6", "--points", "4"]
    args, message = {
        "config-last": (bands + ["--out", str(out), "--config"], "--config needs a file path"),
        "flag-first": (["--points", "4", "bands", "--config", str(good), "--out", str(out)],
                       "a subcommand is required before flags"),
        "unreadable": (["bands", "--config", str(tmp_path / "missing.cfg"), "--out", str(out)],
                       "cannot read config file"),
        "no-equals": (["bands", "--config", str(bad), "--out", str(out)],
                      f"{bad}:2: expected key = value"),
        "out-is-a-directory": (bands + ["--out", str(tmp_path)], "cannot write output file"),
    }[case]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "good.cfg"]


def test_parser_is_built_once_and_keeps_no_state(tmp_path):
    assert build_parser() is build_parser()
    out = tmp_path / "x.csv"
    assert run_cli(["bands", "--j1", "1", "--j2", "0.6", "--points", "8",
                    "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 9
    # the flag of the call before does not carry over: --points is 256 again
    assert run_cli(["bands", "--j1", "1", "--j2", "0.6", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 257


def fresh_python(*args):
    """Run a new interpreter that imports this checkout's starkladder."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(starkladder.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_adiabatic_near_band_touching_raises_no_warning(tmp_path):
    # warnings are errors here, so a quadrature warning would fail the run;
    # at F = 1e-7 the F^2 correction |D| F^2 = 2.7e-8 is below F/2
    result = fresh_python(
        "-W", "error", "-m", "starkladder.cli", "spectrum",
        "--method", "adiabatic", "--order", "2", "--j1", "1", "--j2", "0.9999",
        "--f", "1e-7", "--workers", "1", "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 0, result.stderr


# runs the CLI arguments after it (if any), then lists the scipy and process
# modules loaded (scipy.linalg itself loads concurrent.futures._base)
_LIST_SCIPY = """
import sys
from starkladder import cli
if len(sys.argv) > 1 and cli.main(sys.argv[1:]):
    sys.exit(1)
print(" ".join(sorted(m for m in sys.modules
                      if m.split(".")[0] in ("scipy", "multiprocessing", "concurrent"))))
"""

TINY_TRANSFER = ["transfer", "--j1", "1", "--j2", "0.6", "--inv-f-start", "2",
                 "--inv-f-stop", "1.9", "--periods", "0.1", "--n-sites", "96",
                 "--sigma-cells", "3", "--samples", "3", "--tol", "1e-4"]
TINY_CROSSINGS = ["crossings", "--j1", "1", "--j2", "0.6", "--inv-f", "0.5:0.6:100"]
TINY_RESONANCES = ["resonances", "--j1", "0.76", "--j2", "0.76", "--delta", "0.4",
                   "--inv-f", "1:1.1:2", "--periods", "2", "--kappa-grid", "2"]
TINY_TRUNCATED = ["spectrum", "--method", "truncated", "--j1", "1", "--j2", "0.6",
                  "--inv-f", "1:2:2", "--n-range=-1:1"]


@pytest.mark.parametrize("args, loaded, absent", [
    ([], [], ["scipy"]),
    (TINY_TRANSFER, [], ["scipy"]),
    (TINY_CROSSINGS, [], ["scipy"]),
    (TINY_RESONANCES, [], ["scipy"]),
    (TINY_TRUNCATED, ["scipy.linalg"], []),
])
def test_scipy_is_loaded_only_by_the_solver_that_needs_it(tmp_path, args, loaded, absent):
    # a module-level scipy import anywhere in the package loads it at import;
    # and no sweep starts a process, whatever --workers says
    if args:
        args = args + ["--workers", "2", "--out", str(tmp_path / "x.csv")]
    result = fresh_python("-c", _LIST_SCIPY, *args)
    assert result.returncode == 0, result.stderr
    modules = result.stdout.split()
    for name in loaded:
        assert name in modules
    for name in absent + ["multiprocessing", "concurrent.futures.process"]:
        assert name not in modules


def test_adiabatic_second_order_beyond_validity_is_numerical_error(tmp_path, capsys):
    # near band touching D ~ 2.7e6, so at F = 0.1 the correction dwarfs the spacing
    code = run_cli(["spectrum", "--method", "adiabatic", "--order", "2", "--j1", "1",
                    "--j2", "0.9999", "--f", "0.1", "--workers", "1",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: numerical:")


@pytest.mark.parametrize("method,extra,flag", [
    ("bm", ["--order", "3", "--n-sites", "7", "--window=1:2"], "--order"),
    ("floquet", ["--order", "3"], "--order"),
    ("adiabatic", ["--window=0:1"], "--window"),
    ("bm", ["--n-sites", "64"], "--n-sites"),
])
def test_spectrum_refuses_flags_its_method_does_not_read(tmp_path, capsys, method,
                                                          extra, flag):
    out = tmp_path / "x.csv"
    code = run_cli(["spectrum", "--method", method, "--j1", "1", "--j2", "0.6",
                    "--f", "0.2", *extra, "--workers", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: config: {flag} does not apply to --method {method}\n"
    assert not out.exists()


@pytest.mark.parametrize("args,field", [
    (["continuum-bands", "--v1", "-0.15", "--v2", "0.3", "--phi1", "inf"], "phi1"),
    (["tb-fit", "--v0", "nan", "--v1", "-0.15", "--v2", "0.3"], "v0"),
])
def test_non_finite_potential_names_the_field(tmp_path, capsys, args, field):
    code = run_cli(args + ["--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: config: {field} must be finite\n"


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
    # one cell passes the size rule, and its packet fills the edge zones
    code = run_cli(["transfer", "--j1", "1", "--j2", "0.6", "--n-sites", "2",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: edge-contamination:")


def test_each_resonance_field_is_edge_checked_with_its_own_zone(tmp_path, capsys):
    # one 200-site chain serves the whole sweep, but the guarded zone grows with
    # the Bloch excursion: 10 + ceil(2 band_edge / F) = 20, 47 and 73 sites at
    # 1/F = 3, 11.5 and 20, where the packets put 3e-17, below 1e-10 and 5e-4
    args = ["resonances", "--j1", "0.76", "--j2", "0.76", "--delta", "0.4",
            "--sigma-cells", "4", "--n-sites", "200", "--periods", "2",
            "--out", str(tmp_path / "r.csv")]
    assert run_cli(args + ["--inv-f", "3:11.5:2"]) == 0
    assert run_cli(args + ["--inv-f", "3:20:3"]) == 4
    assert capsys.readouterr().err.startswith("error: edge-contamination:")


def test_default_resonance_chain_holds_the_projector_tail(tmp_path):
    # near band touching, xi = (j1 + j2) / hypot(delta, j1 - j2) = 99 cells: the
    # default chain holds the band projector's tail (448 sites put 1.2e-8 in
    # the guarded edge zone) and matches a 2048-site chain
    out = tmp_path / "r.csv"
    assert run_cli(["resonances", "--j1", "1", "--j2", "0.98", "--inv-f", "5:5.1:2",
                    "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    params = starkladder.LatticeParams(1.0, 0.98, 0.0)
    for z, mean in rows:
        wide = starkladder.mean_upper_population(params, 1.0 / float(z), n_sites=2048,
                                                 n_time_samples=0).p_upper_mean
        assert abs(float(mean) - wide) < 1e-9


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
