import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import starkladder
from starkladder import dynamics, weak_field
from starkladder.errors import DegeneracyError
from starkladder.model import (LatticeParams, _tilted_band_mean, _zak_plus, bloch_dispersion,
                               build_chain, fold_interval, reduce_zone, site_positions)
from starkladder.spectra_exact import eigenvalues_symmetric_tridiagonal

# independent high-precision substitution for (0.76, 0.76, 0.4) at kappa = 0
DISP_076_076_04 = 1.5717506163510800418
# brute-force midpoint Riemann sum, 1e6 points, for (1, 0.6, 0)
BAND_MEAN_1_06 = 1.0922385835546893


def dense(chain):
    """The chain Hamiltonian as a full matrix."""
    return (np.diag(chain.diagonal) + np.diag(chain.off_diagonal, 1)
            + np.diag(chain.off_diagonal, -1))


def test_dispersion_zone_edge_cancels_hoppings():
    p = LatticeParams(0.7, 0.7, 0.25)
    e_minus, e_plus = bloch_dispersion(p, math.pi / 2)
    assert e_plus == pytest.approx(0.25, abs=1e-15)
    assert e_minus == pytest.approx(-0.25, abs=1e-15)


def test_dispersion_zone_center():
    p = LatticeParams(1.0, 0.6, 0.0)
    e_minus, e_plus = bloch_dispersion(p, 0.0)
    assert e_plus == pytest.approx(1.6, abs=1e-14)
    assert e_minus == pytest.approx(-1.6, abs=1e-14)


def test_dispersion_high_precision_value():
    p = LatticeParams(0.76, 0.76, 0.4)
    _, e_plus = bloch_dispersion(p, 0.0)
    assert e_plus == pytest.approx(DISP_076_076_04, abs=1e-14)


def test_dispersion_symmetries_on_random_grid():
    rng = np.random.default_rng(7)
    p = LatticeParams(0.9, 0.35, 0.17)
    kappa = rng.uniform(-4, 4, size=64)
    _, ep = bloch_dispersion(p, kappa)
    _, ep_neg = bloch_dispersion(p, -kappa)
    _, ep_shift = bloch_dispersion(p, kappa + np.pi)
    assert np.allclose(ep, ep_neg, atol=1e-14)
    assert np.allclose(ep, ep_shift, atol=1e-14)
    swapped = LatticeParams(0.35, 0.9, 0.17)
    _, ep_swap = bloch_dispersion(swapped, kappa)
    assert np.allclose(ep, ep_swap, atol=1e-14)


def test_dispersion_is_total_on_folded_domain():
    p = LatticeParams(1.0, 0.6, 0.0)
    _, e1 = bloch_dispersion(p, 10.0)
    _, e2 = bloch_dispersion(p, reduce_zone(10.0))
    assert e1 == e2


@pytest.mark.parametrize("j", [0.1, 0.76, 1.0])
def test_band_mean_plain_lattice_closed_form(j):
    assert _tilted_band_mean(LatticeParams(j, j, 0.0).with_field(0.0)) == pytest.approx(
        4.0 * j / math.pi, abs=1e-10)


def test_band_mean_flat_bands():
    assert _tilted_band_mean(LatticeParams(0.0, 0.0, 0.3).with_field(0.0)) == pytest.approx(
        0.3, abs=1e-12)


def test_tilted_band_mean_at_zero_radius():
    # j1 = j2 = 0 and delta = -F/2: the eigenvalue vanishes for every theta
    assert _tilted_band_mean(LatticeParams(0.0, 0.0, -0.25, 0.5)) == 0.0


def test_band_mean_where_elliptic_parameter_rounds_above_one():
    # 4 j1 j2 / (j1 + j2)^2 rounds to 1 + 2^-52 here, where E(m) is nan
    j2 = 0.3000000006
    assert _tilted_band_mean(LatticeParams(0.3, j2, 0.0).with_field(0.0)) == pytest.approx(
        2.0 * (0.3 + j2) / math.pi, rel=1e-14)


def test_band_mean_against_riemann_oracle():
    assert _tilted_band_mean(LatticeParams(1.0, 0.6, 0.0).with_field(0.0)) == pytest.approx(
        BAND_MEAN_1_06, abs=1e-10)


def test_touching_bands_raise_one_message():
    # model._check_gap is the one band-touching rule behind the projectors,
    # the Zak phase and the gap estimate
    p = LatticeParams(0.7, 0.7, 0.0, 0.2)
    rule = r"^bands touch: hypot\(delta, j1 - j2\) <= 1e-13 \(j1 \+ j2 \+ \|delta\|\)"
    for call in (lambda: dynamics.band_projectors(p, 8), lambda: _zak_plus(p),
                 lambda: weak_field.gap_estimate(p)):
        with pytest.raises(DegeneracyError, match=rule):
            call()


def test_build_chain_single_cell():
    p = LatticeParams(0.8, 0.3, 0.2, 0.5)
    chain = build_chain(p, 2)
    # single cell l = 0: on-site -F/2 - delta and +F/2 + delta, intracell bond
    assert np.allclose(dense(chain), [[-0.45, 0.8], [0.8, 0.45]], atol=1e-15)


def test_build_chain_simple_lattice_limit():
    chain = build_chain(LatticeParams(0.7, 0.7, 0.0, 0.0), 6)
    assert np.allclose(chain.diagonal, 0.0)
    assert np.allclose(chain.off_diagonal, 0.7)


def test_build_chain_matches_site_rule():
    p = LatticeParams(1.0, 0.6, 0.2, 0.1)
    chain = build_chain(p, 8)
    gaps = np.diff(chain.diagonal)
    expected = np.where(np.arange(7) % 2 == 0, p.f + 2 * p.delta, p.f - 2 * p.delta)
    assert np.allclose(gaps, expected, atol=1e-15)
    # hand-built from the site rule: A_l at 2F(l - 1/4) - delta, B_l at 2F(l + 1/4) + delta
    cells = np.array([-2, -1, 0, 1])
    diag = np.empty(8)
    diag[0::2] = 2 * p.f * (cells - 0.25) - p.delta
    diag[1::2] = 2 * p.f * (cells + 0.25) + p.delta
    assert np.allclose(chain.diagonal, diag, atol=1e-15)
    assert np.allclose(chain.off_diagonal, [1.0, 0.6, 1.0, 0.6, 1.0, 0.6, 1.0])
    assert np.allclose(site_positions(8) * p.f - np.where(np.arange(8) % 2 == 0,
                                                          p.delta, -p.delta),
                       chain.diagonal, atol=1e-15)


def test_chain_trace_matches_diagonal_sum():
    # the levels sum to the trace, and a dense eigensolver finds the same levels
    chain = build_chain(LatticeParams(1.0, 0.6, 0.2, 0.1), 16)
    eigs = eigenvalues_symmetric_tridiagonal(chain)
    assert eigs.sum() == pytest.approx(chain.diagonal.sum(), abs=1e-12)
    assert np.allclose(eigs, np.linalg.eigvalsh(dense(chain)), rtol=0.0, atol=1e-12)


def test_untilted_uniform_chain_has_cosine_spectrum():
    j = 0.7
    chain = build_chain(LatticeParams(j, j, 0.0, 0.0), 64)
    eigs = eigenvalues_symmetric_tridiagonal(chain)
    q = np.arange(1, 65) * np.pi / 65
    assert np.max(np.abs(eigs - np.sort(2 * j * np.cos(q)))) < 1e-12


def test_parameter_validation():
    with pytest.raises(ValueError):
        LatticeParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        LatticeParams(0.5, -0.1)
    with pytest.raises(ValueError):
        LatticeParams(0.5, 0.5, 0.0, -0.2)
    with pytest.raises(ValueError):
        build_chain(LatticeParams(1.0, 0.6), 7)
    with pytest.raises(ValueError):
        LatticeParams(1.0, 0.6, 0.0, 0.0).require_field()


def test_coupling_accessors():
    p = LatticeParams(1.0, 0.6, 0.3, 0.5)
    assert p.epsilon2 == pytest.approx(0.6)
    assert p.omega == pytest.approx(3.2)


def test_fold_interval_boundaries():
    assert fold_interval(0.02, 0.04) == pytest.approx(0.02)
    assert fold_interval(-0.02, 0.04) == pytest.approx(0.02)
    assert fold_interval(0.05, 0.04) == pytest.approx(0.01)
    vals = fold_interval(np.array([1.0945]), 0.04)
    assert -0.02 < vals[0] <= 0.02


def test_analytic_modules_do_not_import_the_exact_solvers():
    # load the submodules under a bare package so __init__ cannot pull
    # spectra_exact in; only the modules' own imports count
    script = (
        "import sys, types\n"
        "pkg = types.ModuleType('starkladder')\n"
        f"pkg.__path__ = [{str(Path(starkladder.__file__).parent)!r}]\n"
        "sys.modules['starkladder'] = pkg\n"
        "import starkladder.strong_field, starkladder.weak_field\n"
        "print('starkladder.spectra_exact' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"
