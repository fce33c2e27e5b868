import math

import numpy as np
import pytest

from trispin.engine import IDEAL, SimulationSettings, evolve_many, propagator_stacks
from trispin.metrics import eta_curve, fidelity, fig2_tables, transfer_efficiency
from trispin.sequences import VARIANTS, build_uzzz, compose_swap13
from trispin.spinsys import acetamide, ideal_chain, spin_operator, target_trilinear

J = 88.0
SYS = ideal_chain(J)


def test_transfer_efficiency_endpoints():
    assert transfer_efficiency(spin_operator(3, "x")) == pytest.approx(1.0)
    assert transfer_efficiency(spin_operator(1, "x")) == pytest.approx(0.0)
    assert transfer_efficiency(-spin_operator(3, "x")) == pytest.approx(-1.0)


@pytest.mark.parametrize("v", VARIANTS)
def test_ideal_swap_transfer_is_unity(v):
    rho = next(evolve_many(spin_operator(1, "x"), (compose_swap13(build_uzzz(v, 1.0, J)),), SYS))
    assert transfer_efficiency(rho) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_properties():
    u = target_trilinear("z", "z", "z", 0.8)
    assert fidelity(u, u) == pytest.approx(1.0)
    assert fidelity(u, np.exp(1j * 0.7) * u) == pytest.approx(1.0)
    v = target_trilinear("x", "z", "x", 0.8)
    assert fidelity(u, v) == pytest.approx(fidelity(v, u))
    with pytest.raises(ValueError):
        fidelity(u, np.eye(4))


def test_fidelity_over_stacks_equals_each_pair():
    kappas = [0.1 * i for i in range(1, 21)]
    targets = target_trilinear("z", "z", "z", np.array(kappas))  # (20, 8, 8)
    programs = (build_uzzz(v, 0.9 * kappa, J) for v in VARIANTS for kappa in kappas)
    stacks = np.array([u[0] for u in propagator_stacks(programs, SYS)]).reshape(4, 20, 8, 8)
    f = fidelity(stacks, targets)
    assert f.shape == (4, 20)
    pairs = [[fidelity(stacks[i, k], targets[k]) for k in range(20)] for i in range(4)]
    assert np.max(np.abs(f - np.array(pairs))) <= 1e-15
    assert type(pairs[0][0]) is float
    assert 0.9 < f.min() < f.max() < 1.0 - 1e-6  # 0.9 kappa: not the identity target
    with pytest.raises(ValueError, match="dimension mismatch"):
        fidelity(stacks, targets[:, :4, :4])
    with pytest.raises(ValueError, match="dimension mismatch"):
        fidelity(stacks[:, :, :, :4], targets)


def test_fidelity_identity_vs_uzzz():
    # diagonal of U_zzz(1) is e^{-/+ i pi/4}: |mean| = cos(pi/4)
    f = fidelity(np.eye(8), target_trilinear("z", "z", "z", 1.0))
    assert f == pytest.approx(math.cos(math.pi / 4), abs=1e-12)


def test_eta_curve_ideal_chain_peak():
    kappas = [0.1 * i for i in range(1, 21)]
    curve = eta_curve("D", kappas, SYS)
    taus = [t for t, _ in curve]
    etas = [e for _, e in curve]
    i = int(np.argmax(etas))
    # three trilinear blocks: peak at 3 tau*(1) = 3 sqrt(3) / (2J)
    assert taus[i] == pytest.approx(3.0 * math.sqrt(3) / (2 * J), rel=1e-9)
    assert etas[i] == pytest.approx(1.0, abs=1e-9)


def test_eta_curve_kappa_zero_is_trivial():
    (tau, eta), = eta_curve("A", [0.0], SYS)
    assert eta == pytest.approx(0.0, abs=1e-9)


def test_eta_curve_ideal_mode_ignores_rf_amplitudes():
    weird = SimulationSettings(rf_proton=3.0, rf_hetero=1.0)
    kappas = [0.5, 1.0]
    assert eta_curve("C", kappas, SYS, weird) == eta_curve("C", kappas, SYS, IDEAL)


def test_eta_curve_offset_system_uses_refocused_programs():
    # with offsets, the ideal curve must still peak at kappa = 1 for D
    curve = eta_curve("D", [0.8, 1.0, 1.2], acetamide())
    etas = [e for _, e in curve]
    assert max(etas) == etas[1]
    assert etas[1] > 0.95


def test_eta_curve_rejects_empty_grid():
    with pytest.raises(ValueError):
        eta_curve("A", [], SYS)


@pytest.mark.parametrize("kappa", [-0.5, float("nan")])
def test_eta_curve_d_off_resonance_names_a_bad_kappa(kappa):
    # the DANTE segment count is sized from max(kappas) before any program is built
    with pytest.raises(ValueError, match=r"kappa must be in \[0, 2\], got"):
        eta_curve("D", [kappa], acetamide())


def test_fig2_tables_kappa_one_row():
    row, = fig2_tables([1.0])
    assert row["s_A"] == pytest.approx(2.0 / 3.0, abs=1e-3)
    assert row["s_B"] == 1.0
    assert row["s_C"] == 1.0
    assert row["s_D"] == pytest.approx(1.1547, abs=1e-4)
    assert row["tau_star"] == pytest.approx(row["tau_D"])
    assert row["r_D"] == pytest.approx(1.1547, abs=1e-4)


def test_fig2_tables_small_kappa_ratios():
    row, = fig2_tables([0.01])
    assert row["r_D"] == pytest.approx(10.0, abs=0.1)
    assert row["s_D"] / row["s_A"] == pytest.approx(10.0, abs=0.15)
    assert row["s_D"] / row["s_C"] == pytest.approx(5.0, abs=0.1)


def test_fig2_tables_reference_normalization():
    for row in fig2_tables([0.2, 0.6, 1.0]):
        assert row["s_B"] / row["kappa"] == pytest.approx(1.0)


def test_fig2_tables_rejects_kappa_zero():
    with pytest.raises(ValueError):
        fig2_tables([0.0])
    with pytest.raises(ValueError):
        fig2_tables([1.5])
    with pytest.raises(ValueError, match=r"in \(0, 1\] for ratio rows, got 1\.5$"):
        fig2_tables([0.5, 1.5])
