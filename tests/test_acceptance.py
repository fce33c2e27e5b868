"""End-to-end acceptance checks, one per numbered claim.

Each test prints a single PASS line when its assertions hold (pytest -s
shows them; any failure surfaces as a normal assertion error).
"""
import math

import numpy as np
import pytest

from trispin import cli
from trispin.broadband import dante_discretize, emulate_selective_pulse
from trispin.engine import IDEAL, SimulationSettings, evolve_many, propagator_of
from trispin.linalg import expm_generator
from trispin.metrics import eta_curve, fidelity, transfer_efficiency
from trispin.pulseprog import Delay, ZRotation
from trispin.sequences import VARIANTS, build_uzzz, compose_swap13, duration_scaling
from trispin.spinsys import SpinSystem, acetamide, ideal_chain, spin_operator, target_trilinear

J = 88.0
CHAIN = ideal_chain(J)


def report(n, detail):
    print(f"PASS criterion {n}: {detail}")


def test_criterion_1_table1_reproduction(capsys):
    assert cli.main(["table1", "--J", "88"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    rows = {line.split(",")[0]: line.split(",")
            for line in lines[lines.index("variant,tau1_s,s1,tau_swap13_s") + 1:]}
    expected_ms = {"A": 51.1, "B": 34.1, "C": 34.1, "D": 29.5}
    expected_s = {"A": 0.666, "B": 1.0, "C": 1.0, "D": 1.155}
    for v in "ABCD":
        assert 1e3 * float(rows[v][3]) == pytest.approx(expected_ms[v], abs=0.05)
        assert float(rows[v][2]) == pytest.approx(expected_s[v], abs=1e-3)
    report(1, "table1 --J 88 SWAP row 51.1/34.1/34.1/29.5 ms, s(1) matches")


def run_suite(suite):
    """Run one `trispin verify` suite; every check must meet its tolerance."""
    results = {}
    for name, value, tol in cli.SUITES[suite](J):
        assert value <= tol, f"{suite}: {name} = {value:.3e} > tol {tol:.0e}"
        results[name] = value
    return results


def test_criterion_2_identity_oracle():
    worst = max(run_suite("identities").values())
    report(2, f"A-D identities over kappa grid, worst infidelity {worst:.2e}")


def test_criterion_3_product_equals_permutation():
    checks = run_suite("swap")
    worst_comm = max(v for name, v in checks.items() if name.startswith("commutator"))
    report(3, f"product infidelity {checks['trilinear product vs permutation']:.2e}, "
              f"max commutator {worst_comm:.2e}")


def test_criterion_4_time_optimality_and_ratios():
    run_suite("limits")
    s = {v: duration_scaling(v, 1.0)[1] for v in VARIANTS}
    assert s["D"] / s["A"] == pytest.approx(1.732, abs=1e-3)
    s001 = {v: duration_scaling(v, 0.01)[1] for v in VARIANTS}
    assert s001["D"] / s001["B"] == pytest.approx(10.0, abs=0.1)
    assert s001["D"] / s001["C"] == pytest.approx(5.0, abs=0.1)
    report(4, "tau_D minimal on 200 samples; ratios 1.732 / 10.0 / 5.0")


def test_criterion_5_periodicity_exact():
    run_suite("limits")
    report(5, "theoretical_limit(2n +/- kappa) == theoretical_limit(kappa) exactly")


def test_criterion_6_swap_state_transfer():
    i1x = spin_operator(1, "x")
    states = [
        (i1x, spin_operator(3, "x")),
        (2.0 * i1x @ spin_operator(2, "z"),
         2.0 * spin_operator(3, "x") @ spin_operator(2, "z")),
        (i1x + 2.0 * spin_operator(2, "z") @ spin_operator(3, "x"),
         spin_operator(3, "x") + 2.0 * spin_operator(2, "z") @ spin_operator(1, "x")),
    ]
    for v in VARIANTS:
        p = compose_swap13(build_uzzz(v, 1.0, J))
        for rho0, expected in states:
            rho = next(evolve_many(rho0, (p,), CHAIN))
            assert np.max(np.abs(rho - expected)) < 1e-9
        eta = transfer_efficiency(next(evolve_many(i1x, (p,), CHAIN)))
        assert eta == pytest.approx(1.0, abs=1e-9)
    report(6, "all variants swap the three prepared states; eta13 = 1")


def test_criterion_7_broadband_robustness():
    run_suite("broadband")
    target = target_trilinear("z", "z", "z", 1.0)
    ns = [8, 16, 32, 64]
    errs = [1.0 - fidelity(propagator_of(dante_discretize(build_uzzz("D", 1.0, J), n), CHAIN),
                           target) for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    assert slope <= -1.0
    report(7, f"offset fidelities ok; DANTE slope {slope:.2f}, n=64 error {errs[-1]:.2e}")


def test_criterion_8_realistic_curves_qualitative():
    sys = acetamide()
    realistic = SimulationSettings(mode="realistic", rf_fwhm=0.10)
    kappas = [round(0.05 * i, 10) for i in range(2, 41)]
    details = []
    for v in ("A", "C", "D"):
        ideal_curve = eta_curve(v, kappas, sys, IDEAL)
        real_curve = eta_curve(v, kappas, sys, realistic)
        tau_i, _ = max(ideal_curve, key=lambda te: te[1])
        tau_r, eta_r = max(real_curve, key=lambda te: te[1])
        assert abs(tau_r - tau_i) / tau_i <= 0.05
        assert 0.7 < eta_r < 1.0
        details.append(f"{v}: dtau {100 * abs(tau_r - tau_i) / tau_i:.2f}%, eta {eta_r:.3f}")
    report(8, "; ".join(details))


def test_criterion_9_selective_pulse_emulation():
    p = emulate_selective_pulse(1, 0.0, 358.0)
    delta = [e for e in p.events if isinstance(e, Delay)][0].duration
    assert 1e6 * delta == pytest.approx(698, abs=1.0)
    sys = SpinSystem(88.8, 87.3, 0.0, 0.0, 0.0, 358.0)  # J13 = 0 keeps it exact
    target = expm_generator(math.pi * spin_operator(1, "x"), 1.0)
    assert fidelity(propagator_of(p, sys), target) >= 1.0 - 1e-9
    # spectator residue: documented as an explicit pi z-rotation on spin 3
    assert [e for e in p.events if isinstance(e, ZRotation)] == [ZRotation(3, -math.pi)]
    report(9, f"delta {1e6 * delta:.1f} us; fragment is a clean 180 on spin 1")
