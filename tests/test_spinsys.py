from dataclasses import replace

import numpy as np
import pytest

from trispin.linalg import expm_generator
from trispin.spinsys import (
    SpinSystem,
    acetamide,
    free_hamiltonian,
    ideal_chain,
    rf_hamiltonian,
    spin_operator,
    swap13_target,
    target_trilinear,
)

from oracles import h0_diagonal_loops


@pytest.mark.parametrize("k", [1, 2, 3])
def test_angular_momentum_commutators(k):
    ix, iy, iz = (spin_operator(k, a) for a in "xyz")
    assert np.allclose(ix @ iy - iy @ ix, 1j * iz, atol=1e-14)
    assert np.allclose(iy @ iz - iz @ iy, 1j * ix, atol=1e-14)
    assert np.allclose(iz @ ix - ix @ iz, 1j * iy, atol=1e-14)


def test_operator_trace_normalization():
    for k in (1, 2, 3):
        for a in "xyz":
            for l in (1, 2, 3):
                for b in "xyz":
                    expected = 2.0 if (k, a) == (l, b) else 0.0
                    got = np.trace(spin_operator(k, a) @ spin_operator(l, b))
                    assert abs(got - expected) < 1e-14


def test_free_hamiltonian_matches_bit_loop_oracle():
    sys = acetamide()
    h = free_hamiltonian(sys)
    assert np.allclose(h, np.diag(np.diag(h)), atol=1e-14)  # diagonal
    oracle = h0_diagonal_loops(88.8, 87.3, 2.9, 0.0, 0.0, 358.0)
    assert np.max(np.abs(np.diag(h).real - oracle)) < 1e-9


def test_acetamide_parameters():
    sys = acetamide()
    assert (sys.j12, sys.j23, sys.j13) == (88.8, 87.3, 2.9)
    assert sys.offsets == (0.0, 0.0, 358.0)
    assert sys.channel_of(1) == sys.channel_of(3) == "1H"
    assert sys.channel_of(2) == "15N"
    assert sys.spins_on("1H") == (1, 3)


def test_rf_hamiltonian_phase_and_amplitude():
    h = rf_hamiltonian((1,), 10.0, 0.0)
    assert np.allclose(h, 2 * np.pi * 10.0 * spin_operator(1, "x"), atol=1e-12)
    h = rf_hamiltonian((2, 3), 5.0, np.pi / 2)
    expected = 2 * np.pi * 5.0 * (spin_operator(2, "y") + spin_operator(3, "y"))
    assert np.allclose(h, expected, atol=1e-12)
    with pytest.raises(ValueError):
        rf_hamiltonian((), 1.0, 0.0)


def test_trilinear_targets_commute_pairwise():
    us = [target_trilinear(a, "z", a, 1.0) for a in "xyz"]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.max(np.abs(us[i] @ us[j] - us[j] @ us[i])) < 1e-10


def test_trilinear_target_is_expm_of_product():
    kappa = 0.7
    prod = 8.0 * spin_operator(1, "z") @ spin_operator(2, "z") @ spin_operator(3, "z")
    # I1z I2z I3z has eigenvalues +/- 1/8
    gen = 2 * np.pi * kappa * prod / 8.0
    assert np.allclose(target_trilinear("z", "z", "z", kappa),
                       expm_generator(gen, 1.0), atol=1e-12)


@pytest.mark.parametrize("axes", ["zzz", "xzx", "yzy"])
def test_trilinear_targets_over_a_kappa_array_equal_the_per_kappa_calls(axes):
    kappas = [round(0.1 * i, 10) for i in range(0, 21)]
    stack = target_trilinear(*axes, np.array(kappas))
    assert stack.shape == (len(kappas), 8, 8)
    prod = spin_operator(1, axes[0]) @ spin_operator(2, axes[1]) @ spin_operator(3, axes[2])
    for kappa, u in zip(kappas, stack):
        assert np.max(np.abs(u - target_trilinear(*axes, kappa))) < 1e-14
        # the generator scaled by kappa, exponentiated at t = 1, as before arrays
        assert np.max(np.abs(u - expm_generator(2 * np.pi * kappa * prod, 1.0))) < 1e-14


def test_swap13_target_permutes_operators():
    p = swap13_target()
    assert np.allclose(p @ p.conj().T, np.eye(8), atol=1e-14)
    assert np.allclose(p @ p, np.eye(8), atol=1e-14)  # involution
    for a in "xyz":
        assert np.allclose(p @ spin_operator(1, a) @ p.conj().T,
                           spin_operator(3, a), atol=1e-14)
        assert np.allclose(p @ spin_operator(2, a) @ p.conj().T,
                           spin_operator(2, a), atol=1e-14)


def test_system_helpers():
    sys = ideal_chain(88.0)
    assert (sys.j12, sys.j23, sys.j13) == (88.0, 88.0, 0.0)
    assert sys.offsets == (0.0, 0.0, 0.0)
    shifted = sys.shifted("1H", 100.0)
    assert shifted.offsets == (100.0, 0.0, 100.0)
    assert replace(sys, nu1=1.0, nu2=2.0, nu3=3.0).offsets == (1.0, 2.0, 3.0)
    # offsets are set on the system only, so it is where non-finite ones stop
    with pytest.raises(ValueError, match="nu2 must be finite, got nan"):
        replace(sys, nu2=float("nan"))
    with pytest.raises(ValueError, match="nu1 must be finite, got inf"):
        sys.shifted("1H", float("inf"))


@pytest.mark.parametrize("name", ["j12", "nu3"])
def test_a_value_whose_angular_frequency_overflows_is_rejected_by_name(name):
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got 1e\+308 \(2 pi {name} overflows\)$"):
        replace(ideal_chain(88.0), **{name: 1e308})
