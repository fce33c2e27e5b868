import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from trispin.linalg import expm_generator
from trispin.spinsys import (
    CHANNELS,
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


# signed zeros, subnormals down to the smallest, and values near 1e300, whose sums stay finite
_HZ = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]),
                st.floats(-2.3e-308, 2.3e-308), st.floats(-1e300, 1e300))


@given(st.tuples(*[_HZ] * 6))
@example((88.8, 87.3, 2.9, 0.0, 0.0, 358.0))  # acetamide
def test_free_hamiltonian_matches_bit_loop_oracle(fields):
    h0 = free_hamiltonian(SpinSystem(*fields))
    assert h0.shape == (8,) and h0.dtype == np.float64
    assert np.array_equal(h0, h0_diagonal_loops(*fields))  # exactly: each term's products in the same order


def test_acetamide_parameters():
    sys = acetamide()
    assert (sys.j12, sys.j23, sys.j13) == (88.8, 87.3, 2.9)
    assert sys.offsets == (0.0, 0.0, 358.0)
    assert CHANNELS == {1: "1H", 2: "15N", 3: "1H"}


def test_rf_hamiltonian_phase_and_amplitude():
    h = rf_hamiltonian((1,), 10.0)
    assert h.dtype == np.float64
    assert np.array_equal(h, 2 * np.pi * 10.0 * spin_operator(1, "x").real)
    # the phase is a z-rotation of the phase-0 term: exp(-i phi Fz) H exp(i phi Fz),
    # Fz = I1z + I2z + I3z, is the term along Ix cos(phi) + Iy sin(phi)
    h = rf_hamiltonian((2, 3), 5.0)
    fz = sum(spin_operator(k, "z") for k in (1, 2, 3))
    for phi in (np.pi / 2, 0.3, -2.0):
        turn = expm_generator(fz, phi)
        expected = 2 * np.pi * 5.0 * sum(spin_operator(k, "x") * np.cos(phi) + spin_operator(k, "y") * np.sin(phi)
                                         for k in (2, 3))
        assert np.allclose(turn @ h @ turn.conj().T, expected, atol=1e-12)
    with pytest.raises(ValueError):
        rf_hamiltonian((), 1.0)


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


@pytest.mark.parametrize("kappa, shown", [
    (math.nan, "nan"), (math.inf, "inf"), (np.array([0.5, -math.inf, math.nan]), "-inf"),
    (np.array([[1.0], [math.nan]]), "nan"),
])
def test_trilinear_target_rejects_a_non_finite_kappa_without_a_warning(kappa, shown):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^kappa must be finite, got {shown}$"):
            target_trilinear("z", "z", "z", kappa)


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


def test_shifting_a_channel_no_spin_is_on_names_it():
    with pytest.raises(ValueError, match=r"^channel '13C': no spin is on that channel "
                                         r"\(channels \['15N', '1H'\]\)$"):
        acetamide().shifted("13C", 100.0)


@pytest.mark.parametrize("name", ["j12", "nu3"])
def test_a_value_whose_angular_frequency_overflows_is_rejected_by_name(name):
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got 1e\+308 \(2 pi {name} overflows\)$"):
        replace(ideal_chain(88.0), **{name: 1e308})


def test_values_that_overflow_the_free_hamiltonian_together_are_rejected_without_a_warning():
    # each value passes alone: 2 pi 2.8e307 is finite, pi (3 x 2.8e307) is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^j12, j23, j13, nu1, nu2 and nu3 overflow the free Ham"):
            SpinSystem(88.0, 88.0, 0.0, 2.8e307, 2.8e307, 2.8e307)
        SpinSystem(88.0, 88.0, 0.0, 2.8e307, 0.0, 0.0)  # one alone still passes
