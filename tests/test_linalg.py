import numpy as np
import pytest

from trispin.linalg import expm_generator, hermiticity_defect, unitarity_defect
from trispin.spinsys import spin_operator

from oracles import expm_taylor, kron_loops

RNG = np.random.default_rng(7)


def random_hermitian(n=8):
    a = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


_HALF_PAULI = {"x": np.array([[0, 0.5], [0.5, 0]]), "y": np.array([[0, -0.5j], [0.5j, 0]]),
               "z": np.array([[0.5, 0], [0, -0.5]])}


def test_kron_matches_loop_oracle():
    # spin 1 is the leftmost Kronecker factor: the basis ordering
    for k in (1, 2, 3):
        for axis, op in _HALF_PAULI.items():
            factors = [np.eye(2)] * 3
            factors[k - 1] = op
            want = kron_loops(kron_loops(factors[0], factors[1]), factors[2])
            assert np.array_equal(spin_operator(k, axis), want)


@pytest.mark.parametrize("t", [0.0, 1e-3, 0.7, 12.0])
def test_expm_matches_taylor_oracle(t):
    h = random_hermitian()
    u = expm_generator(h, t)
    assert np.max(np.abs(u - expm_taylor(h, t))) < 1e-9


def test_expm_unitary_and_group_properties():
    h = random_hermitian()
    u1 = expm_generator(h, 0.3)
    u2 = expm_generator(h, 0.5)
    assert unitarity_defect(u1) < 1e-10
    assert np.max(np.abs(u1 @ expm_generator(h, -0.3) - np.eye(8))) < 1e-10
    assert np.max(np.abs(u1 @ u2 - expm_generator(h, 0.8))) < 1e-10


def test_expm_rejects_non_hermitian():
    bad = np.eye(8, dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        expm_generator(bad, 1.0)


def test_defect_measures():
    assert hermiticity_defect(random_hermitian()) < 1e-14
    assert unitarity_defect(np.eye(8)) < 1e-15
    assert unitarity_defect(2.0 * np.eye(8)) > 1.0


def test_expm_of_a_stack_matches_taylor_oracle_per_matrix():
    h = np.array([[random_hermitian() for _ in range(3)] for _ in range(2)])  # (2, 3, 8, 8)
    t = np.array([[0.3], [1.7]])  # broadcasts against the (2, 3) stack shape
    u = expm_generator(h, t)
    assert u.shape == h.shape
    for i in range(2):
        for j in range(3):
            assert np.max(np.abs(u[i, j] - expm_taylor(h[i, j], t[i, 0]))) < 1e-9
            assert np.max(np.abs(u[i, j] - expm_generator(h[i, j], t[i, 0]))) < 1e-13
    assert unitarity_defect(u) < 1e-10


def test_stack_hermiticity_check_names_the_worst_defect():
    h = np.array([random_hermitian() for _ in range(4)])
    h[2, 0, 1] += 1e-3
    assert hermiticity_defect(h) == pytest.approx(1e-3)
    with pytest.raises(ValueError, match=r"generator is not Hermitian: max \|H - H†\| = 1\.000e-03 "
                                         r"\(tolerance 1e-10\)"):
        expm_generator(h, 1.0)


@pytest.mark.parametrize("dtype", [float, complex])
def test_hermiticity_defect_leaves_its_input_alone(dtype):
    a = np.arange(16, dtype=dtype).reshape(4, 4)
    assert hermiticity_defect(a) == 9.0
    assert np.array_equal(a, np.arange(16).reshape(4, 4))
