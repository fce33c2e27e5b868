"""Dense complex matrix helpers for the 8-dimensional three-spin Hilbert space.

Everything here works on plain numpy arrays. Generators (Hamiltonians) are
carried in rad/s; propagators are dimensionless unitaries.
"""
from __future__ import annotations

import numpy as np

# All operator matrices entering eigh_hermitian are exact sums of Pauli
# products scaled by physical constants, so a tight absolute tolerance is safe.
HERMITIAN_TOL = 1e-10


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entrywise |a - a†| over one matrix or an (..., n, n) stack."""
    d = np.conj(a).swapaxes(-1, -2)  # a new array even for a real a, which stays untouched
    return float(np.max(np.abs(np.subtract(a, d, out=d)), initial=0.0))


def unitarity_defect(u: np.ndarray) -> float:
    """Largest entrywise deviation of u†u from the identity, over a stack too."""
    u = np.asarray(u)
    return float(np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])), initial=0.0))


def eigh_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of Hermitian generators h (rad/s).

    h is one real or complex matrix or (..., n, n) stack; one eigh covers the
    stack, a real one for a real h. Raises ValueError if h is not Hermitian
    within HERMITIAN_TOL, reporting the largest asymmetry.
    """
    h = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)
    defect = hermiticity_defect(h)
    if not defect <= HERMITIAN_TOL:  # NaN fails
        raise ValueError(
            f"generator is not Hermitian: max |H - H†| = {defect:.3e} "
            f"(tolerance {HERMITIAN_TOL:.0e})"
        )
    return np.linalg.eigh(h)


def expm_eigh(w: np.ndarray, v: np.ndarray, t) -> np.ndarray:
    """exp(-i h t) from the eigenvalues w and eigenvectors v of h (eigh_hermitian);
    t broadcasts against w.shape[:-1]."""
    vp = v * np.exp(-1j * w * np.asarray(t)[..., None])[..., None, :]
    return vp @ v.conj().swapaxes(-1, -2)


def expm_generator(h: np.ndarray, t) -> np.ndarray:
    """exp(-i h t) for Hermitian generators h (rad/s) and durations t (s), which
    broadcast against h.shape[:-2]; checked as in eigh_hermitian."""
    return expm_eigh(*eigh_hermitian(h), t)
