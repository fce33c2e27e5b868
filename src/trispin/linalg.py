"""Dense complex matrix helpers for the 8-dimensional three-spin Hilbert space.

Everything here works on plain numpy arrays. Generators (Hamiltonians) are
carried in rad/s; propagators are dimensionless unitaries.
"""
from __future__ import annotations

import numpy as np

# All operator matrices entering expm_generator are exact sums of Pauli
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


def expm_generator(h: np.ndarray, t) -> np.ndarray:
    """exp(-i h t) for Hermitian generators h (rad/s) and durations t (s).

    h is one real or complex matrix or (..., n, n) stack and t broadcasts
    against h.shape[:-2]; one eigh covers the stack. Raises ValueError if h is
    not Hermitian within HERMITIAN_TOL, reporting the largest asymmetry.
    """
    h = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)  # real: a real eigh
    defect = hermiticity_defect(h)
    if defect > HERMITIAN_TOL:
        raise ValueError(
            f"generator is not Hermitian: max |H - H†| = {defect:.3e} "
            f"(tolerance {HERMITIAN_TOL:.0e})"
        )
    w, v = np.linalg.eigh(h)
    del h  # the caller may pass its only reference: one stack fewer below
    phases = np.exp(-1j * w * np.asarray(t)[..., None])
    vp = v * phases[..., None, :]
    return vp @ np.conj(v, out=v).swapaxes(-1, -2)  # in place: one stack fewer at a time
