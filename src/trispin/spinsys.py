"""Spin operators, free-evolution / rf Hamiltonians, and target propagators.

Conventions (fixed once, everything else is locked to them by tests):

* Basis ordering: spin 1 occupies the leftmost Kronecker factor; basis index
  b = 4*b1 + 2*b2 + b3 with bit 0 -> |up> (z-eigenvalue +1/2).
* A pulse of flip angle theta and phase phi acts on states as
  exp{-i theta (Ix cos(phi) + Iy sin(phi))}; density operators transform by
  conjugation.
* Couplings and offsets are given in Hz and converted with an explicit 2*pi
  here, never inside linalg.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .linalg import expm_generator

AXES = ("x", "y", "z")

PROTON = "1H"
HETERO = "15N"
# the amino protons (spins 1 and 3) share the 1H channel; the heteronucleus has its own
CHANNELS = {1: PROTON, 2: HETERO, 3: PROTON}

_SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class SpinSystem:
    """Three weakly coupled spins 1/2: couplings j12, j23, j13 and offsets
    nu1..nu3, in Hz. Spin k is on rf channel CHANNELS[k]."""

    j12: float
    j23: float
    j13: float = 0.0
    nu1: float = 0.0
    nu2: float = 0.0
    nu3: float = 0.0

    def __post_init__(self):
        for name in ("j12", "j23", "j13", "nu1", "nu2", "nu3"):  # Hz, used as 2 pi value in rad/s
            v = getattr(self, name)
            if not (math.isfinite(v) and math.isfinite(2 * math.pi * float(v))):
                why = f" (2 pi {name} overflows)" if math.isfinite(v) else ""
                raise ValueError(f"{name} must be finite, got {v!r}{why}")
        h0_max = math.pi * (sum(map(abs, (self.j12, self.j23, self.j13))) / 2 + sum(map(abs, self.offsets)))
        if not math.isfinite(h0_max):  # the largest |entry| of H0 (rad/s), which passing fields can overflow
            raise ValueError("j12, j23, j13, nu1, nu2 and nu3 overflow the free Hamiltonian together: "
                             "2 pi (|j12| + |j23| + |j13|) / 4 + pi (|nu1| + |nu2| + |nu3|) is not finite")

    @property
    def offsets(self) -> tuple[float, float, float]:
        return (self.nu1, self.nu2, self.nu3)

    def shifted(self, channel: str, delta: float) -> "SpinSystem":
        """Shift the offsets of all spins on the given channel by delta (Hz)."""
        spins = [k for k, ch in CHANNELS.items() if ch == channel]
        if not spins:  # a misspelled channel would shift nothing
            raise ValueError(f"channel {channel!r}: no spin is on that channel "
                             f"(channels {sorted(set(CHANNELS.values()))})")
        return replace(self, **{f"nu{k}": self.offsets[k - 1] + delta for k in spins})


def ideal_chain(j: float) -> SpinSystem:
    """On-resonance Ising chain with J12 = J23 = j and J13 = 0."""
    return SpinSystem(j12=j, j23=j, j13=0.0)


def acetamide() -> SpinSystem:
    """The [15N]-acetamide amino moiety used in the experiments.

    Protons on spins 1 and 3 (358 Hz apart, carrier on spin 1), 15N on
    spin 2, couplings 88.8 / 87.3 / 2.9 Hz.
    """
    return SpinSystem(j12=88.8, j23=87.3, j13=2.9, nu1=0.0, nu2=0.0, nu3=358.0)


@lru_cache(maxsize=None)
def spin_operator(k: int, axis: str) -> np.ndarray:
    """The 8x8 angular momentum operator I_{k,axis} = sigma_axis/2 on spin k."""
    if k not in (1, 2, 3):
        raise ValueError(f"spin index must be 1, 2 or 3, got {k}")
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    factors = [_ID2, _ID2, _ID2]
    factors[k - 1] = 0.5 * _SIGMA[axis]
    out = np.kron(np.kron(factors[0], factors[1]), factors[2])
    out.setflags(write=False)
    return out


# the diagonal of I_kz for each spin k; H0 and every z-rotation are diagonal in the Zeeman basis
IZ_DIAG = {k: np.diag(spin_operator(k, "z")).real for k in (1, 2, 3)}


def free_hamiltonian(sys: SpinSystem) -> np.ndarray:
    """H0 = coupling + offset term, in rad/s, as its (8,) real diagonal in the Zeeman basis."""
    z1, z2, z3 = IZ_DIAG.values()
    return 2 * np.pi * (sys.j12 * z1 * z2 + sys.j23 * z2 * z3 + sys.j13 * z1 * z3
                        + sys.nu1 * z1 + sys.nu2 * z2 + sys.nu3 * z3)


def rf_hamiltonian(targets, amplitude: float) -> np.ndarray:
    """Rotating-frame rf term at phase 0, 2*pi*amplitude * sum_k Ikx, a real matrix; the
    engine turns a pulse at phase phi by exp(-i phi (I1z + I2z + I3z))."""
    targets = tuple(targets)
    if not targets:
        raise ValueError("rf_hamiltonian requires a nonempty target set")
    return 2 * np.pi * amplitude * sum(spin_operator(k, "x").real for k in targets)


def target_trilinear(alpha: str, beta: str, gamma: str, kappa) -> np.ndarray:
    """exp{-i 2 pi kappa I1a I2b I3g}; an array of kappas gives a stack from one eigh."""
    k = np.asarray(kappa, dtype=float)
    if not np.isfinite(k).all():  # a NaN target would pass through fidelity unnoticed
        raise ValueError(f"kappa must be finite, got {float(k[~np.isfinite(k)].flat[0])!r}")
    prod = spin_operator(1, alpha) @ spin_operator(2, beta) @ spin_operator(3, gamma)
    return expm_generator(2 * np.pi * prod, kappa)


def swap13_target() -> np.ndarray:
    """Permutation unitary exchanging spins 1 and 3: |abc> -> |cba>."""
    # swapping bits b1 and b3 of b = 4 b1 + 2 b2 + b3 is its own inverse
    return np.eye(8, dtype=complex)[[4 * (b & 1) + (b & 2) + (b >> 2) for b in range(8)]]
