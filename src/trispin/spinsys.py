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

_SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class SpinSystem:
    """Three weakly coupled spins 1/2: couplings, offsets, channel labels.

    Couplings j12, j23, j13 and offsets nu1..nu3 are in Hz. Each spin is
    assigned to exactly one rf channel; spins sharing a channel share pulse
    hardware (amino protons on 1H, the heteronucleus on its own channel).
    """

    j12: float
    j23: float
    j13: float = 0.0
    nu1: float = 0.0
    nu2: float = 0.0
    nu3: float = 0.0
    channels: tuple[str, str, str] = (PROTON, HETERO, PROTON)

    def __post_init__(self):
        for name in ("j12", "j23", "j13", "nu1", "nu2", "nu3"):  # Hz, used as 2 pi value in rad/s
            v = getattr(self, name)
            if not (math.isfinite(v) and math.isfinite(2 * math.pi * float(v))):
                why = f" (2 pi {name} overflows)" if math.isfinite(v) else ""
                raise ValueError(f"{name} must be finite, got {v!r}{why}")
        if len(self.channels) != 3:
            raise ValueError("exactly three channel assignments required")

    @property
    def offsets(self) -> tuple[float, float, float]:
        return (self.nu1, self.nu2, self.nu3)

    def channel_of(self, k: int) -> str:
        return self.channels[k - 1]

    def spins_on(self, channel: str) -> tuple[int, ...]:
        return tuple(k for k in (1, 2, 3) if self.channels[k - 1] == channel)

    def shifted(self, channel: str, delta: float) -> "SpinSystem":
        """Shift the offsets of all spins on the given channel by delta (Hz)."""
        spins = self.spins_on(channel)
        if not spins:  # a misspelled channel would shift nothing
            raise ValueError(f"channel {channel!r}: no spin is on that channel "
                             f"(channels {sorted(set(self.channels))})")
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


def free_hamiltonian(sys: SpinSystem) -> np.ndarray:
    """H0 = coupling + offset term, in rad/s. Diagonal in the Zeeman basis."""
    iz = [spin_operator(k, "z") for k in (1, 2, 3)]
    return 2 * np.pi * (
        sys.j12 * iz[0] @ iz[1]
        + sys.j23 * iz[1] @ iz[2]
        + sys.j13 * iz[0] @ iz[2]
        + sys.nu1 * iz[0]
        + sys.nu2 * iz[1]
        + sys.nu3 * iz[2]
    )


def rf_hamiltonian(targets, amplitude: float, phase: float) -> np.ndarray:
    """Rotating-frame rf term 2*pi*amplitude * sum_k (Ikx cos(phi) + Iky sin(phi))."""
    targets = tuple(targets)
    if not targets:
        raise ValueError("rf_hamiltonian requires a nonempty target set")
    h = np.zeros((8, 8), dtype=complex)
    for k in targets:
        h += spin_operator(k, "x") * np.cos(phase) + spin_operator(k, "y") * np.sin(phase)
    return 2 * np.pi * amplitude * h


def target_trilinear(alpha: str, beta: str, gamma: str, kappa) -> np.ndarray:
    """exp{-i 2 pi kappa I1a I2b I3g}; an array of kappas gives a stack from one eigh."""
    prod = spin_operator(1, alpha) @ spin_operator(2, beta) @ spin_operator(3, gamma)
    return expm_generator(2 * np.pi * prod, kappa)


def swap13_target() -> np.ndarray:
    """Permutation unitary exchanging spins 1 and 3: |abc> -> |cba>."""
    # swapping bits b1 and b3 of b = 4 b1 + 2 b2 + b3 is its own inverse
    return np.eye(8, dtype=complex)[[4 * (b & 1) + (b & 2) + (b >> 2) for b in range(8)]]
