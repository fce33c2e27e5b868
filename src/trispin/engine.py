"""Propagation engine: compile a pulse program into a unitary or evolved state.

Ideal mode treats hard pulses and z-rotations as instantaneous; realistic
mode gives hard pulses their finite width (free evolution stays on during
pulses) and supports an rf-inhomogeneity ensemble as a deterministic
Gaussian-weighted grid of amplitude scale factors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import expm_generator, hermiticity_defect
from .pulseprog import Delay, HardPulse, PulseProgram, WeakPulse, ZRotation, hard_pulse_width
from .spinsys import SpinSystem, free_hamiltonian, rf_hamiltonian, spin_operator

TWO_PI = 2.0 * math.pi

# FWHM of a Gaussian = 2 sqrt(2 ln 2) sigma
_FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

DEFAULT_RF_AMPLITUDES = {"1H": 35700.0, "15N": 5500.0}


@dataclass(frozen=True)
class SimulationSettings:
    """Pulse realism mode, rf amplitudes per channel, inhomogeneity, offsets.

    rf_fwhm is the full width at half height of the Gaussian rf-amplitude
    distribution as a fraction of the nominal amplitude (0 disables the
    ensemble); the grid spans +/- 2 sigma with rf_grid_points points.
    """

    mode: str = "ideal"
    rf_amplitudes: tuple = tuple(sorted(DEFAULT_RF_AMPLITUDES.items()))
    rf_fwhm: float = 0.0
    rf_grid_points: int = 11
    offset_overrides: tuple = ()  # ordered (spin, Hz) pairs

    def __post_init__(self):
        if self.mode not in ("ideal", "realistic"):
            raise ValueError(f"mode must be 'ideal' or 'realistic', got {self.mode!r}")
        amps = dict(self.rf_amplitudes)
        if self.mode == "realistic" and any(a <= 0 for a in amps.values()):
            raise ValueError("realistic mode requires positive rf amplitudes")
        if not 0.0 <= self.rf_fwhm < 1.0:
            raise ValueError("rf_fwhm must be in [0, 1)")
        if self.rf_grid_points < 1 or self.rf_grid_points % 2 == 0:
            raise ValueError("rf_grid_points must be odd and positive")

    @classmethod
    def make(cls, mode="ideal", rf_amplitudes=None, rf_fwhm=0.0,
             rf_grid_points=11, offset_overrides=None) -> "SimulationSettings":
        amps = dict(DEFAULT_RF_AMPLITUDES)
        if rf_amplitudes:
            amps.update(rf_amplitudes)
        overrides = tuple(sorted((offset_overrides or {}).items()))
        return cls(mode, tuple(sorted(amps.items())), rf_fwhm, rf_grid_points, overrides)

    def amplitude_for(self, channel: str) -> float:
        amps = dict(self.rf_amplitudes)
        if channel not in amps:
            raise ValueError(f"no rf amplitude configured for channel {channel!r}")
        return amps[channel]


IDEAL = SimulationSettings.make()


def _apply_overrides(sys: SpinSystem, settings: SimulationSettings) -> SpinSystem:
    if not settings.offset_overrides:
        return sys
    nus = list(sys.offsets)
    for spin, nu in settings.offset_overrides:
        nus[spin - 1] = nu
    return sys.with_offsets(*nus)


def _hard_pulse_unitary(ev: HardPulse, sys: SpinSystem, settings: SimulationSettings,
                        h0: np.ndarray, rf_scale: float) -> np.ndarray:
    if settings.mode == "ideal":
        return expm_generator(rf_hamiltonian(ev.targets, 1.0 / TWO_PI, ev.phase), ev.flip)
    # Finite pulse of hard_pulse_width; every channel's rf is stretched so
    # its flip completes within that width. The inhomogeneity scale
    # multiplies the delivered amplitude, not the programmed duration.
    width = hard_pulse_width(ev, sys, settings)
    if width == 0.0:
        return np.eye(8, dtype=complex)
    amp = rf_scale * ev.flip / (TWO_PI * width)
    return expm_generator(h0 + rf_hamiltonian(ev.targets, amp, ev.phase), width)


def propagator_of(p: PulseProgram, sys: SpinSystem,
                  settings: SimulationSettings = IDEAL,
                  rf_scale: float = 1.0) -> np.ndarray:
    """Total propagator of the program; events compose right-to-left in time."""
    sys = _apply_overrides(sys, settings)
    h0 = free_hamiltonian(sys)
    h0_diag = np.diag(h0).copy()
    cache: dict = {}
    u = np.eye(8, dtype=complex)
    for ev in p.events:
        key = ev
        if key not in cache:
            if isinstance(ev, Delay):
                cache[key] = np.diag(np.exp(-1j * h0_diag * ev.duration))
            elif isinstance(ev, HardPulse):
                cache[key] = _hard_pulse_unitary(ev, sys, settings, h0, rf_scale)
            elif isinstance(ev, WeakPulse):
                scale = rf_scale if settings.mode == "realistic" else 1.0
                h = h0 + rf_hamiltonian(ev.targets, scale * ev.amplitude, ev.phase)
                cache[key] = expm_generator(h, ev.duration)
            elif isinstance(ev, ZRotation):
                cache[key] = np.diag(np.exp(-1j * ev.angle * np.diag(spin_operator(ev.target, "z"))))
            else:
                raise TypeError(f"unknown event type {type(ev).__name__}")
        u = cache[key] @ u
    return u


def ensemble_scales(settings: SimulationSettings) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic rf-amplitude scale grid and normalized Gaussian weights."""
    if settings.rf_fwhm == 0.0 or settings.rf_grid_points == 1:
        return np.array([1.0]), np.array([1.0])
    sigma = settings.rf_fwhm / _FWHM_TO_SIGMA
    scales = 1.0 + sigma * np.linspace(-2.0, 2.0, settings.rf_grid_points)
    weights = np.exp(-((scales - 1.0) ** 2) / (2.0 * sigma**2))
    weights /= weights.sum()
    return scales, weights


def rf_ensemble_average(metric, settings: SimulationSettings) -> float:
    """Weighted mean of metric(scale) over the rf-inhomogeneity grid."""
    scales, weights = ensemble_scales(settings)
    return float(sum(w * metric(c) for c, w in zip(scales, weights)))


def evolve(rho0: np.ndarray, p: PulseProgram, sys: SpinSystem,
           settings: SimulationSettings = IDEAL) -> np.ndarray:
    """U rho0 U†, ensemble-averaged over rf scales when enabled."""
    rho0 = np.asarray(rho0, dtype=complex)
    defect = hermiticity_defect(rho0)
    if defect > 1e-10:
        raise ValueError(f"initial state is not Hermitian: defect {defect:.3e}")
    if settings.mode == "realistic" and settings.rf_fwhm > 0.0:
        scales, weights = ensemble_scales(settings)
        out = np.zeros_like(rho0)
        for c, w in zip(scales, weights):
            u = propagator_of(p, sys, settings, rf_scale=float(c))
            out += w * (u @ rho0 @ u.conj().T)
        return out
    u = propagator_of(p, sys, settings)
    return u @ rho0 @ u.conj().T


def offset_scan(p: PulseProgram, sys: SpinSystem, settings: SimulationSettings,
                channel: str, start: float, stop: float, step: float,
                metric) -> list[tuple[float, float]]:
    """Evaluate metric(program, shifted system, settings) over an offset grid.

    The grid shifts the offsets of all spins on the given channel by each
    value in [start, stop] with the given step (inclusive endpoints).
    """
    if step <= 0:
        raise ValueError("offset step must be positive")
    if stop < start:
        raise ValueError("empty offset range")
    n = int(round((stop - start) / step))
    offsets = [start + i * step for i in range(n + 1)]
    return [(o, float(metric(p, sys.shifted(channel, o), settings))) for o in offsets]
