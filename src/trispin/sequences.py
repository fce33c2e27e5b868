"""Ideal pulse sequences A-D for the trilinear propagator, and SWAP(1,3).

Each builder returns a PulseProgram whose ideal propagator under the
on-resonance chain (J12 = J23 = J, J13 = 0) equals U_zzz(kappa) up to a
global phase. Durations follow the closed forms

    A: (2 + kappa) / 2J      B: 1 / J
    C: (1 + kappa) / 2J      D: sqrt(kappa (4 - kappa)) / 2J   (time-optimal)

Coupling-only evolutions are realized as delays; where a single coupling
(or its inverse) is needed, the delay is wrapped in selective spin echoes
(pi pairs) / pi-conjugations, which is exact up to global phase.
"""
from __future__ import annotations

import math

import numpy as np

from .pulseprog import Delay, HardPulse, PulseProgram, WeakPulse, ZRotation, join

VARIANTS = ("A", "B", "C", "D")

_X = 0.0
_Y = math.pi / 2
_MX = math.pi

_D90 = math.pi / 2
_D180 = math.pi


def _check_kappa(kappa):
    for k in np.asarray(kappa).ravel().tolist():  # a float or an array; NaN fails too
        if not 0.0 <= k <= 2.0:
            raise ValueError(f"kappa must be in [0, 2], got {k}")


def _check_variant(v: str):
    if v not in VARIANTS:
        raise ValueError(f"unknown sequence variant {v!r}")


def _check_j(j: float):
    if not (math.isfinite(j) and j > 0 and math.isfinite(1.0 / j)):
        why = " (1 / J overflows)" if math.isfinite(j) and j > 0 else ""  # a subnormal J
        raise ValueError(f"coupling J must be positive and finite, got {j}{why}")


# The fixed pulses are built once and shared by every program: events are
# immutable values, and only delays and the kappa-dependent pulses are built per call
_SPIN2 = frozenset({2})
_PI_X1, _PI_X2, _PI_X3 = (HardPulse(frozenset({k}), _D180, _X) for k in (1, 2, 3))
_P90X2, _M90X2 = HardPulse(_SPIN2, _D90, _X), HardPulse(_SPIN2, -_D90, _X)  # +-90x(2)
_P90Y2, _M90Y2 = HardPulse(_SPIN2, _D90, _Y), HardPulse(_SPIN2, -_D90, _Y)  # +-90y(2)


def _echo(duration: float, flip: HardPulse) -> list:
    """Coupling evolution with all terms involving flip's spin cancelled.

    delay/2 - flip - delay/2 - flip, flip a pi_x pulse: exact up to a global phase.
    """
    half = Delay(duration / 2)
    return [half, flip, half, flip]


def _inverted(block: list, flip: HardPulse) -> list:
    """Sign-flip all I_kz factors of a coupling block by conjugation with flip,
    a pi_x pulse on spin k."""
    return [flip, *block, flip]


def _uzzz_a(kappa: float, j: float) -> list:
    # V_A^{-1}: -90x(2), exp{+i pi I1z I2z}, -90y(2);  then exp{-i pi k I2zI3z};
    # then V_A: 90y(2), exp{-i pi I1z I2z}, 90x(2). J12 alone needs J23
    # refocused (echo on spin 3); the lone J23 term needs J12 refocused
    # (echo on spin 1).
    zz12 = _echo(1.0 / (2 * j), _PI_X3)
    return [_M90X2, *_inverted(zz12, _PI_X1), _M90Y2, *_echo(kappa / (2 * j), _PI_X1),
            _P90Y2, *zz12, _P90X2]


def _uzzz_b(kappa: float, j: float) -> list:
    # V_B^{-1}: -90y(2), inverse full-coupling delay; central kappa*90x(2);
    # V_B: full-coupling delay, 90y(2).
    full = Delay(1.0 / (2 * j))
    return [_M90Y2, *_inverted([full], _PI_X2), HardPulse(_SPIN2, kappa * _D90, _X), full, _P90Y2]


def _uzzz_c(kappa: float, j: float) -> list:
    # Trailing z-rotation exp{+i pi/2 kappa I2z} first in time, then
    # V_C^{-1}, the I2y-axis coupling evolution (90x(2) conjugation of a
    # plain delay), and V_C. The z-rotation sign is locked by the
    # brute-force identity test.
    quarter = Delay(1.0 / (4 * j))
    return [ZRotation(2, -kappa * _D90), _M90Y2, *_inverted([quarter], _PI_X2), _P90Y2,
            _P90X2, Delay(kappa / (2 * j)), _M90X2, _M90Y2, quarter, _P90Y2]


def geodesic_tau(kappa: float | np.ndarray) -> float | np.ndarray:
    """tau J of the time-optimal sequence, sqrt(kappa (4 - kappa)) / 2: a float or an array."""
    tau = np.sqrt(kappa * (4.0 - kappa)) / 2.0  # np.sqrt, like math.sqrt, rounds correctly
    return tau if tau.ndim else float(tau)


def weak_pulse_amplitude(kappa: float, j: float) -> float:
    """Amplitude (Hz) of the geodesic sequence's weak pulse on spin 2."""
    _check_kappa(kappa)
    _check_j(j)
    return 0.0 if kappa == 0.0 else (2.0 - kappa) * j / (2.0 * geodesic_tau(kappa))


def _uzzz_d(kappa: float, j: float) -> list:
    # V_D^{-1}: -90y(2); central simultaneous coupling + weak rf on spin 2
    # (phase -x) for tau*; then W = (2 - kappa/2)*180 x(2); then V_D: 90y(2).
    tau = geodesic_tau(kappa) / j
    weak = [WeakPulse(_SPIN2, weak_pulse_amplitude(kappa, j), tau, _MX)] if tau > 0.0 else []
    return [_M90Y2, *weak, HardPulse(_SPIN2, (2.0 - kappa / 2.0) * _D180, _X), _P90Y2]


_BUILDERS = {"A": _uzzz_a, "B": _uzzz_b, "C": _uzzz_c, "D": _uzzz_d}


def build_uzzz(v: str, kappa: float, j: float) -> PulseProgram:
    """Ideal pulse program realizing U_zzz(kappa) with sequence variant v."""
    _check_variant(v)
    if np.ndim(kappa):
        raise ValueError(f"kappa must be one number, got an array of shape {np.shape(kappa)}")
    _check_kappa(kappa)
    _check_j(j)
    kappa, j = float(kappa), float(j)  # so no np.float64(...) reaches program text
    events = _BUILDERS[v](kappa, j)
    return PulseProgram(tuple(events), label=f"uzzz-{v}", kappa=kappa)


def duration_scaling(v: str, kappa: float | np.ndarray) -> tuple:
    """(tau * J, s) for variant v: duration in units of 1/J and scaling factor.

    kappa is a float, giving two Python floats, or an array, giving two arrays
    of its shape. Satisfies s * (tau J) = kappa exactly.
    """
    _check_variant(v)
    _check_kappa(kappa)
    tau = {"A": (2.0 + kappa) / 2.0, "B": np.ones(np.shape(kappa)), "C": (1.0 + kappa) / 2.0,
           "D": geodesic_tau(kappa)}[v]
    s = np.divide(kappa, tau, out=np.zeros(np.shape(tau)), where=tau != 0.0)  # s = 0 at tau = 0
    return (tau, s) if s.ndim else (float(tau), float(s))


def theoretical_limit(kappa: float | np.ndarray) -> tuple:
    """(tau* J, s*) - the time-optimal bound, valid for any finite real kappa, a
    float (giving Python floats) or an array (giving arrays).

    kappa is first reduced into [0, 1] using tau*(2n +/- kappa) = tau*(kappa);
    the bound there is sequence D's duration and scaling.
    """
    for k in np.asarray(kappa).ravel().tolist():  # fmod would make an infinity NaN, with a warning
        if math.isinf(k):
            raise ValueError(f"kappa must be finite, got {k}")
    r = np.fmod(np.abs(kappa), 2.0)  # NaN for a NaN kappa, which D rejects
    return duration_scaling("D", np.minimum(r, 2.0 - r))


# The SWAP's frames, one leaf object each, shared by every SWAP: the engine chains
# each once per lowering chunk. Programs are never changed after construction
_SWAP_HEAD = PulseProgram((ZRotation(2, -_D90),  # exp{+i pi/2 I2z}
                           # U_xzx = R U_zzz R^-1 with R = 90y(1,3) mapping z->x on spins 1, 3
                           HardPulse(frozenset({1, 3}), -_D90, _Y)))
_SWAP_MID = PulseProgram((HardPulse(frozenset({1, 3}), _D90, _Y),
                          # U_yzy via R' = -90x(1,3) mapping z->y on spins 1, 3
                          HardPulse(frozenset({1, 3}), _D90, _X)))
_SWAP_TAIL = PulseProgram((HardPulse(frozenset({1, 3}), -_D90, _X),))


def compose_swap13(core: PulseProgram, label: str, kappa: float) -> PulseProgram:
    """Indirect SWAP(1,3) program: U_zzz U_yzy U_xzx exp{+i pi/2 I2z}.

    core is one U_zzz block. Each trilinear factor is an axis-change
    conjugation (90-degree rotations on spins 1 and 3) around it; at kappa = 1
    the propagator equals the spin-1<->3 permutation up to global phase. The
    three copies of the core are the same leaf objects (PulseProgram.parts),
    so the engine multiplies the core's events once.
    """
    parts = (_SWAP_HEAD, core, _SWAP_MID, core, _SWAP_TAIL, core)
    return join(parts, label, kappa)  # the last core is U_zzz


def build_swap13(v: str, kappa: float, j: float) -> PulseProgram:
    """Indirect SWAP(1,3) program around the variant's ideal U_zzz block."""
    return compose_swap13(build_uzzz(v, kappa, j), f"swap13-{v}", float(kappa))
