"""Propagation engine: compile a pulse program into a unitary or evolved state.

Ideal mode treats hard pulses and z-rotations as instantaneous; realistic
mode gives hard pulses their finite width (free evolution stays on during
pulses) and supports an rf-inhomogeneity ensemble as a deterministic
Gaussian-weighted grid of amplitude scale factors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from numbers import Integral

import numpy as np

from .linalg import eigh_hermitian, expm_eigh, hermiticity_defect, unitarity_defect
from .pulseprog import TWO_PI, Delay, HardPulse, PulseProgram, WeakPulse, ZRotation
from .spinsys import SpinSystem, free_hamiltonian, rf_hamiltonian, spin_operator

# FWHM of a Gaussian = 2 sqrt(2 ln 2) sigma
_FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

DEFAULT_RF_AMPLITUDES = {"1H": 35700.0, "15N": 5500.0}

# largest inclusive_grid (offset_scan's offsets, the CLI's kappa ranges) and rf ensemble
MAX_GRID_POINTS = 10_000


@dataclass(frozen=True)
class SimulationSettings:
    """Pulse realism mode, rf amplitudes per channel, inhomogeneity.

    rf_amplitudes, a mapping or (channel, Hz) pairs, is merged onto
    DEFAULT_RF_AMPLITUDES and stored as sorted pairs, so settings stay
    hashable. rf_fwhm is the full width at half height of the Gaussian
    rf-amplitude distribution as a fraction of the nominal amplitude (0
    disables the ensemble); the grid spans +/- 2 sigma with rf_grid_points
    points.
    """

    mode: str = "ideal"
    rf_amplitudes: tuple = ()
    rf_fwhm: float = 0.0
    rf_grid_points: int = 11

    def __post_init__(self):
        amps = {**DEFAULT_RF_AMPLITUDES, **dict(self.rf_amplitudes)}
        object.__setattr__(self, "rf_amplitudes", tuple(sorted(amps.items())))
        if self.mode not in ("ideal", "realistic"):
            raise ValueError(f"mode must be 'ideal' or 'realistic', got {self.mode!r}")
        # the engine exponentiates every pulse of a program in one batch, so
        # a NaN here would only surface as a LinAlgError from eigh
        for channel, amp in self.rf_amplitudes:
            if not math.isfinite(amp):
                raise ValueError(f"rf_amplitudes[{channel!r}] must be finite, got {amp!r}")
            if self.mode == "realistic" and amp <= 0:
                raise ValueError(f"rf_amplitudes[{channel!r}] must be positive in realistic mode, "
                                 f"got {amp!r}")
        if not 0.0 <= self.rf_fwhm < 1.0:
            raise ValueError("rf_fwhm must be in [0, 1)")
        if not isinstance(self.rf_grid_points, Integral):
            raise ValueError(f"rf_grid_points must be an integer, got {self.rf_grid_points!r}")
        if not 1 <= self.rf_grid_points <= MAX_GRID_POINTS or self.rf_grid_points % 2 == 0:
            raise ValueError(f"rf_grid_points must be odd, positive and at most {MAX_GRID_POINTS}, "
                             f"got {self.rf_grid_points!r}")

    def amplitude_for(self, channel: str) -> float:
        for name, amp in self.rf_amplitudes:
            if name == channel:
                return amp
        raise ValueError(f"no rf amplitude configured for channel {channel!r}")


IDEAL = SimulationSettings()


def _pulse_amplitude(ev: HardPulse, sys: SpinSystem, settings: SimulationSettings) -> float:
    """rf amplitude (Hz) of a finite hard pulse: that of the slowest rf channel
    it touches, to which a simultaneous multi-channel pulse is stretched."""
    amps = {ch: settings.amplitude_for(ch) for ch in {sys.channel_of(k) for k in ev.targets}}
    for ch, amp in amps.items():
        if amp <= 0:
            raise ValueError(f"channel {ch!r} has no positive rf amplitude")
    return min(amps.values())


def hard_pulse_width(ev: HardPulse, sys: SpinSystem, settings: SimulationSettings) -> float:
    """Finite width (s) of a hard pulse: |flip| / (2 pi amplitude) at the
    amplitude of the slowest rf channel it touches; a simultaneous
    multi-channel pulse is stretched to that channel."""
    return abs(ev.flip) / (TWO_PI * _pulse_amplitude(ev, sys, settings))


def total_duration(p: PulseProgram, settings: SimulationSettings = IDEAL,
                   sys: SpinSystem | None = None) -> float:
    """Program duration in seconds.

    Ideal mode: delays plus weak-pulse durations. Realistic mode: hard pulses
    additionally take hard_pulse_width each; needs the spin system for the
    spin -> channel map.
    """
    total = p.nominal_duration
    if settings.mode == "ideal":
        return total
    if sys is None:
        raise ValueError("realistic-mode duration needs the spin system for channel lookup")
    for ev in p.events:
        if isinstance(ev, HardPulse):
            total += hard_pulse_width(ev, sys, settings)
    return total


_IZ = {k: np.diag(spin_operator(k, "z")).real for k in (1, 2, 3)}
_FZ = sum(_IZ.values())  # diagonal of R = I1z + I2z + I3z
# R turns the rf axis and commutes with a diagonal H0, and a pulse conserves the Iz of
# each spin it leaves alone. So a pulse at phase phi is exp(-i phi R) U(0) exp(i phi R):
# its phase-0 propagator times exp(-i phi _SPREAD), entrywise
_SPREAD = _FZ[:, None] - _FZ


def _lower(ev, sys: SpinSystem, settings: SimulationSettings, h0: np.ndarray):
    """A Delay, a ZRotation or a zero-width pulse as its diagonal phase angles;
    any other pulse as its generator key (weight of H0, targets, rf amplitude at
    unit scale), its time and its rf phase. A negative flip is lowered as the
    positive flip at phase + pi."""
    if isinstance(ev, Delay):
        return np.diag(h0) * ev.duration
    if isinstance(ev, ZRotation):
        return ev.angle * _IZ[ev.target]
    if isinstance(ev, WeakPulse):
        return (1.0, ev.targets, ev.amplitude), ev.duration, ev.phase
    if not isinstance(ev, HardPulse):
        raise TypeError(f"unknown event type {type(ev).__name__}")
    phase = ev.phase + math.pi if ev.flip < 0 else ev.phase
    if settings.mode == "ideal":
        return (0.0, ev.targets, 1.0 / TWO_PI), abs(ev.flip), phase
    # Finite pulse at _pulse_amplitude for hard_pulse_width, so its generator
    # does not depend on the flip. The rf scale multiplies the delivered
    # amplitude, not the programmed duration.
    width = hard_pulse_width(ev, sys, settings)
    if width == 0.0:
        return np.zeros(8)
    return (1.0, ev.targets, _pulse_amplitude(ev, sys, settings)), width, phase


# programs x rf scales lowered together (one program at least); bounds the transient arrays
_CHUNK_MEMBERS = 88


def _post_order(programs) -> list:
    """The distinct program objects in the trees of programs and their parts,
    each after its parts."""
    order, seen, todo = [], set(), [(p, False) for p in reversed(programs)]
    while todo:  # no recursion: a chain of pairwise joins can be deeper than its limit
        p, parts_done = todo.pop()
        if parts_done:
            order.append(p)
        elif id(p) not in seen:
            seen.add(id(p))
            todo += [(p, True), *((part, False) for part in reversed(p.parts))]
    return order


def _chain(terms) -> np.ndarray:
    """Product of terms in time order, the first acting first. An (8,) diagonal
    scales the rows; a (B, 8, 8) stack scales the columns while the product is
    still an (8,) diagonal and multiplies it after that."""
    if not terms:
        return np.ones(8, dtype=complex)
    u = terms[0]  # never written in place: a one-term chain returns it
    for op in islice(terms, 1, None):
        if u.ndim == 1:
            u = op * u
        elif op.ndim == 1:
            u = op[:, None] * u
        else:
            u = op @ u
    return u


def _lower_chunk(chunk, sys: SpinSystem, settings: SimulationSettings, h0, rf_scales):
    """(K, B, 8, 8) propagators of K programs. Distinct events are lowered once:
    one exp for all delay/z-rotation phases, one real eigh for all distinct pulse
    generators at all scales (sound because h0 is diagonal), one exp per
    phase-free class (generator and time) and one for all pulse phases. Then each
    distinct program of the parts trees is chained once, parts first: a leaf (a
    program without parts) from its events, a node from its parts' products."""
    programs = _post_order(chunk)  # alive for the call, so their ids key products
    index: dict = {}
    orders = {id(p): [index.setdefault(ev, len(index)) for ev in p.events]
              for p in programs if not p.parts}
    ops = [_lower(ev, sys, settings, h0) for ev in index]  # made phase vectors, stacks below
    diag = [i for i, op in enumerate(ops) if isinstance(op, np.ndarray)]
    for i, phases in zip(diag, np.exp(-1j * np.array([ops[i] for i in diag]))):
        ops[i] = phases
    pulses = [i for i, op in enumerate(ops) if isinstance(op, tuple)]
    if pulses:
        keys, times, phis = zip(*(ops[i] for i in pulses))
        generators = {key: g for g, key in enumerate(dict.fromkeys(keys))}
        classes = {c: k for k, c in enumerate(dict.fromkeys(zip(keys, times)))}
        h0_weight, targets, amp = zip(*generators)
        rf = np.array([rf_hamiltonian(s, a, 0.0).real for s, a in zip(targets, amp)])
        w, v = eigh_hermitian(np.array(h0_weight)[:, None, None, None] * h0
                              + rf_scales[:, None, None] * rf[:, None])
        group = [generators[key] for key, _ in classes]
        class_stacks = expm_eigh(w[group], v[group], np.array([t for _, t in classes])[:, None])
        stacks = class_stacks[[classes[c] for c in zip(keys, times)]]
        stacks *= np.exp(-1j * np.array(phis)[:, None, None] * _SPREAD)[:, None]
        for i, stack in zip(pulses, stacks):
            ops[i] = stack
    products = {}  # id of a program in programs -> its (8,) phases or (B, 8, 8) product
    for p in programs:
        terms = [products[id(q)] for q in p.parts] if p.parts else [ops[i] for i in orders[id(p)]]
        products[id(p)] = _chain(terms)
    out = np.array([u if u.ndim == 3 else np.broadcast_to(np.diag(u), (len(rf_scales), 8, 8))
                    for u in (products[id(p)] for p in chunk)])
    defect = unitarity_defect(out)  # the exit check, once per chunk; NaN fails it
    if not defect <= 1e-10:
        raise ValueError(f"propagator is not unitary: defect {defect:.3e}")
    return out


def propagator_stacks(programs, sys: SpinSystem, settings: SimulationSettings = IDEAL,
                      scales=(1.0,)):
    """Yield each program's total propagators at the rf scales as a (B, 8, 8)
    stack; events compose right-to-left in time. Draws max(1, _CHUNK_MEMBERS // B)
    programs at a time and lowers them together. Ideal mode ignores scales."""
    for channel, _ in settings.rf_amplitudes:  # a misspelled channel would be ignored
        if channel not in sys.channels and channel not in DEFAULT_RF_AMPLITUDES:
            raise ValueError(f"rf_amplitudes[{channel!r}]: no spin is on that channel "
                             f"(channels {sorted(set(sys.channels))})")
    h0 = free_hamiltonian(sys).real
    rf_scales = np.asarray(scales, float) if settings.mode == "realistic" else np.ones(len(scales))
    programs, size = iter(programs), max(1, _CHUNK_MEMBERS // max(1, len(rf_scales)))
    while chunk := list(islice(programs, size)):
        yield from _lower_chunk(chunk, sys, settings, h0, rf_scales)


def propagator_of(p: PulseProgram, sys: SpinSystem,
                  settings: SimulationSettings = IDEAL) -> np.ndarray:
    """Total propagator of one program at the nominal rf amplitude."""
    return next(propagator_stacks((p,), sys, settings))[0]


def ensemble_scales(settings: SimulationSettings) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic rf-amplitude scale grid and normalized Gaussian weights (ideal: one point)."""
    if settings.mode == "ideal" or settings.rf_fwhm == 0.0 or settings.rf_grid_points == 1:
        return np.array([1.0]), np.array([1.0])
    sigma = settings.rf_fwhm / _FWHM_TO_SIGMA
    x = np.linspace(-2.0, 2.0, settings.rf_grid_points)  # in sigmas: no division by sigma
    scales, weights = 1.0 + sigma * x, np.exp(-0.5 * x**2)
    weights /= weights.sum()
    return scales, weights


def evolve_many(rho0: np.ndarray, programs, sys: SpinSystem,
                settings: SimulationSettings = IDEAL):
    """Yield U rho0 U† for each program, averaged over the rf ensemble."""
    rho0 = np.asarray(rho0, dtype=complex)
    defect = hermiticity_defect(rho0)
    if not defect <= 1e-10:  # NaN fails
        raise ValueError(f"initial state is not Hermitian: defect {defect:.3e}")
    scales, weights = ensemble_scales(settings)
    for u in propagator_stacks(programs, sys, settings, scales):
        yield np.tensordot(weights, u @ rho0 @ u.conj().swapaxes(-1, -2), axes=1)


def inclusive_grid(start: float, stop: float, step: float) -> list[float]:
    """Points start + i * step up to stop; [] when stop < start. A point past
    stop by rounding only, 1e-12 * max(1, |start|, |stop|), is kept, so a grid
    that reaches stop ends there. Raises ValueError naming the field for a
    non-finite bound or step, for step <= 0 and past MAX_GRID_POINTS points."""
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if step <= 0:
        raise ValueError("step must be positive")
    if stop < start:
        return []
    # round(span) + 1 points at most, counted before the grid is built; inf for a tiny step
    span = (stop - start) / step
    if span > MAX_GRID_POINTS or round(span) >= MAX_GRID_POINTS:
        raise ValueError(f"grid spans more than {MAX_GRID_POINTS} points")
    last = stop + 1e-12 * max(1.0, abs(start), abs(stop))
    return [x for x in (start + i * step for i in range(round(span) + 1)) if x <= last]


def offset_scan(p: PulseProgram, sys: SpinSystem, settings: SimulationSettings,
                channel: str, start: float, stop: float, step: float,
                metric) -> list[tuple[float, float]]:
    """Evaluate metric(program, shifted system, settings) over an offset grid.

    The grid shifts the offsets of all spins on the given channel by each
    value of inclusive_grid(start, stop, step), at most MAX_GRID_POINTS values.
    """
    try:
        offsets = inclusive_grid(start, stop, step)
    except ValueError as exc:
        raise ValueError(f"offset {exc}") from None
    if not offsets:
        raise ValueError("empty offset range")
    return [(o, float(metric(p, sys.shifted(channel, o), settings))) for o in offsets]
