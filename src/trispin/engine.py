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
from .spinsys import CHANNELS, HETERO, IZ_DIAG, PROTON, SpinSystem, free_hamiltonian, rf_hamiltonian

# FWHM of a Gaussian = 2 sqrt(2 ln 2) sigma
_FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

# the cap of cli._parse_range's --kappa grid, rf_grid_points and broadband._check_segments's DANTE n
MAX_GRID_POINTS = 10_000
MODES = ("ideal", "realistic")  # SimulationSettings.mode, and the CLI's --mode choices

_RF_FIELDS = {PROTON: "rf_proton", HETERO: "rf_hetero"}  # channel -> its SimulationSettings field


@dataclass(frozen=True)
class SimulationSettings:
    """Pulse realism mode, rf amplitudes, inhomogeneity.

    rf_proton and rf_hetero are the nominal amplitudes (Hz) of the 1H and
    15N channels (spinsys.CHANNELS). rf_fwhm is the full width at half
    height of the Gaussian rf-amplitude distribution as a fraction of the
    nominal amplitude (0 disables the ensemble); the grid spans +/- 2 sigma
    with rf_grid_points points.
    """

    mode: str = "ideal"
    rf_proton: float = 35700.0
    rf_hetero: float = 5500.0
    rf_fwhm: float = 0.0
    rf_grid_points: int = 11

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be {' or '.join(map(repr, MODES))}, got {self.mode!r}")
        # in both modes: a finite pulse's width divides by them, and a NaN would fail the batched eigh
        for name in _RF_FIELDS.values():
            amp = getattr(self, name)
            if not math.isfinite(amp):
                raise ValueError(f"{name} must be finite, got {amp!r}")
            if amp <= 0:
                raise ValueError(f"{name} must be positive, got {amp!r}")
        if not 0.0 <= self.rf_fwhm < 1.0:
            raise ValueError("rf_fwhm must be in [0, 1)")
        if not isinstance(self.rf_grid_points, Integral):
            raise ValueError(f"rf_grid_points must be an integer, got {self.rf_grid_points!r}")
        if not 1 <= self.rf_grid_points <= MAX_GRID_POINTS or self.rf_grid_points % 2 == 0:
            raise ValueError(f"rf_grid_points must be odd, positive and at most {MAX_GRID_POINTS}, "
                             f"got {self.rf_grid_points!r}")


IDEAL = SimulationSettings()


def _pulse_amplitude(ev: HardPulse, settings: SimulationSettings) -> float:
    """rf amplitude (Hz) of a finite hard pulse: that of the slowest rf channel
    it touches, to which a simultaneous multi-channel pulse is stretched."""
    return min(getattr(settings, _RF_FIELDS[CHANNELS[k]]) for k in ev.targets)


def hard_pulse_width(ev: HardPulse, settings: SimulationSettings) -> float:
    """Finite width (s) of a hard pulse: |flip| / (2 pi amplitude) at the
    amplitude of the slowest rf channel it touches; a simultaneous
    multi-channel pulse is stretched to that channel."""
    return abs(ev.flip) / (TWO_PI * _pulse_amplitude(ev, settings))


def total_duration(p: PulseProgram, settings: SimulationSettings = IDEAL) -> float:
    """Duration (s), summed in event order: delays, weak pulses and, if realistic, hard_pulse_width."""
    total = 0.0
    for ev in p.events:
        if isinstance(ev, (Delay, WeakPulse)):
            total += ev.duration
        elif isinstance(ev, HardPulse) and settings.mode == "realistic":
            total += hard_pulse_width(ev, settings)
    return total


_FZ = sum(IZ_DIAG.values())  # diagonal of R = I1z + I2z + I3z
# R turns the rf axis and commutes with a diagonal H0, and a pulse conserves the Iz of
# each spin it leaves alone. So a pulse at phase phi is exp(-i phi R) U(0) exp(i phi R):
# its phase-0 propagator times exp(-i phi _SPREAD), entrywise
_SPREAD = _FZ[:, None] - _FZ
_DIAGONAL = np.eye(8, dtype=bool)  # where np.where places a diagonal; its zeros are +0.0, as np.diag's


def _lower(ev, settings: SimulationSettings, h0: np.ndarray):
    """A Delay, a ZRotation or a zero-width pulse as its (S, 8) diagonal phase
    angles, one row per spin system; any other pulse as its generator key (weight
    of H0, targets, rf amplitude at unit scale), its time and its rf phase. A
    negative flip is lowered as the positive flip at phase + pi."""
    if isinstance(ev, Delay):
        return h0 * ev.duration
    if isinstance(ev, ZRotation):
        return np.broadcast_to(ev.angle * IZ_DIAG[ev.target], h0.shape)
    if isinstance(ev, WeakPulse):
        return (1.0, ev.targets, ev.amplitude), ev.duration, ev.phase
    phase = ev.phase + math.pi if ev.flip < 0 else ev.phase
    if settings.mode == "ideal":
        return (0.0, ev.targets, 1.0 / TWO_PI), abs(ev.flip), phase
    # Finite pulse at _pulse_amplitude for hard_pulse_width, so its generator
    # does not depend on the flip. The rf scale multiplies the delivered
    # amplitude, not the programmed duration.
    width = hard_pulse_width(ev, settings)
    if width == 0.0:
        return np.zeros(h0.shape)
    return (1.0, ev.targets, _pulse_amplitude(ev, settings)), width, phase


# programs x members lowered together (one program at least, members sliced); bounds the transient arrays
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
    """Product of terms in time order, the first acting first. An (S, 8) diagonal
    scales the rows; an (M, 8, 8) stack scales the columns while the product is
    still diagonal and multiplies it after that. S is 1 or M: they broadcast."""
    if not terms:
        return np.ones((1, 8), dtype=complex)
    u = terms[0]  # never written in place: a one-term chain returns it
    for op in islice(terms, 1, None):
        if u.ndim < 3:
            u = op * u[:, None] if op.ndim == 3 else op * u
        elif op.ndim < 3:
            u = op[..., None] * u
        else:
            u = op @ u
    return u


@np.errstate(over="ignore", invalid="ignore")  # an overflow leaves a NaN, which a check below reports
def _lower_chunk(chunk, settings: SimulationSettings, h0, rf_scales):
    """(K, M, 8, 8) propagators of K programs at M members, the broadcast of the H0 diagonals
    h0 (S, 8) and the rf scales. Distinct events are lowered once: one exp for all delay and
    z-rotation phases, one real eigh for all distinct pulse generators at all members (sound
    as H0 is diagonal), one exp per phase-free class (generator and time) and one for all pulse
    phases. Then each distinct program of the parts trees is chained once, parts first: a
    leaf (a program without parts) from its events, a node from its parts' products."""
    programs = _post_order(chunk)  # alive for the call, so their ids key products
    index: dict = {}
    orders = {id(p): [index.setdefault(ev, len(index)) for ev in p.events]
              for p in programs if not p.parts}
    ops = [_lower(ev, settings, h0) for ev in index]  # made phase vectors, stacks below
    diag = [i for i, op in enumerate(ops) if isinstance(op, np.ndarray)]
    for i, phases in zip(diag, np.exp(-1j * np.array([ops[i] for i in diag]))):
        ops[i] = phases
    pulses = [i for i, op in enumerate(ops) if isinstance(op, tuple)]
    if pulses:
        keys, times, phis = zip(*(ops[i] for i in pulses))
        generators = {key: g for g, key in enumerate(dict.fromkeys(keys))}
        classes = {c: k for k, c in enumerate(dict.fromkeys(zip(keys, times)))}
        h0_weight, targets, amp = zip(*generators)
        rf = np.array([rf_hamiltonian(s, a) for s, a in zip(targets, amp)])
        h0_matrices = np.where(_DIAGONAL, h0[..., None], 0.0)
        w, v = eigh_hermitian(np.array(h0_weight)[:, None, None, None] * h0_matrices
                              + rf_scales[:, None, None] * rf[:, None])
        group = [generators[key] for key, _ in classes]
        class_stacks = expm_eigh(w[group], v[group], np.array([t for _, t in classes])[:, None])
        stacks = class_stacks[[classes[c] for c in zip(keys, times)]]
        stacks *= np.exp(-1j * np.array(phis)[:, None, None] * _SPREAD)[:, None]
        for i, stack in zip(pulses, stacks):
            ops[i] = stack
    products = {}  # id of a program in programs -> its diagonal or (M, 8, 8) product
    for p in programs:
        terms = [products[id(q)] for q in p.parts] if p.parts else [ops[i] for i in orders[id(p)]]
        products[id(p)] = _chain(terms)
    members = len(rf_scales) if len(h0) == 1 else len(h0)
    out = np.array([u if u.ndim == 3 else np.broadcast_to(np.where(_DIAGONAL, u[..., None], 0), (members, 8, 8))
                    for u in (products[id(p)] for p in chunk)])
    defect = unitarity_defect(out)  # the exit check, once per chunk; NaN fails it
    if not defect <= 1e-10:
        bad = [ev for ev, op in zip(index, ops) if not np.isfinite(op).all()]  # from an overflowing phase
        raise ValueError(f"the phase of {bad[0]!r} overflows: its duration is too long for its rf amplitude "
                         "and the spin system" if bad else f"propagator is not unitary: defect {defect:.3e}")
    return out


def propagator_stacks(programs, sys, settings: SimulationSettings = IDEAL, scales=(1.0,)):
    """Yield each program's (M, 8, 8) propagator stack; events compose right-to-left
    in time. sys (a SpinSystem or a sequence of them) and the rf scales, which ideal
    mode ignores, have 1 or M entries each and broadcast to M members. Lowers
    max(1, _CHUNK_MEMBERS // M) programs at a time, in slices of _CHUNK_MEMBERS members."""
    systems = (sys,) if isinstance(sys, SpinSystem) else tuple(sys)
    h0 = np.reshape([free_hamiltonian(s) for s in systems], (-1, 8))  # (0, 8) for no system
    rf_scales = np.asarray(scales, float)
    if rf_scales.ndim != 1 or not np.isfinite(rf_scales).all():  # in both modes, though ideal mode ignores them
        raise ValueError(f"scales must be a 1-D sequence of finite numbers, got {rf_scales!r}")
    rf_scales = rf_scales if settings.mode == "realistic" else np.ones(len(rf_scales))
    if len(rf_scales) != len(h0) and 1 not in (len(h0), len(rf_scales)):
        raise ValueError(f"sys and scales must broadcast to one member count, "
                         f"got {len(h0)} spin systems and {len(rf_scales)} rf scales")
    members = max(1, len(h0), len(rf_scales))
    slices = [[a[m:m + _CHUNK_MEMBERS] if len(a) > 1 else a for a in (h0, rf_scales)]
              for m in range(0, members, _CHUNK_MEMBERS)]
    programs, size = iter(programs), max(1, _CHUNK_MEMBERS // members)
    while chunk := list(islice(programs, size)):
        yield from np.concatenate([_lower_chunk(chunk, settings, *operands) for operands in slices], axis=1)


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
    if rho0.shape != (8, 8):
        raise ValueError(f"initial state must be 8x8, got shape {rho0.shape}")
    defect = hermiticity_defect(rho0)
    if not defect <= 1e-10:  # NaN fails
        raise ValueError(f"initial state is not Hermitian: defect {defect:.3e}")
    scales, weights = ensemble_scales(settings)
    for u in propagator_stacks(programs, sys, settings, scales):
        yield np.tensordot(weights, u @ rho0 @ u.conj().swapaxes(-1, -2), axes=1)
