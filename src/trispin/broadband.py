"""Offset-robust program transformations.

refocus_offsets inserts a simultaneous pi pulse on all three spins at the
midpoint of every delay; that preserves both ZZ couplings while inverting
the offset terms, so each delay's offset evolution cancels exactly. The
inserted pulses toggle the frame, so the phases of all subsequent original
pulses (and the signs of z-rotations) are adjusted accordingly, and a
trailing compensating pi pulse is appended when the total insertion count is
odd. The refocusing cycle is fixed: pulse phases cycle through x, -x, -x, x
so flip-angle errors of consecutive refocusing pulses cancel pairwise under
rf inhomogeneity. Its phases are colinear, so any even number of inserted pi
pulses composes to a global phase.

dante_discretize replaces the geodesic sequence's weak pulse by a train of
small hard pulses at the centers of equal sub-delays, which converges to the
continuous pulse as the segment count grows.
"""
from __future__ import annotations

import math
import operator
from dataclasses import replace
from numbers import Integral

from .engine import MAX_GRID_POINTS
from .pulseprog import TWO_PI, Delay, HardPulse, PulseProgram, WeakPulse, ZRotation, join
from .sequences import _check_kappa, build_uzzz, geodesic_tau

_X = 0.0
# the refocusing pi(1,2,3) pulses in turn (x, -x, -x, x), one object per phase; their count divides every DANTE n
_PI_X, _PI_MX = (HardPulse(frozenset({1, 2, 3}), math.pi, phase) for phase in (_X, math.pi))
_CYCLE = (_PI_X, _PI_MX, _PI_MX, _PI_X)


def _check_segments(n: int) -> int:
    """n as a Python int (a numpy n would make the sub-delays numpy floats)."""
    if not isinstance(n, Integral):  # a float n would fail later, as a TypeError
        raise ValueError(f"DANTE segment count n must be an integer, got {n!r}")
    if n < 4 or n % 4 != 0:
        raise ValueError(f"DANTE segment count must be a positive multiple of 4, got {n}")
    if n > MAX_GRID_POINTS:  # checked before any train is built
        raise ValueError(f"DANTE segment count must be at most {MAX_GRID_POINTS}, got {n}")
    return int(n)


def default_dante_n(kappa: float) -> int:
    """Smallest multiple of 4 with sub-delay <= 1/(20 J): n >= 20 tau J = 20 geodesic_tau(kappa)."""
    _check_kappa(kappa)
    return max(4, 4 * math.ceil(5.0 * geodesic_tau(kappa)))


def _refocus_leaf(part: PulseProgram, start: int) -> tuple[PulseProgram, int]:
    """part's events, with a refocusing pi in the middle of each delay when start
    pis come before it, as one leaf, and the number of pis it inserts."""
    events, count = [], start
    for ev in part.events:
        if isinstance(ev, WeakPulse):
            raise ValueError("cannot offset-refocus a program with weak pulses; "
                             "DANTE-discretize it first")
        if isinstance(ev, Delay):
            half = Delay(ev.duration / 2)
            events.extend((half, _CYCLE[count % len(_CYCLE)], half))
            count += 1
        elif isinstance(ev, HardPulse):
            events.append(HardPulse(ev.targets, ev.flip, (-ev.phase) % TWO_PI) if count % 2 else ev)
        else:
            events.append(ZRotation(ev.target, -ev.angle) if count % 2 else ev)
    return PulseProgram(events), count - start


def refocus_offsets(p: PulseProgram) -> PulseProgram:
    """Insert offset-refocusing pi pulses into every delay of an ideal program.

    The pis inserted so far, counted modulo the (even) cycle length, fix both
    the next cycle phase and the frame parity. So each of p's parts is mapped
    from its events once per count it starts at, and a repeated part stays a
    repeated part; the result has one level of parts.
    """
    mapped, out, count = {}, [], 0  # (id of a part, pis before it mod 4) -> (its map, pis it inserts)
    for part in p.parts or (p,):
        key = (id(part), count % len(_CYCLE))
        if key not in mapped:
            mapped[key] = _refocus_leaf(part, key[1])
        leaf, inserted = mapped[key]
        out.append(leaf)
        count += inserted
    if count % 2:  # the compensating pi is one more part
        out.append(PulseProgram((_CYCLE[count % len(_CYCLE)],)))
    meta = p.meta + (("transform", "refocus-offsets"),)
    return join(out, f"{p.label}-bb", p.kappa, meta)


def _dante_train(p: PulseProgram, n: int, refocus: bool = False) -> PulseProgram:
    """p with its one weak pulse replaced by an n-segment DANTE train: labelled
    <label>-dante with ("transform", "dante-n<n>") in its meta, or with refocus
    <label>-bb with ("transform", "broadband-geodesic-n<n>").

    Each segment is delay/2 - sub-pulse - delay/2, a midpoint discretization
    of the simultaneous rf + coupling evolution. With refocus, a refocusing
    pi(1,2,3) group cycling through the refocusing phases precedes each
    sub-pulse, whose phase is invariant under the frame toggles. The train
    is one period object joined n / period times: one segment, or with
    refocus one phase cycle of segments.
    """
    n = _check_segments(n)
    weak = [ev for ev in p.events if isinstance(ev, WeakPulse)]
    if len(weak) != 1:
        raise ValueError(f"expected exactly one weak pulse, found {len(weak)}")
    wp = weak[0]
    flip_total = TWO_PI * wp.amplitude * wp.duration
    sub_delay = Delay(wp.duration / (2 * n))
    sub_pulse = HardPulse(wp.targets, flip_total / n, wp.phase)
    size = len(_CYCLE) if refocus else 1  # segments per period
    period = []
    for i in range(size):
        period.append(sub_delay)
        if refocus:
            period.append(_CYCLE[i])
        period.extend((sub_pulse, sub_delay))
    # with pi groups, the V_D / W rotations around the train sit where the
    # toggling frame is even (n is a multiple of 4), so they pass unchanged
    at = p.events.index(wp)
    head, tail = PulseProgram(p.events[:at]), PulseProgram(p.events[at + 1:])
    suffix, transform = ("bb", f"broadband-geodesic-n{n}") if refocus else ("dante", f"dante-n{n}")
    return join((head, *(PulseProgram(period),) * (n // size), tail),
                f"{p.label}-{suffix}", p.kappa, p.meta + (("transform", transform),))


def dante_discretize(p: PulseProgram, n: int) -> PulseProgram:
    """Replace the geodesic weak pulse by n hard sub-pulses and n sub-delays."""
    return _dante_train(p, n)


def broadband_uzzz(v: str, kappa: float, j: float, n: int | None = None,
                   sparse_pi: bool = False) -> PulseProgram:
    """Offset-refocused U_zzz block of variant v.

    A weak pulse (sequence D at kappa > 0) is discretized into n DANTE
    segments, n the one place a segment count is set (None: default_dante_n;
    checked for every variant), with pi pulses inserted inside every
    sub-delay. The default placement splits each half-delay around its own pi
    group (tight offset refocusing); with sparse_pi a single pi group per
    segment sits immediately before the sub-pulse, which halves the pulse load
    of the train (important with finite-width pulses) at the cost of slower
    offset convergence:

        [ delay/2 - pi(1,2,3) - sub-pulse - delay/2 ] x n
    """
    if n is not None:
        n = _check_segments(n)
    p = build_uzzz(v, kappa, j)
    if not any(isinstance(ev, WeakPulse) for ev in p.events):
        return refocus_offsets(p)  # A-C, and D at kappa = 0: nothing to discretize
    n = default_dante_n(kappa) if n is None else n
    if not sparse_pi:
        return refocus_offsets(dante_discretize(p, n))
    return _dante_train(p, n, refocus=True)


def emulate_selective_pulse(target: int, phase: float, dnu13: float) -> PulseProgram:
    """Proton-selective 180-degree pulse from hard pulses and delays.

    90(1,3) - delta - 180x(2) - delta - 180x(2) - 90(1,3) with
    delta = 1/(4 dnu13): during 2*delta the off-resonance proton precesses by
    pi while couplings to spin 2 are refocused. The net fragment acts as a
    180 about the requested phase axis on the target proton and as the
    identity on the spectator, whose residual pi z-rotation is cancelled by
    an explicit ZRotation event (to be absorbed later by phase bookkeeping).
    The target-3 variant flips the phase of the final 90 by 180 degrees.
    """
    try:  # an int, as every spin index: True is spin 1, and 1.0 no spin index
        target = operator.index(target)
    except TypeError:
        raise ValueError(f"target must be an integer spin index, got {target!r}") from None
    if target not in (1, 3):
        raise ValueError(f"selective emulation targets spin 1 or 3, got {target}")
    if not math.isfinite(dnu13) or dnu13 == 0:
        raise ValueError(f"proton offset difference dnu13 must be finite and nonzero, got {dnu13!r}")
    delta = 1.0 / (4.0 * abs(dnu13))
    last_phase = phase if target == 1 else (phase + math.pi) % TWO_PI
    events = [
        HardPulse(frozenset({1, 3}), math.pi / 2, phase),
        Delay(delta),
        HardPulse(frozenset({2}), math.pi, _X),
        Delay(delta),
        HardPulse(frozenset({2}), math.pi, _X),
        HardPulse(frozenset({1, 3}), math.pi / 2, last_phase),
        # cancel the spectator precession (target 1) or fold the residual
        # phase on spin 3 (target 3): the same pi z-rotation either way
        ZRotation(3, -math.pi),
    ]
    return PulseProgram(events, label=f"sel180-spin{target}")


def eliminate_z_rotations(p: PulseProgram) -> PulseProgram:
    """Absorb ZRotation events into the phases of all later pulses.

    exp{-i phi I_kz} commutes with free evolution and shifts the axis of any
    later rotation on spin k by -phi. A hard pulse whose targets carry
    different accumulated angles is split into simultaneous per-angle pulses,
    exact for ideal pulses (its terms commute); a weak pulse cannot be split
    without changing its timing, so that raises ValueError. Leftover angles
    are reported as per-spin receiver phases in the program metadata.
    """
    acc = {1: 0.0, 2: 0.0, 3: 0.0}
    events = []
    for ev in p.events:
        if isinstance(ev, ZRotation):
            acc[ev.target] += ev.angle
        elif isinstance(ev, (HardPulse, WeakPulse)):
            groups: dict[float, set] = {}
            for k in sorted(ev.targets):
                groups.setdefault(acc[k], set()).add(k)
            if len(groups) > 1 and isinstance(ev, WeakPulse):
                raise ValueError(f"weak pulse on spins {sorted(ev.targets)} meets different "
                                 f"z-rotation angles {[acc[k] for k in sorted(ev.targets)]}")
            for phi, spins in sorted(groups.items()):
                events.append(replace(ev, targets=frozenset(spins),
                                      phase=(ev.phase - phi) % TWO_PI))
        else:
            events.append(ev)
    meta = tuple((f"receiver-phase-spin{k}", repr(acc[k])) for k in (1, 2, 3) if acc[k] != 0.0)
    return PulseProgram(events, label=p.label, kappa=p.kappa, meta=p.meta + meta)


def receiver_phases(p: PulseProgram) -> dict[int, float]:
    """Residual per-spin receiver phases recorded by eliminate_z_rotations."""
    out = {}
    for key, value in p.meta:
        if key.startswith("receiver-phase-spin"):
            out[int(key[len("receiver-phase-spin"):])] = float(value)
    return out
