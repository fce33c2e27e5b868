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
from dataclasses import replace
from numbers import Integral

from .pulseprog import TWO_PI, Delay, HardPulse, PulseProgram, WeakPulse, ZRotation, join
from .sequences import _check_j, _check_kappa, build_uzzz, compose_swap13, geodesic_tau

_X = 0.0
# the refocusing pi(1,2,3) pulses in turn (x, -x, -x, x); their count divides every DANTE n
_CYCLE = tuple(HardPulse(frozenset({1, 2, 3}), math.pi, phase) for phase in (_X, math.pi, math.pi, _X))


def _check_segments(n: int) -> int:
    """n as a Python int (a numpy n would make the sub-delays numpy floats)."""
    if not isinstance(n, Integral):  # a float n would fail later, as a TypeError
        raise ValueError(f"DANTE segment count n must be an integer, got {n!r}")
    if n < 4 or n % 4 != 0:
        raise ValueError(f"DANTE segment count must be a positive multiple of 4, got {n}")
    return int(n)


def default_dante_n(kappa: float, j: float) -> int:
    """Smallest multiple of 4 with sub-delay <= 1/(20 J)."""
    _check_kappa(kappa)
    _check_j(j)
    tau = geodesic_tau(kappa) / j
    return max(4, 4 * math.ceil(20.0 * j * tau / 4.0))


def _refocus_leaf(leaf: PulseProgram, start: int) -> tuple[PulseProgram, int]:
    """leaf with a refocusing pi in the middle of each delay, when start pis
    come before it, and the number of pis it inserts."""
    events, count = [], start
    for ev in leaf.events:
        if isinstance(ev, WeakPulse):
            raise ValueError("cannot offset-refocus a program with weak pulses; "
                             "DANTE-discretize it first")
        if isinstance(ev, Delay):
            half = Delay(ev.duration / 2)
            events.extend((half, _CYCLE[count % len(_CYCLE)], half))
            count += 1
        elif isinstance(ev, HardPulse):
            events.append(HardPulse(ev.targets, ev.flip, (-ev.phase) % TWO_PI) if count % 2 else ev)
        elif isinstance(ev, ZRotation):
            events.append(ZRotation(ev.target, -ev.angle) if count % 2 else ev)
        else:
            raise TypeError(f"unknown event type {type(ev).__name__}")
    return PulseProgram(tuple(events)), count - start


def refocus_offsets(p: PulseProgram) -> PulseProgram:
    """Insert offset-refocusing pi pulses into every delay of an ideal program.

    The pis inserted so far, counted modulo the (even) cycle length, fix both
    the next cycle phase and the frame parity. So each program in the tree of
    p's parts is mapped once per count it starts at, and a repeated block stays
    a repeated part.
    """
    mapped = {}  # (id of a program in p's parts tree, pis before it mod 4) -> (its map, pis it inserts)
    # a depth-first walk without recursion, as a chain of pairwise joins can be
    # deeper than its limit; a frame is [key, parts, next index, pis so far, mapped parts]
    frames = [[None, p.parts or (p,), 0, 0, []]]
    while True:
        frame = frames[-1]
        key, parts, i, count, out = frame
        if i == len(parts):
            if key is None:
                break
            frames.pop()
            mapped[key] = join(out), count - key[1]
            continue
        part_key = (id(parts[i]), count % len(_CYCLE))
        if part_key in mapped:
            part, inserted = mapped[part_key]
            out.append(part)
            frame[2] += 1
            frame[3] += inserted
        elif parts[i].parts:
            frames.append([part_key, parts[i].parts, 0, part_key[1], []])
        else:
            mapped[part_key] = _refocus_leaf(parts[i], part_key[1])
    if count % 2:  # the compensating pi is one more part
        out.append(PulseProgram((_CYCLE[count % len(_CYCLE)],)))
    meta = p.meta + (("transform", "refocus-offsets"),)
    return join(out, f"{p.label}-bb", p.kappa, meta)


def _dante_train(p: PulseProgram, n: int, label: str, transform: str,
                 refocus: bool = False) -> PulseProgram:
    """p with its one weak pulse replaced by an n-segment DANTE train; the
    result is labelled label and records ("transform", transform) in its meta.

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
    return join((head, *(PulseProgram(tuple(period)),) * (n // size), tail),
                label, p.kappa, p.meta + (("transform", transform),))


def dante_discretize(p: PulseProgram, n: int) -> PulseProgram:
    """Replace the geodesic weak pulse by n hard sub-pulses and n sub-delays."""
    return _dante_train(p, n, f"{p.label}-dante", f"dante-n{n}")


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
    n = default_dante_n(kappa, j) if n is None else n
    if not sparse_pi:
        return refocus_offsets(dante_discretize(p, n))
    return _dante_train(p, n, f"{p.label}-bb", f"broadband-geodesic-n{n}", refocus=True)


def build_swap13_broadband(v: str, kappa: float, j: float, n: int | None = None,
                           sparse_pi: bool = False) -> PulseProgram:
    """SWAP(1,3) composition with each trilinear block offset-refocused."""
    return compose_swap13(broadband_uzzz(v, kappa, j, n, sparse_pi), f"swap13-{v}-bb", float(kappa))


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
    return PulseProgram(tuple(events), label=f"sel180-spin{target}")


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
    return PulseProgram(tuple(events), label=p.label, kappa=p.kappa, meta=p.meta + meta)


def receiver_phases(p: PulseProgram) -> dict[int, float]:
    """Residual per-spin receiver phases recorded by eliminate_z_rotations."""
    out = {}
    for key, value in p.meta:
        if key.startswith("receiver-phase-spin"):
            out[int(key[len("receiver-phase-spin"):])] = float(value)
    return out
