"""Pulse-program data model and its text format.

A program is an ordered list of timed events. Times are stored in seconds,
angles and phases in radians; the text format accepts us/ms/s, Hz/kHz and
degrees (or the symbolic phases x, y, -x, -y).

Text format, one event per line, '#' starts a comment:

    pulse targets=<list> angle=<deg> phase=<x|y|-x|-y|deg>
    wpulse targets=<list> amp=<Hz> dur=<time> phase=<...>
    delay <time>
    zrot target=<k> angle=<deg>

Time literals: <float><us|ms|s>. The serializer emits this exact shape
deterministically. Program metadata travels through '# label:', '# kappa:'
and '# meta' comment directives, which the parser reads back; other comments
are ignored.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from itertools import chain

TWO_PI = 2.0 * math.pi


def _validate_event(ev) -> None:
    """Checks shared by every event type: known spins, finite numbers,
    no negative amplitude or duration."""
    # vars() rather than dataclasses.fields(): events are built one per
    # pulse, and fields() would double the cost of building a program
    for name, value in vars(ev).items():
        if name == "targets":
            # stored as a frozenset of ints: the engine hashes events, and the text format prints them
            try:
                targets = frozenset(map(operator.index, value))
            except TypeError:
                raise ValueError(f"targets must be an iterable of integer spin indices, got {value!r}") from None
            if not targets:
                raise ValueError("pulse requires at least one target spin")
            if not {1, 2, 3}.issuperset(targets):
                raise ValueError(f"unknown spin index in targets {sorted(targets)}")
            object.__setattr__(ev, "targets", targets)
        elif name == "target":  # an int, as each of targets: True is spin 1, and 1.0 no spin index
            try:
                target = operator.index(value)
            except TypeError:
                raise ValueError(f"target must be an integer spin index, got {value!r}") from None
            if target not in (1, 2, 3):
                raise ValueError(f"unknown spin index {target}")
            object.__setattr__(ev, "target", target)
        elif not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        elif value < 0 and name in ("amplitude", "duration"):
            raise ValueError(f"{name} must be >= 0, got {value!r}")
        elif name == "amplitude" and not math.isfinite(TWO_PI * float(value)):  # Hz, used as 2 pi value
            raise ValueError(f"amplitude must be finite, got {value!r} (2 pi amplitude overflows)")
        elif type(value) is not float:  # an np.float64, bool or int: stored as the float the text writes
            object.__setattr__(ev, name, float(value))


@dataclass(frozen=True)
class HardPulse:
    """Instantaneous (in ideal mode) rotation on a set of spins."""

    targets: frozenset
    flip: float  # rad
    phase: float  # rad

    __post_init__ = _validate_event


@dataclass(frozen=True)
class WeakPulse:
    """Low-amplitude pulse applied while free evolution stays active."""

    targets: frozenset
    amplitude: float  # Hz
    duration: float  # s
    phase: float  # rad

    __post_init__ = _validate_event


@dataclass(frozen=True)
class Delay:
    duration: float  # s

    __post_init__ = _validate_event


@dataclass(frozen=True)
class ZRotation:
    """Bookkeeping z-rotation exp{-i angle I_kz}; takes no time."""

    target: int
    angle: float  # rad

    __post_init__ = _validate_event


@dataclass(frozen=True)
class PulseProgram:
    events: tuple = ()
    label: str = ""
    kappa: float | None = None
    meta: tuple = ()  # ordered (key, value) pairs, e.g. receiver phases
    # the programs a join was built from, in time order (() otherwise), so parts
    # form a tree: the engine forms each distinct program object's product once.
    # Not part of equality or repr.
    parts: tuple = field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kappa is not None:
            if not math.isfinite(self.kappa):
                raise ValueError(f"kappa must be finite, got {self.kappa!r}")
            object.__setattr__(self, "kappa", float(self.kappa))  # a float, as the event fields

    @property
    def nominal_duration(self) -> float:
        """Sum of delays and weak-pulse durations (hard pulses are free)."""
        total = 0.0
        for ev in self.events:
            if isinstance(ev, (Delay, WeakPulse)):
                total += ev.duration
        return total


def join(programs, label: str = "", kappa: float | None = None, meta: tuple = ()) -> PulseProgram:
    """The programs in time order as one program with this label, kappa and meta.
    Its parts are the programs themselves, kept by identity, and its events theirs."""
    programs = tuple(programs)
    out = PulseProgram(tuple(chain.from_iterable(p.events for p in programs)), label, kappa, meta)
    object.__setattr__(out, "parts", programs)
    return out


class ProgramSyntaxError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_UNIT_RE = {"time": re.compile(r"^([-+]?[0-9.eE+-]+?)(us|ms|s)$"),
            "frequency": re.compile(r"^([-+]?[0-9.eE+-]+?)(kHz|Hz)?$")}
_UNIT_SCALE = {"us": 1e-6, "ms": 1e-3, "s": 1.0, "kHz": 1e3, "Hz": 1.0, None: 1.0}

_PHASE_NAMES = {"x": 0.0, "y": math.pi / 2, "-x": math.pi, "-y": 1.5 * math.pi}


def _parse_unit(tok: str, kind: str, line: int) -> float:
    """A 'time' or 'frequency' literal <float><unit>, in s or Hz."""
    m = _UNIT_RE[kind].match(tok)
    try:
        return float(m[1]) * _UNIT_SCALE[m[2]]
    except (TypeError, ValueError):  # TypeError: no match
        raise ProgramSyntaxError(f"bad {kind} literal {tok!r}", line) from None


def _parse_phase(tok: str, line: int) -> float:
    if tok in _PHASE_NAMES:
        return _PHASE_NAMES[tok]
    try:
        return math.radians(float(tok))
    except ValueError:
        raise ProgramSyntaxError(f"bad phase {tok!r}", line) from None


def _parse_targets(tok: str, line: int) -> frozenset:
    try:
        return frozenset(int(s) for s in tok.split(","))
    except ValueError:
        raise ProgramSyntaxError(f"bad target list {tok!r}", line) from None


def _fields(tokens, allowed, line):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ProgramSyntaxError(f"expected key=value, got {tok!r}", line)
        key, _, val = tok.partition("=")
        if key not in allowed:
            raise ProgramSyntaxError(f"unknown field {key!r}", line)
        out[key] = val
    missing = set(allowed) - set(out)
    if missing:
        raise ProgramSyntaxError(f"missing field(s) {sorted(missing)}", line)
    return out


def parse_program(text: str) -> PulseProgram:
    events = []
    label = ""
    kappa = None
    meta = []
    # raw line -> its event, for this call only: a program repeats few distinct
    # lines, and only a line that parsed is stored, so each bad line still raises
    parsed = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        ev = parsed.get(raw)
        if ev is not None:
            events.append(ev)
            continue
        comment = raw.strip()
        # metadata directives round-trip through comments; other comments
        # are ignored
        if comment.startswith("# label:"):
            label = comment[len("# label:"):].strip()
            continue
        if comment.startswith("# kappa:"):
            try:
                kappa = float(comment[len("# kappa:"):].strip())
                if not math.isfinite(kappa):
                    raise ValueError
            except ValueError:
                raise ProgramSyntaxError("bad kappa value", lineno) from None
            continue
        if comment.startswith("# meta "):
            key, _, value = comment[len("# meta "):].partition("=")
            meta.append((key, value))
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        # only syntax is checked here: the event constructors judge the values
        # (finite, known spins, no negative duration), and a try block costs
        # nothing until it catches and adds the line number
        try:
            if kind == "pulse":
                f = _fields(args, ("targets", "angle", "phase"), lineno)
                try:
                    flip = math.radians(float(f["angle"]))
                except ValueError:
                    raise ProgramSyntaxError(f"bad angle {f['angle']!r}", lineno) from None
                ev = HardPulse(_parse_targets(f["targets"], lineno), flip,
                               _parse_phase(f["phase"], lineno))
            elif kind == "wpulse":
                f = _fields(args, ("targets", "amp", "dur", "phase"), lineno)
                ev = WeakPulse(_parse_targets(f["targets"], lineno),
                               _parse_unit(f["amp"], "frequency", lineno),
                               _parse_unit(f["dur"], "time", lineno),
                               _parse_phase(f["phase"], lineno))
            elif kind == "delay":
                if len(args) != 1:
                    raise ProgramSyntaxError("delay takes exactly one time argument", lineno)
                ev = Delay(_parse_unit(args[0], "time", lineno))
            elif kind == "zrot":
                f = _fields(args, ("target", "angle"), lineno)
                try:
                    target = int(f["target"])
                    angle = math.radians(float(f["angle"]))
                except ValueError:
                    raise ProgramSyntaxError(f"bad zrot arguments {args!r}", lineno) from None
                ev = ZRotation(target, angle)
            else:
                raise ProgramSyntaxError(f"unknown event {kind!r}", lineno)
        except ProgramSyntaxError:
            raise
        except ValueError as exc:
            raise ProgramSyntaxError(str(exc), lineno) from None
        parsed[raw] = ev
        events.append(ev)
    return PulseProgram(tuple(events), label=label, kappa=kappa, meta=tuple(meta))


def _fmt_deg(rad: float) -> str:
    return repr(round(math.degrees(rad), 10))


def _fmt_phase(rad: float) -> str:
    for name, value in _PHASE_NAMES.items():
        if abs((rad - value) % TWO_PI) < 1e-12 or abs((rad - value) % TWO_PI - TWO_PI) < 1e-12:
            return name
    return _fmt_deg(rad)


def _fmt_targets(targets) -> str:
    return ",".join(str(k) for k in sorted(targets))


def _event_line(ev) -> str:
    if isinstance(ev, HardPulse):
        return (f"pulse targets={_fmt_targets(ev.targets)} "
                f"angle={_fmt_deg(ev.flip)} phase={_fmt_phase(ev.phase)}")
    if isinstance(ev, WeakPulse):
        return (f"wpulse targets={_fmt_targets(ev.targets)} "
                f"amp={repr(ev.amplitude)}Hz dur={repr(ev.duration)}s "
                f"phase={_fmt_phase(ev.phase)}")
    if isinstance(ev, Delay):
        return f"delay {repr(ev.duration)}s"
    if isinstance(ev, ZRotation):
        return f"zrot target={ev.target} angle={_fmt_deg(ev.angle)}"
    raise TypeError(f"unknown event type {type(ev).__name__}")


def serialize_program(p: PulseProgram) -> str:
    lines = []
    if p.label:
        lines.append(f"# label: {p.label}")
    if p.kappa is not None:
        lines.append(f"# kappa: {repr(p.kappa)}")
    for key, value in p.meta:
        lines.append(f"# meta {key}={value}")
    # built and parsed programs repeat event objects, so each distinct object is
    # formatted once. Keyed by identity, not by value: events that compare equal
    # across signed zeros, ZRotation(2, -0.0) == ZRotation(2, 0.0), print differently
    distinct = {id(ev): ev for ev in p.events}
    line_of = {key: _event_line(ev) for key, ev in distinct.items()}
    lines += [line_of[id(ev)] for ev in p.events]
    return "\n".join(lines) + "\n"
