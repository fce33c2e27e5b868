"""Pulse-program data model and its text format.

A program is an ordered list of timed events. Times are stored in seconds,
angles and phases in radians; the text format accepts us/ms/s, Hz/kHz and
degrees (or the symbolic phases x, y, -x, -y).

Text format, one event per line, '#' starts a comment:

    pulse targets=<list> angle=<deg> phase=<x|y|-x|-y|deg>
    wpulse targets=<list> amp=<Hz> dur=<time> phase=<...>
    delay <time>
    zrot target=<k> angle=<deg>

The grammar is one table, read by both the serializer and the parser: each
key's parser and formatter (_KEYS), and each keyword's event type and keys
(_KEYWORDS). The serializer's output is deterministic. '# label:' and
'# kappa:' (each at most once) and '# meta' comment directives carry the
program's metadata; other comments are ignored.
"""
from __future__ import annotations

import math
import operator
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
                targets = frozenset(given := list(map(operator.index, value)))
            except TypeError:
                raise ValueError(f"targets must be an iterable of integer spin indices, got {value!r}") from None
            if not targets:
                raise ValueError("pulse requires at least one target spin")
            if not {1, 2, 3}.issuperset(targets):
                raise ValueError(f"unknown spin index in targets {sorted(targets)}")
            if len(targets) != len(given):  # a set would drop the repeat, and the text would lose it
                raise ValueError(f"repeated spin index in targets {given}")
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


def _one_line(text) -> bool:
    """Whether text is a str with no character that str.splitlines breaks at."""
    return isinstance(text, str) and (text.isprintable() or "".join(text.splitlines()) == text)


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
        vars(self).update(events=tuple(self.events), meta=tuple(self.meta))  # so a list-built program hashes
        if not set(map(type, self.events)) <= _WRITERS.keys():  # exact types: the text writes no subclass
            raise ValueError("events must be HardPulse, WeakPulse, Delay or ZRotation objects, got "
                             f"{next(ev for ev in self.events if type(ev) not in _WRITERS)!r}")
        if self.kappa is not None:
            if not math.isfinite(self.kappa):
                raise ValueError(f"kappa must be finite, got {self.kappa!r}")
            object.__setattr__(self, "kappa", float(self.kappa))  # a float, as the event fields
        # the text writes the label and each meta entry on a line of its own, strips
        # each line, and splits a meta entry at its first '='
        if not (_one_line(self.label) and self.label == self.label.strip()):
            raise ValueError(f"label must be a str on one line with no outer whitespace, got {self.label!r}")
        for entry in self.meta:
            if not (isinstance(entry, tuple) and len(entry) == 2 and _one_line(entry[0]) and "=" not in entry[0]
                    and _one_line(entry[1]) and entry[1] == entry[1].rstrip()):
                raise ValueError("meta entries must be (key, value) strs on one line, with no '=' in the key "
                                 f"and no trailing whitespace in the value, got {entry!r}")


def join(programs, label: str = "", kappa: float | None = None, meta: tuple = ()) -> PulseProgram:
    """The programs in time order as one program with this label, kappa and meta.
    Its parts are the programs themselves, kept by identity, and its events theirs."""
    programs = tuple(programs)
    out = PulseProgram(chain.from_iterable(p.events for p in programs), label, kappa, meta)
    object.__setattr__(out, "parts", programs)
    return out


class ProgramSyntaxError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_PHASE_NAMES = {"x": 0.0, "y": math.pi / 2, "-x": math.pi, "-y": 1.5 * math.pi}
_NUMBER_CHARS = frozenset("0123456789.eE+-")
_SECONDS = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_HERTZ = {"kHz": 1e3, "Hz": 1.0, "": 1.0}  # a frequency without a unit is in Hz


def _fmt_deg(rad: float) -> str:
    return repr(round(math.degrees(rad), 10))


def _fmt_phase(rad: float) -> str:
    for name, value in _PHASE_NAMES.items():
        if abs(turn := (rad - value) % TWO_PI) < 1e-12 or abs(turn - TWO_PI) < 1e-12:
            return name
    return _fmt_deg(rad)


def _fmt_targets(targets) -> str:
    return ",".join(str(k) for k in sorted(targets))


def _literal(tok: str, units: dict) -> float:
    """<number><unit> in base units; units maps each accepted suffix to its scale."""
    number = tok.rstrip("usmkHz")  # the unit letters, none of them a number character
    if tok[len(number):] not in units or not _NUMBER_CHARS.issuperset(number):
        raise ValueError(tok)
    return float(number) * units[tok[len(number):]]


# The grammar. Each text key: the name its error uses, its parser (text -> the
# value an event stores) and its formatter (the inverse)
_KEYS = {
    "targets": ("target list", lambda tok: [int(k) for k in tok.split(",")], _fmt_targets),
    "target": ("target", int, str),
    "angle": ("angle", lambda tok: math.radians(float(tok)), _fmt_deg),
    "phase": ("phase", lambda tok: _PHASE_NAMES[tok] if tok in _PHASE_NAMES else math.radians(float(tok)),
              _fmt_phase),
    "amp": ("frequency literal", lambda tok: _literal(tok, _HERTZ), "{!r}Hz".format),
    "dur": ("time literal", lambda tok: _literal(tok, _SECONDS), "{!r}s".format),
}
# Each keyword: its event type and its keys, in the order of that type's fields.
# delay writes its one value without its key: delay <time>
_KEYWORDS = {
    "pulse": (HardPulse, ("targets", "angle", "phase")),
    "wpulse": (WeakPulse, ("targets", "amp", "dur", "phase")),
    "delay": (Delay, ("dur",)),
    "zrot": (ZRotation, ("target", "angle")),
}
# event type -> its line template and the formatter of each of its fields
_WRITERS = {cls: (" ".join([keyword, *("%s" if keyword == "delay" else key + "=%s" for key in keys)]),
                  [_KEYS[key][2] for key in keys]) for keyword, (cls, keys) in _KEYWORDS.items()}


def _fields(tokens, keys) -> list:
    """The values of key=value tokens that give each of these keys once, in key order."""
    out = {}
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {tok!r}")
        if key not in keys:
            raise ValueError(f"unknown field {key!r}")
        if key in out:  # the last value would silently win
            raise ValueError(f"repeated field {key!r}")
        out[key] = value
    if len(out) != len(keys):
        raise ValueError(f"missing field(s) {sorted(set(keys) - set(out))}")
    return [_value(key, out[key]) for key in keys]


def _value(key: str, tok: str):
    name, parse, _ = _KEYS[key]
    try:
        return parse(tok)
    except ValueError:
        raise ValueError(f"bad {name} {tok!r}") from None


def parse_program(text: str) -> PulseProgram:
    events, meta, label, kappa = [], [], None, None  # None: no directive yet
    # raw line -> its event, for this call only: a program repeats few distinct
    # lines, and only a line that parsed is stored, so each bad line still raises
    parsed = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        ev = parsed.get(raw)
        if ev is not None:
            events.append(ev)
            continue
        comment = raw.strip()  # directives carry the metadata; other comments are ignored
        for directive, value in (("# label:", label), ("# kappa:", kappa)):
            if value is not None and comment.startswith(directive):  # the last one would silently win
                raise ProgramSyntaxError(f"repeated directive {directive!r}", lineno)
        # a syntax error and an error of the event constructors (finite values,
        # known spins, no negative duration) are both a ValueError; this one
        # handler adds the line number, and costs nothing until it catches
        try:
            if comment.startswith("# label:"):
                label = comment[len("# label:"):].strip()
            elif comment.startswith("# kappa:"):
                if not math.isfinite(kappa := float(comment[len("# kappa:"):])):
                    raise ValueError
            elif comment.startswith("# meta "):
                key, _, value = comment[len("# meta "):].partition("=")
                meta.append((key, value))
            elif line := raw.split("#", 1)[0].strip():
                kind, *args = line.split()
                if kind not in _KEYWORDS:
                    raise ValueError(f"unknown event {kind!r}")
                cls, keys = _KEYWORDS[kind]
                if kind == "delay":  # its one value, written without its key
                    if len(args) != 1:
                        raise ValueError("delay takes exactly one time argument")
                    args = ["dur=" + args[0]]
                ev = parsed[raw] = cls(*_fields(args, keys))
                events.append(ev)
        except ValueError as exc:
            message = "bad kappa value" if comment.startswith("# kappa:") else str(exc)
            raise ProgramSyntaxError(message, lineno) from None
    return PulseProgram(events, label=label or "", kappa=kappa, meta=meta)


def _event_line(ev) -> str:
    template, formats = _WRITERS[type(ev)]
    return template % tuple([fmt(value) for fmt, value in zip(formats, vars(ev).values())])


def serialize_program(p: PulseProgram) -> str:
    lines = [f"# label: {p.label}"] if p.label else []
    if p.kappa is not None:
        lines.append(f"# kappa: {repr(p.kappa)}")
    lines += [f"# meta {key}={value}" for key, value in p.meta]
    # built and parsed programs repeat event objects, so each distinct object is
    # formatted once. Keyed by identity, not by value: events that compare equal
    # across signed zeros, ZRotation(2, -0.0) == ZRotation(2, 0.0), print differently
    distinct = {id(ev): ev for ev in p.events}
    line_of = {key: _event_line(ev) for key, ev in distinct.items()}
    lines += [line_of[id(ev)] for ev in p.events]
    return "\n".join(lines) + "\n"
