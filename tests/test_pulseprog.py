import hashlib
import math
import operator
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import builder_pins
from oracles import serialize_loop
from trispin import pulseprog
from trispin.broadband import broadband_uzzz, refocus_offsets
from trispin.engine import SimulationSettings, propagator_of, total_duration
from trispin.pulseprog import (
    Delay,
    HardPulse,
    ProgramSyntaxError,
    PulseProgram,
    WeakPulse,
    ZRotation,
    parse_program,
    join,
    serialize_program,
)
from trispin.sequences import VARIANTS, build_uzzz, compose_swap13
from trispin.spinsys import ideal_chain


def test_parse_hand_written_program():
    text = """
    # a comment
    pulse targets=1,3 angle=90 phase=-y
    delay 500us
    wpulse targets=2 amp=50.8Hz dur=9.8ms phase=-x
    zrot target=2 angle=-90
    """
    p = parse_program(text)
    pulse, delay, weak, zrot = p.events
    assert pulse == HardPulse(frozenset({1, 3}), math.pi / 2, 1.5 * math.pi)
    assert delay.duration == pytest.approx(500e-6, rel=1e-15)
    assert weak.targets == frozenset({2})
    assert weak.amplitude == 50.8
    assert weak.duration == pytest.approx(9.8e-3, rel=1e-15)
    assert weak.phase == math.pi
    assert zrot == ZRotation(2, -math.pi / 2)


def test_parse_units():
    assert parse_program("delay 1ms").events[0].duration == pytest.approx(1e-3)
    assert parse_program("delay 1s").events[0].duration == 1.0
    amp = parse_program("wpulse targets=1 amp=2kHz dur=1us phase=x").events[0].amplitude
    assert amp == 2000.0
    flip = parse_program("pulse targets=1 angle=45 phase=30").events[0]
    assert flip.flip == pytest.approx(math.pi / 4)
    assert flip.phase == pytest.approx(math.radians(30))


@pytest.mark.parametrize("bad", [
    "delay -1ms",
    "delay 1m",
    "pulse targets=4 angle=90 phase=x",
    "pulse targets=1 angle=90",
    "pulse targets=1 angle=ninety phase=x",
    "wpulse targets=1 amp=10Hz dur=1ms",
    "zrot target=1",
    "sing targets=1 angle=90 phase=x",
])
def test_parse_rejects_malformed_lines(bad):
    with pytest.raises(ProgramSyntaxError):
        parse_program(bad)


def test_syntax_error_reports_line_number():
    with pytest.raises(ProgramSyntaxError) as err:
        parse_program("delay 1ms\ndelay oops")
    assert err.value.line == 2


def test_event_validation():
    with pytest.raises(ValueError):
        Delay(-1e-3)
    with pytest.raises(ValueError):
        HardPulse(frozenset(), math.pi, 0.0)
    with pytest.raises(ValueError):
        WeakPulse(frozenset({2}), -1.0, 1e-3, 0.0)
    with pytest.raises(ValueError):
        ZRotation(4, 1.0)


@pytest.mark.parametrize("targets", [{1}, [1], (1,), [np.int64(1)], [True]])
def test_targets_are_stored_as_a_frozenset_of_ints(targets):
    ev = HardPulse(targets, math.pi, 0.0)
    assert type(ev.targets) is frozenset and ev.targets == frozenset({1})
    assert all(type(k) is int for k in ev.targets)
    p = PulseProgram((ev, Delay(1e-3)))
    assert hash(p) == hash(PulseProgram((HardPulse(frozenset({1}), math.pi, 0.0), Delay(1e-3))))
    assert np.array_equal(propagator_of(p, ideal_chain(88.0)),
                          propagator_of(parse_program(serialize_program(p)), ideal_chain(88.0)))


@pytest.mark.parametrize("targets, given", [([3, 3, 1], [3, 3, 1]), ((2, np.int64(2)), [2, 2]), ([1, True], [1, 1])])
def test_a_repeated_target_spin_is_rejected(targets, given):
    # True is spin 1, as in a single target, so [1, True] repeats spin 1
    message = f"^repeated spin index in targets {re.escape(str(given))}$"
    with pytest.raises(ValueError, match=message):
        HardPulse(targets, math.pi, 0.0)
    with pytest.raises(ValueError, match=message):
        WeakPulse(targets, 10.0, 1e-3, 0.0)


@pytest.mark.parametrize("targets", [1, None, [1.0], ["1"], [[1]]])
def test_targets_that_are_not_an_iterable_of_integers_are_named(targets):
    with pytest.raises(ValueError, match=r"^targets must be an iterable of integer spin indices, got "):
        HardPulse(targets, math.pi, 0.0)
    with pytest.raises(ValueError, match=r"^targets must be"):
        WeakPulse(targets, 10.0, 1e-3, 0.0)


@pytest.mark.parametrize("make, field", [
    (lambda: Delay(math.nan), "duration"),
    (lambda: Delay(math.inf), "duration"),
    (lambda: WeakPulse(frozenset({2}), math.nan, 1e-3, 0.0), "amplitude"),
    (lambda: WeakPulse(frozenset({2}), 1e308, 1e-3, 0.0), "amplitude"),  # 2 pi amplitude overflows
    (lambda: WeakPulse(frozenset({2}), np.float64(1e308), 1e-3, 0.0), "amplitude"),
    (lambda: WeakPulse(frozenset({2}), 10.0, math.inf, 0.0), "duration"),
    (lambda: HardPulse(frozenset({1}), math.pi, math.nan), "phase"),
    (lambda: parse_program("delay 1e400s"), "duration"),
], ids=["delay-nan", "delay-inf", "wpulse-amp-nan", "wpulse-amp-overflows", "wpulse-numpy-amp-overflows",
        "wpulse-dur-inf", "pulse-phase-nan",
        "parsed-delay-1e400s"])
def test_non_finite_event_fields_rejected(make, field):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make()


@pytest.mark.parametrize("v", VARIANTS)
def test_round_trip_is_a_fixpoint(v):
    core = build_uzzz(v, 1.3, 88.0)
    for p in (core, compose_swap13(core)):
        text = serialize_program(p)
        assert serialize_program(parse_program(text)) == text


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_kappa_directive_rejected(value):
    with pytest.raises(ProgramSyntaxError, match="^line 2: bad kappa value$") as err:
        parse_program(f"delay 1ms\n# kappa: {value}\n")
    assert err.value.line == 2


def test_meta_directives_may_repeat_a_key():
    # unlike '# label:' and '# kappa:', which a program carries once
    assert parse_program("# meta k=1\ndelay 1ms\n# meta k=2\n").meta == (("k", "1"), ("k", "2"))


def test_metadata_round_trips():
    p = PulseProgram((Delay(1e-3),), label="demo", kappa=0.75,
                     meta=(("transform", "none"), ("receiver-phase-spin2", "-3.14")))
    q = parse_program(serialize_program(p))
    assert q.label == "demo"
    assert q.kappa == 0.75
    assert q.meta == p.meta


@pytest.mark.parametrize("kwargs, field", [
    ({"label": "a\ndelay 1s"}, "label"),  # would parse back with an extra Delay(1.0)
    ({"label": "a\u2028b"}, "label"),  # str.splitlines breaks at more than \n
    ({"label": " padded "}, "label"),  # would parse back stripped
    ({"label": None}, "label"),
    ({"meta": (("a=b", "c"),)}, "meta"),  # would parse back as ("a", "b=c")
    ({"meta": (("k", "v\n# label: evil"),)}, "meta"),  # would set the parsed label
    ({"meta": (("k", "v "),)}, "meta"),
    ({"meta": (("k\rx", "v"),)}, "meta"),
    ({"meta": (("k", 1.0),)}, "meta"),
    ({"meta": (("k",),)}, "meta"),
], ids=["label-newline", "label-line-separator", "label-padded", "label-none", "meta-key-equals",
        "meta-value-newline", "meta-value-trailing-space", "meta-key-return", "meta-value-float", "meta-one-item"])
def test_label_and_meta_the_text_cannot_carry_are_rejected(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        PulseProgram((Delay(1e-3),), **kwargs)


def test_total_duration_of_a_join():
    p = build_uzzz("B", 1.0, 88.0)
    assert total_duration(p) == pytest.approx(1.0 / 88.0)
    q = build_uzzz("D", 1.0, 88.0)
    assert total_duration(join((p, q))) == pytest.approx(total_duration(p) + total_duration(q))


def test_join_records_its_leaves_outside_equality():
    a = PulseProgram((HardPulse(frozenset({2}), 1.0, 0.0),), label="x", kappa=0.5)
    b = PulseProgram((Delay(1e-3), ZRotation(1, 0.2)), label="x", kappa=0.5, meta=(("k", "v"),))
    p = join((a, b, a), "x", 0.5, (("k", "v"),))
    assert p.parts == (a, b, a) and p.parts[0] is p.parts[2]
    assert p.events == a.events + b.events + a.events
    flat = PulseProgram(p.events, "x", 0.5, (("k", "v"),))
    assert flat.parts == () and a.parts == ()
    assert p == flat and hash(p) == hash(flat) and repr(p) == repr(flat)
    assert serialize_program(p) == serialize_program(flat)
    # a join of joins keeps each operand as one part: parts form a tree
    inner = join((b, a))
    outer = join((p, inner))
    assert outer.parts == (p, inner) and outer.parts[0] is p and outer.parts[1] is inner
    assert outer.events == a.events + b.events + a.events + b.events + a.events
    assert replace(p, label="y").parts == ()
    # the label, kappa and meta are the join's own, never merged from its operands
    assert (join((a, b)).label, join((a, b)).kappa, join((a, b)).meta) == ("", None, ())
    assert join(()) == PulseProgram() and join(()).parts == ()


@pytest.mark.parametrize("count", [1, 2, 5, 8, 13])
def test_one_join_equals_the_chain_of_pairwise_joins(count):
    """One join of a list equals the left-to-right chain of two-program joins."""
    blocks = [PulseProgram((Delay(1e-3 * (k % 3)),), "x", 0.5, (("k", str(k)),)) for k in range(3)]
    programs = [blocks[k % 3] for k in range(count)]
    chain = join(programs[:1], "x", 0.5)
    for q in programs[1:]:
        chain = join((chain, q), "x", 0.5)
    joined = join(iter(programs), "x", 0.5)
    assert joined == chain and joined.meta == ()
    assert len(joined.parts) == count and all(a is b for a, b in zip(joined.parts, programs))
    # the chain nests: each pairwise join holds the previous one as its first part
    for q in reversed(programs[1:]):
        chain, last = chain.parts
        assert last is q
    assert chain.parts == (programs[0],) and chain.parts[0] is programs[0]


def test_total_duration_realistic_adds_pulse_widths():
    realistic = SimulationSettings(mode="realistic")
    p90 = PulseProgram((HardPulse(frozenset({1}), math.pi / 2, 0.0),))
    # 90 degrees at 35.7 kHz: 0.25 / 35700 s
    assert total_duration(p90, realistic) == pytest.approx(7.0028e-6, rel=1e-4)
    assert total_duration(p90) == 0.0
    # multi-channel pulse takes the slowest channel's width
    p_all = PulseProgram((HardPulse(frozenset({1, 2, 3}), math.pi, 0.0),))
    assert total_duration(p_all, realistic) == pytest.approx(0.5 / 5500.0)


@pytest.mark.parametrize("bad, message", [
    ("pulse targets=1 angle=90 phase=nan", "phase must be finite, got nan"),
    ("pulse targets=1 angle=inf phase=x", "flip must be finite, got inf"),
    ("wpulse targets=2 amp=1e400Hz dur=1ms phase=x", "amplitude must be finite, got inf"),
    ("delay 1e400s", "duration must be finite, got inf"),
    ("zrot target=7 angle=90", "unknown spin index 7"),
    ("wpulse targets=2 amp=1e308Hz dur=1ms phase=x",
     "amplitude must be finite, got 1e+308 (2 pi amplitude overflows)"),
    ("pulse targets=1 angle=90 phase=up", "bad phase 'up'"),
    ("pulse targets=1,a angle=90 phase=x", "bad target list '1,a'"),
    ("pulse targets=1 angle=90 x", "expected key=value, got 'x'"),
    ("pulse targets=1 angle=90 phase=x width=2", "unknown field 'width'"),
    ("pulse targets=1 targets=2 angle=90 phase=x angle=45", "repeated field 'targets'"),
    ("zrot target=1 target=2 angle=5", "repeated field 'target'"),
    ("zrot target=a angle=90", "bad target 'a'"),
    ("delay 5", "bad time literal '5'"),
    ("delay 1_0s", "bad time literal '1_0s'"),
    ("delay infs", "bad time literal 'infs'"),
    ("wpulse targets=2 amp=5GHz dur=1ms phase=x", "bad frequency literal '5GHz'"),
    ("pulse targets=1 angle=abc phase=x", "bad angle 'abc'"),
    ("pulse targets=1 angle=90", "missing field(s) ['phase']"),
    ("nop 1", "unknown event 'nop'"),
    ("zrot target=1 angle=x", "bad angle 'x'"),
    ("# kappa: abc", "bad kappa value"),
    ("pulse targets=1,3,1 angle=90 phase=x", "repeated spin index in targets [1, 3, 1]"),
    ("# kappa: 1\n# kappa: 2", "repeated directive '# kappa:'"),
    ("# label: a\n# meta k=v\n# label: b", "repeated directive '# label:'"),
])
def test_event_validator_errors_carry_line_number(bad, message):
    line = bad.count("\n") + 2  # the error is on the last line of bad
    with pytest.raises(ProgramSyntaxError, match=f"^line {line}: {re.escape(message)}$") as err:
        parse_program(f"delay 1ms\n{bad}\n")
    assert err.value.line == line


_ANGLE = st.floats(-2 * math.pi, 2 * math.pi)
_TARGETS = st.sets(st.sampled_from((1, 2, 3)), min_size=1).map(frozenset)
_DURATION = st.floats(0.0, 1.0)
_EVENT = st.one_of(
    st.builds(HardPulse, _TARGETS, _ANGLE, _ANGLE),
    st.builds(WeakPulse, _TARGETS, st.floats(0.0, 1e5), _DURATION, _ANGLE),
    st.builds(Delay, _DURATION),
    st.builds(ZRotation, st.sampled_from((1, 2, 3)), _ANGLE),
)
_WORD = st.text("abcXYZ019-+_.", min_size=1, max_size=12)
_PROGRAMS = st.builds(
    PulseProgram,
    st.lists(_EVENT, max_size=30).map(tuple),
    st.one_of(st.just(""), _WORD),
    st.one_of(st.none(), st.floats(0.0, 2.0)),
    st.lists(st.tuples(_WORD, _WORD), max_size=3).map(tuple),
)


@given(_PROGRAMS)
def test_parse_serialize_is_idempotent(p):
    text = serialize_program(p)
    q = parse_program(text)
    assert serialize_program(q) == text
    assert (q.label, q.kappa, q.meta) == (p.label, p.kappa, p.meta)
    assert [type(ev) for ev in q.events] == [type(ev) for ev in p.events]


# each event type's text keys, in order, and the dataclass field each one writes
_KEY_FIELDS = {
    HardPulse: {"targets": "targets", "angle": "flip", "phase": "phase"},
    WeakPulse: {"targets": "targets", "amp": "amplitude", "dur": "duration", "phase": "phase"},
    Delay: {"dur": "duration"},
    ZRotation: {"target": "target", "angle": "angle"},
}


@pytest.mark.parametrize("cls", list(_KEY_FIELDS), ids=lambda cls: cls.__name__)
def test_each_event_type_has_one_text_key_per_field_in_order(cls):
    ((keyword, keys),) = [(kw, keys) for kw, (c, keys) in pulseprog._KEYWORDS.items() if c is cls]
    assert list(keys) == list(_KEY_FIELDS[cls])
    assert list(_KEY_FIELDS[cls].values()) == [f.name for f in fields(cls)]
    assert set(keys) <= set(pulseprog._KEYS)
    # each key carries its own field through the text: a distinct value per field,
    # whole degrees so that angles survive exactly
    values = {f.name: math.radians(10 * (i + 1)) for i, f in enumerate(fields(cls))}
    ev = cls(**{**values, **{k: v for k, v in {"targets": {1, 3}, "target": 3}.items() if k in values}})
    text = serialize_program(PulseProgram((ev,)))
    assert text.split()[0] == keyword
    assert parse_program(text).events == (ev,)


def test_grammar_table_covers_exactly_the_event_types():
    assert {cls for cls, _ in pulseprog._KEYWORDS.values()} == set(_KEY_FIELDS)


class _SubDelay(Delay):
    """A Delay the text cannot write: its keyword belongs to Delay itself."""


_NON_EVENTS = [object(), "delay 1ms", PulseProgram(), _SubDelay(1e-3)]


@pytest.mark.parametrize("ev", _NON_EVENTS, ids=["object", "str", "program", "subclass"])
def test_a_non_event_is_rejected_when_the_program_is_built(ev):
    message = f"^events must be HardPulse, WeakPulse, Delay or ZRotation objects, got {re.escape(repr(ev))}$"
    with pytest.raises(ValueError, match=message):
        PulseProgram((ev,))
    with pytest.raises(ValueError, match=message):
        PulseProgram([Delay(1e-3), ev, "a later non-event"])


def test_a_program_stores_its_events_and_meta_as_tuples():
    p = PulseProgram([Delay(1e-3)], meta=[("k", "v")])
    q = PulseProgram((Delay(1e-3),), meta=(("k", "v"),))
    assert type(p.events) is tuple and type(p.meta) is tuple
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    assert PulseProgram(iter([Delay(1e-3)])).events == (Delay(1e-3),)


_NON_EVENT = st.one_of(st.none(), st.integers(), st.text(max_size=8), st.builds(object),
                       st.builds(_SubDelay, _DURATION), _EVENT.map(lambda ev: PulseProgram((ev,))))


@given(st.lists(st.one_of(_EVENT, _NON_EVENT), max_size=12))
def test_a_program_is_built_if_and_only_if_it_holds_only_events(items):
    strays = [x for x in items if type(x) not in (HardPulse, WeakPulse, Delay, ZRotation)]
    if not strays:
        assert PulseProgram(items).events == tuple(items)
        return
    with pytest.raises(ValueError, match=f"^events must be .*, got {re.escape(repr(strays[0]))}$"):
        PulseProgram(items)


def _builder_outputs():
    """Each builder output at J = 88, named by the call that built it, as in builder_pins."""
    for v in VARIANTS:
        for kappa in (0.0, 0.5, 1.0, 2.0):
            yield f"build_uzzz({v!r}, {kappa})", build_uzzz(v, kappa, 88.0)
            yield f"compose_swap13(build_uzzz({v!r}, {kappa}))", compose_swap13(build_uzzz(v, kappa, 88.0))
            for n in ((4, 64, 256) if v == "D" else (None,)):
                for sparse in (False, True):
                    call = f"broadband_uzzz({v!r}, {kappa}, n={n}, sparse_pi={sparse})"
                    yield call, broadband_uzzz(v, kappa, 88.0, n, sparse)
                    yield f"compose_swap13({call})", compose_swap13(broadband_uzzz(v, kappa, 88.0, n, sparse))
    yield ("refocus_offsets(compose_swap13(build_uzzz('C', 0.0)))",
           refocus_offsets(compose_swap13(build_uzzz("C", 0.0, 88.0))))
    # the refocused SWAPs map nested parts
    for v in "ABC":
        yield (f"refocus_offsets(compose_swap13(build_uzzz({v!r}, 0.7)))",
               refocus_offsets(compose_swap13(build_uzzz(v, 0.7, 88.0))))
    for sparse in (False, True):
        yield (f"refocus_offsets(compose_swap13(broadband_uzzz('D', 0.7, n=16, sparse_pi={sparse})))",
               refocus_offsets(compose_swap13(broadband_uzzz("D", 0.7, 88.0, 16, sparse))))


def _assert_pinned(column: int, digest_of):
    """Fails naming each builder output whose label differs from builder_pins.LABELS,
    or whose label-free digest_of differs from its builder_pins.DIGESTS column."""
    outputs = dict(_builder_outputs())
    assert list(outputs) == list(builder_pins.LABELS) == list(builder_pins.DIGESTS)
    moved = [f"{name}: label {p.label!r}" for name, p in outputs.items() if p.label != builder_pins.LABELS[name]]
    for name, p in outputs.items():
        digest = hashlib.sha256(digest_of(replace(p, label="")).encode()).hexdigest()[:16]
        if digest != builder_pins.DIGESTS[name][column]:
            moved.append(f"{name}: digest {digest}")
    assert not moved, "moved from builder_pins:\n" + "\n".join(moved)


def _text_and_parsed(p) -> str:
    text = serialize_program(p)
    return text + repr(parse_program(text))


def test_text_and_parsed_programs_of_every_builder_are_pinned():
    # captured from the serializer and parser that formatted and parsed every line
    _assert_pinned(0, _text_and_parsed)


def test_repr_and_text_of_every_builder_output_are_pinned():
    # captured before joins nested
    _assert_pinned(1, lambda p: repr(p) + serialize_program(p))


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
def test_non_finite_program_kappa_rejected(kappa):
    with pytest.raises(ValueError, match="kappa must be finite"):
        PulseProgram((Delay(1e-3),), kappa=kappa)
    with pytest.raises(ValueError, match="kappa must be finite"):
        join((PulseProgram((Delay(1e-3),)),), kappa=kappa)
    # so every program's text parses back
    p = PulseProgram((Delay(1e-3),), kappa=None)
    assert parse_program(serialize_program(p)) == p


def test_signed_zeros_of_equal_events_keep_their_own_text():
    p = refocus_offsets(compose_swap13(build_uzzz("C", 0.0, 88.0)))
    lines = serialize_program(p).splitlines()
    assert "zrot target=2 angle=-0.0" in lines
    assert "zrot target=2 angle=0.0" in lines
    assert ZRotation(2, -0.0) == ZRotation(2, 0.0)  # why lines are not shared by value


def test_each_distinct_event_object_is_formatted_once(monkeypatch):
    calls = []
    real = pulseprog._event_line

    def counting(ev):
        calls.append(ev)
        return real(ev)

    monkeypatch.setattr(pulseprog, "_event_line", counting)
    p = broadband_uzzz("D", 1.3, 88.0, 256)
    text = serialize_program(p)
    distinct = {id(ev) for ev in p.events}
    assert len(calls) == len(distinct) < 20 < len(p.events)
    calls.clear()
    q = parse_program(text)
    assert serialize_program(q) == text
    assert len(calls) == len({line for line in text.splitlines() if not line.startswith("#")})


def test_identical_lines_parse_to_one_event_object():
    q = parse_program("delay 1ms\nzrot target=2 angle=-0.0\ndelay 1ms\n"
                      "zrot target=2 angle=0.0\ndelay 1ms\n")
    assert q.events[0] is q.events[2] is q.events[4]
    assert q.events[1] is not q.events[3]
    assert math.copysign(1.0, q.events[1].angle) == -1.0
    assert math.copysign(1.0, q.events[3].angle) == 1.0


@pytest.mark.parametrize("bad, message", [
    ("delay 1ms 2ms", "delay takes exactly one time argument"),
    ("delay 1e400s", "duration must be finite, got inf"),
])
def test_a_repeated_bad_line_reports_its_first_line(bad, message):
    with pytest.raises(ProgramSyntaxError, match=f"^line 2: {message}$") as err:
        parse_program(f"delay 1ms\n{bad}\ndelay 1ms\n{bad}\n")
    assert err.value.line == 2


# values that survive the text format exactly, signed zeros included: whole
# degrees, and phases that are either named or far from every name
_EXACT_ANGLE = st.one_of(st.sampled_from((0.0, -0.0)), st.integers(-720, 720).map(math.radians))
_EXACT_PHASE = st.one_of(st.sampled_from((0.0, -0.0, *pulseprog._PHASE_NAMES.values())),
                         st.integers(1, 89).map(math.radians))
_EXACT_DURATION = st.one_of(st.sampled_from((0.0, -0.0)), _DURATION)
_POOL_EVENT = st.one_of(
    st.builds(HardPulse, _TARGETS, _EXACT_ANGLE, _EXACT_PHASE),
    st.builds(WeakPulse, _TARGETS, st.floats(0.0, 1e5), _EXACT_DURATION, _EXACT_PHASE),
    st.builds(Delay, _EXACT_DURATION),
    st.builds(ZRotation, st.sampled_from((1, 2, 3)), _EXACT_ANGLE),
)


def _with_twins(pool):
    """The pool and a copy of each event with the sign of every zero flipped:
    a twin equals its event but may print differently."""
    return pool + [replace(ev, **{k: -v for k, v in vars(ev).items()
                                  if isinstance(v, float) and v == 0.0}) for ev in pool]


# few distinct event objects, each repeated, as in built programs
_REPEATING_PROGRAMS = st.lists(_POOL_EVENT, min_size=1, max_size=4).map(_with_twins).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=40).map(
        lambda events: PulseProgram(tuple(events))))


@given(_REPEATING_PROGRAMS)
def test_shared_lines_match_the_per_event_serializer(p):
    text = serialize_program(p)
    assert text == serialize_loop(p)
    assert parse_program(text).events == p.events


# any text, drawn often from the characters the text format gives a meaning:
# whitespace, line breaks, '=' and '#'
_TEXT = st.text(st.sampled_from(" \t\n\r\x85\u2028=#a") | st.characters(), max_size=5)


@settings(max_examples=300)
@given(st.lists(_POOL_EVENT, max_size=6), _TEXT, st.none() | st.floats(allow_nan=False, allow_infinity=False),
       st.lists(st.tuples(_TEXT, _TEXT), max_size=3))
def test_every_accepted_program_parses_back_equal(events, label, kappa, meta):
    try:
        p = PulseProgram(tuple(events), label, kappa, tuple(meta))
    except ValueError as exc:  # only a label or meta the text cannot carry is refused
        assert str(exc).startswith(("label ", "meta "))
        return
    q = parse_program(serialize_program(p))
    assert q == p and (q.label, q.kappa, q.meta) == (p.label, p.kappa, p.meta)


@pytest.mark.parametrize("target", [1, True, np.int64(1)])
def test_a_zrotation_target_is_stored_as_an_int(target):
    ev = ZRotation(target, 0.5)
    assert type(ev.target) is int and ev == ZRotation(1, 0.5)
    assert serialize_program(PulseProgram((ev,))) == "zrot target=1 angle=28.6478897565\n"


@pytest.mark.parametrize("target", [1.0, 2.5, "1", None])
def test_a_zrotation_target_that_is_not_an_integer_is_named(target):
    with pytest.raises(ValueError, match=rf"^target must be an integer spin index, got {re.escape(repr(target))}$"):
        ZRotation(target, 0.5)


# Every event the constructors accept, numbers given as Python or numpy scalars,
# ints and bools included. Flips and angles are written in degrees rounded to
# 1e-10, at most radians(5e-11) = 8.73e-13 rad off, which bounds them within
# +/-4 pi up to float rounding; a phase within 1e-12 of x, y, -x or -y is written
# by its name, so phases agree modulo 2 pi to 1e-12
def _scalars(lo, hi):
    floats = st.floats(lo, hi)
    return floats | floats.map(np.float64) | st.integers(math.ceil(lo), math.floor(hi)) | st.booleans()


_ANY_ANGLE = _scalars(-4 * math.pi, 4 * math.pi)
_ANY_TARGETS = st.lists(st.sampled_from((1, 2, 3, True, np.int64(2))), min_size=1, unique_by=operator.index).flatmap(
    lambda ks: st.sampled_from((ks, tuple(ks), set(ks), frozenset(ks))))
_ANY_EVENT = st.one_of(
    st.builds(HardPulse, _ANY_TARGETS, _ANY_ANGLE, _ANY_ANGLE),
    st.builds(WeakPulse, _ANY_TARGETS, _scalars(0.0, 1e300), _scalars(0.0, 1e300), _ANY_ANGLE),
    st.builds(Delay, _scalars(0.0, 1e300)),
    st.builds(ZRotation, st.sampled_from((1, 2, 3, True, np.int64(3))), _ANY_ANGLE),
)


@given(st.lists(_ANY_EVENT, min_size=1, max_size=12), st.none() | _scalars(-10.0, 10.0))
def test_every_accepted_event_round_trips_through_the_text(events, kappa):
    parsed = parse_program(serialize_program(PulseProgram(tuple(events), kappa=kappa)))
    back = parsed.events
    assert parsed.kappa == kappa and len(back) == len(events)
    for ev, got in zip(events, back):
        assert type(got) is type(ev)
        for name, value in vars(ev).items():
            if name in ("flip", "angle"):
                assert abs(getattr(got, name) - value) <= math.radians(5e-11) + 1e-14
            elif name == "phase":
                assert abs(math.remainder(getattr(got, name) - value, 2 * math.pi)) <= 1e-12 + 1e-14
            else:
                assert getattr(got, name) == value
