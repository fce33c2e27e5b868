import hashlib
import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from oracles import serialize_loop
from trispin import pulseprog
from trispin.broadband import broadband_uzzz, build_swap13_broadband, refocus_offsets
from trispin.engine import SimulationSettings, total_duration
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
from trispin.sequences import VARIANTS, build_swap13, build_uzzz
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


@pytest.mark.parametrize("make, field", [
    (lambda: Delay(math.nan), "duration"),
    (lambda: Delay(math.inf), "duration"),
    (lambda: WeakPulse(frozenset({2}), math.nan, 1e-3, 0.0), "amplitude"),
    (lambda: WeakPulse(frozenset({2}), 10.0, math.inf, 0.0), "duration"),
    (lambda: HardPulse(frozenset({1}), math.pi, math.nan), "phase"),
    (lambda: parse_program("delay 1e400s"), "duration"),
], ids=["delay-nan", "delay-inf", "wpulse-amp-nan", "wpulse-dur-inf", "pulse-phase-nan",
        "parsed-delay-1e400s"])
def test_non_finite_event_fields_rejected(make, field):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make()


@pytest.mark.parametrize("v", VARIANTS)
def test_round_trip_is_a_fixpoint(v):
    for builder in (build_uzzz, build_swap13):
        p = builder(v, 1.3, 88.0)
        text = serialize_program(p)
        assert serialize_program(parse_program(text)) == text


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_kappa_directive_rejected(value):
    with pytest.raises(ProgramSyntaxError, match="^line 2: bad kappa value$") as err:
        parse_program(f"delay 1ms\n# kappa: {value}\n")
    assert err.value.line == 2


def test_metadata_round_trips():
    p = PulseProgram((Delay(1e-3),), label="demo", kappa=0.75,
                     meta=(("transform", "none"), ("receiver-phase-spin2", "-3.14")))
    q = parse_program(serialize_program(p))
    assert q.label == "demo"
    assert q.kappa == 0.75
    assert q.meta == p.meta


def test_nominal_duration_and_join():
    p = build_uzzz("B", 1.0, 88.0)
    assert p.nominal_duration == pytest.approx(1.0 / 88.0)
    q = build_uzzz("D", 1.0, 88.0)
    assert join((p, q)).nominal_duration == pytest.approx(
        p.nominal_duration + q.nominal_duration)


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
    sys = ideal_chain(88.0)
    realistic = SimulationSettings(mode="realistic")
    p90 = PulseProgram((HardPulse(frozenset({1}), math.pi / 2, 0.0),))
    # 90 degrees at 35.7 kHz: 0.25 / 35700 s
    assert total_duration(p90, realistic, sys) == pytest.approx(7.0028e-6, rel=1e-4)
    assert total_duration(p90) == 0.0
    # multi-channel pulse takes the slowest channel's width
    p_all = PulseProgram((HardPulse(frozenset({1, 2, 3}), math.pi, 0.0),))
    assert total_duration(p_all, realistic, sys) == pytest.approx(0.5 / 5500.0)
    with pytest.raises(ValueError):
        total_duration(p90, realistic, None)


@pytest.mark.parametrize("bad, message", [
    ("pulse targets=1 angle=90 phase=nan", "phase must be finite, got nan"),
    ("pulse targets=1 angle=inf phase=x", "flip must be finite, got inf"),
    ("wpulse targets=2 amp=1e400Hz dur=1ms phase=x", "amplitude must be finite, got inf"),
    ("delay 1e400s", "duration must be finite, got inf"),
    ("zrot target=7 angle=90", "unknown spin index 7"),
])
def test_event_validator_errors_carry_line_number(bad, message):
    with pytest.raises(ProgramSyntaxError, match=f"^line 2: {message}$") as err:
        parse_program(f"delay 1ms\n{bad}\n")
    assert err.value.line == 2


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


def _builder_outputs():
    for v in VARIANTS:
        for kappa in (0.0, 0.5, 1.0, 2.0):
            yield build_uzzz(v, kappa, 88.0)
            yield build_swap13(v, kappa, 88.0)
            for n in ((4, 64, 256) if v == "D" else (None,)):
                for sparse in (False, True):
                    yield broadband_uzzz(v, kappa, 88.0, n, sparse)
                    yield build_swap13_broadband(v, kappa, 88.0, n, sparse)
    yield refocus_offsets(build_swap13("C", 0.0, 88.0))


def test_text_and_parsed_programs_of_every_builder_are_pinned():
    # captured from the serializer and parser that formatted and parsed every line
    digest = hashlib.sha256()
    for p in _builder_outputs():
        text = serialize_program(p)
        digest.update(text.encode())
        digest.update(repr(parse_program(text)).encode())
    assert digest.hexdigest() == "6d8001431b4840654fafa110dcc91e40c21a59ed221d4c31ec120bba36a43880"


def test_repr_and_text_of_every_builder_output_are_pinned():
    # captured before joins nested; the refocused SWAPs map nested parts
    extra = [refocus_offsets(build_swap13(v, 0.7, 88.0)) for v in "ABC"]
    extra += [refocus_offsets(build_swap13_broadband("D", 0.7, 88.0, 16, s))
              for s in (False, True)]
    digest = hashlib.sha256()
    for p in [*_builder_outputs(), *extra]:
        digest.update(repr(p).encode())
        digest.update(serialize_program(p).encode())
    assert digest.hexdigest() == "5e38d863ebb6a9ee5335a97bd97cae2d650263d1878a4ef5a19aebf1b49dd6e4"


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
    p = refocus_offsets(build_swap13("C", 0.0, 88.0))
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
