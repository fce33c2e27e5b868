import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trispin.broadband import (
    broadband_uzzz,
    build_swap13_broadband,
    dante_discretize,
    default_dante_n,
    eliminate_z_rotations,
    emulate_selective_pulse,
    receiver_phases,
    refocus_offsets,
)
from trispin.engine import IDEAL, propagator_of
from trispin.linalg import expm_generator
from trispin.metrics import fidelity
from trispin.pulseprog import (Delay, HardPulse, PulseProgram, WeakPulse, ZRotation, join,
                               serialize_program)
from trispin.sequences import build_swap13, build_uzzz, compose_swap13
from trispin.spinsys import SpinSystem, ideal_chain, spin_operator, swap13_target, target_trilinear

J = 88.0
CHAIN = ideal_chain(J)
OFFSET_SYS = SpinSystem(J, J, 0.0, 200.0, -300.0, 500.0)
TARGET = target_trilinear("z", "z", "z", 1.0)


@pytest.mark.parametrize("v", ["A", "B", "C"])
def test_refocused_sequences_survive_offsets(v):
    p = refocus_offsets(build_uzzz(v, 1.0, J))
    u = propagator_of(p, OFFSET_SYS)
    assert fidelity(u, TARGET) >= 1.0 - 1e-9


@pytest.mark.parametrize("v", ["A", "B", "C"])
def test_refocusing_preserves_on_resonance_identity(v):
    p = refocus_offsets(build_uzzz(v, 1.0, J))
    assert fidelity(propagator_of(p, CHAIN), TARGET) >= 1.0 - 1e-9


def test_odd_delay_count_gets_trailing_pi():
    # one delay -> one inserted pi -> odd parity -> compensating trailing pi
    p = refocus_offsets(PulseProgram((Delay(1e-3),)))
    pis = [e for e in p.events if isinstance(e, HardPulse)
           and e.targets == frozenset({1, 2, 3}) and abs(e.flip - math.pi) < 1e-12]
    assert len(pis) == 2
    assert p.events[-1] == pis[-1]
    u = propagator_of(p, OFFSET_SYS)
    v = propagator_of(PulseProgram((Delay(1e-3),)), CHAIN)
    assert fidelity(u, v) >= 1.0 - 1e-9


@pytest.mark.parametrize("p", [
    PulseProgram((Delay(1e-3),)),
    join((PulseProgram((Delay(1e-3), HardPulse(frozenset({2}), 0.5, 0.3))),
          join((PulseProgram((Delay(2e-3),)),) * 2))),
])
def test_odd_refocus_count_ends_with_a_one_event_pi_part(p):
    q = refocus_offsets(p)
    *body, last = q.parts
    # the parts before it are p's, refocused, each with as many parts as before
    assert [len(part.parts) for part in body] == [len(part.parts) for part in p.parts or (p,)]
    assert last.parts == () and len(last.events) == 1
    pi = last.events[0]
    assert (pi.targets, pi.flip) == (frozenset({1, 2, 3}), math.pi)
    assert q == refocus_offsets(PulseProgram(p.events))


def test_inverted_frame_negates_later_phases_and_zrots():
    p = PulseProgram((Delay(1e-3), HardPulse(frozenset({1}), math.pi / 2, 0.3),
                      ZRotation(2, 0.5), Delay(1e-3)))
    q = refocus_offsets(p)
    pulse = [e for e in q.events if isinstance(e, HardPulse) and e.targets == frozenset({1})][0]
    assert pulse.phase == pytest.approx((-0.3) % (2 * math.pi))
    zrot = [e for e in q.events if isinstance(e, ZRotation)][0]
    assert zrot.angle == -0.5


def test_refocus_rejects_weak_pulses():
    with pytest.raises(ValueError):
        refocus_offsets(build_uzzz("D", 1.0, J))


def test_dante_convergence_slope():
    p = build_uzzz("D", 1.0, J)
    ns = [8, 16, 32, 64]
    errs = []
    for n in ns:
        u = propagator_of(dante_discretize(p, n), CHAIN)
        errs.append(1.0 - fidelity(u, TARGET))
    assert errs[-1] < errs[0]
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope <= -1.0


def test_dante_flip_angle_split():
    p = dante_discretize(build_uzzz("D", 1.0, J), 16)
    subs = [e for e in p.events if isinstance(e, HardPulse) and e.targets == frozenset({2})
            and abs(math.degrees(e.flip) - 11.25) < 1e-9]
    assert len(subs) == 16
    assert p.nominal_duration == pytest.approx(build_uzzz("D", 1.0, J).nominal_duration)


def test_dante_validation():
    with pytest.raises(ValueError):
        dante_discretize(build_uzzz("D", 1.0, J), 10)
    with pytest.raises(ValueError):
        dante_discretize(build_uzzz("B", 1.0, J), 16)
    # a float count would pass the multiple-of-4 check and fail as a TypeError
    with pytest.raises(ValueError, match=r"DANTE segment count n must be an integer, got 8\.0"):
        dante_discretize(build_uzzz("D", 1.0, J), 8.0)
    with pytest.raises(ValueError, match=r"DANTE segment count n must be an integer, got 16\.0"):
        broadband_uzzz("D", 1.0, J, 16.0)


@pytest.mark.parametrize("sparse_pi", [False, True])
def test_a_numpy_segment_count_gives_the_same_program_text(sparse_pi):
    p = broadband_uzzz("D", 1.0, J, np.int64(16), sparse_pi)
    q = broadband_uzzz("D", 1.0, J, 16, sparse_pi)
    assert serialize_program(p) == serialize_program(q)


def test_broadband_geodesic_offsets():
    p = broadband_uzzz("D", 1.0, J, 64)
    assert fidelity(propagator_of(p, OFFSET_SYS), TARGET) >= 0.999
    wide = SpinSystem(J, J, 0.0, 2000.0, -2000.0, 2000.0)
    assert fidelity(propagator_of(p, wide), TARGET) >= 0.999


def test_broadband_geodesic_sparse_layout():
    p = broadband_uzzz("D", 1.0, J, 64, sparse_pi=True)
    assert fidelity(propagator_of(p, CHAIN), TARGET) >= 0.999
    pis = [e for e in p.events if isinstance(e, HardPulse)
           and e.targets == frozenset({1, 2, 3})]
    assert len(pis) == 64  # one pi group per segment


@pytest.mark.parametrize("build, label, kappa", [
    *((lambda v=v: build_swap13(v, 0.7, J), f"swap13-{v}", 0.7) for v in "ABCD"),
    *((lambda v=v: build_swap13_broadband(v, 0.7, J), f"swap13-{v}-bb", 0.7) for v in "ABCD"),
    (lambda: build_swap13_broadband("D", 0.7, J, 16, sparse_pi=True), "swap13-D-bb", 0.7),
    (lambda: build_swap13_broadband("D", 0.0, J, sparse_pi=True),
     "swap13-D-bb", 0.0),
    # a core of two equal leaves that are distinct objects keeps them distinct
    (lambda: compose_swap13(join((PulseProgram((Delay(1e-3),)), PulseProgram((Delay(1e-3),)))),
                            "x", 1.0),
     "x", 1.0),
])
def test_swap_repeats_one_core(build, label, kappa):
    p = build()
    assert (p.label, p.kappa, p.meta) == (label, kappa, ())  # the core's meta is not kept
    head, core, mid, second, tail, third = p.parts  # a joined core stays one part
    assert core is second is third
    assert p.events == head.events + core.events + mid.events + core.events + tail.events + core.events
    assert core.events == sum((part.events for part in core.parts or (core,)), ())


@pytest.mark.parametrize("scheme, periods", [
    (dict(n=64, sparse_pi=True), 16),  # one 4-phase cycle of segments
    (dict(n=16, sparse_pi=True), 4),
    (dict(n=4, sparse_pi=True), 1),  # the smallest train is one period
])
def test_sparse_dante_train_repeats_one_period(scheme, periods):
    p = broadband_uzzz("D", 1.0, J, **scheme)
    assert (p.label, p.kappa, p.meta) == (
        "uzzz-D-bb", 1.0, (("transform", f"broadband-geodesic-n{scheme['n']}"),))
    first, *train, last = p.parts
    assert len(train) == periods and all(period is train[0] for period in train)
    assert len(train[0].events) == 4 * scheme["n"] // periods  # delay, pi, sub-pulse, delay
    assert first.events + train[0].events * periods + last.events == p.events


def test_dante_discretize_repeats_one_segment():
    p = dante_discretize(build_uzzz("D", 1.0, J), 8)
    assert (p.label, p.kappa, p.meta) == ("uzzz-D-dante", 1.0, (("transform", "dante-n8"),))
    first, *train, last = p.parts
    assert len(train) == 8 and all(segment is train[0] for segment in train)
    assert [type(ev) for ev in train[0].events] == [Delay, HardPulse, Delay]


_ANGLE = st.floats(-2 * math.pi, 2 * math.pi)
_HARD_PULSE = st.builds(HardPulse, st.sets(st.sampled_from((1, 2, 3)), min_size=1).map(frozenset),
                        _ANGLE, _ANGLE)
_DELAY = st.builds(Delay, st.floats(0.0, 1.0 / J))
_DELAY_PULSE_PROGRAMS = st.lists(st.one_of(_HARD_PULSE, _DELAY), max_size=12).map(lambda events: PulseProgram(tuple(events)))


@given(_DELAY_PULSE_PROGRAMS, st.sampled_from((CHAIN, SpinSystem(88.0, 85.0, 3.0, 0.0, 0.0, 0.0))))
def test_refocusing_keeps_the_on_resonance_propagator(p, sys):
    u, v = propagator_of(p, sys), propagator_of(refocus_offsets(p), sys)
    assert fidelity(u, v) >= 1.0 - 1e-12


_ZROTATION = st.builds(ZRotation, st.sampled_from((1, 2, 3)), _ANGLE)
_LEAF = st.lists(st.one_of(_HARD_PULSE, _DELAY, _ZROTATION), max_size=6).map(
    lambda events: PulseProgram(tuple(events)))
# joins of leaves drawn from a pool, so leaf objects repeat at different pi counts
_JOINED = st.lists(_LEAF, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8).map(
        lambda leaves: join(leaves, "j", 0.5, (("k", "v"),))))


@settings(max_examples=300)
@given(_JOINED)
def test_refocusing_a_join_equals_refocusing_its_flat_copy(p):
    q = refocus_offsets(p)
    flat = refocus_offsets(PulseProgram(p.events, p.label, p.kappa, p.meta))
    assert q == flat and repr(q) == repr(flat)
    assert q.events == sum((leaf.events for leaf in q.parts), ())
    u = propagator_of(p, SpinSystem(88.0, 85.0, 3.0, 0.0, 0.0, 0.0))
    v = propagator_of(q, SpinSystem(88.0, 85.0, 3.0, 200.0, -300.0, 500.0))
    assert fidelity(u, v) >= 1.0 - 1e-12


@st.composite
def _nested(draw):
    """A join whose parts are leaves and earlier joins of a growing pool, so
    joins nest and leaf and node objects repeat at different pi counts."""
    pool = draw(st.lists(_LEAF, min_size=1, max_size=4))
    for _ in range(draw(st.integers(1, 4))):
        pool.append(join(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))))
    return join(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)), "j", 0.5, (("k", "v"),))


def _tree_events(p):
    """p's events as its parts' tree composes them, checked at every node."""
    if not p.parts:
        return p.events
    events = sum((_tree_events(part) for part in p.parts), ())
    assert events == p.events
    return events


@settings(max_examples=200)
@given(_nested())
def test_refocusing_a_nested_join_equals_refocusing_its_flat_copy(p):
    q = refocus_offsets(p)
    flat = refocus_offsets(PulseProgram(p.events, p.label, p.kappa, p.meta))
    assert q == flat and repr(q) == repr(flat)
    assert _tree_events(q) == flat.events
    diff = propagator_of(q, OFFSET_SYS) - propagator_of(flat, OFFSET_SYS)
    assert np.max(np.abs(diff)) < 1e-12


def test_refocusing_a_deep_chain_of_pairwise_joins_equals_its_flat_copy():
    blocks = [PulseProgram((HardPulse(frozenset({2}), 0.5, 0.3), Delay(2e-4))), PulseProgram((Delay(1e-4),)),
              PulseProgram((ZRotation(1, 0.3),))]
    p = blocks[0]
    for i in range(1500):  # deeper than the interpreter's recursion limit
        p = join((p, blocks[i % 3]))
    q = refocus_offsets(p)
    assert q == refocus_offsets(PulseProgram(p.events))
    nested, last, pi = q.parts  # 1001 delays: the compensating pi is one more part
    assert len(nested.parts) == 2 and q.events == nested.events + last.events + pi.events  # still nested
    assert pi.parts == () and pi.events == (HardPulse(frozenset({1, 2, 3}), math.pi, math.pi),)


def test_dense_broadband_core_keeps_the_train_structure():
    p = broadband_uzzz("D", 1.0, J, 64)
    assert len(p.parts) == 66 and len({id(leaf) for leaf in p.parts}) == 4
    head, even, odd, *_, tail = p.parts  # each segment inserts 2 pis: 2 cycle positions
    assert p.parts[1:-1] == (even, odd) * 32
    assert all(a is b for a, b in zip(p.parts[1:-1], (even, odd) * 32))
    assert p == refocus_offsets(PulseProgram(dante_discretize(build_uzzz("D", 1.0, J), 64).events,
                                             "uzzz-D-dante", 1.0, (("transform", "dante-n64"),)))


@pytest.mark.parametrize("v", ["A", "C"])
def test_broadband_swap_of_a_flat_core_has_six_parts(v):
    # the core is one part: a join of A's refocused leaf, or of C's and its compensating pi
    p = build_swap13_broadband(v, 0.7, J, sparse_pi=True)
    assert len(p.parts) == 6 and len({id(leaf) for leaf in p.parts}) == 4
    assert p.parts[1] is p.parts[3] is p.parts[5]


def test_broadband_geodesic_kappa_zero():
    p = broadband_uzzz("D", 0.0, J)
    assert fidelity(propagator_of(p, OFFSET_SYS), target_trilinear("z", "z", "z", 0.0)) >= 1.0 - 1e-9


def test_default_dante_n():
    assert default_dante_n(1.0, J) % 4 == 0
    assert default_dante_n(0.0, J) == 4
    # sub-delay no longer than 1/(20 J)
    tau = math.sqrt(3) / (2 * J)
    assert tau / default_dante_n(1.0, J) <= 1.0 / (20.0 * J)


def test_swap13_broadband_offsets():
    p = build_swap13_broadband("C", 1.0, J)
    assert fidelity(propagator_of(p, OFFSET_SYS), swap13_target()) >= 1.0 - 1e-6


def test_scheme_validation():
    for v in "ABCD":  # n is checked also for a variant without a weak pulse
        with pytest.raises(ValueError, match="multiple of 4, got 6"):
            broadband_uzzz(v, 1.0, J, 6)


def test_selective_pulse_delay():
    p = emulate_selective_pulse(1, 0.0, 358.0)
    delays = [e for e in p.events if isinstance(e, Delay)]
    assert len(delays) == 2
    assert delays[0].duration == pytest.approx(698e-6, abs=1e-6)


@pytest.mark.parametrize("target", [1, 3])
@pytest.mark.parametrize("phase", [0.0, math.pi / 2])
def test_selective_pulse_acts_as_180_on_target(target, phase):
    # J13 = 0: the fragment refocuses couplings to spin 2 but not 1-3
    sys = SpinSystem(88.8, 87.3, 0.0, 0.0, 0.0, 358.0)
    p = emulate_selective_pulse(target, phase, 358.0)
    gen = math.pi * (math.cos(phase) * spin_operator(target, "x")
                     + math.sin(phase) * spin_operator(target, "y"))
    assert fidelity(propagator_of(p, sys), expm_generator(gen, 1.0)) >= 1.0 - 1e-9


def test_selective_pulse_spectator_residue_is_documented():
    p = emulate_selective_pulse(1, 0.0, 358.0)
    zrots = [e for e in p.events if isinstance(e, ZRotation)]
    assert zrots == [ZRotation(3, -math.pi)]


def test_selective_pulse_validation():
    with pytest.raises(ValueError):
        emulate_selective_pulse(2, 0.0, 358.0)
    with pytest.raises(ValueError):
        emulate_selective_pulse(1, 0.0, 0.0)


@pytest.mark.parametrize("dnu13", [math.inf, math.nan], ids=["dnu13-inf", "dnu13-nan"])
def test_selective_pulse_rejects_non_finite_input(dnu13):
    with pytest.raises(ValueError, match="dnu13"):
        emulate_selective_pulse(1, 0.0, dnu13)


def test_eliminate_z_rotations_equivalence():
    p = PulseProgram((ZRotation(1, math.pi / 2),
                      HardPulse(frozenset({1, 2}), math.pi / 2, 0.0),
                      Delay(3e-3),
                      ZRotation(2, 0.7)))
    q = eliminate_z_rotations(p)
    assert not any(isinstance(e, ZRotation) for e in q.events)
    phis = receiver_phases(q)
    assert phis[1] == pytest.approx(math.pi / 2)
    assert phis[2] == pytest.approx(0.7)
    # original = residual z-rotations applied after the stripped program
    z = expm_generator(sum(phi * spin_operator(k, "z") for k, phi in phis.items()), 1.0)
    u = propagator_of(p, CHAIN)
    v = propagator_of(q, CHAIN)
    assert fidelity(u, z @ v) >= 1.0 - 1e-10


def test_eliminate_z_rotations_rejects_a_weak_pulse_on_mixed_angles():
    # splitting it would run the two halves one after the other: 3 ms became 5 ms
    p = PulseProgram((ZRotation(1, 0.7), WeakPulse(frozenset({1, 3}), 200.0, 2e-3, 0.0),
                      Delay(1e-3)))
    with pytest.raises(ValueError, match=r"weak pulse on spins \[1, 3\]"):
        eliminate_z_rotations(p)


def test_eliminate_z_rotations_keeps_a_weak_pulse_on_equal_angles():
    p = PulseProgram((ZRotation(1, 0.7), ZRotation(3, 0.7),
                      WeakPulse(frozenset({1, 3}), 200.0, 2e-3, 0.0), Delay(1e-3)))
    q = eliminate_z_rotations(p)
    assert q.events == (WeakPulse(frozenset({1, 3}), 200.0, 2e-3, (-0.7) % (2 * math.pi)),
                        Delay(1e-3))
    z = expm_generator(0.7 * (spin_operator(1, "z") + spin_operator(3, "z")), 1.0)
    assert fidelity(z @ propagator_of(q, OFFSET_SYS), propagator_of(p, OFFSET_SYS)) >= 1.0 - 1e-10


def test_eliminate_z_rotations_splits_mixed_target_pulses():
    p = PulseProgram((ZRotation(1, 0.4),
                      HardPulse(frozenset({1, 3}), math.pi / 2, 0.0)))
    q = eliminate_z_rotations(p)
    pulses = [e for e in q.events if isinstance(e, HardPulse)]
    assert len(pulses) == 2  # spins 1 and 3 carry different accumulated angles
    assert {tuple(sorted(e.targets)) for e in pulses} == {(1,), (3,)}
    z = expm_generator(0.4 * spin_operator(1, "z"), 1.0)
    assert fidelity(propagator_of(p, CHAIN), z @ propagator_of(q, CHAIN)) >= 1.0 - 1e-10


# weak pulses on one spin never meet mixed angles; hard pulses on any targets do
_Z_PROGRAMS = st.lists(st.one_of(
    _HARD_PULSE,
    st.builds(WeakPulse, st.sampled_from((1, 2, 3)).map(lambda k: frozenset({k})),
              st.floats(0.0, 500.0), st.floats(0.0, 1.0 / J), _ANGLE),
    _DELAY,
    st.builds(ZRotation, st.sampled_from((1, 2, 3)), _ANGLE),
), max_size=16).map(lambda events: PulseProgram(tuple(events)))


@given(_Z_PROGRAMS, st.sampled_from((CHAIN, OFFSET_SYS)))
def test_eliminate_z_rotations_keeps_the_ideal_propagator(p, sys):
    q = eliminate_z_rotations(p)
    assert not any(isinstance(ev, ZRotation) for ev in q.events)
    assert q.nominal_duration == p.nominal_duration
    rz = sum((phi * spin_operator(k, "z") for k, phi in receiver_phases(q).items()),
             np.zeros((8, 8)))
    z = expm_generator(rz, 1.0)
    assert fidelity(z @ propagator_of(q, sys), propagator_of(p, sys)) >= 1.0 - 1e-10
