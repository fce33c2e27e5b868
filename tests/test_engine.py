import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trispin import cli, engine
from trispin.broadband import broadband_uzzz, default_dante_n
from trispin.engine import (
    IDEAL,
    SimulationSettings,
    ensemble_scales,
    evolve_many,
    hard_pulse_width,
    propagator_of,
    propagator_stacks,
    total_duration,
)
from trispin.linalg import expm_eigh, expm_generator, unitarity_defect
from trispin.metrics import eta_curve, fidelity, transfer_efficiency
from trispin.pulseprog import Delay, HardPulse, PulseProgram, WeakPulse, ZRotation, join
from trispin.sequences import build_uzzz, compose_swap13, duration_scaling
from trispin.spinsys import (
    SpinSystem,
    acetamide,
    free_hamiltonian,
    ideal_chain,
    spin_operator,
    target_trilinear,
)

from oracles import evolve_loop, expm_taylor, h0_diagonal_loops, propagator_loop, rf_term

J = 88.0
SYS = ideal_chain(J)
REALISTIC = SimulationSettings(mode="realistic", rf_fwhm=0.10)


def test_empty_program_is_identity():
    assert np.allclose(propagator_of(PulseProgram(), SYS), np.eye(8))


def test_single_delay_matches_direct_expm():
    t = 1.0 / (2 * J)
    u = propagator_of(PulseProgram((Delay(t),)), SYS)
    assert np.max(np.abs(u - expm_generator(np.diag(free_hamiltonian(SYS)), t))) < 1e-12


@pytest.mark.parametrize("settings", [IDEAL, REALISTIC])
def test_propagator_is_unitary(settings):
    for v in ("A", "B", "C", "D"):
        u = propagator_of(compose_swap13(build_uzzz(v, 1.0, J)), SYS, settings)
        assert unitarity_defect(u) < 1e-9


def test_join_homomorphism():
    p1 = build_uzzz("B", 0.7, J)
    p2 = build_uzzz("D", 1.2, J)
    lhs = propagator_of(join((p1, p2)), SYS)
    rhs = propagator_of(p2, SYS) @ propagator_of(p1, SYS)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_ideal_mode_ignores_rf_amplitudes():
    weird = SimulationSettings(rf_proton=1.0, rf_hetero=2.0)
    p = compose_swap13(build_uzzz("C", 1.0, J))
    assert np.allclose(propagator_of(p, SYS, weird), propagator_of(p, SYS, IDEAL))


def test_evolve_preserves_trace_and_hermiticity():
    rho0 = spin_operator(1, "x") + np.eye(8) / 8.0
    for settings in (IDEAL, REALISTIC):
        rho = next(evolve_many(rho0, (compose_swap13(build_uzzz("D", 1.0, J)),), SYS, settings))
        assert abs(np.trace(rho) - np.trace(rho0)) < 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10


def test_evolve_identity_state_unchanged():
    rho0 = np.eye(8, dtype=complex) / 8.0
    rho = next(evolve_many(rho0, (compose_swap13(build_uzzz("A", 1.0, J)),), SYS, REALISTIC))
    assert np.max(np.abs(rho - rho0)) < 1e-10


def test_evolve_rejects_non_hermitian_state():
    bad = np.eye(8, dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        next(evolve_many(bad, (PulseProgram(),), SYS))


def test_evolve_rejects_a_nan_state():
    with pytest.raises(ValueError, match="initial state is not Hermitian: defect nan"):
        next(evolve_many(np.full((8, 8), np.nan), (PulseProgram(),), SYS))


@pytest.mark.parametrize("shape", [(4, 4), (8,), (2, 8, 8)])
def test_evolve_rejects_a_state_that_is_not_8x8(shape):
    with pytest.raises(ValueError, match=rf"^initial state must be 8x8, got shape {re.escape(str(shape))}$"):
        next(evolve_many(np.ones(shape), (PulseProgram(),), SYS))


def test_a_nan_propagator_fails_the_exit_check(monkeypatch):
    # every event lowers to finite ops, and only the product is NaN
    monkeypatch.setattr(engine, "_chain", lambda terms: np.full(8, np.nan, dtype=complex))
    with pytest.raises(ValueError, match="propagator is not unitary: defect nan"):
        propagator_of(PulseProgram((Delay(1e-3),)), SYS)


@pytest.mark.parametrize("ev, duration", [
    (Delay(1e308), r"1e\+308"),  # its phases overflow in the lowering
    (WeakPulse(frozenset({2}), 1e300, 1e10, 0.0), "10000000000.0"),  # its eigenphases overflow in the exp
])
def test_an_event_whose_phase_overflows_is_named_without_a_warning(ev, duration):
    named = rf"^the phase of {type(ev).__name__}\(.*duration={duration}.*\) overflows"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=named):
            propagator_of(PulseProgram((Delay(1e-3), ev)), ideal_chain(88.0))


def test_ensemble_grid_shape_and_symmetry():
    scales, weights = ensemble_scales(REALISTIC)
    assert len(scales) == 11
    assert weights.sum() == pytest.approx(1.0)
    assert np.allclose(scales - 1.0, -(scales[::-1] - 1.0))
    assert np.allclose(weights, weights[::-1])
    # symmetric grid: the weighted mean scale is the nominal one
    assert weights @ scales == pytest.approx(1.0)
    # FWHM 0 collapses to a single nominal point
    scales0, weights0 = ensemble_scales(IDEAL)
    assert list(scales0) == [1.0] and list(weights0) == [1.0]
    # a FWHM so small that sigma**2 underflows still gives finite weights
    tiny = SimulationSettings(mode="realistic", rf_fwhm=1e-300, rf_grid_points=3)
    scales_t, weights_t = ensemble_scales(tiny)
    assert list(scales_t) == [1.0, 1.0, 1.0] and weights_t.sum() == pytest.approx(1.0)
    # ideal pulses do not see the rf amplitude: one point whatever the FWHM
    ideal_wide = SimulationSettings(mode="ideal", rf_fwhm=0.10)
    assert [list(a) for a in ensemble_scales(ideal_wide)] == [[1.0], [1.0]]


def test_realistic_finite_pulse_width_effect():
    # a realistic 180 on spin 2 takes 1/(2*5500) s, during which couplings run
    p = PulseProgram((HardPulse(frozenset({2}), math.pi, 0.0),))
    u_ideal = propagator_of(p, SYS, SimulationSettings(mode="ideal"))
    u_real = propagator_of(p, SYS, SimulationSettings(mode="realistic"))
    assert fidelity(u_ideal, u_real) < 1.0 - 1e-6
    assert fidelity(u_ideal, u_real) > 0.99


def test_settings_validation():
    with pytest.raises(ValueError):
        SimulationSettings(mode="exact")
    with pytest.raises(ValueError):
        SimulationSettings(rf_fwhm=1.5)
    with pytest.raises(ValueError):
        SimulationSettings(rf_grid_points=4)
    # construction only: an ensemble this large is never propagated
    with pytest.raises(ValueError, match="rf_grid_points must be odd, positive and at most 10000, "
                                         "got 10000001"):
        SimulationSettings(mode="realistic", rf_fwhm=0.1, rf_grid_points=10_000_001)
    largest = SimulationSettings(mode="realistic", rf_fwhm=0.1, rf_grid_points=9_999)
    assert largest.rf_grid_points == 9_999
    # a float count would pass the range check and fail in ensemble_scales
    with pytest.raises(ValueError, match=r"rf_grid_points must be an integer, got 11\.0"):
        SimulationSettings(mode="realistic", rf_fwhm=0.1, rf_grid_points=11.0)
    numpy_count = SimulationSettings(mode="realistic", rf_fwhm=0.1, rf_grid_points=np.int64(5))
    assert np.array_equal(ensemble_scales(numpy_count)[0],
                          ensemble_scales(replace(numpy_count, rf_grid_points=5))[0])
    with pytest.raises(ValueError, match=r"^rf_proton must be positive, got 0\.0$"):
        SimulationSettings(mode="realistic", rf_proton=0.0)


@pytest.mark.parametrize("mode", ["ideal", "realistic"])
@pytest.mark.parametrize("amp", [math.nan, math.inf, -math.inf])
def test_settings_reject_non_finite_rf_amplitude(mode, amp):
    for name in ("rf_proton", "rf_hetero"):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {amp!r}$"):
            SimulationSettings(mode=mode, **{name: amp})


@pytest.mark.parametrize("mode", ["ideal", "realistic"])
@pytest.mark.parametrize("amp", [0.0, -1.0])
def test_settings_reject_a_non_positive_rf_amplitude_in_both_modes(mode, amp):
    for name in ("rf_proton", "rf_hetero"):
        with pytest.raises(ValueError, match=f"^{name} must be positive, got {amp!r}$"):
            SimulationSettings(mode=mode, **{name: amp})


@pytest.mark.parametrize("mode", ["ideal", "realistic"])
def test_misspelled_rf_channel_is_rejected(mode):
    with pytest.raises(TypeError, match="rf_protn"):
        SimulationSettings(mode=mode, rf_protn=1000.0)


def test_settings_default_to_the_acetamide_rf_amplitudes():
    slow = SimulationSettings(rf_proton=3.0)
    assert (slow.rf_proton, slow.rf_hetero) == (3.0, 5500.0)
    assert slow == SimulationSettings("ideal", 3.0) and hash(slow) == hash(SimulationSettings("ideal", 3.0))
    assert repr(IDEAL) == ("SimulationSettings(mode='ideal', rf_proton=35700.0, rf_hetero=5500.0, "
                           "rf_fwhm=0.0, rf_grid_points=11)")
    assert replace(slow, mode="realistic").rf_proton == 3.0


def test_inclusive_grid_cap_is_inclusive():
    # the CLI's range parser builds its grids up to the engine's cap, both ends included
    assert engine.MAX_GRID_POINTS == 10_000
    assert len(cli._parse_range("0:9999:1")) == engine.MAX_GRID_POINTS
    with pytest.raises(ValueError, match="^--kappa '0:10000:1': grid spans more than 10000 points$"):
        cli._parse_range("0:10000:1")


def test_offset_scan_grid_and_nominal_point():
    # an offset scan is one propagator_stacks call, a shifted system per member
    p = build_uzzz("D", 1.0, J)
    offsets = [-100.0, -50.0, 0.0, 50.0, 100.0]
    (stack,) = propagator_stacks((p,), [SYS.shifted("1H", o) for o in offsets])
    assert stack.shape == (5, 8, 8)
    assert np.array_equal(stack[2], propagator_of(p, SYS, IDEAL))


def test_narrowband_d_fails_off_resonance():
    # the geodesic weak pulse is narrowband on the spin-2 channel
    p = build_uzzz("D", 1.0, J)
    u = propagator_of(p, SYS.shifted("15N", 500.0), IDEAL)
    assert fidelity(u, target_trilinear("z", "z", "z", 1.0)) < 0.5


@pytest.mark.parametrize("settings", [IDEAL, REALISTIC], ids=["ideal", "realistic"])
@pytest.mark.parametrize("channel", ["1H", "15N"])
@pytest.mark.parametrize("points", [11, 101])  # 101 members are lowered in two member slices
def test_offset_scan_equals_the_per_point_propagators(settings, channel, points):
    p = compose_swap13(broadband_uzzz("D", 1.0, J, 8, sparse_pi=True))
    offsets = [2000.0 * i / (points - 1) - 1000.0 for i in range(points)]
    shifted = [acetamide().shifted(channel, o) for o in offsets]
    (stack,) = propagator_stacks((p,), shifted, settings)
    assert len(stack) == points
    assert np.array_equal(stack, [propagator_of(p, s, settings) for s in shifted])
    for u, s in zip(stack, shifted):
        assert np.max(np.abs(u - propagator_loop(p, s, settings))) < 1e-12


def test_a_list_of_systems_equals_one_call_per_system():
    # each member carries every diagonal term of H0: couplings as well as offsets
    systems = [acetamide(), SpinSystem(88.8, 85.0, 2.9, 120.0, -250.0, 410.0), SpinSystem(91.0, 86.0, 0.0)]
    assert len({(s.j12, s.j23, s.j13) for s in systems}) == 3 and all(s.j12 != s.j23 for s in systems)
    programs = [compose_swap13(broadband_uzzz(v, 0.8, J, 16, True)) for v in "ACD"]
    for settings in (IDEAL, REALISTIC):
        for scales in ((1.0,), (0.95, 1.0, 1.05)):  # one scale broadcasts; three pair with the systems
            stacks = list(propagator_stacks(programs, systems, settings, scales))
            for p, stack in zip(programs, stacks):
                for u, s, c in zip(stack, systems, np.broadcast_to(scales, len(systems))):
                    assert np.array_equal(u, next(propagator_stacks((p,), s, settings, (c,)))[0])


@pytest.mark.parametrize("n_sys, n_rf", [(2, 3), (3, 2), (0, 2), (4, 5)])
def test_systems_and_scales_of_other_lengths_are_rejected_naming_both(n_sys, n_rf):
    with pytest.raises(ValueError, match=rf"^sys and scales must broadcast to one member count, "
                                         rf"got {n_sys} spin systems and {n_rf} rf scales$"):
        next(propagator_stacks((PulseProgram(),), [SYS] * n_sys, REALISTIC, np.ones(n_rf)))


@pytest.mark.parametrize("settings", [IDEAL, REALISTIC], ids=["ideal", "realistic"])
@pytest.mark.parametrize("scales", [(math.nan,), (1.0, math.inf), [-math.inf], [[1.0, 2.0]], 1.0],
                         ids=["nan", "inf", "minus-inf", "2-d", "scalar"])
def test_scales_that_are_not_finite_or_not_1d_are_rejected_naming_scales(settings, scales):
    p = compose_swap13(build_uzzz("A", 1.0, J))
    with pytest.raises(ValueError, match=r"^scales must be a 1-D sequence of finite numbers, got array\("):
        next(propagator_stacks((p,), SYS, settings, scales))


def test_one_system_in_a_list_is_the_single_system_call():
    p = compose_swap13(broadband_uzzz("D", 0.8, J, 16, True))
    scales, _ = ensemble_scales(REALISTIC)
    for settings in (IDEAL, REALISTIC):
        assert np.array_equal(next(propagator_stacks((p,), [acetamide()], settings, scales)),
                              next(propagator_stacks((p,), acetamide(), settings, scales)))


def test_a_9999_point_rf_ensemble_is_lowered_in_member_slices():
    # the 9999 members of one program are lowered 88 at a time, not all at once
    settings = SimulationSettings(mode="realistic", rf_fwhm=0.1, rf_grid_points=9999)
    tracemalloc.start()
    try:
        (_, eta), = eta_curve("D", [1.0], acetamide(), settings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(eta - 0.7901877585765935) < 1e-12  # as when the whole ensemble was one chunk
    assert peak <= 64 * 2**20


# ---------------------------------------------------------------------------
# Batched engine against the per-event loop oracle on random programs

_ANGLE = st.floats(-2 * math.pi, 2 * math.pi)
_TARGETS = st.sets(st.sampled_from((1, 2, 3)), min_size=1).map(frozenset)
_DURATION = st.floats(0.0, 1.0 / J)
_EVENT = st.one_of(
    st.builds(HardPulse, _TARGETS, _ANGLE, _ANGLE),
    st.builds(WeakPulse, _TARGETS, st.floats(0.0, 2000.0), _DURATION, _ANGLE),
    st.builds(Delay, _DURATION),
    st.builds(ZRotation, st.sampled_from((1, 2, 3)), _ANGLE),
)
# drawing from a small pool repeats events and makes runs of delays, so the
# deduplication and the diagonal fusion are exercised too
_EVENTS = st.one_of(
    st.lists(_EVENT, max_size=40),
    st.lists(_EVENT, min_size=1, max_size=5).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=40)),
)
_PROGRAMS = _EVENTS.map(lambda events: PulseProgram(tuple(events)))
_BASE_SYSTEMS = st.sampled_from((SYS, acetamide(), SpinSystem(88.0, 85.0, 3.0, 120.0, -250.0, 410.0)))
_OFFSET = st.floats(-1000.0, 1000.0)
_SYSTEMS = _BASE_SYSTEMS | st.builds(lambda s, nus: SpinSystem(s.j12, s.j23, s.j13, *nus),
                                     _BASE_SYSTEMS, st.tuples(_OFFSET, _OFFSET, _OFFSET))
_SETTINGS = st.builds(
    SimulationSettings,
    mode=st.sampled_from(("ideal", "realistic")),
    rf_proton=st.floats(5e3, 5e4),
    rf_hetero=st.floats(1e3, 1e4),
    rf_fwhm=st.floats(0.0, 0.3),
    rf_grid_points=st.sampled_from((1, 3, 5, 7, 9, 11, 13)),
)
_SCALES = st.lists(st.floats(0.5, 1.5), min_size=1, max_size=7)
_RNG = np.random.default_rng(11)
_A = _RNG.normal(size=(8, 8)) + 1j * _RNG.normal(size=(8, 8))
_STATES = st.sampled_from((spin_operator(1, "x"), spin_operator(2, "y") + spin_operator(3, "z"),
                           0.5 * (_A + _A.conj().T)))


@given(_PROGRAMS, _SYSTEMS, _SETTINGS, _SCALES)
def test_propagator_stack_matches_event_loop(p, sys, settings, scales):
    stack = next(propagator_stacks((p,), sys, settings, scales))
    assert stack.shape == (len(scales), 8, 8)
    assert unitarity_defect(stack) < 1e-10
    for u, c in zip(stack, scales):
        assert np.max(np.abs(u - propagator_loop(p, sys, settings, c))) < 1e-12
    assert np.max(np.abs(propagator_of(p, sys, settings) - propagator_loop(p, sys, settings))) < 1e-12


@given(_PROGRAMS, _SYSTEMS, _SETTINGS, _STATES)
def test_evolve_matches_weighted_event_loop_sum(p, sys, settings, rho0):
    rho = next(evolve_many(rho0, (p,), sys, settings))
    assert np.max(np.abs(rho - evolve_loop(rho0, p, sys, settings))) < 1e-12
    scales, _ = ensemble_scales(settings)
    assert unitarity_defect(next(propagator_stacks((p,), sys, settings, scales))) < 1e-10


# The property tests lower with a member budget of 8 instead of 88, so short
# lists span several chunks at every drawn scale count (8 // B programs each)
_BUDGET = 8


def _small_chunks():
    return mock.patch.object(engine, "_CHUNK_MEMBERS", _BUDGET)


# programs drawn from one pool share events; lists mix them with unrelated
# programs, so a chunk's programs differ in length and in event topology
_PROGRAM_LISTS = st.lists(_EVENT, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(
        st.one_of(st.lists(st.sampled_from(pool), max_size=30), _EVENTS)
        .map(lambda events: PulseProgram(tuple(events))),
        max_size=3 * _BUDGET))


@given(_PROGRAM_LISTS, _SYSTEMS, _SETTINGS, _SCALES)
def test_propagator_stacks_match_event_loop(programs, sys, settings, scales):
    with _small_chunks():
        stacks = list(propagator_stacks(programs, sys, settings, scales))
    assert len(stacks) == len(programs)
    for p, stack in zip(programs, stacks):
        assert stack.shape == (len(scales), 8, 8)
        for u, c in zip(stack, scales):
            assert np.max(np.abs(u - propagator_loop(p, sys, settings, c))) < 1e-12


@given(_PROGRAM_LISTS, _SYSTEMS, _SETTINGS, _STATES)
def test_evolve_many_matches_evolve_loop(programs, sys, settings, rho0):
    with _small_chunks():
        rhos = list(evolve_many(rho0, iter(programs), sys, settings))
    assert len(rhos) == len(programs)
    for p, rho in zip(programs, rhos):
        assert np.max(np.abs(rho - evolve_loop(rho0, p, sys, settings))) < 1e-12


@given(st.lists(_PROGRAMS, min_size=1, max_size=3), st.lists(_SYSTEMS, min_size=1, max_size=2 * _BUDGET + 1),
       _SETTINGS, st.data())
def test_member_stacks_match_event_loop_per_member(programs, systems, settings, data):
    # member m is system m at scale m (one scale broadcasts); more members than the budget are sliced
    scales = data.draw(st.lists(st.floats(0.5, 1.5), min_size=1, max_size=1)
                       | st.lists(st.floats(0.5, 1.5), min_size=len(systems), max_size=len(systems)))
    with _small_chunks():
        stacks = list(propagator_stacks(programs, systems, settings, scales))
    assert len(stacks) == len(programs)
    for p, stack in zip(programs, stacks):
        assert stack.shape == (len(systems), 8, 8)
        for u, s, c in zip(stack, systems, np.broadcast_to(scales, len(systems))):
            assert np.max(np.abs(u - propagator_loop(p, s, settings, c))) < 1e-12


_ONE_PULSE = st.one_of(
    st.builds(HardPulse, _TARGETS, _ANGLE, _ANGLE),
    st.builds(WeakPulse, _TARGETS, st.floats(0.0, 2000.0), _DURATION, _ANGLE),
)


@given(_ONE_PULSE, _SYSTEMS, _SETTINGS, _SCALES)
def test_pulse_unitaries_match_the_taylor_oracle(ev, sys, settings, scales):
    # the engine exponentiates the phase-0 pulse and restores the phase entrywise;
    # the oracle exponentiates the complex generator at the pulse's phase directly
    h0 = np.diag(h0_diagonal_loops(sys.j12, sys.j23, sys.j13, *sys.offsets))
    stack = next(propagator_stacks((PulseProgram((ev,)),), sys, settings, scales))
    for u, c in zip(stack, scales):
        c = c if settings.mode == "realistic" else 1.0
        if isinstance(ev, WeakPulse):
            h, t = h0 + rf_term(ev.targets, c * ev.amplitude, ev.phase), ev.duration
        elif settings.mode == "ideal":
            h, t = rf_term(ev.targets, 1.0 / (2 * math.pi), ev.phase), ev.flip
        else:
            t = hard_pulse_width(ev, settings)
            amp = c * ev.flip / (2 * math.pi * t) if t else 0.0
            h = h0 + rf_term(ev.targets, amp, ev.phase)
        assert np.max(np.abs(u - expm_taylor(h, t))) < 1e-12


def test_one_real_eigh_per_pulse_generator(monkeypatch):
    eigh, calls = np.linalg.eigh, []

    def counted(a, *args, **kwargs):
        calls.append((a.dtype, math.prod(a.shape[:-2])))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    sys, kappas = acetamide(), [0.2, 0.25, 0.3, 0.35]  # one chunk of the sparse D sweep
    eta_curve("D", kappas, sys, REALISTIC)
    j = 0.5 * (sys.j12 + sys.j23)
    n = default_dante_n(max(kappas))
    pulses = {ev for kappa in kappas for ev in compose_swap13(broadband_uzzz("D", kappa, j, n, True)).events
              if isinstance(ev, HardPulse) and ev.flip != 0.0}
    # a finite hard pulse's generator depends on its targets only: spin 2 (the
    # DANTE sub-pulses, V_D and W), spins 1 and 3 (the SWAP frame) and all three (the pis)
    assert {ev.targets for ev in pulses} == {frozenset({2}), frozenset({1, 3}), frozenset({1, 2, 3})}
    assert len({replace(ev, phase=0.0) for ev in pulses}) > 3
    assert calls == [(np.float64, REALISTIC.rf_grid_points * 3)]


def test_a_d_swap_forms_its_core_product_once(monkeypatch):
    sizes = []
    real = engine._chain

    def counting(terms):
        sizes.append(len(terms))
        return real(terms)

    monkeypatch.setattr(engine, "_chain", counting)
    p = compose_swap13(broadband_uzzz("D", 0.8, J, 16, sparse_pi=True))
    head, core, mid, _, tail, _ = p.parts
    assert len(core.parts) == 6 and all(period is core.parts[1] for period in core.parts[1:5])
    leaves = {id(leaf): leaf for leaf in (head, mid, tail, *core.parts)}.values()
    propagator_of(p, acetamide(), REALISTIC)
    # each distinct leaf is chained once from its events, then one product of the
    # core's 6 parts and one of the SWAP's 6: 10 matmuls, where the SWAP's
    # 3 + 3 * 6 leaves as one flat chain took 20
    assert len(leaves) == 6
    assert sorted(sizes) == sorted([len(leaf.events) for leaf in leaves] + [6, 6])


def test_a_swap_chunk_chains_each_frame_leaf_once(monkeypatch):
    sizes = []
    real = engine._chain

    def counting(terms):
        sizes.append(len(terms))
        return real(terms)

    monkeypatch.setattr(engine, "_chain", counting)
    swaps = [compose_swap13(build_uzzz("B", kappa, J)) for kappa in (0.2, 0.7, 1.1, 1.6, 2.0)]
    frames = [swaps[0].parts[i] for i in (0, 2, 4)]
    assert [len(f.events) for f in frames] == [2, 2, 1]
    assert len(list(propagator_stacks(swaps, SYS))) == len(swaps)  # one chunk at one scale
    # the 3 shared frame leaves once, then per SWAP its 7-event core and its 6 parts
    assert sorted(sizes) == sorted([2, 2, 1] + [7, 6] * len(swaps))


def test_one_part_blocks_and_one_event_leaves_propagate_unchanged():
    p = PulseProgram((HardPulse(frozenset({2}), 1.1, 0.4),))
    q = PulseProgram((Delay(1e-3),))
    # a one-term chain is its term's own array: nothing may write to it afterwards
    programs = [p, join((p,)), join((join((p,)),)), q, join((q,)), join((p, q))]
    stacks = list(propagator_stacks(programs, acetamide(), REALISTIC, ensemble_scales(REALISTIC)[0]))
    u, d = stacks[0], stacks[3]
    assert all(np.array_equal(s, u) for s in stacks[:3])
    assert all(np.array_equal(s, d) for s in stacks[3:5])
    assert np.max(np.abs(stacks[5] - d @ u)) < 1e-14
    assert np.array_equal(stacks[0], next(propagator_stacks((p,), acetamide(), REALISTIC,
                                                            ensemble_scales(REALISTIC)[0])))


def _sweep_equals_points_one_at_a_time(settings, scales):
    size = engine._CHUNK_MEMBERS // len(scales)  # programs per chunk
    kappas = [2.0 * i / (2 * size + 2) for i in range(2 * size + 3)]  # 2 chunks and 3 programs
    programs = [compose_swap13(broadband_uzzz("C", k, J)) for k in kappas]
    stacks = list(propagator_stacks(programs, acetamide(), settings, scales))
    assert len(stacks) == len(programs)
    for p, stack in zip(programs, stacks):
        assert np.array_equal(stack, next(propagator_stacks((p,), acetamide(), settings, scales)))


def test_sweep_longer_than_a_chunk_equals_points_one_at_a_time():
    scales, _ = ensemble_scales(REALISTIC)  # B = 11: 8 programs per chunk
    _sweep_equals_points_one_at_a_time(REALISTIC, scales)


def test_ideal_sweep_longer_than_a_chunk_equals_points_one_at_a_time():
    _sweep_equals_points_one_at_a_time(IDEAL, (1.0,))  # B = 1: 88 programs per chunk


@pytest.mark.parametrize("members, size", [(0, 88), (1, 88), (2, 44), (11, 8), (13, 6), (89, 1),
                                           (1001, 1)])
def test_chunks_hold_at_most_the_member_budget(monkeypatch, members, size):
    sizes = []
    real = engine._lower_chunk

    def counting(chunk, settings, h0, rf_scales):
        sizes.append((len(chunk), len(rf_scales)))
        return real(chunk, settings, h0, rf_scales)

    monkeypatch.setattr(engine, "_lower_chunk", counting)
    programs = [PulseProgram((Delay(1e-4 * (k + 1)),)) for k in range(2 * size + 1)]
    stacks = list(propagator_stacks(programs, SYS, REALISTIC, np.ones(members)))
    assert len(stacks) == len(programs) and all(s.shape == (members, 8, 8) for s in stacks)
    # a program with more than 88 members is lowered in member slices of 88: 89 = 88 + 1
    member_slices = [min(88, members - m) for m in range(0, max(1, members), 88)]
    assert sizes == [(k, b) for k in (size, size, 1) for b in member_slices]


def test_realistic_d_sweep_matches_per_point_evolve_loop():
    # kappa = 2 makes the DANTE sub-pulse a zero-width (diagonal) hard pulse;
    # more points than one chunk
    sys, kappas = acetamide(), [0.05, 0.3, 0.7, 1.0, 1.2, 1.5, 1.75, 1.9, 1.95, 2.0]
    j = 0.5 * (sys.j12 + sys.j23)
    n = default_dante_n(max(kappas))
    curve = eta_curve("D", kappas, sys, REALISTIC)
    assert len(curve) == len(kappas)
    for kappa, (tau, eta) in zip(kappas, curve):
        p = compose_swap13(broadband_uzzz("D", kappa, j, n, sparse_pi=True))
        assert tau == 3 * duration_scaling("D", kappa)[0] / j  # the closed form
        assert total_duration(p) == pytest.approx(tau, rel=1e-14)
        rho = evolve_loop(spin_operator(1, "x"), p, sys, REALISTIC)
        assert abs(eta - transfer_efficiency(rho)) < 1e-12


def test_empty_scale_grid_gives_empty_stacks():
    p = compose_swap13(build_uzzz("A", 1.0, J))
    assert next(propagator_stacks((p,), SYS, REALISTIC, ())).shape == (0, 8, 8)


def test_non_unitary_result_is_rejected(monkeypatch):
    monkeypatch.setattr(engine, "expm_eigh", lambda w, v, t: 1.5 * expm_eigh(w, v, t))
    with pytest.raises(ValueError, match="propagator is not unitary"):
        propagator_of(build_uzzz("B", 1.0, J), SYS)


# ---------------------------------------------------------------------------
# Programs composed with `join`: each distinct leaf object is propagated once

_LEAVES = st.lists(_EVENT, max_size=12).map(lambda events: PulseProgram(tuple(events)))


def _sums(pool):
    """Joins of leaves drawn from pool, so leaf objects repeat within and
    across programs, or a single draw itself: a program without parts."""
    return st.lists(st.sampled_from(pool), min_size=1, max_size=7).map(
        lambda ps: join(ps) if len(ps) > 1 else ps[0])


_COMPOSED = st.lists(_LEAVES, min_size=1, max_size=4).flatmap(_sums)
_COMPOSED_LISTS = st.lists(_LEAVES, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(_sums(pool), min_size=_BUDGET + 1, max_size=2 * _BUDGET))


@given(_COMPOSED, _SYSTEMS, _SETTINGS, _SCALES)
def test_composed_program_matches_event_loop(p, sys, settings, scales):
    assert p.events == sum((leaf.events for leaf in p.parts or (p,)), ())
    for u, c in zip(next(propagator_stacks((p,), sys, settings, scales)), scales):
        assert np.max(np.abs(u - propagator_loop(p, sys, settings, c))) < 1e-12


@given(_COMPOSED_LISTS, _SYSTEMS, _SETTINGS, _SCALES)
def test_composed_programs_longer_than_a_chunk_match_event_loop(programs, sys, settings, scales):
    with _small_chunks():
        stacks = list(propagator_stacks(programs, sys, settings, scales))
    assert len(stacks) == len(programs)
    for p, stack in zip(programs, stacks):
        for u, c in zip(stack, scales):
            assert np.max(np.abs(u - propagator_loop(p, sys, settings, c))) < 1e-12


@st.composite
def _nested_lists(draw):
    """Programs drawn from a pool of leaves and joins of earlier pool entries,
    so joins nest and leaf and node objects repeat within and across programs."""
    pool = draw(st.lists(_LEAVES, min_size=1, max_size=4))
    for _ in range(draw(st.integers(1, 5))):
        pool.append(join(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2 * _BUDGET))


@given(_nested_lists(), _SYSTEMS, _SETTINGS, _SCALES)
def test_nested_joins_match_their_flat_copies_and_event_loop(programs, sys, settings, scales):
    flat = [PulseProgram(p.events) for p in programs]
    with _small_chunks():
        stacks = list(propagator_stacks(programs, sys, settings, scales))
        flat_stacks = list(propagator_stacks(flat, sys, settings, scales))
    assert len(stacks) == len(programs)
    for q, stack, flat_stack in zip(flat, stacks, flat_stacks):
        assert np.max(np.abs(stack - flat_stack), initial=0.0) < 1e-12
        for u, c in zip(stack, scales):
            assert np.max(np.abs(u - propagator_loop(q, sys, settings, c))) < 1e-12


def test_a_deep_chain_of_pairwise_joins_propagates():
    pulse = PulseProgram((HardPulse(frozenset({2}), 0.1, 0.3),))
    delay = PulseProgram((Delay(1e-4),))
    p = pulse
    for i in range(3000):  # deeper than the interpreter's recursion limit
        p = join((p, delay if i % 2 else pulse))
    u = propagator_of(p, acetamide(), REALISTIC)
    assert np.max(np.abs(u - propagator_of(PulseProgram(p.events), acetamide(), REALISTIC))) < 1e-10


@pytest.mark.parametrize("settings", [IDEAL, REALISTIC])
def test_replace_flattens_and_keeps_the_propagator(settings):
    p = compose_swap13(broadband_uzzz("D", 0.8, J, 16, sparse_pi=True))
    flat = replace(p, label="renamed")
    assert p.parts and flat.parts == () and flat.events == p.events
    scales, _ = ensemble_scales(settings)
    flat_stack, stack = propagator_stacks((flat, p), acetamide(), settings, scales)
    diff = flat_stack - stack
    assert np.max(np.abs(diff)) < 1e-12


def test_sum_of_5000_programs_propagates():
    pulse = PulseProgram((HardPulse(frozenset({2}), 0.1, 0.3),))
    delay = PulseProgram((Delay(1e-4),))
    p = join(delay if i % 2 else pulse for i in range(5001))
    assert len(p.parts) == 5001 and len(p.events) == 5001
    u = propagator_of(p, acetamide(), REALISTIC)
    assert unitarity_defect(u) < 1e-10
    assert np.max(np.abs(u - propagator_loop(p, acetamide(), REALISTIC))) < 1e-10
