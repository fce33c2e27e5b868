import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trispin import engine
from trispin.broadband import build_swap13_broadband, default_dante_n
from trispin.engine import (
    IDEAL,
    SimulationSettings,
    ensemble_scales,
    evolve_many,
    hard_pulse_width,
    offset_scan,
    propagator_of,
    propagator_stacks,
)
from trispin.linalg import expm_eigh, expm_generator, unitarity_defect
from trispin.metrics import eta_curve, fidelity, transfer_efficiency
from trispin.pulseprog import Delay, HardPulse, PulseProgram, WeakPulse, ZRotation, join
from trispin.sequences import build_swap13, build_uzzz
from trispin.spinsys import (
    SpinSystem,
    acetamide,
    free_hamiltonian,
    ideal_chain,
    rf_hamiltonian,
    spin_operator,
    target_trilinear,
)

from oracles import evolve_loop, expm_taylor, h0_diagonal_loops, propagator_loop

J = 88.0
SYS = ideal_chain(J)
REALISTIC = SimulationSettings(mode="realistic", rf_fwhm=0.10)


def test_empty_program_is_identity():
    assert np.allclose(propagator_of(PulseProgram(), SYS), np.eye(8))


def test_single_delay_matches_direct_expm():
    t = 1.0 / (2 * J)
    u = propagator_of(PulseProgram((Delay(t),)), SYS)
    assert np.max(np.abs(u - expm_generator(free_hamiltonian(SYS), t))) < 1e-12


@pytest.mark.parametrize("settings", [IDEAL, REALISTIC])
def test_propagator_is_unitary(settings):
    for v in ("A", "B", "C", "D"):
        u = propagator_of(build_swap13(v, 1.0, J), SYS, settings)
        assert unitarity_defect(u) < 1e-9


def test_join_homomorphism():
    p1 = build_uzzz("B", 0.7, J)
    p2 = build_uzzz("D", 1.2, J)
    lhs = propagator_of(join((p1, p2)), SYS)
    rhs = propagator_of(p2, SYS) @ propagator_of(p1, SYS)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_ideal_mode_ignores_rf_amplitudes():
    weird = SimulationSettings(rf_amplitudes={"1H": 1.0, "15N": 2.0})
    p = build_swap13("C", 1.0, J)
    assert np.allclose(propagator_of(p, SYS, weird), propagator_of(p, SYS, IDEAL))


def test_evolve_preserves_trace_and_hermiticity():
    rho0 = spin_operator(1, "x") + np.eye(8) / 8.0
    for settings in (IDEAL, REALISTIC):
        rho = next(evolve_many(rho0, (build_swap13("D", 1.0, J),), SYS, settings))
        assert abs(np.trace(rho) - np.trace(rho0)) < 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10


def test_evolve_identity_state_unchanged():
    rho0 = np.eye(8, dtype=complex) / 8.0
    rho = next(evolve_many(rho0, (build_swap13("A", 1.0, J),), SYS, REALISTIC))
    assert np.max(np.abs(rho - rho0)) < 1e-10


def test_evolve_rejects_non_hermitian_state():
    bad = np.eye(8, dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        next(evolve_many(bad, (PulseProgram(),), SYS))


def test_evolve_rejects_a_nan_state():
    with pytest.raises(ValueError, match="initial state is not Hermitian: defect nan"):
        next(evolve_many(np.full((8, 8), np.nan), (PulseProgram(),), SYS))


def test_a_nan_propagator_fails_the_exit_check():
    # the delay's phases overflow to inf, and their exponentials are NaN
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="propagator is not unitary: defect nan"):
        propagator_of(PulseProgram((Delay(1e308),)), SYS)


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
    with pytest.raises(ValueError):
        SimulationSettings(mode="realistic", rf_amplitudes={"1H": 0.0})
    with pytest.raises(ValueError):
        IDEAL.amplitude_for("13C")


@pytest.mark.parametrize("mode", ["ideal", "realistic"])
@pytest.mark.parametrize("amp", [math.nan, math.inf, -math.inf])
def test_settings_reject_non_finite_rf_amplitude(mode, amp):
    with pytest.raises(ValueError, match=r"rf_amplitudes\['1H'\] must be finite"):
        SimulationSettings(mode=mode, rf_amplitudes={"1H": amp})


@pytest.mark.parametrize("mode", ["ideal", "realistic"])
def test_misspelled_rf_channel_is_rejected(mode):
    settings = SimulationSettings(mode=mode, rf_amplitudes={"1h": 1000.0})
    with pytest.raises(ValueError, match=r"rf_amplitudes\['1h'\]"):
        propagator_of(build_uzzz("B", 1.0, J), SYS, settings)
    # a channel no spin uses is allowed when it is a default one
    other = SpinSystem(J, J, 0.0, 0.0, 0.0, 0.0, ("1H", "1H", "1H"))
    assert unitarity_defect(propagator_of(build_uzzz("B", 1.0, J), other,
                                          SimulationSettings(mode=mode))) < 1e-10


def test_settings_merge_a_mapping_or_pairs_onto_the_defaults():
    from_dict = SimulationSettings(rf_amplitudes={"1H": 3.0})
    from_pairs = SimulationSettings(rf_amplitudes=(("1H", 3.0),))
    assert from_dict == from_pairs and hash(from_dict) == hash(from_pairs)
    assert from_dict.rf_amplitudes == (("15N", 5500.0), ("1H", 3.0))
    assert from_dict.amplitude_for("1H") == 3.0 and from_dict.amplitude_for("15N") == 5500.0
    assert repr(IDEAL) == ("SimulationSettings(mode='ideal', rf_amplitudes=(('15N', 5500.0), "
                           "('1H', 35700.0)), rf_fwhm=0.0, rf_grid_points=11)")
    assert replace(from_dict, mode="realistic").rf_amplitudes == from_dict.rf_amplitudes


@pytest.mark.parametrize("start, stop, step, message", [
    (math.nan, 1.0, 0.1, "start must be finite, got nan"),
    (0.0, -math.inf, 0.1, "stop must be finite, got -inf"),
    (0.0, 1.0, math.inf, "step must be finite, got inf"),
    (0.0, 1.0, 0.0, "step must be positive"),
    (1.0, 0.0, -0.1, "step must be positive"),
])
def test_inclusive_grid_rejects_bad_bounds_naming_the_field(start, stop, step, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        engine.inclusive_grid(start, stop, step)


def test_inclusive_grid_is_empty_when_stop_precedes_start():
    assert engine.inclusive_grid(1.0, 0.5, 0.1) == []
    assert engine.inclusive_grid(1.0, 1.0, 0.1) == [1.0]


def _fid_metric(p, sys, settings):
    return fidelity(propagator_of(p, sys, settings),
                    target_trilinear("z", "z", "z", 1.0))


def test_offset_scan_grid_and_nominal_point():
    p = build_uzzz("D", 1.0, J)
    curve = offset_scan(p, SYS, IDEAL, "1H", -100.0, 100.0, 50.0, _fid_metric)
    assert [o for o, _ in curve] == [-100.0, -50.0, 0.0, 50.0, 100.0]
    nominal = _fid_metric(p, SYS, IDEAL)
    zero = dict(curve)[0.0]
    assert zero == pytest.approx(nominal, abs=1e-12)
    single = offset_scan(p, SYS, IDEAL, "1H", 0.0, 0.0, 10.0, _fid_metric)
    assert single == [(0.0, zero)]


def test_narrowband_d_fails_off_resonance():
    # the geodesic weak pulse is narrowband on the spin-2 channel
    p = build_uzzz("D", 1.0, J)
    (_, fid), = offset_scan(p, SYS, IDEAL, "15N", 500.0, 500.0, 100.0, _fid_metric)
    assert fid < 0.5


def test_offset_scan_validation():
    p = build_uzzz("D", 1.0, J)
    with pytest.raises(ValueError):
        offset_scan(p, SYS, IDEAL, "1H", 0.0, 100.0, 0.0, _fid_metric)
    with pytest.raises(ValueError):
        offset_scan(p, SYS, IDEAL, "1H", 100.0, 0.0, 10.0, _fid_metric)


def test_offset_scan_on_a_channel_no_spin_uses_names_it():
    calls = []
    with pytest.raises(ValueError, match=r"^channel '13C': no spin is on that channel "
                                         r"\(channels \['15N', '1H'\]\)$"):
        offset_scan(PulseProgram(), acetamide(), IDEAL, "13C", -100.0, 100.0, 100.0,
                    lambda *args: calls.append(args))
    assert calls == []


@pytest.mark.parametrize("start, stop, step, message", [
    (0.0, math.inf, 10.0, "offset stop must be finite, got inf"),
    (-math.inf, 0.0, 10.0, "offset start must be finite, got -inf"),
    (math.nan, 0.0, 10.0, "offset start must be finite, got nan"),
    (0.0, 100.0, math.nan, "offset step must be finite, got nan"),
    (0.0, 100.0, math.inf, "offset step must be finite, got inf"),
    (0.0, 1.0, 1e-5, "offset grid spans more than 10000 points"),
    (0.0, 1.0, 1e-320, "offset grid spans more than 10000 points"),
    (-1e308, 1e308, 1.0, "offset grid spans more than 10000 points"),
])
def test_offset_scan_rejects_non_finite_and_oversized_grids(start, stop, step, message):
    calls = []
    with pytest.raises(ValueError, match=message):
        offset_scan(PulseProgram(), SYS, IDEAL, "1H", start, stop, step,
                    lambda *args: calls.append(args))
    assert calls == []  # rejected before any point is evaluated


def test_offset_scan_cap_is_inclusive():
    assert engine.MAX_GRID_POINTS == 10_000
    curve = offset_scan(PulseProgram(), SYS, IDEAL, "1H", 0.0, 9999.0, 1.0, lambda *args: 0.0)
    assert len(curve) == engine.MAX_GRID_POINTS
    with pytest.raises(ValueError, match="more than 10000"):
        offset_scan(PulseProgram(), SYS, IDEAL, "1H", 0.0, 10000.0, 1.0, lambda *args: 0.0)


@pytest.mark.parametrize("start, stop, step, points", [
    (-500.0, 500.0, 150.0, 7),  # 1000 / 150 = 6.67 steps rounds to 7; an 8th point would be 550
    (0.0, 1.0, 0.35, 3),
    (-1750.0, 1750.0, 350.0, 11),
    (-6587.9, 3102.4, 2.7, 3590),  # the last point passes stop by 1.4e-12, a rounding error
])
def test_offset_scan_stays_within_the_range(start, stop, step, points):
    curve = offset_scan(PulseProgram(), SYS, IDEAL, "1H", start, stop, step, lambda *args: 0.0)
    offsets = [o for o, _ in curve]
    assert len(offsets) == points and offsets[0] == start
    assert all(o <= stop or math.isclose(o, stop, rel_tol=1e-14) for o in offsets)


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
_SYSTEMS = _BASE_SYSTEMS | st.builds(lambda s, nus: SpinSystem(s.j12, s.j23, s.j13, *nus, s.channels),
                                     _BASE_SYSTEMS, st.tuples(_OFFSET, _OFFSET, _OFFSET))
_SETTINGS = st.builds(
    SimulationSettings,
    mode=st.sampled_from(("ideal", "realistic")),
    rf_amplitudes=st.fixed_dictionaries({"1H": st.floats(5e3, 5e4), "15N": st.floats(1e3, 1e4)}),
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
            h, t = h0 + rf_hamiltonian(ev.targets, c * ev.amplitude, ev.phase), ev.duration
        elif settings.mode == "ideal":
            h, t = rf_hamiltonian(ev.targets, 1.0 / (2 * math.pi), ev.phase), ev.flip
        else:
            t = hard_pulse_width(ev, sys, settings)
            amp = c * ev.flip / (2 * math.pi * t) if t else 0.0
            h = h0 + rf_hamiltonian(ev.targets, amp, ev.phase)
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
    n = default_dante_n(max(kappas), j)
    pulses = {ev for kappa in kappas for ev in build_swap13_broadband("D", kappa, j, n, True).events
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
    p = build_swap13_broadband("D", 0.8, J, 16, sparse_pi=True)
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
    swaps = [build_swap13("B", kappa, J) for kappa in (0.2, 0.7, 1.1, 1.6, 2.0)]
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
    programs = [build_swap13_broadband("C", k, J) for k in kappas]
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

    def counting(chunk, *args):
        sizes.append(len(chunk))
        return real(chunk, *args)

    monkeypatch.setattr(engine, "_lower_chunk", counting)
    programs = [PulseProgram((Delay(1e-4 * (k + 1)),)) for k in range(2 * size + 1)]
    stacks = list(propagator_stacks(programs, SYS, REALISTIC, np.ones(members)))
    assert len(stacks) == len(programs) and all(s.shape == (members, 8, 8) for s in stacks)
    assert sizes == [size, size, 1]


def test_realistic_d_sweep_matches_per_point_evolve_loop():
    # kappa = 2 makes the DANTE sub-pulse a zero-width (diagonal) hard pulse;
    # more points than one chunk
    sys, kappas = acetamide(), [0.05, 0.3, 0.7, 1.0, 1.2, 1.5, 1.75, 1.9, 1.95, 2.0]
    j = 0.5 * (sys.j12 + sys.j23)
    n = default_dante_n(max(kappas), j)
    curve = eta_curve("D", kappas, sys, REALISTIC)
    assert len(curve) == len(kappas)
    for kappa, (tau, eta) in zip(kappas, curve):
        p = build_swap13_broadband("D", kappa, j, n, sparse_pi=True)
        assert tau == p.nominal_duration
        rho = evolve_loop(spin_operator(1, "x"), p, sys, REALISTIC)
        assert abs(eta - transfer_efficiency(rho)) < 1e-12


def test_empty_scale_grid_gives_empty_stacks():
    p = build_swap13("A", 1.0, J)
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
    p = build_swap13_broadband("D", 0.8, J, 16, sparse_pi=True)
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
