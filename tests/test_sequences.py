import math
import warnings
from dataclasses import fields

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from trispin.broadband import broadband_uzzz
from trispin.engine import propagator_of, total_duration
from trispin.metrics import fidelity
from trispin.pulseprog import (HardPulse, PulseProgram, WeakPulse, ZRotation, join, parse_program,
                               serialize_program)
from trispin.sequences import (
    VARIANTS,
    build_uzzz,
    compose_swap13,
    duration_scaling,
    geodesic_tau,
    theoretical_limit,
    weak_pulse_amplitude,
)
from trispin.spinsys import ideal_chain, swap13_target, target_trilinear

J = 88.0
SYS = ideal_chain(J)


@pytest.mark.parametrize("v", VARIANTS)
@pytest.mark.parametrize("kappa", [0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
def test_uzzz_identity(v, kappa):
    u = propagator_of(build_uzzz(v, kappa, J), SYS)
    assert fidelity(u, target_trilinear("z", "z", "z", kappa)) >= 1.0 - 1e-9


@pytest.mark.parametrize("v", VARIANTS)
def test_swap13_identity(v):
    u = propagator_of(compose_swap13(build_uzzz(v, 1.0, J)), SYS)
    assert fidelity(u, swap13_target()) >= 1.0 - 1e-9


@pytest.mark.parametrize("v, fixed", [("A", 12), ("B", 4), ("C", 8), ("D", 2)])
def test_fixed_pulses_are_shared_objects(v, fixed):
    p, q = build_uzzz(v, 0.3, 60.0), build_uzzz(v, 1.7, 119.0)
    # an event equal in two programs of different kappa and J depends on neither,
    # and is then one object: the spin-2 frame pulses and the single-spin pis
    same = [(a, b) for a, b in zip(p.events, q.events) if a == b]
    assert len(same) == fixed and all(a is b and isinstance(a, HardPulse) for a, b in same)


@pytest.mark.parametrize("v", VARIANTS)
def test_swap_frames_are_shared_leaves(v):
    cores = [build_uzzz(v, 0.4, J), build_uzzz(v, 1.3, J), build_uzzz(v, 1.0, 60.0),
             broadband_uzzz(v, 0.7, J, 16, sparse_pi=True)]
    swaps = [compose_swap13(core) for core in cores]
    for i in (0, 2, 4):  # head, mid, tail
        assert all(s.parts[i] is swaps[0].parts[i] and not s.parts[i].parts for s in swaps)


def test_duration_table_at_kappa_one():
    taus = {v: duration_scaling(v, 1.0)[0] for v in VARIANTS}
    assert taus["A"] == pytest.approx(1.5)
    assert taus["B"] == 1.0
    assert taus["C"] == 1.0
    assert taus["D"] == pytest.approx(math.sqrt(3) / 2)
    ss = {v: duration_scaling(v, 1.0)[1] for v in VARIANTS}
    assert ss["A"] == pytest.approx(2.0 / 3.0)
    assert ss["B"] == 1.0
    assert ss["C"] == 1.0
    assert ss["D"] == pytest.approx(2.0 / math.sqrt(3))


def test_ideal_durations_match_formulas():
    for v in VARIANTS:
        for kappa in (0.2, 1.0, 1.8):
            tau_j, _ = duration_scaling(v, kappa)
            p = build_uzzz(v, kappa, J)
            assert total_duration(p) == pytest.approx(tau_j / J, rel=1e-12)


def test_scaling_duration_product_is_kappa():
    for v in VARIANTS:
        for i in range(1, 21):
            kappa = 0.1 * i
            tau_j, s = duration_scaling(v, kappa)
            assert s * tau_j == pytest.approx(kappa, rel=1e-12)


def test_d_is_fastest():
    for i in range(1, 201):
        kappa = i / 100.0  # (0, 2]
        tau_d = duration_scaling("D", kappa)[0]
        for v in ("A", "B", "C"):
            assert tau_d <= duration_scaling(v, kappa)[0] + 1e-12


def test_theoretical_limit_periodicity_is_exact():
    for i in range(0, 65):
        kappa = i / 64.0  # dyadic grid: 2n +/- kappa is exact in floats
        base = theoretical_limit(kappa)
        for n in (1, 2):
            assert theoretical_limit(2 * n + kappa) == base
            assert theoretical_limit(2 * n - kappa) == base


def test_theoretical_limit_matches_d():
    for i in range(0, 101):
        kappa = i / 100.0
        assert theoretical_limit(kappa) == pytest.approx(
            duration_scaling("D", kappa), rel=1e-12)


@pytest.mark.parametrize("v", VARIANTS)
@pytest.mark.parametrize("kappa", [1.2, 1.5, 1.8, 2.0])
def test_a_kappa_above_one_folds_onto_two_minus_kappa(v, kappa):
    # up to global phases pi_x(1) U_zzz(x) pi_x(1) = U_zzz(-x) and U_zzz(2) is
    # three pi z-rotations, so this is U_zzz(kappa) in the time of U_zzz(2 - kappa)
    pi1 = HardPulse(frozenset({1}), math.pi, 0.0)
    p = join((PulseProgram((pi1,)), build_uzzz(v, 2.0 - kappa, J),
              PulseProgram((pi1, *(ZRotation(k, math.pi) for k in (1, 2, 3))))))
    assert 1.0 - fidelity(propagator_of(p, SYS), target_trilinear("z", "z", "z", kappa)) <= 1e-12
    if v == "D":  # folded, D meets the time-optimal bound on (1, 2] too
        assert total_duration(p) == pytest.approx(theoretical_limit(kappa)[0] / J, rel=1e-12)


def test_weak_pulse_amplitude():
    assert weak_pulse_amplitude(1.0, J) == pytest.approx(J / math.sqrt(3))
    assert weak_pulse_amplitude(2.0, J) == 0.0
    assert weak_pulse_amplitude(0.0, J) == 0.0
    wp = [e for e in build_uzzz("D", 1.0, J).events if isinstance(e, WeakPulse)]
    assert len(wp) == 1
    assert wp[0].amplitude == pytest.approx(J / math.sqrt(3))


@pytest.mark.parametrize("kappa, j, field", [
    (0.5, math.nan, "J"),
    (0.5, -3.0, "J"),
    (-1.0, 88.0, "kappa"),
], ids=["j-nan", "j-negative", "kappa-negative"])
def test_weak_pulse_amplitude_rejects_bad_input(kappa, j, field):
    with pytest.raises(ValueError, match=field):
        weak_pulse_amplitude(kappa, j)


def test_input_validation():
    with pytest.raises(ValueError):
        build_uzzz("E", 1.0, J)
    with pytest.raises(ValueError):
        build_uzzz("A", 2.5, J)
    with pytest.raises(ValueError):
        build_uzzz("A", 1.0, 0.0)
    with pytest.raises(ValueError):
        duration_scaling("A", -0.1)


@pytest.mark.parametrize("j", [math.nan, math.inf, -math.inf, 0.0, -88.0])
def test_coupling_must_be_finite_and_positive(j):
    for v in ("D", "A"):
        with pytest.raises(ValueError, match=f"coupling J must be positive and finite, got {j}"):
            build_uzzz(v, 1.0, j)


@pytest.mark.parametrize("kappa", [0.0, 0.3, 1.0, 1.7, 2.0])
def test_geodesic_tau_is_the_d_duration_and_the_limit(kappa):
    tau = math.sqrt(kappa * (4.0 - kappa)) / 2.0
    assert geodesic_tau(kappa) == tau == duration_scaling("D", kappa)[0]
    assert theoretical_limit(kappa)[0] == geodesic_tau(min(kappa, 2.0 - kappa))
    # a float stays a Python float, since event fields are written with repr
    assert all(type(x) is float for x in (geodesic_tau(kappa), *duration_scaling("D", kappa),
                                          *theoretical_limit(kappa)))
    assert geodesic_tau(np.array([kappa, kappa])).tolist() == [tau, tau]
    weak = [ev for ev in build_uzzz("D", kappa, J).events if isinstance(ev, WeakPulse)]
    assert [wp.duration for wp in weak] == ([tau / J] if kappa > 0.0 else [])
    if kappa > 0.0:
        assert weak_pulse_amplitude(kappa, J) == (2.0 - kappa) * J / (2.0 * tau)


# scalar reference forms on Python floats: math.sqrt, math.fmod and min
_SCALAR_TAU = {"A": lambda k: (2.0 + k) / 2.0, "B": lambda k: 1.0,
               "C": lambda k: (1.0 + k) / 2.0, "D": lambda k: math.sqrt(k * (4.0 - k)) / 2.0}


def _scalar_limit(kappa):
    r = math.fmod(abs(kappa), 2.0)
    r = min(r, 2.0 - r)
    tau = _SCALAR_TAU["D"](r)
    return tau, 0.0 if tau == 0.0 else r / tau


def _kappa_arrays(elements):
    return hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
                      elements=elements)


def _same_bits(array, values):
    return array.tobytes() == np.array(values, dtype=np.float64).reshape(array.shape).tobytes()


@given(_kappa_arrays(st.floats(0.0, 2.0)))
def test_closed_forms_over_an_array_are_the_scalar_calls_bit_for_bit(kappa):
    ks = kappa.ravel().tolist()
    for v in VARIANTS:
        tau, s = duration_scaling(v, kappa)
        taus, ss = zip(*(duration_scaling(v, k) for k in ks))
        assert all(type(x) is float for x in taus + ss)
        assert _same_bits(tau, taus) and _same_bits(s, ss)
        old = [_SCALAR_TAU[v](k) for k in ks]
        assert list(taus) == old
        assert list(ss) == [0.0 if t == 0.0 else k / t for k, t in zip(ks, old)]
    assert _same_bits(geodesic_tau(kappa), [geodesic_tau(k) for k in ks])


@given(_kappa_arrays(st.floats(allow_nan=False, allow_infinity=False)))
def test_theoretical_limit_over_an_array_is_the_scalar_calls_bit_for_bit(kappa):
    ks = kappa.ravel().tolist()
    tau, s = theoretical_limit(kappa)
    scalar = [theoretical_limit(k) for k in ks]
    taus, ss = zip(*scalar)
    assert all(type(x) is float for x in taus + ss)
    assert _same_bits(tau, taus) and _same_bits(s, ss)
    assert scalar == [_scalar_limit(k) for k in ks]


@pytest.mark.parametrize("call, got", [
    (lambda: duration_scaling("A", np.array([0.5, 2.5])), "2.5"),
    (lambda: duration_scaling("D", np.array([[0.5], [np.nan]])), "nan"),
    (lambda: build_uzzz("D", np.float64(-0.25), J), "-0.25"),
    (lambda: theoretical_limit(np.array([3.0, np.nan])), "nan"),
], ids=["array-above", "array-nan", "numpy-scalar", "limit-nan"])
def test_closed_forms_name_the_first_bad_kappa(call, got):
    with pytest.raises(ValueError, match=rf"kappa must be in \[0, 2\], got {got}$"):
        call()


@pytest.mark.parametrize("v", VARIANTS)
def test_programs_hold_python_numbers(v):
    programs = [build_uzzz(v, 0.7, J), compose_swap13(build_uzzz(v, 1.0, J)),
                broadband_uzzz(v, 0.7, J, 16)]
    events = [ev for p in programs for leaf in (p, *p.parts) for ev in leaf.events]
    assert not any(isinstance(getattr(ev, f.name), np.generic) for ev in events for f in fields(ev))
    assert not any("np." in serialize_program(p) for p in programs)


@pytest.mark.parametrize("v", VARIANTS)
def test_numpy_scalars_give_the_float_program_text(v):
    def texts(kappa, j):
        core = build_uzzz(v, kappa, j)
        return [serialize_program(p) for p in (core, compose_swap13(core),
                                               compose_swap13(broadband_uzzz(v, kappa, j, np.int64(16))))]
    got = texts(np.float64(0.7), np.float64(J))
    assert got == texts(0.7, J)
    assert all(serialize_program(parse_program(text)) == text for text in got)


def test_an_array_kappa_is_rejected_by_name():
    with pytest.raises(ValueError, match=r"kappa must be one number, got an array of shape \(2,\)"):
        build_uzzz("A", np.array([0.5, 0.6]), J)


@pytest.mark.parametrize("kappa, got", [(math.inf, "inf"), (np.array([1.0, -np.inf]), "-inf")],
                         ids=["inf", "array-minus-inf"])
def test_theoretical_limit_rejects_an_infinite_kappa_without_a_warning(kappa, got):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test before the ValueError
        with pytest.raises(ValueError, match=rf"kappa must be finite, got {got}$"):
            theoretical_limit(kappa)
