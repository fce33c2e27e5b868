"""Independent reference implementations used only by the tests.

These deliberately avoid the library's own linear-algebra routines: the
matrix exponential is a Taylor series with scaling and squaring, and the
Kronecker product and diagonal-Hamiltonian assembly are explicit loops.
The one exception is propagator_loop/evolve_loop, the engine's former
per-event, per-scale loop, kept as the reference for the batched engine:
it exponentiates one 8x8 generator at a time and multiplies event by event.
Called once per shifted spin system, it is also the per-point reference for
the engine's member axis (lists of spin systems, as in an offset scan).
Likewise serialize_loop is the former serializer, which formats every event
line from scratch.
"""
import math

import numpy as np

from trispin.engine import ensemble_scales, hard_pulse_width
from trispin.linalg import expm_generator, hermiticity_defect
from trispin.pulseprog import Delay, HardPulse, WeakPulse, ZRotation, _fmt_deg, _fmt_phase, _fmt_targets
from trispin.spinsys import free_hamiltonian, spin_operator

TWO_PI = 2.0 * math.pi


def rf_term(targets, amplitude, phase):
    """Rotating-frame rf term at a phase, 2 pi amplitude sum_k (Ikx cos(phase) + Iky sin(phase)),
    a complex matrix; the library keeps only the phase-0 term and rotates pulses by phase."""
    h = np.zeros((8, 8), dtype=complex)
    for k in targets:
        h += spin_operator(k, "x") * np.cos(phase) + spin_operator(k, "y") * np.sin(phase)
    return 2 * np.pi * amplitude * h


def expm_taylor(h, t):
    """exp(-i h t) by scaling-and-squaring of a Taylor series."""
    a = -1j * np.asarray(h, dtype=complex) * t
    norm = np.linalg.norm(a, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    a = a / (2 ** squarings)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 30):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def kron_loops(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    m, n = a.shape
    p, q = b.shape
    out = np.zeros((m * p, n * q), dtype=np.result_type(a, b))
    for i in range(m):
        for j in range(n):
            for k in range(p):
                for l in range(q):
                    out[i * p + k, j * q + l] = a[i, j] * b[k, l]
    return out


def h0_diagonal_loops(j12, j23, j13, nu1, nu2, nu3):
    """Free-Hamiltonian diagonal by looping over the 8 basis states.

    Basis index b = 4 b1 + 2 b2 + b3 with bit 0 meaning m = +1/2.
    """
    diag = np.zeros(8)
    for b in range(8):
        m = [0.5 if ((b >> shift) & 1) == 0 else -0.5 for shift in (2, 1, 0)]
        diag[b] = 2.0 * np.pi * (
            j12 * m[0] * m[1] + j23 * m[1] * m[2] + j13 * m[0] * m[2]
            + nu1 * m[0] + nu2 * m[1] + nu3 * m[2]
        )
    return diag


def _hard_pulse_unitary(ev, sys, settings, h0, rf_scale):
    if settings.mode == "ideal":
        return expm_generator(rf_term(ev.targets, 1.0 / TWO_PI, ev.phase), ev.flip)
    # Finite pulse of hard_pulse_width; every channel's rf is stretched so
    # its flip completes within that width. The inhomogeneity scale
    # multiplies the delivered amplitude, not the programmed duration.
    width = hard_pulse_width(ev, settings)
    if width == 0.0:
        return np.eye(8, dtype=complex)
    amp = rf_scale * ev.flip / (TWO_PI * width)
    return expm_generator(h0 + rf_term(ev.targets, amp, ev.phase), width)


def propagator_loop(p, sys, settings, rf_scale=1.0):
    """Total propagator of the program; events compose right-to-left in time."""
    h0_diag = free_hamiltonian(sys)
    h0 = np.diag(h0_diag)
    cache: dict = {}
    u = np.eye(8, dtype=complex)
    for ev in p.events:
        key = ev
        if key not in cache:
            if isinstance(ev, Delay):
                cache[key] = np.diag(np.exp(-1j * h0_diag * ev.duration))
            elif isinstance(ev, HardPulse):
                cache[key] = _hard_pulse_unitary(ev, sys, settings, h0, rf_scale)
            elif isinstance(ev, WeakPulse):
                scale = rf_scale if settings.mode == "realistic" else 1.0
                h = h0 + rf_term(ev.targets, scale * ev.amplitude, ev.phase)
                cache[key] = expm_generator(h, ev.duration)
            elif isinstance(ev, ZRotation):
                cache[key] = np.diag(np.exp(-1j * ev.angle * np.diag(spin_operator(ev.target, "z"))))
            else:
                raise TypeError(f"unknown event type {type(ev).__name__}")
        u = cache[key] @ u
    return u


def evolve_loop(rho0, p, sys, settings):
    """U rho0 U†, ensemble-averaged over rf scales when enabled."""
    rho0 = np.asarray(rho0, dtype=complex)
    defect = hermiticity_defect(rho0)
    if defect > 1e-10:
        raise ValueError(f"initial state is not Hermitian: defect {defect:.3e}")
    if settings.mode == "realistic" and settings.rf_fwhm > 0.0:
        scales, weights = ensemble_scales(settings)
        out = np.zeros_like(rho0)
        for c, w in zip(scales, weights):
            u = propagator_loop(p, sys, settings, rf_scale=float(c))
            out += w * (u @ rho0 @ u.conj().T)
        return out
    u = propagator_loop(p, sys, settings)
    return u @ rho0 @ u.conj().T


def serialize_loop(p):
    """Program text with every event formatted on its own, no line shared."""
    lines = []
    if p.label:
        lines.append(f"# label: {p.label}")
    if p.kappa is not None:
        lines.append(f"# kappa: {repr(p.kappa)}")
    for key, value in p.meta:
        lines.append(f"# meta {key}={value}")
    for ev in p.events:
        if isinstance(ev, HardPulse):
            lines.append(f"pulse targets={_fmt_targets(ev.targets)} "
                         f"angle={_fmt_deg(ev.flip)} phase={_fmt_phase(ev.phase)}")
        elif isinstance(ev, WeakPulse):
            lines.append(f"wpulse targets={_fmt_targets(ev.targets)} "
                         f"amp={repr(ev.amplitude)}Hz dur={repr(ev.duration)}s "
                         f"phase={_fmt_phase(ev.phase)}")
        elif isinstance(ev, Delay):
            lines.append(f"delay {repr(ev.duration)}s")
        elif isinstance(ev, ZRotation):
            lines.append(f"zrot target={ev.target} angle={_fmt_deg(ev.angle)}")
        else:
            raise TypeError(f"unknown event type {type(ev).__name__}")
    return "\n".join(lines) + "\n"
