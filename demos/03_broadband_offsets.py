"""Why the broadband transforms exist: offset robustness, before and after.

The plain sequences assume every spin is on resonance. This script scans the
spin-2 channel offset and shows the geodesic sequence's weak pulse collapsing
within a few hundred Hz, then applies the DANTE discretization plus
refocusing-pi insertion and repeats the scan. It also shows the convergence
of the DANTE train toward the continuous weak pulse.
"""
import numpy as np

from trispin import (
    IDEAL,
    broadband_uzzz,
    build_uzzz,
    dante_discretize,
    fidelity,
    ideal_chain,
    offset_scan,
    propagator_of,
    target_trilinear,
)

J = 88.0
sys = ideal_chain(J)
target = target_trilinear("z", "z", "z", 1.0)


def fid(p, s, settings):
    return fidelity(propagator_of(p, s, settings), target)


plain = build_uzzz("D", 1.0, J)
robust = broadband_uzzz("D", 1.0, J, 64)

print("Fidelity vs spin-2 channel offset (Hz):")
print(f"{'offset':>8}{'plain D':>12}{'broadband D':>14}")
for off in (0.0, 100.0, 250.0, 500.0, 1000.0, 2000.0):
    (_, f_plain), = offset_scan(plain, sys, IDEAL, "15N", off, off, 1.0, fid)
    (_, f_bb), = offset_scan(robust, sys, IDEAL, "15N", off, off, 1.0, fid)
    print(f"{off:>8.0f}{f_plain:>12.6f}{f_bb:>14.6f}")

print("\nProton-channel scan of the broadband program (+/- 1.75 kHz band):")
curve = offset_scan(robust, sys, IDEAL, "1H", -1750.0, 1750.0, 350.0, fid)
for off, f in curve:
    print(f"  {off:>8.0f} Hz   fidelity {f:.9f}")

print("\nDANTE discretization error vs segment count:")
errs = []
ns = [8, 16, 32, 64, 128]
for n in ns:
    err = 1.0 - fid(dante_discretize(plain, n), sys, IDEAL)
    errs.append(err)
    print(f"  n = {n:>4}   1 - fidelity = {err:.3e}")
slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
print(f"log-log slope {slope:.2f}: a midpoint discretization, converging fast")
