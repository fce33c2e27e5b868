"""Why the broadband transforms exist: offset robustness, before and after.

The plain sequences assume every spin is on resonance. This script scans the
spin-2 channel offset and shows the geodesic sequence's weak pulse collapsing
within a few hundred Hz, then applies the DANTE discretization plus
refocusing-pi insertion and repeats the scan. It also shows the convergence
of the DANTE train toward the continuous weak pulse.
"""
import numpy as np

from trispin import (
    broadband_uzzz,
    build_uzzz,
    dante_discretize,
    fidelity,
    ideal_chain,
    propagator_stacks,
    target_trilinear,
)

J = 88.0
sys = ideal_chain(J)
target = target_trilinear("z", "z", "z", 1.0)

plain = build_uzzz("D", 1.0, J)
robust = broadband_uzzz("D", 1.0, J, 64)

# one engine call per scan: each offset (or each spin system) is a member of the
# returned (members, 8, 8) stack, and fidelity broadcasts over it
print("Fidelity vs spin-2 channel offset (Hz):")
print(f"{'offset':>8}{'plain D':>12}{'broadband D':>14}")
offsets = (0.0, 100.0, 250.0, 500.0, 1000.0, 2000.0)
shifted = [sys.shifted("15N", off) for off in offsets]
f_plain, f_bb = (fidelity(stack, target) for stack in propagator_stacks((plain, robust), shifted))
for off, fp, fb in zip(offsets, f_plain, f_bb):
    print(f"{off:>8.0f}{fp:>12.6f}{fb:>14.6f}")

print("\nProton-channel scan of the broadband program (+/- 1.75 kHz band):")
offsets = [350.0 * i for i in range(-5, 6)]
(stack,) = propagator_stacks((robust,), [sys.shifted("1H", off) for off in offsets])
for off, f in zip(offsets, fidelity(stack, target)):
    print(f"  {off:>8.0f} Hz   fidelity {f:.9f}")

print("\nDANTE discretization error vs segment count:")
ns = [8, 16, 32, 64, 128]
trains = (dante_discretize(plain, n) for n in ns)
errs = [1.0 - fidelity(stack[0], target) for stack in propagator_stacks(trains, sys)]
for n, err in zip(ns, errs):
    print(f"  n = {n:>4}   1 - fidelity = {err:.3e}")
slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
print(f"log-log slope {slope:.2f}: a midpoint discretization, converging fast")
