"""Transfer efficiency, phase-invariant propagator fidelity, curve data.

Product operators are Pauli/2 products with the trace inner product, so
Tr(I1x I1x) = 2 in the 8-dimensional space. The transfer efficiency is a
ratio and does not depend on that normalization, but fixing it keeps the
tests deterministic.
"""
from __future__ import annotations

import numpy as np

from .broadband import broadband_uzzz, default_dante_n
from .engine import IDEAL, SimulationSettings, evolve_many
from .sequences import VARIANTS, _check_j, build_uzzz, compose_swap13, duration_scaling, theoretical_limit
from .spinsys import SpinSystem, spin_operator

I1X_NORM = 2.0  # Tr(I1x I1x) in the 8-dimensional space


def transfer_efficiency(rho_final: np.ndarray) -> float:
    """<I3x>(final) / <I1x>(0) for an initial state rho(0) = I1x."""
    return float(np.real(np.trace(rho_final @ spin_operator(3, "x"))) / I1X_NORM)


def fidelity(u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """|Tr(u† v)| / dim: 1 iff u and v agree up to a global phase. Stacks of
    matrices (..., d, d) broadcast against each other and give an array of
    fidelities; one pair gives a float."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape[-2:] != v.shape[-2:]:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    f = abs(np.trace(u.conj().swapaxes(-1, -2) @ v, axis1=-2, axis2=-1)) / u.shape[-1]
    return f if f.ndim else float(f)


def eta_curve(v: str, kappas, sys: SpinSystem,
              settings: SimulationSettings = IDEAL) -> list[tuple[float, float]]:
    """(tau, eta13) pairs for the indirect-SWAP program over a kappa grid.

    Realistic mode (and any off-resonance system) uses the broadband program
    variants. tau is the SWAP's nominal duration (delays plus weak pulses) from
    the closed forms, 3 tau_v(kappa) / J, which the ideal and broadband programs
    share, so ideal and realistic curves share the same duration axis, as in the
    transfer-efficiency figures. The programs are built for the mean coupling
    J = (J12 + J23) / 2.
    """
    kappas = list(kappas)
    if not kappas:
        raise ValueError("kappa grid must be nonempty")
    j = 0.5 * (sys.j12 + sys.j23)
    tau_j = duration_scaling(v, np.array(kappas))[0]  # checks v, then each kappa in turn
    _check_j(j)
    # off-resonance systems need the offset-refocused programs even with
    # ideal pulses, otherwise the detected phase of spin 3 precesses with
    # the sequence duration and scrambles the curve
    broadband = settings.mode == "realistic" or any(sys.offsets)
    # one DANTE segment count for the whole sweep, sized for the largest
    # kappa, so the curve is not rippled by per-point discretization jumps;
    # with finite pulses the sparse pi placement keeps the pulse load sane
    n, sparse_pi = default_dante_n(max(kappas)), settings.mode == "realistic"
    programs = (compose_swap13(broadband_uzzz(v, kappa, j, n, sparse_pi) if broadband else build_uzzz(v, kappa, j))
                for kappa in kappas)  # lazily: the engine holds one lowering chunk of them at a time
    rhos = evolve_many(spin_operator(1, "x"), programs, sys, settings)
    return [(tau, transfer_efficiency(rho)) for tau, rho in zip((3 * tau_j / j).tolist(), rhos)]


def _check_ratio_kappa(kappa):
    for k in np.asarray(kappa).ravel().tolist():  # a float or an array; NaN fails too
        if not 0.0 < k <= 1.0:
            raise ValueError(f"kappa must be in (0, 1] for ratio rows, got {k}")


def fig2_tables(kappas) -> list[dict]:
    """Closed-form duration/scaling rows over a kappa grid in (0, 1].

    Each row carries tau and s for A-D (tau in units of 1/J) plus the
    relative scaling factors r = s / s_B; kappa = 0 is rejected because
    s_B = kappa would divide by zero. Each column is computed over the whole
    grid at once; the rows hold Python floats.
    """
    cols = {"kappa": np.array(list(kappas), dtype=float)}
    _check_ratio_kappa(cols["kappa"])
    for v in VARIANTS:
        cols[f"tau_{v}"], cols[f"s_{v}"] = duration_scaling(v, cols["kappa"])
    cols["tau_star"], cols["s_star"] = theoretical_limit(cols["kappa"])
    for v in ("A", "C", "D"):
        cols[f"r_{v}"] = cols[f"s_{v}"] / cols["s_B"]
    return [dict(zip(cols, row)) for row in zip(*(c.tolist() for c in cols.values()))]
