"""Command-line front end: table/curve reproduction, verification, compilation.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
A command reports bad input by raising ValueError; main prints it as one
stderr line and returns 2.
CSV output uses '.' decimals, newline-terminated rows and a stable column
order, so identical inputs give byte-identical output.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import broadband, metrics, sequences
from .engine import DEFAULT_RF_AMPLITUDES, SimulationSettings, inclusive_grid, propagator_stacks
from .pulseprog import parse_program, serialize_program
from .spinsys import SpinSystem, acetamide, ideal_chain, target_trilinear, swap13_target, spin_operator
from .linalg import expm_generator

USAGE_ERROR = 2

# verify prints a residue below this floor as the floor, so rounding noise of a
# reassociated product leaves its output bytes unchanged; PASS/FAIL uses the raw value
RESIDUE_FLOOR = 1e-13


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _parse_range(text: str, check=None):
    """kappa range 'start:stop[:step]' -> nonempty list of grid values, passed
    whole to check, the domain check of the command that reads them."""
    parts = text.split(":")
    try:
        if len(parts) not in (2, 3):
            raise ValueError("expected start:stop[:step]")
        step = float(parts[2]) if len(parts) == 3 else 0.1
        kappas = [round(k, 12) for k in inclusive_grid(float(parts[0]), float(parts[1]), step)]
        if not kappas:
            raise ValueError("empty range")
        if check:
            check(kappas)
        return kappas
    except ValueError as exc:
        raise ValueError(f"--kappa {text!r}: {exc}") from None


def _load_config(path: str | None) -> dict:
    """Flat key=value config; defaults reproduce the acetamide system."""
    ace = acetamide()
    cfg = {name: getattr(ace, name) for name in ("j12", "j23", "j13", "nu1", "nu2", "nu3")}
    cfg.update(rf_proton=DEFAULT_RF_AMPLITUDES["1H"], rf_hetero=DEFAULT_RF_AMPLITUDES["15N"],
               rf_fwhm=0.10, rf_grid=11)
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"config line {lineno}: expected key=value")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in cfg:
                    raise ValueError(f"config line {lineno}: unknown key {key!r}")
                try:
                    cfg[key] = type(cfg[key])(value.strip())
                except ValueError as exc:
                    raise ValueError(f"config line {lineno}: {key}: {exc}") from None
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from None
    return cfg


def cmd_table1(args) -> int:
    j = args.J
    book = sequences.swap_duration_bookkeeping(j)  # rejects J <= 0 before any output
    header = "variant,tau1_s,s1,tau_swap13_s"
    rows = []
    for v in sequences.VARIANTS:
        tau, s = sequences.duration_scaling(v, 1.0)
        rows.append((v, tau / j, s, 3.0 * tau / j))
    print(f"Pulse sequence durations and scaling factors at kappa = 1, J = {_fmt(j)} Hz")
    print(f"{'':>10}" + "".join(f"{v:>12}" for v, *_ in rows))
    print(f"{'tau(1)':>10}" + "".join(f"{1e3 * r[1]:>10.3f}ms" for r in rows))
    print(f"{'s(1)':>10}" + "".join(f"{r[2]:>12.3f}" for r in rows))
    print(f"{'SWAP(1,3)':>10}" + "".join(f"{1e3 * r[3]:>10.1f}ms" for r in rows))
    print(f"direct SWAP {1e3 * book['direct']:.1f}ms, conventional SWAP(1,3) "
          f"{1e3 * book['conventional13']:.1f}ms, optimal "
          f"{1e3 * book['optimal13']:.1f}ms "
          f"({100 * book['optimal13'] / book['conventional13']:.1f}%)")
    print()
    print(header)
    for v, tau, s, tsw in rows:
        print(f"{v},{_fmt(tau)},{_fmt(s)},{_fmt(tsw)}")
    return 0


def cmd_curves(args) -> int:
    kappas = _parse_range(args.kappa, metrics._check_ratio_kappa)
    print("kappa,tau_A,tau_B,tau_C,tau_D,s_A,s_B,s_C,s_D,rA,rC,rD")
    for row in metrics.fig2_tables(kappas):
        cells = [row["kappa"], *(row[f"{q}_{v}"] for q in ("tau", "s") for v in "ABCD"),
                 *(row[f"r_{v}"] for v in "ACD")]
        print(",".join(_fmt(c) for c in cells))
    return 0


def cmd_eta_sweep(args) -> int:
    if args.variant not in sequences.VARIANTS:
        raise ValueError(f"unknown variant {args.variant!r}")
    cfg = _load_config(args.config)
    sys_ = SpinSystem(cfg["j12"], cfg["j23"], cfg["j13"],
                      cfg["nu1"], cfg["nu2"], cfg["nu3"])
    settings = SimulationSettings(
        mode=args.mode,
        rf_amplitudes={"1H": cfg["rf_proton"], "15N": cfg["rf_hetero"]},
        rf_fwhm=cfg["rf_fwhm"] if args.mode == "realistic" else 0.0,
        rf_grid_points=int(cfg["rf_grid"]),
    )
    kappas = _parse_range(args.kappa, sequences._check_kappa)
    # the whole curve is computed before any output, so an error leaves
    # stdout empty
    curve = metrics.eta_curve(args.variant, kappas, sys_, settings)
    print("variant,kappa,tau_s,eta13")
    for kappa, (tau, eta) in zip(kappas, curve):
        print(f"{args.variant},{_fmt(kappa)},{_fmt(tau)},{_fmt(eta)}")
    return 0


def _verify_identities(j: float):
    sys_ = ideal_chain(j)
    kappas = [round(0.1 * i, 10) for i in range(1, 21)]
    targets = target_trilinear("z", "z", "z", np.array(kappas))
    programs = (sequences.build_uzzz(v, kappa, j) for v in sequences.VARIANTS for kappa in kappas)
    stacks = np.array([u[0] for u in propagator_stacks(programs, sys_)])  # variant-major, one chunk
    fids = metrics.fidelity(stacks.reshape(len(sequences.VARIANTS), len(kappas), 8, 8), targets)
    for v, worst in zip(sequences.VARIANTS, (1.0 - fids).max(axis=1)):
        yield f"sequence {v} identity (worst over kappa grid)", max(0.0, float(worst)), 1e-9


def _verify_swap(j: float):
    uz, uy, ux = (target_trilinear(a, "z", a, 1.0) for a in "zyx")
    z2 = expm_generator(-math.pi / 2 * spin_operator(2, "z"), 1.0)
    prod = uz @ uy @ ux @ z2
    yield "trilinear product vs permutation", 1.0 - metrics.fidelity(prod, swap13_target()), 1e-10
    for a, b, name in ((uz, uy, "zzz/yzy"), (uz, ux, "zzz/xzx"), (uy, ux, "yzy/xzx")):
        yield f"commutator {name}", float(np.max(np.abs(a @ b - b @ a))), 1e-10
    swaps = (sequences.build_swap13(v, 1.0, j) for v in sequences.VARIANTS)
    for v, u in zip(sequences.VARIANTS, propagator_stacks(swaps, ideal_chain(j))):
        yield f"swap13 {v} fidelity", 1.0 - metrics.fidelity(u[0], swap13_target()), 1e-9


def _verify_broadband(j: float):
    sys_ = SpinSystem(j, j, 0.0, 200.0, -300.0, 500.0)
    target = target_trilinear("z", "z", "z", 1.0)
    robust = (broadband.broadband_uzzz(v, 1.0, j, n=64) for v in "ACD")
    for name, u in zip(("A", "C", "geodesic n=64"), propagator_stacks(robust, sys_)):
        yield f"broadband {name} under offsets", 1.0 - metrics.fidelity(u[0], target), 1e-3
    trains = (broadband.dante_discretize(sequences.build_uzzz("D", 1.0, j), n) for n in (8, 64))
    e8, e64 = (1.0 - metrics.fidelity(u[0], target) for u in propagator_stacks(trains, ideal_chain(j)))
    yield "DANTE error(64) < error(8)", 0.0 if e64 < e8 else 1.0, 0.5


def _verify_limits(j: float):
    samples = np.arange(1, 201) / 200.0
    tau_d, *others = (sequences.duration_scaling(v, samples)[0] for v in "DABC")
    worst = float(np.max(tau_d - np.min(others, axis=0)))
    yield "tau_D <= tau_A/B/C over 200 samples", max(worst, 0.0), 1e-12
    kappa = np.arange(65) / 64.0  # dyadic: 2n +/- kappa is exact in binary floats
    shifted = np.array([2 * n + sign * kappa for n in (1, 2) for sign in (1, -1)])
    base, other = (np.array(sequences.theoretical_limit(x)) for x in (kappa, shifted))
    yield "periodicity tau*(2n +/- kappa)", float(np.max(np.abs(other - base[:, None]))), 0.0


# the acceptance tests run these same suites
SUITES = {
    "identities": _verify_identities,
    "swap": _verify_swap,
    "broadband": _verify_broadband,
    "limits": _verify_limits,
}


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise ValueError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
    sequences._check_j(args.J)  # once for every suite, also one that never reads J
    # the whole suite runs before any output, so an error leaves stdout empty
    results = list(SUITES[args.suite](args.J))
    failed = False
    for name, value, tol in results:
        ok = value <= tol
        failed = failed or not ok
        shown = max(value, min(RESIDUE_FLOOR, tol))  # never above a tolerance it passes
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {shown:.3e} (tol {tol:.0e})")
    return 1 if failed else 0


def cmd_compile(args) -> int:
    if args.n is not None:
        broadband._check_segments(args.n)  # also without --broadband
    if args.broadband:
        p = broadband.broadband_uzzz(args.variant, args.kappa, args.J, args.n)
    else:
        p = sequences.build_uzzz(args.variant, args.kappa, args.J)
    text = serialize_program(p)
    if serialize_program(parse_program(text)) != text:
        print("internal error: serialization does not round-trip", file=sys.stderr)
        return 1
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out!r}: {exc}") from None
    return 0


@functools.cache  # parsing leaves the parser unchanged, so one serves every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trispin",
        description="Three-spin Ising chain pulse sequences: build, propagate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="durations and scaling factors at kappa=1")
    p.add_argument("--J", type=float, required=True, help="coupling constant in Hz")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("curves", help="duration/scaling-factor curves (CSV)")
    p.add_argument("--kappa", default="0.01:1.0:0.01", help="range start:stop[:step]")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("eta-sweep", help="transfer-efficiency sweep (CSV)")
    p.add_argument("--variant", required=True)
    p.add_argument("--mode", default="ideal", help="ideal or realistic")
    p.add_argument("--kappa", default="0.1:2.0:0.1", help="range start:stop[:step]")
    p.add_argument("--config", default=None, help="key=value config file")
    p.set_defaults(func=cmd_eta_sweep)

    p = sub.add_parser("verify", help="run an oracle check suite")
    p.add_argument("suite", help="identities | swap | broadband | limits")
    p.add_argument("--J", type=float, default=88.0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compile", help="write a pulse program file")
    p.add_argument("--variant", required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--J", type=float, default=88.0)
    p.add_argument("--broadband", action="store_true")
    p.add_argument("--n", type=int, default=None, help="DANTE segment count (multiple of 4)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compile)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
