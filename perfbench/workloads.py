"""Seeded op streams for the three workloads, their execution and their checks.

Every op drives trispin through its public entry point, ``trispin.cli.main``,
in process, with stdout captured. The checks here run outside the timed
region. They use closed forms from the paper, never trispin's own formulas,
plus (for the default seed) reference outputs captured once with
``capture_reference.py``.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference" / "seed1.json"
DEFAULT_SEED = 1

# acetamide couplings of the CLI's default eta-sweep config; the sweep's
# duration axis uses their mean
J_BAR = 0.5 * (88.8 + 87.3)
COMPILE_J = 88.0
SUITES = ("identities", "swap", "broadband", "limits")

DURATION_REL_TOL = 1e-9
REFERENCE_TOL = 1e-12


def tau_v(v: str, kappa: float) -> float:
    """Duration of U_zzz(kappa) in units of 1/J, as given in the paper."""
    if v == "A":
        return (2.0 + kappa) / 2.0
    if v == "B":
        return 1.0
    if v == "C":
        return (1.0 + kappa) / 2.0
    return math.sqrt(kappa * (4.0 - kappa)) / 2.0


def _shuffled_blocks(rng: random.Random, values):
    """Endless seeded draws that use every value once per block of len(values).

    Stratified draws keep each run's mix of cheap and costly ops, and so its
    latency percentiles, the same from seed to seed.
    """
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def _seconds(token: str) -> float:
    """A time literal of the program text format: <float><us|ms|s>."""
    for suffix, scale in (("us", 1e-6), ("ms", 1e-3), ("s", 1.0)):
        if token.endswith(suffix):
            return float(token[: -len(suffix)]) * scale
    raise ValueError(f"bad time literal {token!r}")


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


@dataclass(frozen=True)
class Op:
    params: tuple  # (key, value) pairs that define the op and its expected output
    argvs: tuple  # one CLI argument list per trispin.cli.main call


@dataclass
class Result:
    calls: list  # (exit code or exception text, stdout, stderr) per CLI call
    file: str | None = None  # compiled program text, read back after timing


def call_cli(main, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- comparison

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _resolution(token: str) -> float:
    """Value of one unit in the last printed digit of a numeric token."""
    mantissa, _, exp = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exp or 0) - decimals)


def numeric_diff(got: str, want: str) -> str | None:
    """Compare two texts as parsed floats; None when they agree.

    Non-numeric text must match exactly. Numbers may differ by 1e-12
    (relative above 1) plus one unit in their last printed digit, because a
    reordered float sum may flip the last digit of a '%.10g' value.
    """
    g, w = _NUMBER.split(got), _NUMBER.split(want)
    if len(g) != len(w):
        return f"token count {len(g)} != {len(w)}"
    for i, (a, b) in enumerate(zip(g, w)):
        if i % 2 == 0:
            if a != b:
                return f"text {a[:40]!r} != {b[:40]!r}"
            continue
        x, y = float(a), float(b)
        tol = REFERENCE_TOL * max(1.0, abs(x), abs(y)) + max(_resolution(a), _resolution(b))
        if abs(x - y) > tol:
            return f"number {a} != {b}"
    return None


# ---------------------------------------------------------------- workloads


class Workload:
    name = ""
    unit = ""
    trace_ops = 0  # ops in one traced pass
    reference_ops = 0  # leading ops of the default seed kept as references

    def __init__(self, seed: int, scratch: Path, references: list | None = None):
        self.seed = seed
        self.scratch = scratch
        self.references = references
        # the stream's head: the warm-up op, the traced ops and the references
        self.ops = list(itertools.islice(self.stream(), max(self.trace_ops, self.reference_ops)))

    def stream(self):
        """The seed's op sequence, from its start; generated as it is consumed."""
        return self.make_ops(random.Random(f"{self.name}/{self.seed}"))

    def make_ops(self, rng: random.Random):
        """Endless generator of this workload's ops, drawn from rng."""
        raise NotImplementedError

    def run(self, main, op: Op) -> Result:
        return Result([call_cli(main, argv) for argv in op.argvs])

    def finish(self, op: Op, res: Result) -> None:
        """Untimed step after an op, e.g. reading back a written file."""

    def units(self, op: Op, res: Result) -> int:
        raise NotImplementedError

    def invariants(self, op: Op, res: Result) -> list[str]:
        raise NotImplementedError

    def record(self, op: Op, res: Result) -> dict:
        return {"params": [list(kv) for kv in op.params],
                "calls": [[rc, out] for rc, out, _ in res.calls],
                "file": res.file}

    def check(self, i: int, op: Op, res: Result) -> list[str]:
        """Problems with op i's output; an empty list means it passed."""
        for rc, _, err in res.calls:
            if rc != 0:
                return [f"exit {rc!r}: {err.strip()[:200]}"]
        problems = self.invariants(op, res)
        if self.references is not None and i < len(self.references):
            ref = self.references[i]
            got = self.record(op, res)
            if got["params"] != ref["params"]:
                problems.append("seeded inputs differ from the reference")
            pairs = [(g[1], r[1]) for g, r in zip(got["calls"], ref["calls"])]
            if res.file is not None or ref["file"] is not None:
                pairs.append((res.file or "", ref["file"] or ""))
            for g, r in pairs:
                diff = numeric_diff(g, r)
                if diff:
                    problems.append(f"reference mismatch: {diff}")
        return problems


class RealisticSweep(Workload):
    """eta-sweep --mode realistic, 4 kappa points, variants cycling A, C, D."""

    name = "realistic_sweep"
    unit = "kappa points"
    trace_ops = 6
    reference_ops = 6

    def make_ops(self, rng):
        starts = {v: _shuffled_blocks(rng, range(1, 38)) for v in "ACD"}
        while True:
            for v in "ACD":
                start = 0.05 * next(starts[v])
                kappa = f"{start:.2f}:{start + 0.15:.2f}:0.05"
                argv = ("eta-sweep", "--variant", v, "--mode", "realistic", "--kappa", kappa)
                yield Op((("variant", v), ("kappa", kappa)), (argv,))

    def units(self, op, res):
        return len(res.calls[0][1].splitlines()) - 1

    def invariants(self, op, res):
        params = dict(op.params)
        lines = res.calls[0][1].splitlines()
        if not lines or lines[0] != "variant,kappa,tau_s,eta13":
            return ["missing CSV header"]
        start = float(params["kappa"].split(":")[0])
        want_kappas = [start + 0.05 * k for k in range(4)]
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(want_kappas):
            return [f"{len(rows)} rows, want {len(want_kappas)}"]
        problems = []
        for (v, kappa, tau, eta), want in zip(rows, want_kappas):
            kappa, tau, eta = float(kappa), float(tau), float(eta)
            if v != params["variant"] or abs(kappa - want) > 1e-9:
                problems.append(f"row {v},{kappa} not {params['variant']},{want}")
            if not -1.0 <= eta <= 1.0:
                problems.append(f"eta13 {eta} outside [-1, 1]")
            if not _close(tau, 3.0 * tau_v(v, kappa) / J_BAR, DURATION_REL_TOL):
                problems.append(f"tau_s {tau} != 3 tau_{v}({kappa}) / J")
        return problems


class VerifySuites(Workload):
    """All four verify suites for one seeded J."""

    name = "verify_suites"
    unit = "checks"
    trace_ops = 4
    reference_ops = 4

    def make_ops(self, rng):
        while True:
            j = repr(round(rng.uniform(60.0, 120.0), 6))
            yield Op((("J", j),), tuple(("verify", s, "--J", j) for s in SUITES))

    def units(self, op, res):
        return sum(out.count("PASS") for _, out, _ in res.calls)

    def invariants(self, op, res):
        problems = []
        for suite, (_, out, _) in zip(SUITES, res.calls):
            lines = out.splitlines()
            if not lines:
                problems.append(f"suite {suite} printed no checks")
            problems += [f"{suite}: {line}" for line in lines if not line.startswith("PASS")]
        return problems


class CompileRoundtrip(Workload):
    """compile to a file; 3/4 broadband; DANTE n for D; parse-back check."""

    name = "compile_roundtrip"
    unit = "events"
    trace_ops = 40
    reference_ops = 12

    def make_ops(self, rng):
        broadband = {v: _shuffled_blocks(rng, (True, True, True, False)) for v in "ABCD"}
        dante_n = _shuffled_blocks(rng, range(16, 257, 4))
        while True:
            for v in "ABCD":
                kappa = repr(2.0 - 2.0 * rng.random())  # (0, 2]
                bb = next(broadband[v])
                params = [("variant", v), ("kappa", kappa), ("broadband", bb)]
                argv = ["compile", "--variant", v, "--kappa", kappa, "--J", repr(COMPILE_J)]
                if bb:
                    argv.append("--broadband")
                if v == "D":
                    # stratified over the broadband D ops, whose cost grows with n
                    n = next(dante_n) if bb else 4 * rng.randint(4, 64)
                    params.append(("n", n))
                    argv += ["--n", str(n)]
                argv += ["--out", str(self.scratch / "program.pp")]
                yield Op(tuple(params), (tuple(argv),))

    def finish(self, op, res):
        path = self.scratch / "program.pp"
        if path.exists():
            res.file = path.read_text()
            path.unlink()

    def units(self, op, res):
        return sum(1 for line in res.file.splitlines() if line and not line.startswith("#"))

    def invariants(self, op, res):
        from trispin.pulseprog import parse_program

        if res.file is None:
            return ["no program file written"]
        params = dict(op.params)
        try:
            parsed = parse_program(res.file)
        except ValueError as exc:
            return [f"program does not parse: {exc}"]
        problems = []
        if len(parsed.events) != self.units(op, res):
            problems.append("parsed event count differs from event lines")
        # nominal duration summed from the text itself: delays and weak pulses
        total = 0.0
        for line in res.file.splitlines():
            if line.startswith("delay "):
                total += _seconds(line.split()[1])
            elif line.startswith("wpulse "):
                total += _seconds(line.split("dur=")[1].split()[0])
        want = tau_v(params["variant"], float(params["kappa"])) / COMPILE_J
        if not _close(total, want, DURATION_REL_TOL):
            problems.append(f"nominal duration {total} != tau_v / J = {want}")
        return problems


def load_references(name: str) -> list:
    """Reference records of the default seed's leading ops for one workload."""
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)[name]


WORKLOADS = {w.name: w for w in (RealisticSweep, VerifySuites, CompileRoundtrip)}
