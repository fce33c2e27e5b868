import argparse
import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trispin import cli
from trispin.engine import MAX_GRID_POINTS, MODES
from trispin.pulseprog import HardPulse, parse_program, serialize_program
from trispin.sequences import VARIANTS, build_uzzz


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def csv_rows(out, header):
    lines = out.strip().splitlines()
    start = lines.index(header)
    return [line.split(",") for line in lines[start + 1:]]


def test_table1_swap_row(capsys):
    code, out = run(capsys, "table1", "--J", "88")
    assert code == 0
    rows = {r[0]: r for r in csv_rows(out, "variant,tau1_s,s1,tau_swap13_s")}
    expected_ms = {"A": 51.1, "B": 34.1, "C": 34.1, "D": 29.5}
    expected_s = {"A": 0.666, "B": 1.0, "C": 1.0, "D": 1.155}
    for v in "ABCD":
        assert 1e3 * float(rows[v][3]) == pytest.approx(expected_ms[v], abs=0.05)
        assert float(rows[v][2]) == pytest.approx(expected_s[v], abs=1e-3)


def test_table1_prints_the_swap_bookkeeping(capsys):
    # a direct SWAP takes 3 / 2J; the indirect SWAP(1,3) of A takes 9 / 2J and that of D 3 sqrt(3) / 2J
    code, out = run(capsys, "table1", "--J", "88")
    assert code == 0
    direct, conventional, optimal = (1e3 * x / 176.0 for x in (3.0, 9.0, 3.0 * math.sqrt(3)))
    assert (f"direct SWAP {direct:.1f}ms, conventional SWAP(1,3) {conventional:.1f}ms, optimal {optimal:.1f}ms "
            f"({100 * optimal / conventional:.1f}%)") in out.splitlines()
    assert "(57.7%)" in out


def test_table1_unit_j(capsys):
    code, out = run(capsys, "table1", "--J", "1")
    assert code == 0
    rows = {r[0]: r for r in csv_rows(out, "variant,tau1_s,s1,tau_swap13_s")}
    assert float(rows["D"][3]) == pytest.approx(2.598, abs=1e-3)


def test_table1_rejects_nonpositive_j(capsys):
    assert cli.main(["table1", "--J", "0"]) == 2


def test_curves_rows(capsys):
    code, out = run(capsys, "curves", "--kappa", "0.01:1.0:0.99")
    assert code == 0
    header = "kappa,tau_A,tau_B,tau_C,tau_D,s_A,s_B,s_C,s_D,rA,rC,rD"
    rows = csv_rows(out, header)
    assert len(rows) == 2
    small, one = rows
    assert float(small[11]) == pytest.approx(10.0, abs=0.1)  # rD at 0.01
    assert float(one[8]) == pytest.approx(1.1547, abs=1e-3)  # s_D at 1


def test_curves_empty_range_is_rejected(capsys):
    assert cli.main(["curves", "--kappa", "0.9:0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "--kappa '0.9:0.5': empty range\n"


def test_curves_malformed_range(capsys):
    assert cli.main(["curves", "--kappa", "0.1:1.0:-0.1"]) == 2


def test_output_is_deterministic(capsys):
    _, out1 = run(capsys, "curves", "--kappa", "0.1:1.0:0.1")
    _, out2 = run(capsys, "curves", "--kappa", "0.1:1.0:0.1")
    assert out1 == out2


def test_eta_sweep_single_row(capsys):
    code, out = run(capsys, "eta-sweep", "--variant", "D", "--mode", "ideal",
                    "--kappa", "1:1")
    assert code == 0
    rows = csv_rows(out, "variant,kappa,tau_s,eta13")
    assert len(rows) == 1
    v, kappa, tau, eta = rows[0]
    assert v == "D"
    assert float(tau) == pytest.approx(0.02952, abs=2e-4)
    assert float(eta) == pytest.approx(1.0, abs=0.05)


def test_eta_sweep_unknown_variant(capsys):
    assert cli.main(["eta-sweep", "--variant", "Z", "--kappa", "1:1"]) == 2


def test_eta_sweep_config_file(tmp_path, capsys):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("j12 = 88.0\nj23 = 88.0\nj13 = 0.0\nnu3 = 0.0\n# comment\n")
    code, out = run(capsys, "eta-sweep", "--variant", "B", "--kappa", "1:1",
                    "--config", str(cfg))
    assert code == 0
    rows = csv_rows(out, "variant,kappa,tau_s,eta13")
    assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-6)


def test_eta_sweep_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("coupling = 88\n")
    assert cli.main(["eta-sweep", "--variant", "B", "--kappa", "1:1",
                     "--config", str(cfg)]) == 2


def test_config_value_error_names_key_and_line(tmp_path, capsys):
    cfg = tmp_path / "float_grid.cfg"
    cfg.write_text("# rf ensemble\nrf_fwhm = 0.1\nrf_grid = 11.0\n")
    assert cli.main(["eta-sweep", "--variant", "B", "--kappa", "1:1", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config line 3: rf_grid: invalid literal for int() "
                            "with base 10: '11.0'\n")


def test_eta_sweep_error_leaves_stdout_empty(tmp_path, capsys):
    cfg = tmp_path / "uncoupled.cfg"
    cfg.write_text("j12 = 0\nj23 = 0\n")
    assert cli.main(["eta-sweep", "--variant", "B", "--kappa", "1:1",
                     "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "coupling J must be positive" in captured.err


@pytest.mark.parametrize("command", ["curves", "eta-sweep"])
@pytest.mark.parametrize("kappa", ["abc", "0:inf"])
def test_malformed_kappa_names_the_value(capsys, command, kappa):
    argv = [command, "--kappa", kappa] + (["--variant", "B"] if command == "eta-sweep" else [])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and repr(kappa) in lines[0]


@pytest.mark.parametrize("suite", ["identities", "swap", "broadband", "limits"])
def test_verify_suites_pass(capsys, suite):
    code, out = run(capsys, "verify", suite)
    assert code == 0
    assert "FAIL" not in out
    assert "PASS" in out
    assert "tol" in out  # per-check tolerance printed


def test_verify_prints_residues_below_the_floor_as_the_floor(capsys, monkeypatch):
    checks = [("zero", 0.0, 0.0), ("negative", -2e-16, 1e-9), ("noise", 5e-15, 1e-9),
              ("above", 2.5e-13, 1e-9), ("fails", 5e-14, 1e-14)]
    monkeypatch.setitem(cli.SUITES, "fake", lambda j: checks)
    assert cli.main(["verify", "fake"]) == 1  # judged on the raw value, not the shown one
    assert capsys.readouterr().out.splitlines() == [
        "PASS  zero: 0.000e+00 (tol 0e+00)",
        "PASS  negative: 1.000e-13 (tol 1e-09)",
        "PASS  noise: 1.000e-13 (tol 1e-09)",
        "PASS  above: 2.500e-13 (tol 1e-09)",
        "FAIL  fails: 5.000e-14 (tol 1e-14)",
    ]
    assert cli.RESIDUE_FLOOR == 1e-13


def test_verify_unknown_suite(capsys):
    assert cli.main(["verify", "nosuch"]) == 2


def test_compile_round_trip(tmp_path, capsys):
    out_path = tmp_path / "b.pp"
    assert cli.main(["compile", "--variant", "B", "--kappa", "1",
                     "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert serialize_program(parse_program(text)) == text


def test_compile_broadband_dante(tmp_path, capsys):
    out_path = tmp_path / "d.pp"
    assert cli.main(["compile", "--variant", "D", "--kappa", "1", "--broadband",
                     "--n", "16", "--out", str(out_path)]) == 0
    p = parse_program(out_path.read_text())
    subs = [e for e in p.events if isinstance(e, HardPulse)
            and e.targets == frozenset({2})
            and abs(math.degrees(e.flip) - 11.25) < 1e-9]
    assert len(subs) == 16


def test_compile_checks_n_also_without_broadband(tmp_path, capsys):
    out_path = tmp_path / "b.pp"
    assert cli.main(["compile", "--variant", "B", "--kappa", "1", "--n", "16",
                     "--out", str(out_path)]) == 0
    assert out_path.read_text() == serialize_program(build_uzzz("B", 1.0, 88.0))  # n is unused


def test_compile_kappa_out_of_range(capsys, tmp_path):
    assert cli.main(["compile", "--variant", "D", "--kappa", "3",
                     "--out", str(tmp_path / "x.pp")]) == 2


def test_compile_unwritable_path(capsys):
    assert cli.main(["compile", "--variant", "B", "--kappa", "1",
                     "--out", "/nonexistent-dir/x.pp"]) == 2


@pytest.mark.parametrize("argv", [
    ["table1", "--J", "nan"],
    ["table1", "--J", "inf"],
    ["verify", "swap", "--J", "nan"],
    ["verify", "identities", "--J", "inf"],
    ["verify", "limits", "--J", "nan"],  # limits never reads J; it is checked before any suite
    ["verify", "limits", "--J", "-3"],
    # a subnormal J is positive and finite, but its durations 1 / J are inf
    ["table1", "--J", "1e-320"],
    ["compile", "--variant", "B", "--kappa", "1", "--out", os.devnull, "--J", "1e-320"],
    ["verify", "identities", "--J", "1e-320"],
])
def test_non_finite_j_exits_2_with_empty_stdout(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("coupling J ") and f"got {argv[-1]}" in captured.err
    assert ("(1 / J overflows)" in captured.err) == (argv[-1] == "1e-320")


@pytest.mark.parametrize("command", ["curves", "eta-sweep"])
@pytest.mark.parametrize("kappa", ["0:1:1e-9", "0:1e308:1e-308", "0:10000:1"])
def test_oversized_kappa_grid_rejected_before_it_is_built(capsys, command, kappa):
    argv = [command, "--kappa", kappa] + (["--variant", "B"] if command == "eta-sweep" else [])
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2**20  # a 10^4-point grid alone would take about 0.3 MiB
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "--kappa" in lines[0] and repr(kappa) in lines[0]


@pytest.mark.parametrize("argv, config, message", [
    (["curves", "--kappa", "0:1:x"], None, "--kappa '0:1:x': could not convert string to float"),
    (["curves", "--kappa", "0:1:2:3"], None, "--kappa '0:1:2:3': expected start:stop[:step]"),
    (["eta-sweep", "--variant", "B", "--kappa", "0:1:1e-9"], None,
     "--kappa '0:1:1e-9': grid spans more than 10000 points"),
    (["eta-sweep", "--variant", "B", "--kappa", "1.5:4:1"], None,
     "--kappa '1.5:4:1': kappa must be in [0, 2], got 2.5"),
    (["eta-sweep", "--variant", "B", "--kappa", "3:4:1"], None,
     "--kappa '3:4:1': kappa must be in [0, 2], got 3.0"),
    (["curves", "--kappa", "0.5:3:1"], None,
     "--kappa '0.5:3:1': kappa must be in (0, 1] for ratio rows, got 1.5"),
    (["eta-sweep", "--variant", "B", "--kappa", "2:1"], None, "--kappa '2:1': empty range"),
    (["curves", "--kappa", "1:0.5"], None, "--kappa '1:0.5': empty range"),
    (["eta-sweep", "--variant", "B", "--kappa", "1:1", "--config", "{cfg}"], "j12 88\n",
     "config line 1: expected key=value"),
    (["eta-sweep", "--variant", "B", "--kappa", "1:1", "--config", "{cfg}"], "# a\ncoupling = 88\n",
     "config line 2: unknown key 'coupling'"),
    (["eta-sweep", "--variant", "B", "--kappa", "1:1", "--config", "{cfg}"], "rf_grid = many\n",
     "config line 1: rf_grid: invalid literal for int()"),
    # a repeated key is an error, as a repeated field of the program text is
    (["eta-sweep", "--variant", "B", "--kappa", "1:1", "--config", "{cfg}"], "j12 = 88.8\nj12 = 10\n",
     "config line 2: repeated key 'j12'"),
    # int() and float() would read these as 88.8 and 11
    (["eta-sweep", "--variant", "B", "--kappa", "1:1", "--config", "{cfg}"], "j12 = 8_8.8\n",
     "config line 1: j12: '_' in number '8_8.8'"),
    (["eta-sweep", "--variant", "B", "--kappa", "1:1", "--config", "{cfg}"], "# grid\nrf_grid = 1_1\n",
     "config line 2: rf_grid: '_' in number '1_1'"),
    (["eta-sweep", "--variant", "B", "--kappa", "1:1", "--config", "{cfg}"], "rf_grid = 10000001\n",
     "rf_grid_points must be odd, positive and at most 10000, got 10000001"),
    (["eta-sweep", "--variant", "B", "--kappa", "1:1", "--config", "{missing}"], None,
     "cannot read config: "),
    (["eta-sweep", "--variant", "B", "--kappa", "1:1", "--config", "{cfg}"], "nu3 = 1e308\n",
     "nu3 must be finite, got 1e+308 (2 pi nu3 overflows)"),
    # config values are checked in ideal mode too, although it runs no rf ensemble
    (["eta-sweep", "--variant", "B", "--kappa", "1:1", "--config", "{cfg}"], "rf_fwhm = 5\n",
     "rf_fwhm must be in [0, 1)"),
    (["eta-sweep", "--variant", "B", "--kappa", "1:1", "--config", "{cfg}"], "rf_proton = -3\n",
     "rf_proton must be positive, got -3.0"),
    # the choices of --variant, --mode and suite are the library's own tables
    (["eta-sweep", "--variant", "Z", "--kappa", "1:1"], None,
     "trispin eta-sweep: argument --variant: invalid choice: 'Z'"),
    (["eta-sweep", "--variant", "B", "--mode", "exact"], None,
     "trispin eta-sweep: argument --mode: invalid choice: 'exact'"),
    (["compile", "--variant", "E", "--kappa", "1", "--out", "{missing}"], None,
     "trispin compile: argument --variant: invalid choice: 'E'"),
    (["verify", "nosuch"], None, "trispin verify: argument suite: invalid choice: 'nosuch'"),
    (["verify", "limits", "--J", "-3"], None, "coupling J must be positive and finite, got -3.0"),
    (["compile", "--variant", "B", "--kappa", "1", "--out", "{missing}/x.pp"], None,
     "cannot write "),
    (["compile", "--variant", "B", "--kappa", "1", "--n", "7", "--out", "{missing}"], None,
     "DANTE segment count must be a positive multiple of 4, got 7"),
    (["compile", "--variant", "D", "--kappa", "1", "--broadband", "--n", "4000000000", "--out", "{missing}"],
     None, "DANTE segment count must be at most 10000, got 4000000000"),
    # argparse's own rejections, prefixed with the (sub)parser's prog
    (["table1"], None, "trispin table1: the following arguments are required: --J"),
    (["table1", "--J", "x"], None, "trispin table1: argument --J: invalid float value: 'x'"),
    (["table1", "--J", "-inf"], None, "trispin table1: argument --J: expected one argument"),
    (["frob"], None, "trispin: argument command: invalid choice: 'frob'"),
], ids=["kappa-value", "kappa-shape", "kappa-size", "kappa-domain-tail", "kappa-domain-all",
        "curves-kappa-domain", "kappa-empty", "curves-kappa-empty", "config-no-equals", "config-key",
        "config-value", "config-repeated-key", "config-underscore-float", "config-underscore-rf-grid",
        "config-rf-grid", "config-unreadable", "config-nu3-overflow",
        "config-ideal-rf-fwhm", "config-ideal-rf-proton", "variant", "mode", "compile-variant", "suite", "j",
        "out", "compile-n", "compile-n-huge", "argparse-missing-j", "argparse-j-value", "argparse-j-option",
        "argparse-command"])
def test_every_command_error_returns_2_with_one_stderr_line(tmp_path, capsys, argv, config,
                                                            message):
    cfg, missing = tmp_path / "run.cfg", tmp_path / "missing"
    if config is not None:
        cfg.write_text(config)
    assert cli.main([a.format(cfg=cfg, missing=missing) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(message)


def _choices(command, dest):
    """The choices of one argument of one subcommand, as the parser holds them."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == dest)


def test_the_parser_choices_are_the_library_tables():
    # the objects themselves, so a suite, variant or mode added to the library needs no CLI edit
    assert _choices("verify", "suite") is cli.SUITES
    assert _choices("eta-sweep", "variant") is VARIANTS and _choices("compile", "variant") is VARIANTS
    assert _choices("eta-sweep", "mode") is MODES == ("ideal", "realistic")


def test_kappa_grid_cap_is_inclusive():
    assert len(cli._parse_range(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS


@pytest.mark.parametrize("text, message", [
    ("nan:1:0.1", "start must be finite, got nan"),
    ("0:-inf:0.1", "stop must be finite, got -inf"),
    ("0:1:inf", "step must be finite, got inf"),
    ("0:1:0", "step must be positive"),
    ("1:0:-0.1", "step must be positive"),
    ("0:inf:10", "stop must be finite, got inf"),
    ("-inf:0:10", "start must be finite, got -inf"),
    ("nan:0:10", "start must be finite, got nan"),
    ("0:100:nan", "step must be finite, got nan"),
    ("0:100:inf", "step must be finite, got inf"),
    ("0:1:1e-5", "grid spans more than 10000 points"),
    ("0:1:1e-320", "grid spans more than 10000 points"),
    ("-1e308:1e308:1", "grid spans more than 10000 points"),  # rejected before a point is built
])
def test_kappa_range_rejects_bad_bounds_naming_the_field(text, message):
    with pytest.raises(ValueError, match=f"^--kappa {re.escape(repr(text))}: {re.escape(message)}$"):
        cli._parse_range(text)


def test_kappa_range_is_empty_when_stop_precedes_start():
    for text in ("1:0.5:0.1", "100:0:10"):
        with pytest.raises(ValueError, match=f"^--kappa '{text}': empty range$"):
            cli._parse_range(text)
    assert cli._parse_range("1:1:0.1") == [1.0]


@pytest.mark.parametrize("text, points", [
    ("-500:500:150", 7),  # 1000 / 150 = 6.67 steps rounds to 7; an 8th point would be 550
    ("0:1:0.35", 3),
    ("-1750:1750:350", 11),
    ("-6587.9:3102.4:2.7", 3590),  # the last point passes stop by 1.4e-12, a rounding error
])
def test_kappa_range_stays_within_the_range(text, points):
    start, stop, _ = map(float, text.split(":"))
    grid = cli._parse_range(text)
    assert len(grid) == points and grid[0] == start
    assert all(x <= stop or math.isclose(x, stop, rel_tol=1e-14) for x in grid)


def test_identity_suite_makes_two_eighs(monkeypatch, capsys):
    eigh, calls = np.linalg.eigh, []

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert cli.main(["verify", "identities"]) == 0
    assert capsys.readouterr().out.count("PASS") == 4
    # one for the 20 targets (the kappa = 1 generator) and one for the 80
    # programs' pulse generators, all in one lowering chunk
    assert len(calls) == 2 and calls[0] == (8, 8)


def test_limits_suite_makes_a_handful_of_closed_form_calls(monkeypatch, capsys):
    calls = []
    for name in ("duration_scaling", "theoretical_limit"):
        form = getattr(cli.sequences, name)
        monkeypatch.setattr(cli.sequences, name,
                            lambda *args, form=form: calls.append(form) or form(*args))
    assert cli.main(["verify", "limits"]) == 0
    assert capsys.readouterr().out.count("PASS") == 2
    # one per variant over the 200 samples, one per limit grid (each one D call)
    assert len(calls) == 8


ROOT = Path(__file__).resolve().parents[1]


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_repeated_main_calls_match_fresh_processes(monkeypatch):
    # the parser is built once per process; usage errors, help and a failing
    # command must not change what later calls print
    monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to the terminal width
    argvs = [["table1", "--J", "88"], ["table1"], ["compile", "--variant", "E", "--kappa", "1",
             "--out", os.devnull], ["verify", "--help"], ["table1", "--J", "88"]]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    calls = [_in_process(argv) for argv in argvs]
    for argv, call in zip(argvs, calls):
        fresh = subprocess.run([sys.executable, "-m", "trispin.cli", *argv], env=env,
                               capture_output=True, text=True)
        assert call == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert [code for code, _, _ in calls] == [0, 2, 2, 0, 0]
    assert calls[0] == calls[-1]
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("command", [[], ["table1"], ["curves"], ["eta-sweep"], ["verify"], ["compile"]],
                         ids=lambda c: c[0] if c else "trispin")
def test_help_exits_0_with_the_help_on_stdout(command):
    code, out, err = _in_process(command + ["--help"])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: {' '.join(['trispin', *command])} ") and "--help" in out


# Hostile input: every argv exits 0, or exits 2 with an empty stdout and one
# stderr line, also when argparse itself rejects the argv. Values mix
# non-finite, signed-zero, subnormal, overflowing and junk strings with valid
# ones. Kappa grids, --n and the rf grid are drawn small, so the property runs
# in seconds: large valid values only take longer to compute.
_HOSTILE = ("nan", "-nan", "inf", "-inf", "-0", "0", "5e-324", "1e-320", "1e308", "-1e308", "1e400",
            "", " ", "x", "1,5", "0x10")
_VALUE = st.sampled_from(("1", "0.5", "2", "88")) | st.sampled_from(_HOSTILE + ("-3",))
_KAPPA = st.builds("{}:{}{}".format, st.sampled_from(("0", "0.25", "1")), st.sampled_from(("0.5", "1", "2")),
                   st.sampled_from(("", ":0.25", ":1"))) | st.lists(
    st.sampled_from(_HOSTILE + ("0", "0.25", "0.5", "1", "1.5", "2", "2.5")), min_size=1, max_size=4).map(":".join)
_CONFIG_KEYS = ("j12", "j23", "j13", "nu1", "nu2", "nu3", "rf_proton", "rf_hetero", "rf_fwhm", "rf_grid", "J")
_SMALL_INTS = st.sampled_from(("1", "3", "4", "8", "11")) | st.sampled_from(
    ("-4", "0", "7", "10001", "4000000000", "1.5", "x", ""))
_ARGV = st.one_of(
    st.tuples(st.just(["table1", "--J"]), _VALUE).map(lambda t: t[0] + [t[1]]),
    st.tuples(st.sampled_from(tuple(cli.SUITES)) | st.sampled_from(("paper", "")),
              _VALUE).map(
        lambda t: ["verify", t[0], "--J", t[1]]),
    _KAPPA.map(lambda k: ["curves", "--kappa", k]),
    st.tuples(st.sampled_from(VARIANTS) | st.sampled_from(("E", "")),
              st.sampled_from(MODES) | st.just("exact"), _KAPPA).map(lambda t: ["eta-sweep", "--variant", t[0], "--mode", t[1], "--kappa", t[2]]),
    st.tuples(st.sampled_from(VARIANTS + ("E",)), _VALUE, _VALUE, st.booleans(),
              st.none() | _SMALL_INTS).map(
        lambda t: ["compile", "--variant", t[0], "--kappa", t[1], "--J", t[2], "--out", os.devnull]
        + ["--broadband"] * t[3] + (["--n", t[4]] if t[4] is not None else [])),
)
# a one-key config file for eta-sweep, in either mode: a key and its value
_CONFIG = st.none() | st.tuples(st.sampled_from(_CONFIG_KEYS),
                                st.one_of(_VALUE, _SMALL_INTS, st.sampled_from(("0.1", "35700", "5500"))))


@settings(deadline=None)
@given(_ARGV, _CONFIG)
def test_hostile_argv_exits_0_or_2_with_one_stderr_line(argv, config):
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "eta-sweep" and config is not None:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text("{} = {}\n".format(*config))
            argv = argv + ["--config", str(cfg)]
        code, out, err = _in_process(argv)
    assert code in (0, 2), (code, err)
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err
