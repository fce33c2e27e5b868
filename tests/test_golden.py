"""Golden CLI outputs: stdout of table1/curves/eta-sweep/verify and the
program text written by compile, compared with files in tests/golden/.

The program text written by compile must match byte for byte. In the other
outputs, text between numbers must match exactly. A number with a decimal
point or an exponent may differ from the golden one by 1e-12 plus one unit in
the last printed digit, because a reordered floating-point sum can flip the
last '%.10g' digit; integers (spin indices, segment counts) must match exactly.

Regenerate the files after an intended output change with

    PYTHONPATH=src python3 tests/test_golden.py
"""
import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest

from trispin import cli

GOLDEN = Path(__file__).parent / "golden"

_KAPPAS = "0.5:1.5:1.0"
CASES = {
    "table1": ["table1", "--J", "88"],
    "curves": ["curves", "--kappa", "0.1:1.0:0.1"],
    **{f"eta_ideal_{v}": ["eta-sweep", "--variant", v, "--kappa", _KAPPAS] for v in "ABCD"},
    **{f"eta_realistic_{v}": ["eta-sweep", "--variant", v, "--mode", "realistic",
                              "--kappa", _KAPPAS] for v in "ACD"},
    **{f"compile_{v}": ["compile", "--variant", v, "--kappa", "0.7"] for v in "ABCD"},
    **{f"compile_{v}_bb": ["compile", "--variant", v, "--kappa", "0.7", "--broadband"]
       for v in "ABC"},
    "compile_D_bb": ["compile", "--variant", "D", "--kappa", "0.7", "--broadband", "--n", "16"],
    **{f"verify_{s}": ["verify", s] for s in ("identities", "swap", "broadband", "limits")},
}

_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run_case(argv) -> str:
    """Run one command, require exit 0; return stdout or the compiled program."""
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()) as stdout:
        out = Path(tmp) / "program.pp"
        if argv[0] == "compile":
            argv = [*argv, "--out", str(out)]
        assert cli.main(argv) == 0
        return out.read_bytes().decode() if argv[0] == "compile" else stdout.getvalue()


def _last_digit_unit(tok: str) -> float:
    mantissa, _, exp = tok.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exp or 0) - decimals)


def assert_same_output(got: str, want: str):
    got_nums, want_nums = _NUMBER.findall(got), _NUMBER.findall(want)
    assert _NUMBER.split(got) == _NUMBER.split(want)
    assert len(got_nums) == len(want_nums)
    for g, w in zip(got_nums, want_nums):
        if not re.search(r"[.eE]", g + w):
            assert g == w
            continue
        tol = 1e-12 + max(_last_digit_unit(g), _last_digit_unit(w))
        assert abs(float(g) - float(w)) <= tol, f"{g} vs golden {w}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    got = run_case(CASES[name])
    if name.startswith("compile_"):  # program text is exact: a spectrometer reads these bytes
        assert got.encode() == (GOLDEN / f"{name}.txt").read_bytes()
    else:
        assert_same_output(got, (GOLDEN / f"{name}.txt").read_text())


def test_number_comparison_tolerance():
    assert_same_output("x 0.1234567891\n", "x 0.1234567890\n")
    assert_same_output("1.5e-10", "1.6e-10")
    with pytest.raises(AssertionError):
        assert_same_output("x 0.1234567893\n", "x 0.1234567890\n")
    with pytest.raises(AssertionError):
        assert_same_output("targets=1,2", "targets=1,3")
    with pytest.raises(AssertionError):
        assert_same_output("PASS  a", "FAIL  a")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(run_case(argv))
        print(f"wrote {name}.txt")
