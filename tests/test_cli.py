"""CLI contract: one JSON line, exit codes, byte-for-byte determinism."""

import json
import subprocess
import sys

import pytest

from quatsqrt.cli import run


def invoke(*argv):
    return run(list(argv))


def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "quatsqrt.cli", *argv],
        capture_output=True,
        text=True,
    )


class TestGoldenOutputs:
    def test_sqrt_found(self):
        code, out = invoke("sqrt", "--alpha", "-1", "--beta", "-1", "--q", "0,2,0,0")
        assert code == 0
        assert out == '{"status":"ok","root":["1","1","0","0"],"verified":true}'

    def test_hilbert_negative_symbol_still_exit_zero(self):
        code, out = invoke("hilbert", "--a", "-1", "--b", "-1", "--place", "inf")
        assert code == 0
        assert out == '{"symbol":-1}'

    def test_sqrt_not_a_square(self):
        code, out = invoke("sqrt", "--alpha", "-1", "--beta", "-1", "--q", "2,0,0,0")
        assert code == 1
        assert out == '{"status":"not_a_square"}'

    def test_subprocess_matches_in_process(self):
        cases = [
            ("sqrt", "--alpha", "-1", "--beta", "-1", "--q", "0,2,0,0"),
            ("hilbert", "--a", "-1", "--b", "-1", "--place", "inf"),
            ("sqrt", "--alpha", "-1", "--beta", "-1", "--q", "2,0,0,0"),
            ("is-split", "--alpha", "1", "--beta", "1"),
            ("conic", "--alpha", "2", "--c", "1/2"),
            ("isotropic", "--form", "1,1,-2"),
            ("common-value", "--xi", "-2,1", "--zeta", "-1,-1"),
        ]
        for argv in cases:
            code, out = invoke(*argv)
            proc = run_subprocess(*argv)
            assert proc.returncode == code, argv
            assert proc.stdout == out + "\n", argv
            assert proc.stderr == ""


class TestSubcommands:
    def test_is_split(self):
        assert invoke("is-split", "--alpha", "1", "--beta", "1") == (0, '{"split":true}')
        assert invoke("is-split", "--alpha", "-1", "--beta", "-1") == (
            0,
            '{"split":false}',
        )

    def test_conic(self):
        code, out = invoke("conic", "--alpha", "2", "--c", "1/2")
        assert (code, out) == (0, '{"status":"ok","x":"1","y":"1/2"}')
        code, out = invoke("conic", "--alpha", "-1", "--c", "-1")
        assert (code, out) == (1, '{"status":"unsolvable"}')

    def test_isotropic_with_witness(self):
        code, out = invoke("isotropic", "--form", "1,1,-2")
        assert code == 0
        payload = json.loads(out)
        assert payload["isotropic"] is True
        x, y, z = payload["witness"]
        from fractions import Fraction

        vec = [Fraction(s) for s in (x, y, z)]
        assert vec[0] ** 2 + vec[1] ** 2 - 2 * vec[2] ** 2 == 0
        assert any(vec)

    def test_isotropic_no_witness_for_quaternary(self):
        code, out = invoke("isotropic", "--form", "1,1,1,-1")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"isotropic": True}

    def test_isotropic_false(self):
        assert invoke("isotropic", "--form", "1,1,1") == (0, '{"isotropic":false}')

    def test_common_value(self):
        assert invoke("common-value", "--xi", "-2,1", "--zeta", "-1,-1") == (
            0,
            '{"status":"ok","d":"-1"}',
        )
        assert invoke("common-value", "--xi", "1,1", "--zeta", "-1,-1") == (
            1,
            '{"status":"empty_intersection"}',
        )

    def test_common_value_past_the_old_cap(self):
        argv = ("common-value", "--xi", "1463/5,-237/2", "--zeta", "303/23,-1116")
        assert invoke(*argv) == (0, '{"status":"ok","d":"420690"}')
        proc = run_subprocess(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, '{"status":"ok","d":"420690"}\n', "")

    def test_sqrt_with_fractions(self):
        code, out = invoke(
            "sqrt", "--alpha", "-1", "--beta", "-1", "--q", "-1/2,1/2,1/2,1/2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["root"] == ["1/2", "1/2", "1/2", "1/2"]

    def test_equal_inputs_same_bytes(self):
        a = invoke("sqrt", "--alpha", "-2/2", "--beta", "-1", "--q", "0,4/2,0,0")
        b = invoke("sqrt", "--alpha", "-1", "--beta", "-1", "--q", "0,2,0,0")
        assert a == b


class TestInvalidInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("hilbert", "--a", "2", "--b", "3", "--place", "4"),
            ("hilbert", "--a", "2", "--b", "3", "--place", "x"),
            ("hilbert", "--a", "0", "--b", "3", "--place", "2"),
            ("sqrt", "--alpha", "0", "--beta", "1", "--q", "1,0,0,0"),
            ("sqrt", "--alpha", "1", "--beta", "1", "--q", "1,0,0"),
            ("sqrt", "--alpha", "1", "--beta", "1", "--q", "1,0,0,0,0"),
            ("sqrt", "--alpha", "1.5", "--beta", "1", "--q", "1,0,0,0"),
            ("sqrt", "--alpha", "1/0", "--beta", "1", "--q", "1,0,0,0"),
            ("conic", "--alpha", "2", "--c", "abc"),
            ("isotropic", "--form", "1,0,2"),
            ("common-value", "--xi", "1", "--zeta", "1,1"),
            ("sqrt", "--alpha", "1", "--beta", "1"),
            ("unknown-command",),
            (),
            # a strong pseudoprime to the twelve prime bases 2..37
            ("hilbert", "--a", "2", "--b", "3", "--place", "318665857834031151167461"),
        ],
    )
    def test_exit_two_and_stderr_line(self, argv):
        proc = run_subprocess(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert proc.stderr.strip()  # exactly one diagnostic line
        assert proc.stderr.count("\n") == 1
