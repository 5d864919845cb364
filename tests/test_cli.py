"""CLI contract: one JSON line, exit codes, byte-for-byte determinism."""

import json
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quatsqrt.sqclasses as sqclasses
from quatsqrt.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


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

    def test_sqrt_squares_its_root_once(self, square_calls):
        # sqrt re-squares the root before returning it; "verified" reads that.
        code, out = invoke("sqrt", "--alpha", "2", "--beta", "5", "--q", "13,0,0,0")
        assert (code, out) == (0, '{"status":"ok","root":["0","2","1","0"],"verified":true}')
        assert len(square_calls) == 1

    def test_hilbert_of_a_large_semiprime(self):
        # Pollard rho does not factor N within the timeout; the symbol at 3 needs N's class there.
        n = str(1000000000000037 * 1000000000000091)
        proc = subprocess.run(
            [sys.executable, "-m", "quatsqrt.cli", "hilbert", "--a", n, "--b", "5", "--place", "3"],
            capture_output=True,
            text=True,
            timeout=15,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, '{"symbol":1}\n', "")

    def test_equal_inputs_same_bytes(self):
        a = invoke("sqrt", "--alpha", "-2/2", "--beta", "-1", "--q", "0,4/2,0,0")
        b = invoke("sqrt", "--alpha", "-1", "--beta", "-1", "--q", "0,2,0,0")
        assert a == b

    @pytest.mark.parametrize(
        "abbreviated, full",
        [
            ("conic --alph -3/2 --c 1", "conic --alpha -3/2 --c 1"),
            ("sqrt --al -1/3 --be -1 --q 0,2,0,0", "sqrt --alpha -1/3 --beta -1 --q 0,2,0,0"),
            ("sqrt --alp -2/2 --b -1/1 --q 0,2,0,0", "sqrt --alpha -2/2 --beta -1/1 --q 0,2,0,0"),
            ("hilbert --a -1 --b -1 --pl inf", "hilbert --a -1 --b -1 --place inf"),
            ("common-value --x -2,1 --z -1,-1", "common-value --xi -2,1 --zeta -1,-1"),
            ("isotropic --fo -1,-1,2", "isotropic --form -1,-1,2"),
        ],
    )
    def test_abbreviated_flags_read_like_the_full_ones(self, abbreviated, full):
        # argparse takes unique prefixes of a flag, also before a value starting with '-'.
        assert invoke(*abbreviated.split()) == invoke(*full.split())
        assert invoke(*full.split())[1]


class TestReadme:
    def test_readme_cli_block_prints_as_shown(self):
        block = re.search(r"```text\n(.*?)```", README.read_text(), re.S).group(1)
        examples = re.findall(r"^\$ quatsqrt (.*)\n(.*)$", block, re.M)
        assert len(examples) == 7
        for command, shown in examples:
            code, out = run(shlex.split(command))
            status = json.loads(shown).get("status")
            negative = status in ("not_a_square", "unsolvable", "empty_intersection")
            assert code == int(negative), command
            if command != "isotropic --form 1,1,-2":
                assert out == shown, command
                continue
            # The witness is one zero of x^2 + y^2 - 2z^2, not a canonical one.
            payload = json.loads(out)
            assert list(payload) == list(json.loads(shown)) and payload["isotropic"] is True
            x, y, z = map(Fraction, payload["witness"])
            assert x * x + y * y - 2 * z * z == 0 and any((x, y, z))


class TestHelp:
    # Each command's flags, written out here rather than read from the parser.
    FLAGS = {
        "sqrt": ("--alpha", "--beta", "--q"),
        "hilbert": ("--a", "--b", "--place"),
        "is-split": ("--alpha", "--beta"),
        "conic": ("--alpha", "--c"),
        "isotropic": ("--form",),
        "common-value": ("--xi", "--zeta"),
    }

    @pytest.mark.parametrize("command", [None, *FLAGS])
    def test_help_prints_usage_and_exits_zero(self, command):
        # --help is the one invocation whose stdout is not one JSON line.
        proc = run_subprocess(*([command] if command else []), "--help")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: quatsqrt")
        listed = self.FLAGS if command is None else self.FLAGS[command]
        assert all(name in proc.stdout for name in listed), proc.stdout


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
            # places and rationals take ASCII digits only, with no sign, space or "_"
            ("hilbert", "--a", "2", "--b", "3", "--place", "0_7"),
            ("hilbert", "--a", "2", "--b", "3", "--place", " 7"),
            ("hilbert", "--a", "2", "--b", "3", "--place", "+7"),
            ("hilbert", "--a", "\u0662", "--b", "3", "--place", "2"),  # Arabic-Indic two
            ("conic", "--alpha", "\uff12", "--c", "1/2"),  # fullwidth two
        ],
    )
    def test_exit_two_and_stderr_line(self, argv):
        proc = run_subprocess(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert proc.stderr.strip()  # exactly one diagnostic line
        assert proc.stderr.count("\n") == 1

    VALID = {
        "sqrt": ("--alpha", "2", "--beta", "5", "--q", "1,0,0,0"),
        "hilbert": ("--a", "2", "--b", "3", "--place", "5"),
        "conic": ("--alpha", "2", "--c", "1"),
        "isotropic": ("--form", "1,1,-2"),
        "common-value": ("--xi", "1,1", "--zeta", "1,2"),
    }

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, argv in VALID.items() for flag in argv[::2]],
    )
    def test_bare_double_dash_as_a_value(self, command, flag, capsys):
        # argparse reads "--flag=--" as an empty list on some Python versions,
        # so a value flag never takes '--' as its value, in either spelling.
        argv = list(self.VALID[command])
        i = argv.index(flag)
        separate = [*argv[:i], flag, "--", *argv[i + 2 :]]
        joined = [*argv[:i], f"{flag}=--", *argv[i + 2 :]]
        for spelling in (separate, joined):
            assert run([command, *spelling]) == (2, ""), spelling
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--xi", "1,1", "--zeta", "0,1"), "error: --zeta: entries must be nonzero\n"),
            (("--xi", "1,0", "--zeta", "1,1"), "error: --xi: entries must be nonzero\n"),
            (("--form", "1,0,2"), "error: --form: entries must be nonzero\n"),
        ],
    )
    def test_zero_entry_names_its_flag(self, argv, message, capsys):
        command = "isotropic" if argv[0] == "--form" else "common-value"
        assert run([command, *argv]) == (2, "")
        assert capsys.readouterr().err == message


class TestInternalError:
    def test_exit_three_and_stderr_line(self, monkeypatch, capsys):
        # With no appended prime allowed, this pair's search stops at its cap:
        # a RuntimeError inside the handler, not a definite "no".
        argv = ["common-value", "--xi", "1463/5,-237/2", "--zeta", "303/23,-1116"]
        assert run(argv) == (0, '{"status":"ok","d":"420690"}')
        capsys.readouterr()
        monkeypatch.setattr(sqclasses, "_PRIME_APPEND_CAP", 0)
        assert run(argv) == (3, "")
        err = capsys.readouterr().err
        assert err == "error: internal: common-value search exceeded the prime-append cap\n"
