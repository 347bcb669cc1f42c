import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from spreadcodes.channel import (ChannelSpec, corrupt, random_codeword,
                                 simulate, trial_rng)
from spreadcodes import cli
from spreadcodes.cli import MAX_TRIALS, main
from spreadcodes.spread import MAX_R, SpreadCode, format_subspace


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def count_builds(monkeypatch):
    """The list that gets the arguments of every SpreadCode built from
    now until the end of the test."""
    built = []
    init = SpreadCode.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SpreadCode, "__init__", counting_init)
    return built


class TestParams:
    def test_smallest_code(self, capsys):
        code, out, _ = run(capsys, "params", "--q", "2", "--k", "2",
                           "--r", "2")
        assert code == 0
        assert out.splitlines() == ["2 2 2 1 1", "|S|=5 dmin=4"]

    def test_cubic_code(self, capsys):
        code, out, _ = run(capsys, "params", "--q", "2", "--k", "3",
                           "--r", "2")
        assert code == 0
        assert out.splitlines()[1] == "|S|=9 dmin=6"

    def test_nonprime_order_is_usage_error(self, capsys):
        code, _, err = run(capsys, "params", "--q", "4", "--k", "2",
                           "--r", "2")
        assert code == 1 and "prime" in err

    def test_modulus_override(self, capsys):
        code, out, _ = run(capsys, "params", "--q", "2", "--k", "3",
                           "--r", "2", "--p", "1", "0", "1")
        assert code == 0
        assert out.splitlines()[0] == "2 3 2 1 0 1"

    def test_reducible_modulus_rejected(self, capsys):
        code, _, err = run(capsys, "params", "--q", "2", "--k", "2",
                           "--r", "2", "--p", "1", "0")
        assert code == 1 and "reducible" in err

    @pytest.mark.parametrize("q,p,what", [
        ("3", ["4", "0"], "p_0 = 4"),               # not a digit mod 3
        ("2", ["1", "1", "1"], "degree 2"),         # k + 1 coefficients
    ])
    def test_modulus_is_k_digits(self, capsys, q, p, what):
        code, out, err = run(capsys, "params", "--q", q, "--k", "2",
                             "--p", *p)
        assert code == 1 and out == "" and what in err


class TestEncodeDecode:
    def test_round_trip(self, tmp_path, capsys):
        point = tmp_path / "point.txt"
        encoded = tmp_path / "space.txt"
        decoded = tmp_path / "out.txt"
        point.write_text("1 0\n0 0\n")
        code, _, _ = run(capsys, "encode", "--q", "2", "--k", "2", "--r", "2",
                         "--in", str(point), "--out", str(encoded))
        assert code == 0
        ref = SpreadCode(2, 2, 2)
        want = format_subspace(ref, ref.encode((1, 0)).subspace)
        assert encoded.read_text() == want
        code, _, _ = run(capsys, "decode", "--q", "2", "--k", "2", "--r", "2",
                         "--in", str(encoded), "--out", str(decoded))
        assert code == 0
        assert decoded.read_text() == want

    @pytest.mark.parametrize("q,k", [(2, 2), (2, 3)])
    def test_round_trip_all_points(self, q, k, tmp_path, capsys):
        ref = SpreadCode(q, k, 2)
        qs, ks = str(q), str(k)
        for idx, cw in enumerate(ref.codeword_list()):
            point = tmp_path / f"p{idx}.txt"
            out = tmp_path / f"s{idx}.txt"
            back = tmp_path / f"d{idx}.txt"
            point.write_text("".join(ref.ext.to_str(ref.ext.element(v))
                                     + "\n" for v in cw.point))
            assert main(["encode", "--q", qs, "--k", ks, "--r", "2",
                         "--in", str(point), "--out", str(out)]) == 0
            assert main(["decode", "--q", qs, "--k", ks, "--r", "2",
                         "--in", str(out), "--out", str(back)]) == 0
            assert back.read_text() == out.read_text()
        capsys.readouterr()

    def test_decode_failure_exits_two(self, tmp_path, capsys):
        # three rank-one blocks: every block sits below the rank
        # threshold, the no-codeword branch fires
        space = tmp_path / "bad.txt"
        space.write_text("2 3 3 1 1 0\n3 9\n"
                         "1 0 0 0 0 0 0 0 0\n"
                         "0 0 0 1 0 0 0 0 0\n"
                         "0 0 0 0 0 0 1 0 0\n")
        code, _, err = run(capsys, "decode", "--q", "2", "--k", "3",
                           "--r", "3", "--in", str(space))
        assert code == 2 and "failed" in err

    def test_malformed_file_is_line_numbered(self, tmp_path, capsys):
        space = tmp_path / "bad.txt"
        space.write_text("2 2 2 1 1\n2 4\n1 0 0 0\n0 1 0\n")
        code, _, err = run(capsys, "decode", "--q", "2", "--k", "2",
                           "--r", "2", "--in", str(space))
        assert code == 1 and "line 4" in err

    def test_wrong_header_rejected(self, tmp_path, capsys):
        space = tmp_path / "bad.txt"
        space.write_text("2 3 2 1 1 0\n1 6\n1 0 0 0 0 0\n")
        code, _, err = run(capsys, "decode", "--q", "2", "--k", "2",
                           "--r", "2", "--in", str(space))
        assert code == 1 and "line 1" in err

    @pytest.mark.parametrize("digit", ["5", "-1", "2"])
    def test_out_of_range_digit_in_subspace_file(self, tmp_path, capsys,
                                                 digit):
        space = tmp_path / "bad.txt"
        space.write_text(f"2 2 2 1 1\n2 4\n1 0 0 0\n0 1 {digit} 0\n")
        code, _, err = run(capsys, "decode", "--q", "2", "--k", "2",
                           "--r", "2", "--in", str(space))
        assert code == 1 and "line 4" in err

    @pytest.mark.parametrize("digit", ["5", "-1", "2"])
    def test_out_of_range_digit_in_point_file(self, tmp_path, capsys, digit):
        point = tmp_path / "point.txt"
        point.write_text(f"1 0\n0 {digit}\n")
        code, _, err = run(capsys, "encode", "--q", "2", "--k", "2",
                           "--r", "2", "--in", str(point))
        assert code == 1 and "line 2" in err

    @pytest.mark.parametrize("data,line", [
        (b"2 2 2 1 1\n2 4\n1 0 \xff 0\n0 1 0 0\n", 3),
        (b"2 2 2 1 1\r\n2 4\r\n1 0 0 0\r\n0 1 \xc3( 0\r\n", 4),
        (b"\xff", 1)])
    def test_non_utf8_subspace_file_is_line_numbered(self, tmp_path, capsys,
                                                     data, line):
        space = tmp_path / "bad.txt"
        space.write_bytes(data)
        code, _, err = run(capsys, "decode", "--q", "2", "--k", "2",
                           "--r", "2", "--in", str(space))
        assert code == 1 and f"line {line}: " in err and "UTF-8" in err

    @pytest.mark.parametrize("data,line", [(b"1 0\n0 \xff\n", 2),
                                           (b"\n\n1 \xe2\x82\n", 3)])
    def test_non_utf8_point_file_is_line_numbered(self, tmp_path, capsys,
                                                  data, line):
        point = tmp_path / "point.txt"
        point.write_bytes(data)
        code, _, err = run(capsys, "encode", "--q", "2", "--k", "2",
                           "--r", "2", "--in", str(point))
        assert code == 1 and f"line {line}: " in err and "UTF-8" in err

    def test_malformed_header_is_line_numbered(self, tmp_path, capsys):
        space = tmp_path / "bad.txt"
        space.write_text("\n2 2 x 1 1\n1 4\n1 0 0 0\n")
        code, _, err = run(capsys, "decode", "--q", "2", "--k", "2",
                           "--r", "2", "--in", str(space))
        assert code == 1 and "line 2" in err

    def test_decode_builds_one_code(self, tmp_path, capsys, monkeypatch):
        ref = SpreadCode(3, 3, 4)
        rng = trial_rng(5)
        received = corrupt(random_codeword(ref, rng),
                           ChannelSpec(erasures=1, errors=1), ref, rng)
        space = tmp_path / "space.txt"
        space.write_text(format_subspace(ref, received.subspace))
        built = count_builds(monkeypatch)
        code, _, _ = run(capsys, "decode", "--q", "3", "--k", "3",
                         "--r", "4", "--in", str(space))
        assert code == 0 and len(built) == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "decode", "--q", "2", "--k", "2",
                           "--r", "2", "--in", "/nonexistent/file")
        assert code == 1

    @pytest.mark.parametrize("command,text,where", [
        ("encode", None, "/nonexistent/file"),
        ("decode", None, "/nonexistent/file"),
        ("encode", "1 0\n0 2\n", "line 2"),
        ("encode", "1 0\n", "line 1"),
        ("encode", "", "line 1:"),
        ("encode", "0 0\n\n0 0\n\n", "line 3:"),
        ("decode", "2 2 2 1 1\n1 4\n1 0 0\n", "line 3"),
    ])
    def test_input_errors_share_one_report(self, tmp_path, capsys, command,
                                           text, where):
        # Unreadable files and malformed point or subspace files all
        # print "error: ..." naming the file or line, and exit 1.
        path = "/nonexistent/file"
        if text is not None:
            path = tmp_path / "input.txt"
            path.write_text(text)
        code, _, err = run(capsys, command, "--q", "2", "--k", "2",
                           "--r", "2", "--in", str(path))
        assert code == 1 and err.startswith("error: ") and where in err

    def test_point_file_wrong_width(self, tmp_path, capsys):
        point = tmp_path / "point.txt"
        point.write_text("1 0 0\n0 0\n")
        code, _, err = run(capsys, "encode", "--q", "2", "--k", "2",
                           "--r", "2", "--in", str(point))
        assert code == 1 and "line 1" in err

    def test_zero_point_rejected(self, tmp_path, capsys):
        point = tmp_path / "point.txt"
        point.write_text("0 0\n0 0\n")
        code, _, err = run(capsys, "encode", "--q", "2", "--k", "2",
                           "--r", "2", "--in", str(point))
        assert code == 1


class TestSimulateAndBench:
    def test_simulate_line_and_determinism(self, capsys):
        args = ["simulate", "--q", "2", "--k", "3", "--r", "2",
                "--trials", "15", "--errors", "1", "--erasures", "1",
                "--seed", "4"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2
        fields = out1.split()
        assert fields[:5] == ["1", "1", "15", "15", "0"]

    def test_bench_table(self, capsys):
        code, out, _ = run(capsys, "bench", "--q", "2", "--k", "2,3",
                           "--trials", "3", "--seed", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k n mean_ops max_ops"
        assert lines[1].startswith("2 4 ") and lines[2].startswith("3 6 ")

    def test_bench_rows_are_simulate_records(self, capsys):
        # One erasure per trial, through simulate's trial keys.
        code, out, _ = run(capsys, "bench", "--q", "3", "--k", "2,3",
                           "--trials", "4", "--seed", "2")
        assert code == 0
        for k, line in zip((2, 3), out.splitlines()[1:]):
            rec = simulate(SpreadCode(3, k, 2), 4, [(0, 1)], 2)[0]
            assert line == f"{k} {2 * k} {rec.mean_ops:.2f} {rec.max_ops}"

    @pytest.mark.parametrize("k,p,what", [
        ("3,5", ["1", "1", "0"], "modulus must have degree 5"),
        ("2", ["1", "0"], "reducible"),
    ])
    def test_bench_bad_modulus_prints_nothing(self, capsys, k, p, what):
        # Every code is built before the header is printed.
        code, out, err = run(capsys, "bench", "--q", "2", "--k", k,
                             "--trials", "1", "--p", *p)
        assert code == 1 and out == "" and what in err

    def test_bench_bad_list(self, capsys):
        code, _, err = run(capsys, "bench", "--q", "2", "--k", "2,x",
                           "--trials", "3")
        assert code == 1

    def test_missing_subcommand_usage_error(self, capsys):
        assert main([]) == 1


class TestLimits:
    @pytest.mark.parametrize("argv,what", [
        (["params", "--q", "2", "--k", "3", "--r", "100000"], "--r"),
        (["params", "--q", "2", "--k", "3", "--r", str(MAX_R + 1)], "--r"),
        (["params", "--q", "2", "--k", "60"], "q^k"),
        (["params", "--q", "2", "--k", "33"], "q^k"),
        (["params", "--q", "65537", "--k", "2"], "q^k"),
        (["encode", "--q", "2", "--k", "2", "--r", "65",
          "--in", "/nonexistent/file"], "--r"),
        (["decode", "--q", "2", "--k", "40", "--in", "/nonexistent/file"],
         "q^k"),
        (["simulate", "--q", "2", "--k", "3", "--trials", "100000000"],
         "--trials"),
        (["simulate", "--q", "2", "--k", "3",
          "--trials", str(MAX_TRIALS + 1)], "--trials"),
        (["bench", "--q", "2", "--k", "3,60", "--trials", "1"], "q^k"),
        (["bench", "--q", "2", "--k", "3", "--r", "65"], "--r"),
        (["bench", "--q", "2", "--k", "3", "--trials", "100000000"],
         "--trials"),
        # Every number flag takes the ASCII digits 0-9 only.
        (["params", "--q", "2", "--k", "\u0663"], "--k"),   # Arabic-Indic 3
        (["bench", "--q", "2", "--k", "3,+5", "--trials", "1"], "--k"),
        (["simulate", "--q", "2", "--k", "3", "--trials", "1",
          "--errors", "-1"], "--errors"),
        (["simulate", "--q", "2", "--k", "3", "--trials", "1",
          "--seed", "-1"], "--seed"),
        (["params", "--q", "2", "--k", "3", "--r", "0_2"], "--r"),
    ])
    def test_over_limit_refused_before_any_work(self, capsys, monkeypatch,
                                                argv, what):
        builds = count_builds(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and builds == []
        assert err.startswith("usage error: ") and what in err

    def test_largest_sizes_accepted(self, capsys):
        code, out, _ = run(capsys, "params", "--q", "2", "--k", "3",
                           "--r", str(MAX_R))
        assert code == 0
        size = (2 ** (3 * MAX_R) - 1) // (2 ** 3 - 1)
        assert out.splitlines()[1] == f"|S|={size} dmin=6"
        code, out, _ = run(capsys, "params", "--q", "5", "--k", "8")
        assert code == 0 and out.splitlines()[1] == "|S|=390626 dmin=16"



def test_decoding_process_leaves_numpy_unloaded():
    # Only channel draws need numpy, so a one-shot decode or encode
    # process does not pay for importing it.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, spreadcodes.cli; "
             "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_decoding_process_leaves_argparse_unloaded(tmp_path):
    # Only help and usage errors build a parser, so a valid one-shot
    # decode does not pay for importing argparse.
    src = Path(__file__).resolve().parents[1] / "src"
    ref = SpreadCode(2, 2, 2)
    space = tmp_path / "space.txt"
    space.write_text(format_subspace(ref, ref.encode((1, 0)).subspace))
    argv = ["decode", "--q", "2", "--k", "2", "--in", str(space),
            "--out", str(tmp_path / "out.txt")]
    probe = ("import sys; from spreadcodes.cli import main; "
             f"print(main({argv!r}), 'argparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == ["0", "False"]


HELP_LINES = {
    "params": "print code parameters",
    "encode": "encode a projective point file",
    "decode": "decode a subspace file",
    "simulate": "seeded channel statistics",
    "bench": "operation-count table over block sizes",
}


def valid_calls(tmp_path):
    """A valid argv after the command, for each command, over files
    written in tmp_path."""
    ref = SpreadCode(3, 2, 2)
    point, space = tmp_path / "point.txt", tmp_path / "space.txt"
    point.write_text("1 2\n0 1\n")
    space.write_text(format_subspace(ref, ref.encode(((1, 2), (0, 1)))
                                     .subspace))
    return {
        "params": ["--q", "3", "--k", "2"],
        "encode": ["--q", "3", "--k", "2", "--in", str(point)],
        "decode": ["--q", "3", "--k", "2", "--in", str(space)],
        "simulate": ["--q", "2", "--k", "3", "--trials", "3",
                     "--errors", "1"],
        "bench": ["--q", "2", "--k", "2,3", "--trials", "2"],
    }


def help_text(capsys, parser, argv):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestParser:
    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_commands_are_the_five(self):
        assert list(cli.COMMANDS) == list(HELP_LINES)

    @pytest.mark.parametrize("command", list(HELP_LINES))
    def test_command_help_is_the_full_parsers(self, capsys, command):
        full = help_text(capsys, cli.build_parser(), [command, "--help"])
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr()
        assert out.out == full and out.err == ""
        assert full.startswith(f"usage: spreadcodes {command} [-h] --q Q")

    @pytest.mark.parametrize("argv", [["--help"], ["-h"]])
    def test_top_help_lists_every_command(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: spreadcodes [-h] "
                              "{params,encode,decode,simulate,bench} ...\n")
        for name, line in HELP_LINES.items():
            assert f"\n    {name:<20}{line}\n" in out

    @pytest.mark.parametrize("argv,err", [
        ([], "usage error: the following arguments are required: command\n"),
        (["foo"], "usage error: argument command: invalid choice: 'foo' "
                  "(choose from 'params', 'encode', 'decode', 'simulate', "
                  "'bench')\n"),
        (["3", "decode"], "usage error: argument command: invalid "
                          "choice: '3' (choose from 'params', "
                          "'encode', 'decode', 'simulate', 'bench')\n"),
        (["decode", "--q", "3"], "usage error: the following arguments are "
                                 "required: --k, --in\n"),
        (["params", "--q", "3", "--k", "3", "extra"],
         "usage error: unrecognized arguments: extra\n"),
    ])
    def test_usage_errors_are_unchanged(self, capsys, argv, err):
        assert run(capsys, *argv) == (1, "", err)

    @pytest.mark.parametrize("argv", [
        ["--q", "3", "decode", "--k", "3", "--in", "x"],
        ["--q=3", "params"], ["--trials", "5"], ["--q"],
        ["--tri", "5", "simulate"]])
    def test_flag_before_the_command_is_named(self, capsys, argv):
        # argparse took the flag's value for the command: "invalid
        # choice: '3'", or "command" missing when no value followed.
        flag = argv[0].partition("=")[0]
        assert run(capsys, *argv) == (
            1, "", f"usage error: the command comes first: {flag} goes "
                   "after one of params, encode, decode, simulate, bench\n")

    def test_named_command_builds_one_subparser(self, tmp_path, capsys,
                                                monkeypatch):
        # A valid call of any command constructs no ArgumentParser; a
        # usage error builds the full parser, with all five subparsers.
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        for command, argv in valid_calls(tmp_path).items():
            assert run(capsys, command, *argv)[0] == 0
        assert built == []
        for argv in (["decode", "--q", "3"], ["foo"]):
            assert run(capsys, *argv)[0] == 1
            assert built == ["spreadcodes", *(f"spreadcodes {name}"
                                              for name in HELP_LINES)]
            built.clear()

    @pytest.mark.parametrize("command", list(HELP_LINES))
    def test_one_command_parser_acts_as_the_full_one(self, tmp_path, capsys,
                                                     monkeypatch, command):
        # Every argv answers alike with the plain reader and with the
        # reader declining, so that argparse parses it.
        valid = valid_calls(tmp_path)[command]
        out = tmp_path / "out.txt"
        argvs = [
            valid,
            valid[2:],                              # --q missing
            valid + ["--r", "x2"],                  # a bad number
            valid + ["--bogus", "1"],               # an unknown flag
            valid + ["extra"],                      # an extra positional
            valid + ["--tr", "2"],                  # an abbreviated flag
            ["-h"],
            valid + ["--out", str(out)],            # an output file
        ]

        def outcome(argv):
            out.unlink(missing_ok=True)
            try:
                code = main([command, *argv])
            except SystemExit as exc:
                code = exc.code
            std = capsys.readouterr()
            written = out.read_bytes() if out.exists() else None
            return code, std.out, std.err, written

        plain = [outcome(argv) for argv in argvs]
        monkeypatch.setattr(cli, "_read_args", lambda argv: None)
        assert [outcome(argv) for argv in argvs] == plain
        assert plain[0][0] == 0 and plain[1][0] == plain[2][0] == 1

    @pytest.mark.parametrize("argv,want", [
        (["params", "--q", "3", "--k", "5", "--r", "4", "--p", "1", "2"],
         dict(command="params", q=3, k=5, r=4, p=[1, 2])),
        (["params", "--q", "3", "--k", "5"],
         dict(command="params", q=3, k=5, r=2, p=None)),
        (["encode", "--q", "2", "--k", "3", "--r", "3", "--p", "1", "1", "0",
          "--in", "a", "--out", "b"],
         dict(command="encode", q=2, k=3, r=3, p=[1, 1, 0], infile="a",
              outfile="b")),
        (["decode", "--q", "2", "--k", "3", "--in", "a"],
         dict(command="decode", q=2, k=3, r=2, p=None, infile="a",
              outfile=None)),
        (["simulate", "--q", "2", "--k", "3", "--r", "3", "--p", "1", "1",
          "0", "--trials", "7", "--errors", "1", "--erasures", "2",
          "--seed", "9"],
         dict(command="simulate", q=2, k=3, r=3, p=[1, 1, 0], trials=7,
              errors=1, erasures=2, seed=9)),
        (["simulate", "--q", "2", "--k", "3", "--trials", "7"],
         dict(command="simulate", q=2, k=3, r=2, p=None, trials=7, errors=0,
              erasures=0, seed=0)),
        (["bench", "--q", "2", "--k", "3,5", "--r", "3", "--p", "1", "1",
          "--trials", "4", "--seed", "6"],
         dict(command="bench", q=2, k="3,5", r=3, p=[1, 1], trials=4,
              seed=6)),
        (["bench", "--q", "2", "--k", "3,5"],
         dict(command="bench", q=2, k="3,5", r=2, p=None, trials=10,
              seed=0)),
    ])
    def test_flags_keep_their_dests_defaults_and_types(self, argv, want):
        want = {**want, "func": getattr(cli, f"_cmd_{argv[0]}")}
        assert vars(cli._read_args(argv)) == want
        assert vars(cli.build_parser().parse_args(argv)) == want


DIGITS = st.integers(0, 20).map(str)
VALUES = st.one_of(DIGITS, st.sampled_from(
    ["", "-1", "-", "\u0663", "0_2", "3,5"]))


@st.composite
def cli_argvs(draw):
    """A well-formed call: a command, then its flags in any order, each
    optional one maybe left out, each with digits as its values.  Up
    to two edits follow: a flag dropped, repeated, cut to a prefix or
    written --flag=v; -h or -- put in; a value added, dropped or
    replaced by an odd one; another of the command's flags added."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    flags = cli.COMMANDS[command][2]
    calls = [[flag, *draw(st.lists(DIGITS, min_size=1,
                                   max_size=3 if "nargs" in kwargs else 1))]
             for flag, kwargs in draw(st.permutations(flags))
             if kwargs.get("required") or draw(st.booleans())]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.integers(0, 8))
        i = draw(st.integers(0, len(calls) - 1))
        flag, *values = call = calls[i]
        if edit == 0:
            del calls[i]
        elif edit == 1:
            calls.insert(i, [flag, draw(DIGITS)])
        elif edit == 2 and len(flag) > 2:
            call[0] = flag[:draw(st.integers(2, len(flag) - 1))]
        elif edit == 3 and values:
            calls[i] = [f"{flag}={values[0]}", *values[1:]]
        elif edit == 4:
            calls.insert(draw(st.integers(0, len(calls))),
                         [draw(st.sampled_from(["-h", "--"]))])
        elif edit == 5:
            call.append(draw(VALUES))
        elif edit == 6:
            del call[1:]
        elif edit == 7 and values:
            call[draw(st.integers(1, len(values)))] = draw(VALUES)
        elif edit == 8:
            calls.append([draw(st.sampled_from(flags))[0], draw(VALUES)])
        if not calls:
            break
    return [command, *(token for call in calls for token in call)]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(cli_argvs())
@example(["decode", "--q", "3", "--k", "2", "--in", "-h"])
@example(["encode", "--q", "3", "--k", "2", "--in", "a", "--out", "--tr"])
def test_reader_answers_only_as_argparse_would(argv):
    args = cli._read_args(argv)
    if args is not None:
        assert vars(cli.build_parser().parse_args(argv)) == vars(args)


def test_module_entry_point(tmp_path):
    # python -m spreadcodes.cli reads its arguments from sys.argv.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
    ref = SpreadCode(3, 2, 3)
    point = tmp_path / "point.txt"
    point.write_text("1 2\n0 1\n2 0\n")
    space, back = tmp_path / "space.txt", tmp_path / "back.txt"
    flags = ["--q", "3", "--k", "2", "--r", "3"]

    def spreadcodes(*argv):
        return subprocess.run([sys.executable, "-m", "spreadcodes.cli",
                               *argv], capture_output=True, text=True,
                              env=env)

    done = spreadcodes("encode", *flags, "--in", str(point),
                       "--out", str(space))
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    want = format_subspace(ref, ref.encode(((1, 2), (0, 1), (2, 0)))
                           .subspace)
    assert space.read_text() == want
    done = spreadcodes("decode", *flags, "--in", str(space),
                       "--out", str(back))
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert back.read_text() == want
    done = spreadcodes("decode", "--help")
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith("usage: spreadcodes decode [-h] --q Q")
