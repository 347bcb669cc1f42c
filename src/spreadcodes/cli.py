"""Command-line front end.

Subcommands: ``params`` (code parameters), ``encode`` (projective point
file to subspace file), ``decode`` (subspace file to codeword file),
``simulate`` (seeded channel statistics), ``bench`` (the ``simulate``
operation counts for one erasure, across block sizes), the rows of
``COMMANDS``.  When argv[0] names a command, a call builds that command's
parser alone; otherwise the top-level parser over all five.

Exit codes: 0 success, 1 usage or input error, 2 decoding failure.

File formats
    point file      r lines, one extension-field element per line as k
                    space-separated base-q digits, lowest first
    subspace file   header line "q k r p_0 ... p_{k-1}", then
                    "rows cols", then one basis row per line

Every digit must lie in 0..q-1; anything else is an input error that
names its line.  Every number, in a file or a flag, is written in the
ASCII digits 0-9.

Limits, checked before any output or field work: q^k <= 2^32, r <= 64
(so |S| < 2^2048 prints in at most 617 digits) and trials <= 100000.
"""

from __future__ import annotations

import argparse
import sys

from .channel import simulate
from .decoder import ReceivedSpace, decode
from .gf import parse_uint
from .linalg import numbered_lines
from .spread import (MAX_R, SpreadCode, check_code_limits, format_subspace,
                     parse_subspace)


MAX_TRIALS = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Set on a one-command parser (see build_parser), which reads argv
    # with the command first, as the top-level parser does.
    command = None

    def error(self, message):  # input errors must exit 1, not argparse's 2
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        if self.command is None:
            return super().parse_known_args(args, namespace)
        args = sys.argv[1:] if args is None else args
        namespace = argparse.Namespace() if namespace is None else namespace
        namespace.command = self.command
        return super().parse_known_args(args[1:], namespace)


def _uint(s: str) -> int:
    """A number flag: ASCII digits 0-9 only, as in every input file."""
    try:
        return parse_uint(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_code_flags(p, k_list: bool = False):
    p.add_argument("--q", type=_uint, required=True, help="base field order")
    if k_list:
        p.add_argument("--k", type=str, required=True,
                       help="comma-separated block sizes, e.g. 3,5,7,9")
    else:
        p.add_argument("--k", type=_uint, required=True, help="block size")
    p.add_argument("--r", type=_uint, default=2, help="number of blocks")
    p.add_argument("--p", type=_uint, nargs="+", default=None,
                   help="modulus coefficients p_0 ... p_{k-1}")


def _check_code(q: int, k: int, r: int):
    """Refuse code parameters outside the documented limits, naming the
    flag at fault: each message but the joint q^k one starts with the
    name of one parameter."""
    try:
        check_code_limits(q, k, r)
    except ValueError as exc:
        msg = str(exc)
        raise UsageError(msg if msg.startswith("q^k") else f"--{msg}") from exc


def _check_trials(trials: int):
    if not 1 <= trials <= MAX_TRIALS:
        raise UsageError(f"--trials must be in 1..{MAX_TRIALS}, got {trials}")


def _make_code(args) -> SpreadCode:
    _check_code(args.q, args.k, args.r)
    return SpreadCode(args.q, args.k, args.r,
                      tuple(args.p) if args.p else None)


def _read_text(path: str) -> str:
    """The file as UTF-8 text, which the parsers split into lines; a
    byte that is not UTF-8 is an input error naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        raise ValueError(f"line {len((head + '.').splitlines())}: byte "
                         f"0x{data[exc.start]:02x} is not UTF-8 text "
                         f"({exc.reason})") from exc


def _write(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_point(lines: list[str], code: SpreadCode) -> list[tuple]:
    rows = numbered_lines(lines)
    if len(rows) != code.r:
        raise ValueError(f"line {max(len(lines), 1)}: expected {code.r} "
                         f"coordinate lines, found {len(rows)}")
    point = []
    for lineno, ln in rows:
        try:
            point.append(code.ext.from_str(ln))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if not any(point):
        raise ValueError(f"line {lineno}: every coordinate is zero")
    return point


def _cmd_params(args) -> int:
    code = _make_code(args)
    print(code.header())
    print(f"|S|={code.size} dmin={code.min_distance}")
    return 0


def _cmd_encode(args) -> int:
    code = _make_code(args)
    point = _parse_point(_read_text(args.infile).splitlines(), code)
    cw = code.encode(point)
    _write(args.outfile, format_subspace(code, cw.subspace))
    return 0


def _cmd_decode(args) -> int:
    code = _make_code(args)
    _, sub = parse_subspace(_read_text(args.infile), code)
    result = decode(ReceivedSpace(sub, code.k), code)
    if not result.ok:
        print(f"decoding failed: {result.reason}", file=sys.stderr)
        return 2
    _write(args.outfile, format_subspace(code, result.codeword.subspace))
    return 0


def _cmd_simulate(args) -> int:
    _check_trials(args.trials)
    code = _make_code(args)
    records = simulate(code, args.trials,
                       [(args.errors, args.erasures)], seed=args.seed)
    for rec in records:
        print(rec.line())
    return 0


def _cmd_bench(args) -> int:
    try:
        ks = [parse_uint(x.strip()) for x in args.k.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --k list {args.k!r}") from exc
    if not ks:
        raise UsageError("--k must list at least one block size")
    for k in ks:
        _check_code(args.q, k, args.r)
    _check_trials(args.trials)
    p = tuple(args.p) if args.p else None
    # Every code is built before the header, so a bad modulus prints
    # nothing.
    codes = [SpreadCode(args.q, k, args.r, p) for k in ks]
    print("k n mean_ops max_ops")
    for code in codes:
        rec = simulate(code, args.trials, [(0, 1)], args.seed)[0]
        print(f"{code.k} {code.n} {rec.mean_ops:.2f} {rec.max_ops}")
    return 0


_IO = (("--in", dict(dest="infile", required=True)),
       ("--out", dict(dest="outfile", default=None)))

# name: (help line, handler, flags after the code flags, --k is a list)
COMMANDS = {
    "params": ("print code parameters", _cmd_params, (), False),
    "encode": ("encode a projective point file", _cmd_encode, _IO, False),
    "decode": ("decode a subspace file", _cmd_decode, _IO, False),
    "simulate": ("seeded channel statistics", _cmd_simulate, (
        ("--trials", dict(type=_uint, required=True)),
        ("--errors", dict(type=_uint, default=0)),
        ("--erasures", dict(type=_uint, default=0)),
        ("--seed", dict(type=_uint, default=0))), False),
    "bench": ("operation-count table over block sizes", _cmd_bench, (
        ("--trials", dict(type=_uint, default=10)),
        ("--seed", dict(type=_uint, default=0))), True),
}


# Every flag some command takes: the code flags, then each row's own.
_FLAGS = {"--q", "--k", "--r", "--p"}.union(
    flag for _, _, flags, _ in COMMANDS.values() for flag, _ in flags)


def build_parser(argv=()) -> _Parser:
    """The parser for argv.  When argv[0] names a command it is that
    command's parser alone, the one the top-level parser would hand the
    rest of argv to; otherwise the top-level parser over all five."""
    if argv and argv[0] in COMMANDS:
        parser = _Parser(prog=f"spreadcodes {argv[0]}")
        parser.command = argv[0]
        return _add_command(parser, argv[0])
    parser = _Parser(prog="spreadcodes",
                     description="spread codes over F_q: construction, "
                                 "encoding, decoding and simulation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, *_) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_line), name)
    return parser


def _add_command(p: _Parser, name: str) -> _Parser:
    _, func, flags, k_list = COMMANDS[name]
    _add_code_flags(p, k_list)
    for flag, kwargs in flags:
        p.add_argument(flag, **kwargs)
    p.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # Given first, a command's flag, or a prefix of one as argparse
        # takes it, would have argparse read its value as the command.
        first = argv[0].partition("=")[0] if argv else ""
        if len(first) > 2 and any(f.startswith(first) for f in _FLAGS):
            raise UsageError(f"the command comes first: {first} goes after "
                             f"one of {', '.join(COMMANDS)}")
        args = build_parser(argv).parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
