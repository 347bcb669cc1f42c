"""Command-line front end.

Subcommands: ``params`` (code parameters), ``encode`` (projective point
file to subspace file), ``decode`` (subspace file to codeword file),
``simulate`` (seeded channel statistics), ``bench`` (the ``simulate``
operation counts for one erasure, across block sizes), the rows of
``COMMANDS``, which also declares every flag once.  A well-formed call
is read straight off that table, with no parser; help and every usage
error import argparse, which builds its parser from the same table.

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

import sys
from types import SimpleNamespace

from .channel import simulate
from .decoder import ReceivedSpace, decode
from .gf import parse_uint
from .linalg import numbered_lines
from .spread import (MAX_R, SpreadCode, check_code_limits, format_subspace,
                     parse_subspace)


MAX_TRIALS = 100_000


class UsageError(Exception):
    pass


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


# Each flag as (name, keywords): its dest (the name without "--" unless
# given), converter (none: the text itself), arity (one value unless
# nargs="+"), whether it is required, its default and its help.  Both
# _read_args and argparse's add_argument read these keywords.
_Q = ("--q", dict(type=parse_uint, required=True, help="base field order"))
_R_P = (("--r", dict(type=parse_uint, default=2, help="number of blocks")),
        ("--p", dict(type=parse_uint, nargs="+", default=None,
                     help="modulus coefficients p_0 ... p_{k-1}")))
_CODE = (_Q, ("--k", dict(type=parse_uint, required=True, help="block size")),
         *_R_P)
_FILES = (*_CODE, ("--in", dict(dest="infile", required=True)),
          ("--out", dict(dest="outfile", default=None)))
_SEED = ("--seed", dict(type=parse_uint, default=0))

# name: (help line, handler, flags in help order)
COMMANDS = {
    "params": ("print code parameters", _cmd_params, _CODE),
    "encode": ("encode a projective point file", _cmd_encode, _FILES),
    "decode": ("decode a subspace file", _cmd_decode, _FILES),
    "simulate": ("seeded channel statistics", _cmd_simulate, (
        *_CODE, ("--trials", dict(type=parse_uint, required=True)),
        ("--errors", dict(type=parse_uint, default=0)),
        ("--erasures", dict(type=parse_uint, default=0)), _SEED)),
    "bench": ("operation-count table over block sizes", _cmd_bench, (
        _Q, ("--k", dict(type=str, required=True,
                         help="comma-separated block sizes, e.g. 3,5,7,9")),
        *_R_P, ("--trials", dict(type=parse_uint, default=10)), _SEED)),
}


# Every flag some command takes.
_FLAGS = {flag for _, _, flags in COMMANDS.values() for flag, _ in flags}


def _read_args(argv):
    """The namespace argparse would give argv, read straight off the
    table, or None when argv is not in the one plain form taken here:
    the command, then each of its flags at most once by its full name,
    with one value (--p one or more), no value starting with "-", every
    number in digits 0-9 and every required flag given.  build_parser()
    answers the rest: help, usage errors and every other form."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, flags = COMMANDS[argv[0]]
    left = dict(flags)
    args = SimpleNamespace(command=argv[0], func=func)
    i = 1
    while i < len(argv):
        kw = left.pop(argv[i], None)
        j = i + 1
        while j < len(argv) and not argv[j].startswith("-"):
            j += 1
        if kw is None or j == i + 1 or (j > i + 2 and "nargs" not in kw):
            return None
        try:
            values = [kw.get("type", str)(v) for v in argv[i + 1:j]]
        except ValueError:
            return None
        setattr(args, kw.get("dest", argv[i][2:]),
                values if "nargs" in kw else values[0])
        i = j
    for name, kw in left.items():
        if kw.get("required"):
            return None
        setattr(args, kw.get("dest", name[2:]), kw.get("default"))
    return args


def build_parser():
    """The argparse parser over all five commands, built from the same
    table.  Only help and usage errors reach it, so only they import
    argparse."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # input errors must exit 1, not 2
            raise UsageError(message)

    def uint(s: str) -> int:
        try:
            return parse_uint(s)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    parser = Parser(prog="spreadcodes",
                    description="spread codes over F_q: construction, "
                                "encoding, decoding and simulation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, func, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, kwargs in flags:
            if kwargs.get("type") is parse_uint:
                kwargs = {**kwargs, "type": uint}
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # Given first, a command's flag, or a prefix of one as argparse
        # takes it, would have argparse read its value as the command.
        first = argv[0].partition("=")[0] if argv else ""
        if len(first) > 2 and any(f.startswith(first) for f in _FLAGS):
            raise UsageError(f"the command comes first: {first} goes after "
                             f"one of {', '.join(COMMANDS)}")
        args = _read_args(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
