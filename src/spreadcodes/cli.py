"""Command-line front end.

Subcommands: ``params`` (code parameters), ``encode`` (projective point
file to subspace file), ``decode`` (subspace file to codeword file),
``simulate`` (seeded channel statistics), ``bench`` (the ``simulate``
operation counts for one erasure, across block sizes).

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
from .spread import (MAX_R, SpreadCode, check_code_limits, format_subspace,
                     parse_subspace)


MAX_TRIALS = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors must exit 1, not argparse's 2
        raise UsageError(message)


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
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_point(lines: list[str], code: SpreadCode) -> list[tuple]:
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
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


def build_parser() -> _Parser:
    parser = _Parser(prog="spreadcodes",
                     description="spread codes over F_q: construction, "
                                 "encoding, decoding and simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="print code parameters")
    _add_code_flags(p)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("encode", help="encode a projective point file")
    _add_code_flags(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", default=None)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a subspace file")
    _add_code_flags(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", default=None)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("simulate", help="seeded channel statistics")
    _add_code_flags(p)
    p.add_argument("--trials", type=_uint, required=True)
    p.add_argument("--errors", type=_uint, default=0)
    p.add_argument("--erasures", type=_uint, default=0)
    p.add_argument("--seed", type=_uint, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bench", help="operation-count table over block sizes")
    _add_code_flags(p, k_list=True)
    p.add_argument("--trials", type=_uint, default=10)
    p.add_argument("--seed", type=_uint, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
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
