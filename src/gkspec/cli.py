"""Command-line interface.

Subcommands: spectrum, product, wreath2, gk, coclique, db, verify (COMMANDS).
Only the named subcommand's parser is built, when the first argument names
one; help, a typo or no arguments get the parser of every subcommand.
Output is deterministic text (or JSON for verify --json); no timestamps
unless explicitly requested.  Exit codes: 0 success, 1 verification failure,
2 usage or input errors, or a reader that closed standard output early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import atlasdb, verify
from .orderset import OrderSet, product_spectrum, wreath2_spectrum
from .primegraph import build_gk


def _load_db(path):
    try:
        return atlasdb.load(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load database: {exc}") from None


def _spectrum_for(args) -> OrderSet:
    if args.gens is not None:
        return OrderSet.parse(args.gens)
    return atlasdb.stored_spectrum(_load_db(args.db), args.group)


def _print_summary(s: OrderSet):
    pi = s.pi()
    print(f"maximal: {s.serialize()}")
    print(f"members: {len(s.members())}")
    print(f"pi: {','.join(map(str, pi)) if pi else '-'}")
    print(f"sigma: {s.sigma()}")


def _cmd_spectrum(args) -> int:
    _print_summary(OrderSet.parse(args.generators))
    return 0


def _cmd_product(args) -> int:
    a = OrderSet.parse(args.left)
    b = OrderSet.parse(args.right)
    _print_summary(product_spectrum(a, b))
    return 0


def _cmd_wreath2(args) -> int:
    _print_summary(wreath2_spectrum(OrderSet.parse(args.generators)))
    return 0


def _cmd_gk(args) -> int:
    g = build_gk(_spectrum_for(args))
    if args.dot:
        sys.stdout.write(g.dot())
        return 0
    print(f"vertices: {','.join(map(str, g.vertices)) or '-'}")
    edges = " ".join(f"{p}-{q}" for p, q in sorted(g.edges))
    print(f"edges: {edges or '-'}")
    return 0


def _cmd_coclique(args) -> int:
    g = build_gk(_spectrum_for(args))
    cocliques = g.max_cocliques()
    print(f"independence number: {len(cocliques[0]) if cocliques else 0}")
    for c in cocliques:
        print(f"coclique: {','.join(map(str, c))}")
    return 0


def _cmd_db_query(args) -> int:
    db = _load_db(args.db)
    result = atlasdb.run_filter(db, atlasdb.LEMMA_QUERIES[args.lemma])
    for name, hits in result.matches:
        print(f"{name} {','.join(map(str, hits))}")
    for name in result.insufficient:
        print(f"insufficient data: {name}")
    return 0


def _cmd_db_list(args) -> int:
    for record in sorted(_load_db(args.db), key=lambda r: r.name):
        mu = record.mu.serialize() if record.mu is not None else "-"
        print(f"{record.name} pi={','.join(map(str, record.pi))} mu={mu}")
    return 0


def _cmd_db_check(args) -> int:
    try:
        for record in sorted(_load_db(args.db), key=lambda r: r.name):
            report = atlasdb.crosscheck_record(record)
            print(f"{report.name}: {report.status} ({report.detail})")
    except atlasdb.CrosscheckError as exc:
        print(f"crosscheck failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    report = verify.run_checks(only=args.only, db_path=args.db)
    if not report.results:
        print(f"no checks match {args.only!r}", file=sys.stderr)
        return 2
    if args.json:
        payload = {
            "overall": "pass" if report.ok else "fail",
            "backend": "pure",  # kept so stored reports keep their shape
            "checks": report.to_json_obj(),
        }
        if args.timestamp:
            import datetime

            payload["generated_at"] = datetime.datetime.now(
                datetime.timezone.utc
            ).isoformat()
        print(json.dumps(payload, indent=2))
    else:
        id_width = max(len(r.check_id) for r in report.results)
        cite_width = max(len(r.citation) for r in report.results)
        for r in report.results:
            print(
                f"{r.status.upper():4}  {r.check_id:<{id_width}}  "
                f"{r.citation:<{cite_width}}  {r.detail}"
            )
        passed = sum(1 for r in report.results if r.status == "pass")
        print(f"overall: {'PASS' if report.ok else 'FAIL'} ({passed}/{len(report.results)} checks)")
    return 0 if report.ok else 1


COMMANDS = ("spectrum", "product", "wreath2", "gk", "coclique", "db", "verify")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The gkspec parser: every subcommand, or only `command` (one of COMMANDS).

    A parser for one subcommand parses that subcommand's argv exactly as the
    full parser does and prints the same usage line.
    """
    parser = argparse.ArgumentParser(
        prog="gkspec",
        description="Exact element-order spectra, prime graphs and verification checks.",
    )
    if command is None:
        wanted = COMMANDS
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        # the metavar keeps the full parser's usage line; set always, it would
        # also replace "command" in the errors only the full parser raises
        # (no command, or an unknown one)
        wanted = (command,)
        sub = parser.add_subparsers(
            dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}"
        )
    db_flag = argparse.ArgumentParser(add_help=False)
    db_flag.add_argument("--db", help="database file overriding the embedded records")

    if "spectrum" in wanted:
        p = sub.add_parser("spectrum", help="summarize the divisor closure of generators")
        p.add_argument("generators", help="comma-separated positive integers")
        p.set_defaults(fn=_cmd_spectrum)

    if "product" in wanted:
        p = sub.add_parser("product", help="spectrum of a direct product (lcm closure)")
        p.add_argument("left")
        p.add_argument("right")
        p.set_defaults(fn=_cmd_product)

    if "wreath2" in wanted:
        p = sub.add_parser("wreath2", help="spectrum of the wreath product by a swap")
        p.add_argument("generators")
        p.set_defaults(fn=_cmd_wreath2)

    for name, fn, extra_help in (
        ("gk", _cmd_gk, "prime graph of a spectrum"),
        ("coclique", _cmd_coclique, "maximum cocliques of a prime graph"),
    ):
        if name not in wanted:
            continue
        p = sub.add_parser(name, help=extra_help, parents=[db_flag])
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--gens", help="comma-separated spectrum generators")
        source.add_argument("--group", help="named record from the database (needs stored mu)")
        if name == "gk":
            p.add_argument("--dot", action="store_true", help="emit DOT graph text")
        p.set_defaults(fn=fn)

    if "db" in wanted:
        p = sub.add_parser("db", help="query the group-record database")
        dbsub = p.add_subparsers(dest="db_command", required=True)
        q = dbsub.add_parser("query", help="run an embedded selection filter", parents=[db_flag])
        q.add_argument("--lemma", choices=sorted(atlasdb.LEMMA_QUERIES), required=True)
        q.set_defaults(fn=_cmd_db_query)
        lst = dbsub.add_parser("list", help="list records", parents=[db_flag])
        lst.set_defaults(fn=_cmd_db_list)
        chk = dbsub.add_parser("check", help="crosscheck records against oracles", parents=[db_flag])
        chk.set_defaults(fn=_cmd_db_check)

    if "verify" in wanted:
        p = sub.add_parser("verify", help="run the full verification report", parents=[db_flag])
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--only", help="run only checks whose id contains this text")
        p.add_argument(
            "--timestamp", action="store_true", help="include a timestamp in the JSON report"
        )
        p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    if args.command == "verify" and args.timestamp and not args.json:
        parser.error("verify --timestamp needs --json")
    try:
        code = args.fn(args)
        sys.stdout.flush()  # here, so a reader gone by the last write is caught too
        return code
    except BrokenPipeError:
        # the reader closed standard output (as `| head -1` does): silence the
        # interpreter's flush at exit and report it as an input error, not a
        # failed check
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (ValueError, OverflowError) as exc:
        # input the library rejects is a usage error (2), not a failed check (1);
        # verify reports its checks' own exceptions as failures instead
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
