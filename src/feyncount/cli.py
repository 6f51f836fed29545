"""Command-line front end: count tables, the `verify` report, oracle runs,
composition listings, and DOT export of canonical diagrams.

Data goes to stdout, errors and notes to stderr.  Machine-readable
formats always carry counts as exact decimal strings, never as native
numbers.  Identical invocations produce byte-identical output.

Each subcommand loads only the modules it runs: `compositions` loads this
module and `compositions` alone, `counts` adds `counting`, `oracle` and
`export` add `oracle` but never `counting`, and `verify` loads all five:
its suites and their caps live in `checks`, and this module only renders
their report.  The parser reads the `--method` names and the override cap
from `compositions`, which every command loads.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice

from .compositions import (
    _COUNT_METHODS, OVERRIDE_ORDER_CAP, _Refusal, _at_least, _render, count_compositions,
    enumerate_compositions,
)

# verify --format json encodes this many checks per call: at order 18 that took
# the time of one dump of the payload, 1.4 ms, and one call per check 3.6 ms
# (Python 3.11.7); at order 300 the text alive at once peaked at 0.3 MiB
_JSON_CHECKS_PER_ENCODE = 32


def _print_aligned(rows: Iterable[Sequence[str]], widths: Sequence[int] | None = None) -> None:
    # right-aligned in columns as wide as `widths`, or as each one's widest cell
    if widths is None:
        rows = list(rows)
        widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.rjust(width) for width, cell in zip(widths, row)))


def _print_csv(rows: Iterable) -> None:
    # the cells are digits and fixed names, which CSV never quotes
    for row in rows:
        print(",".join(row))


def _print_json(payload: dict, items: Iterable[dict] = (), per_encode: int = 1) -> None:
    """Print the bytes of json.dumps(payload, indent=2), with `items` in place
    of the payload's one list, a top-level value given as [None], encoding
    `per_encode` items at a time, so no more of their text is alive at once.
    A payload with no None in a top-level list prints whole.

    The frame is the payload's text split at that None, the one null that
    starts a line indented four: a string never holds a raw newline.  Each
    group of items is encoded as a list of its own, whose brackets are cut
    off and whose lines are indented two more, to the list's depth.
    """
    # imported here so that processes printing no json never load it
    import json

    encode = json.JSONEncoder(indent=2).encode
    head, _, tail = encode(payload).partition("\n    null")
    print(head, end="")
    items, separator = iter(items), "\n    "
    while group := list(islice(items, per_encode)):
        print(separator, encode(group)[4:-2].replace("\n", "\n  "), sep="", end="")
        separator = ",\n    "
    print(tail)


def _count_cells(column: list[int]) -> Iterator[list[str]]:
    """The count table's cells from order 0 up, one row at a time, from the
    distinct column alone; `counting.count_table` is the library's table of
    the same four counts as integers.

    The total and bubble columns are the factorials (2m+1)! and (2m)!, so
    they come from a running product in `decimal`, whose multiply by a small
    int and whose text are linear in the digits; `str(int)` is quadratic
    before CPython 3.12.  The distinct cell is the order's count as a
    `Decimal`, converted once, and the connected count is (2m)!! times it,
    so the connected cell is that `Decimal` times a running decimal (2m)!!.
    No cell goes through `str(int)`, so none meets its digit limit.
    """
    # imported here so that processes printing no count table never load it
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact

    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])
    bubble = group = Decimal(1)  # (2m)! and (2m)!!
    for m, count in enumerate(column):
        total = exact.multiply(bubble, 2 * m + 1)
        distinct = Decimal(count)
        connected = exact.multiply(distinct, group)
        yield [str(m), str(total), str(bubble), str(connected), str(distinct)]
        bubble = exact.multiply(total, 2 * m + 2)
        group = exact.multiply(group, 2 * m + 2)


def cmd_counts(args: argparse.Namespace) -> int:
    from . import counting

    column = counting._distinct_column(args.max_order, args.method)
    if args.format == "bfile":
        # OEIS-style b-file of the distinct-diagram sequence, indexed from 1
        for m in range(1, len(column)):
            print(f"{m} {_render(column[m])}")
        return 0
    # each row is printed as it is made, so the rows' text is never all alive
    header = ["m", "total", "bubble", "connected", "distinct"]
    cells = _count_cells(column)
    if args.format == "table":
        # every column's text grows with m, so the widest cells are the
        # header's or the last row's: (2M+1)!, (2M)!, its distinct count
        # times (2M)!!, and that count
        m = len(column) - 1
        last = [str(m), *map(_render, (counting.total_diagrams(m), counting.bubble_diagrams(m),
                                       column[m] * counting.double_factorial(2 * m), column[m]))]
        widths = [max(len(name), len(cell)) for name, cell in zip(header, last)]
        _print_aligned(chain([header], cells), widths)
    elif args.format == "csv":
        _print_csv(chain([header], cells))
    elif args.format == "json":
        frame = {"max_order": args.max_order, "method": args.method, "rows": [None]}
        rows = ({"m": m, **dict(zip(header[1:], row[1:]))} for m, row in enumerate(cells))
        _print_json(frame, rows)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    _at_least(args.max_order, 1, "--max-order")
    from . import checks

    note = checks.cap_note(args.max_order)
    if note is not None:
        print(f"note: {note}", file=sys.stderr)
    report = checks.run(args.max_order)
    passed = sum(1 for c in report.checks if c.passed)
    if args.format == "json":
        frame = {"overall": report.overall, "passed": passed, "total": len(report.checks),
                 "checks": [None]}
        _print_json(frame, (c._asdict() for c in report.checks), _JSON_CHECKS_PER_ENCODE)
    else:
        rows = [["check", "params", "expected", "actual", "status"]]
        rows += [
            [c.name, c.params, c.expected, c.actual, "PASS" if c.passed else "FAIL"]
            for c in report.checks
        ]
        _print_aligned(rows)
        print(f"overall: {'PASS' if report.overall else 'FAIL'} ({passed}/{len(report.checks)} checks)")
    return 0 if report.overall else 1


def _write_dot_files(census, out_dir: str) -> int:
    from . import oracle

    os.makedirs(out_dir or os.curdir, exist_ok=True)  # "" names the working directory
    for index, diagram in enumerate(census.representatives, start=1):
        name = f"diagram_m{census.order}_{index}.dot"
        with open(os.path.join(out_dir, name), "w", encoding="ascii") as out:
            out.write(oracle.export_diagram(diagram))
    return len(census.representatives)


def cmd_oracle(args: argparse.Namespace) -> int:
    from . import oracle

    m = args.order
    orbits = None
    # --dot-dir writes the orbits, so above its cap the census refuses the order
    if m <= oracle.DEFAULT_ORDER_CAP or args.dot_dir is not None:
        orbits = oracle.orbit_census(m)
        census = orbits.matches
    else:
        # the same cap check, naming the flag rather than the library keyword
        oracle._check_cap(m, args.override, "--override")
        census = oracle.enumerate_matchings(m, override=args.override)
        print(
            f"note: orbit census skipped above order {oracle.DEFAULT_ORDER_CAP}",
            file=sys.stderr,
        )

    record = {name: str(getattr(census, name)) for name in ("total", "connected", "vacuum")}
    sizes = {}
    if orbits is not None:
        record["orbits"] = str(orbits.orbit_count)
        sizes = {str(size): str(count) for size, count in orbits.orbit_sizes.items()}

    if args.format == "json":
        payload: dict = {"order": m, **record}
        if orbits is not None:
            payload["orbit_sizes"] = sizes
        _print_json(payload)
    else:
        pairs = [("order", str(m)), *record.items()]
        pairs += [(f"orbit_size_{size}", count) for size, count in sizes.items()]
        if args.format == "table":
            _print_aligned(pairs)
        else:
            _print_csv([("metric", "value"), *pairs])

    if args.dot_dir is not None:
        written = _write_dot_files(orbits, args.dot_dir)
        print(f"note: wrote {written} DOT files to {args.dot_dir}", file=sys.stderr)
    return 0


def cmd_compositions(args: argparse.Namespace) -> int:
    _at_least(args.n, 1, "--n")
    if args.list:
        for parts in enumerate_compositions(args.n):
            print("+".join(str(part) for part in parts))
    else:
        print(_render(count_compositions(args.n)))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from . import oracle

    census = oracle.orbit_census(args.order)
    written = _write_dot_files(census, args.out_dir)
    print(f"wrote {written} DOT files to {args.out_dir}")
    return 0


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse drops an OSError from its own write and exits with the text still
        # buffered; a closed stdout is an error here, raised by the write or the flush
        print(self.format_help(), end="", file=file, flush=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="feyncount",
        description="Exact connected-Feynman-diagram counts with brute-force cross-checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("counts", help="print the per-order count table")
    p.add_argument("--max-order", type=int, required=True, metavar="M")
    p.add_argument("--method", choices=_COUNT_METHODS, default="walk")
    p.add_argument(
        "--format", choices=["table", "csv", "json", "bfile"], default="table"
    )
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("verify", help="run the identity and oracle suites")
    p.add_argument("--max-order", type=int, required=True, metavar="M")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force enumeration census at one order")
    p.add_argument("--order", type=int, required=True, metavar="M")
    p.add_argument("--override", action="store_true",
                   help=f"allow order {OVERRIDE_ORDER_CAP} enumeration")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--dot-dir", metavar="DIR",
                   help="also write each canonical diagram as a DOT file")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compositions", help="count or list compositions of n")
    p.add_argument("--n", type=int, required=True, metavar="N")
    p.add_argument("--list", action="store_true", help="print every composition")
    p.set_defaults(func=cmd_compositions)

    p = sub.add_parser("export", help="write canonical diagrams as DOT files")
    p.add_argument("--order", type=int, required=True, metavar="M")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        # a closed stdout then fails here, not in the flush at exit
        sys.stdout.flush()
        return code
    except _Refusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # What is still buffered can never be written.  Point stdout at
        # devnull so that the flush at exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
