"""Command-line behavior: formats, exit codes, stream separation."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feyncount import checks, cli, counting, oracle
from feyncount.cli import main

# sha256 of `counts --max-order 300` stdout as the unscaled recurrence printed it;
# no format but json names the method, so each holds for every method
COUNTS_300_SHA256 = {
    "table": "5804354e8697efb382027933654459fc636310983ce998b5eee684f34a8eda99",
    "csv": "cd3acea571c96cabd44fec04e6ec4477865a33890b11ed8fee5f8ba5f6585728",
    "bfile": "aaf42cbe1c948809d3a2918842d727ff1d612c932c257069cdc75facbdfc6366",
}
# sha256 of `counts --max-order 300 --format json` stdout for the default method
COUNTS_300_JSON_SHA256 = "033769a0689e4411624c82b2ed44e3d4ed6e628b6dffc9bfff2bc9daae68c6d3"
# sha256 of `counts --max-order 600 --format csv` stdout, the digest the
# benchmark pins for its deep-table workload
COUNTS_600_CSV_SHA256 = "039b4e1c7fed7d89b3200eed60c335c81def0afbd5f95ab8d6b5c658e59a5e57"
# sha256 of `verify --max-order 20 --format json` stdout as the composition-sum
# coefficient printed it
VERIFY_20_SHA256 = "1c6d80864b452af7660fb64f6bf1bddff4daf350b8a1c3a2982f6f56ba83bffb"
# sha256 of `verify --max-order 20` stdout as a table (384 lines, 382 checks),
# taken when the three-path and wick-connected rows read the recurrence
VERIFY_20_TABLE_SHA256 = "9860e8f7cf71b524fe9ad25344a5b0846b85df8ff2821ef25d5d20a2dbdfa6d4"
# sha256 of `verify --max-order 100 --format json` stdout (862 checks) as the
# shared factorial table fed the convolution, rewrite and three-path rows
VERIFY_100_SHA256 = "43b1e1df9e99bdd7a9a25e44bc08be2b0dfa1a50e2b7d4dd6f37341f1a89d378"
# sha256 of `verify --max-order 300 --format json` stdout as the binomial
# convolution and the weight-table coefficient recursion printed it
VERIFY_300_SHA256 = "d939cdfe33a2ab485d71e43c6c614566427aca50029ab6c46cffffb1720602fd"
# sha256 of `oracle --order 4` stdout by format, as csv.writer wrote the csv;
# the json digest is the one the benchmark pins for its oracle-census workload
ORACLE_4_SHA256 = {
    "table": "2f54bff3bca19273229dcef09e66267bc22d2ccbee9f48b54456648ad168a4ce",
    "csv": "b302f18a9cc03a717eed7ce54436c6ffdabeac3281122b9095d06a0a09081d5e",
    "json": "a3014e9c987114a4243ff10b3a23f60fbe768a49f3606bc84693aa4d1955b53e",
}
# sha256 of `oracle --order 5 --override --format json` stdout, the digest CI
# pins for the real walk of all 39916800 pairings
ORACLE_5_JSON_SHA256 = "e0c4e7c5b8ca27424e3feca9573eaac69902b7ca8368d563bde944993b77ddf4"
# sha256 over the DOT files of `export --order 4` in name order (name, NUL,
# bytes, NUL per file) as the group-expanding orbit census wrote them
EXPORT_4_DOT_SHA256 = "b0c42b36b17a4a2de77c4988af7a4f0abb1040b39e5e14781ed421acc2002471"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spawn(*argv, stdout=subprocess.PIPE, unbuffered=""):
    """Start the command in a fresh interpreter, stderr piped.

    Stdout is block-buffered, as it is on a pipe by default, unless
    `unbuffered` is a non-empty PYTHONUNBUFFERED value.
    """
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    env["PYTHONUNBUFFERED"] = unbuffered
    return subprocess.Popen(
        [sys.executable, "-m", "feyncount", *argv], env=env, text=True,
        stdout=stdout, stderr=subprocess.PIPE,
    )


def test_counts_table(capsys):
    code, out, err = run(capsys, "counts", "--max-order", "4")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0].split() == ["m", "total", "bubble", "connected", "distinct"]
    distinct = [line.split()[-1] for line in lines[1:]]
    assert distinct == ["1", "2", "10", "74", "706"]


def test_counts_csv(capsys):
    code, out, _ = run(capsys, "counts", "--max-order", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,total,bubble,connected,distinct"
    assert lines[4] == "3,5040,720,3552,74"


def test_counts_json_uses_decimal_strings(capsys):
    code, out, _ = run(capsys, "counts", "--max-order", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "walk"
    assert payload["rows"][3] == {
        "m": 3,
        "total": "5040",
        "bubble": "720",
        "connected": "3552",
        "distinct": "74",
    }
    assert all(isinstance(row["connected"], str) for row in payload["rows"])


def test_counts_bfile_starts_at_order_one(capsys):
    code, out, _ = run(capsys, "counts", "--max-order", "4", "--format", "bfile")
    assert code == 0
    assert out == "1 2\n2 10\n3 74\n4 706\n"


def test_counts_all_methods_agree(capsys):
    code, out, err = run(capsys, "counts", "--max-order", "12", "--method", "all")
    assert code == 0
    assert err == ""
    assert out.splitlines()[-1].split()[0] == "12"


def test_counts_all_methods_beyond_order_twenty(capsys):
    code, out, err = run(
        capsys, "counts", "--max-order", "40", "--method", "all", "--format", "csv"
    )
    assert code == 0
    assert err == ""
    _, by_recurrence, _ = run(
        capsys, "counts", "--max-order", "40", "--method", "recurrence", "--format", "csv"
    )
    connected = [line.split(",")[3] for line in out.splitlines()]
    assert len(connected) == 42
    assert connected == [line.split(",")[3] for line in by_recurrence.splitlines()]


@pytest.mark.parametrize("fmt", sorted(COUNTS_300_SHA256))
def test_counts_stdout_is_the_same_for_every_method_at_order_300(capsys, fmt):
    for method in ("walk", "recurrence", "closed-form", "arques-walsh", "all"):
        code, out, err = run(
            capsys, "counts", "--max-order", "300", "--method", method, "--format", fmt
        )
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == COUNTS_300_SHA256[fmt], method


def test_default_counts_json_at_order_300_keeps_its_bytes(capsys):
    code, out, err = run(capsys, "counts", "--max-order", "300", "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == COUNTS_300_JSON_SHA256


def test_default_counts_csv_at_order_600_keeps_its_bytes(capsys):
    code, out, err = run(capsys, "counts", "--max-order", "600", "--format", "csv")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == COUNTS_600_CSV_SHA256


def test_count_cells_are_the_str_of_every_field_past_the_digit_limit():
    # order 1000's total has 5739 digits, past CPython's 4300-digit default;
    # the cells come from the distinct column alone, the fields from the table
    rows = counting.count_table(1000)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        cells = list(cli._count_cells(counting._distinct_column(1000)))
        assert len(cells) == len(rows)
        for r, row in zip(rows, cells):
            fields = (r.m, r.total, r.bubble, r.connected, r.distinct)
            assert row == [str(value) for value in fields]
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize("fmt", ["bfile", "csv", "table", "json"])
def test_counts_holds_no_column_but_the_distinct_one(fmt):
    # at order 1000 the total, bubble and connected integers take about
    # 3.4 MiB, and the text of every row 9 MiB as a table and 28 MiB as json;
    # the distinct column is the walk's, grown first so that its memo is not
    # counted, and stdout goes to devnull, not to a capture
    import tracemalloc

    counting._walk_counts(1000)
    with open(os.devnull, "w", encoding="ascii") as devnull, contextlib.redirect_stdout(devnull):
        tracemalloc.start()
        try:
            code = main(["counts", "--max-order", "1000", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2.5 * 2**20


@settings(max_examples=60, deadline=None)
@given(
    max_order=st.integers(0, 60),
    method=st.sampled_from(counting._COUNT_METHODS),
    fmt=st.sampled_from(["table", "json"]),
)
@example(max_order=0, method="walk", fmt="table")
@example(max_order=10, method="walk", fmt="table")
@example(max_order=0, method="all", fmt="json")
def test_streamed_table_and_json_are_the_bytes_of_all_rows_at_once(max_order, method, fmt):
    # the reference holds every row's text: aligned to each column's widest
    # cell, or dumped as one payload
    header = ["m", "total", "bubble", "connected", "distinct"]
    rows = [[str(value) for value in row] for row in counting.count_table(max_order, method=method)]
    if fmt == "table":
        widths = [max(len(row[col]) for row in [header, *rows]) for col in range(len(header))]
        expected = "".join(
            "  ".join(cell.rjust(width) for width, cell in zip(widths, row)) + "\n"
            for row in [header, *rows]
        )
    else:
        payload = {
            "max_order": max_order,
            "method": method,
            "rows": [{"m": m, **dict(zip(header[1:], row[1:]))} for m, row in enumerate(rows)],
        }
        expected = json.dumps(payload, indent=2) + "\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["counts", "--max-order", str(max_order), "--method", method, "--format", fmt])
    assert code == 0
    assert out.getvalue() == expected


def test_counts_output_is_byte_identical(capsys):
    _, first, _ = run(capsys, "counts", "--max-order", "6", "--format", "csv")
    _, second, _ = run(capsys, "counts", "--max-order", "6", "--format", "csv")
    assert first == second


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-order", "2")
    assert code == 0
    assert out.splitlines()[-1].startswith("overall: PASS")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--max-order", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] is True
    assert payload["passed"] == payload["total"] == len(payload["checks"])
    names = {c["name"] for c in payload["checks"]}
    assert {
        "convolution", "divisibility", "total-rewrite", "bubble-rewrite",
        "closed-form-agreement", "arques-walsh-agreement", "coefficient-recursion",
        "composition-count", "wick-total", "wick-connected", "wick-vacuum",
        "orbit-count", "orbit-histogram",
    } <= names
    assert {tuple(c) for c in payload["checks"]} == {counting.Check._fields}


def test_verify_stdout_is_pinned_at_the_coefficient_suite_cap(capsys):
    code, out, err = run(capsys, "verify", "--max-order", "20", "--format", "json")
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_20_SHA256


def test_verify_table_stdout_is_pinned_at_the_coefficient_suite_cap(capsys):
    code, out, err = run(capsys, "verify", "--max-order", "20")
    assert code == 0
    assert err == ""
    assert out.endswith("overall: PASS (382/382 checks)\n")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_20_TABLE_SHA256


def test_verify_stdout_is_pinned_above_the_coefficient_suite_cap(capsys):
    code, out, err = run(capsys, "verify", "--max-order", "100", "--format", "json")
    assert code == 0
    assert err == "note: coefficient-recursion suite capped at order 20\n"
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_100_SHA256


def test_verify_stdout_is_pinned_at_order_300(capsys):
    code, out, err = run(capsys, "verify", "--max-order", "300", "--format", "json")
    assert code == 0
    assert err == "note: coefficient-recursion suite capped at order 20\n"
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_300_SHA256


def test_verify_caps_only_the_coefficient_suite(capsys, monkeypatch):
    monkeypatch.setattr(checks, "_COEFFICIENT_SUITE_CAP", 2)
    code, out, err = run(capsys, "verify", "--max-order", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)["checks"]

    def orders(name):
        return [c["params"] for c in rows if c["name"] == name]

    assert orders("closed-form-agreement") == [f"m={m}" for m in range(1, 5)]
    assert orders("arques-walsh-agreement") == [f"m={m}" for m in range(1, 5)]
    assert orders("coefficient-recursion") == ["s=1 m=1", "s=1 m=2", "s=2 m=2"]
    assert "capped at order 2" in err


@settings(max_examples=12, deadline=None)
@given(max_order=st.integers(1, 12))
def test_streamed_verify_json_is_the_bytes_of_one_dump(max_order):
    # the checks are written a slice at a time after the frame's head
    report = checks.run(max_order)
    payload = {
        "overall": report.overall,
        "passed": sum(1 for c in report.checks if c.passed),
        "total": len(report.checks),
        "checks": [c._asdict() for c in report.checks],
    }
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["verify", "--max-order", str(max_order), "--format", "json"]) == 0
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


def test_verify_json_holds_no_text_but_a_slice_of_checks():
    # in a fresh process whose modules are loaded before tracing starts, with
    # stdout on devnull: one dump of the payload of all 2062 checks peaked
    # at 9.3 MiB (Python 3.11.7), of which the report and the walk's memo
    # hold 2.7 MiB
    script = (
        "import contextlib, os, sys, tracemalloc\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / 'src')!r})\n"
        "from feyncount import checks, cli\n"
        "with open(os.devnull, 'w', encoding='ascii') as devnull, "
        "contextlib.redirect_stdout(devnull):\n"
        "    tracemalloc.start()\n"
        "    code = cli.main(['verify', '--max-order', '300', '--format', 'json'])\n"
        "    peak = tracemalloc.get_traced_memory()[1]\n"
        "print(code, peak)\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    code, peak = map(int, proc.stdout.split())
    assert code == 0
    assert peak < 4 * 2**20


# small json values with no None, so that the frame's placeholder is its one
# null, and text that may itself read "null"
_json_scalars = st.one_of(st.booleans(), st.integers(-10**6, 10**6), st.text(max_size=8))


# no caller passes an empty list: `counts` always has row 0 and `verify` at
# least one convolution row, so the items run from 1 to 40
@settings(max_examples=80, deadline=None)
@given(
    items=st.lists(
        st.dictionaries(st.text(max_size=6), st.one_of(st.none(), _json_scalars), max_size=4),
        min_size=1, max_size=40,
    ),
    per_encode=st.sampled_from([1, 2, 3, 32]),
    frame=st.dictionaries(st.text(max_size=6).filter(lambda key: key != "rows"), _json_scalars,
                          max_size=4),
    place=st.sampled_from(["first", "middle", "last"]),
)
@example(items=[{"null": None}], per_encode=1, frame={"annulled": "null"}, place="last")
def test_json_writer_prints_the_bytes_of_one_dump(items, per_encode, frame, place):
    entries = list(frame.items())
    at = {"first": 0, "middle": len(entries) // 2, "last": len(entries)}[place]
    payload = dict(entries[:at] + [("rows", [None])] + entries[at:])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._print_json(payload, iter(items), per_encode)
    assert out.getvalue() == json.dumps({**payload, "rows": items}, indent=2) + "\n"


@settings(max_examples=80, deadline=None)
@given(
    payload=st.dictionaries(
        st.text(max_size=6),
        st.one_of(_json_scalars, st.lists(_json_scalars, max_size=3),
                  st.dictionaries(st.text(max_size=6), st.one_of(st.none(), _json_scalars),
                                  max_size=3)),
        max_size=5,
    )
)
@example(payload={"null": "null", "order": 5})
def test_json_writer_prints_a_payload_with_no_placeholder_whole(payload):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._print_json(payload)
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


def test_verify_rejects_order_zero(capsys):
    code, out, err = run(capsys, "verify", "--max-order", "0")
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "argv,line",
    [
        ("counts --max-order -1", "perturbation order must be >= 0, got -1"),
        ("verify --max-order 0", "--max-order must be >= 1, got 0"),
        ("oracle --order 0", "order must be >= 1, got 0"),
        ("export --order 0 --out-dir D", "order must be >= 1, got 0"),
        ("compositions --n 0", "--n must be >= 1, got 0"),
        (
            "oracle --order 5",
            "order 5 means enumerating (2m+1)! = 39916800 pairings; "
            "pass --override to proceed up to order 5",
        ),
        (
            "oracle --order 6 --override",
            "order 6 means enumerating (2m+1)! = 6227020800 pairings; the hard cap is 5",
        ),
        (
            "export --order 5 --out-dir D",
            "orbit census at order 5 would classify (2m+1)! = 39916800 pairings; "
            "the census cap is 4",
        ),
        # the first order whose (2m+1)! passes CPython's default 4300
        # digits, and one past math.factorial's reach
        (
            "oracle --order 779",
            "order 779 means enumerating (2m+1)! > 10^4300 pairings; the hard cap is 5",
        ),
        (
            f"export --order {10**19} --out-dir D",
            f"orbit census at order {10**19} would classify (2m+1)! > 10^4300 pairings; "
            "the census cap is 4",
        ),
    ],
)
def test_refusals_exit_2_with_one_exact_line(capsys, tmp_path, argv, line):
    argv = [str(tmp_path / "D") if arg == "D" else arg for arg in argv.split()]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {line}\n")
    assert not (tmp_path / "D").exists()


def test_oracle_table(capsys):
    code, out, err = run(capsys, "oracle", "--order", "1")
    assert code == 0
    assert err == ""
    fields = dict(line.split() for line in out.splitlines())
    assert fields["total"] == "6"
    assert fields["connected"] == "4"
    assert fields["vacuum"] == "2"
    assert fields["orbits"] == "2"
    assert fields["orbit_size_2"] == "2"


def test_oracle_json_order_two(capsys):
    code, out, _ = run(capsys, "oracle", "--order", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == "120"
    assert payload["connected"] == "80"
    assert payload["vacuum"] == "24"
    assert payload["orbits"] == "10"
    assert payload["orbit_sizes"] == {"8": "10"}


def test_oracle_csv(capsys):
    code, out, _ = run(capsys, "oracle", "--order", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "metric,value"
    assert "connected,4" in out.splitlines()


@pytest.mark.parametrize("fmt", sorted(ORACLE_4_SHA256))
def test_oracle_order_four_keeps_its_bytes(capsys, fmt):
    code, out, err = run(capsys, "oracle", "--order", "4", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_4_SHA256[fmt]


def test_oracle_refuses_order_six_with_cost(capsys):
    code, out, err = run(capsys, "oracle", "--order", "6")
    assert code == 2
    assert out == ""
    assert "6227020800" in err


def test_refusals_give_every_digit_of_the_cost_while_it_fits_the_limit(
    default_digit_limit,
):
    # under the default limit, str() of (2m+1)! raises from order 779 on
    assert len(str(math.factorial(1557))) <= default_digit_limit
    assert oracle._pairings(778) == f"(2m+1)! = {math.factorial(1557)}"
    assert oracle._pairings(779) == "(2m+1)! > 10^4300"


def test_refusals_give_the_same_cost_under_any_digit_limit(default_digit_limit):
    # (2m+1)! at order 300 has 1400 digits, past 640, the lowest limit CPython accepts
    text = oracle._pairings(300)
    sys.set_int_max_str_digits(640)
    assert oracle._pairings(300) == text


def test_a_huge_order_is_refused_at_once():
    # built and printed in full, (2m+1)! took seconds at order 10^5
    start = time.perf_counter()
    process = spawn("oracle", "--order", "1000000")
    out, err = process.communicate(timeout=60)
    assert time.perf_counter() - start < 2
    assert (process.returncode, out, err) == (
        2, "", "error: order 1000000 means enumerating (2m+1)! > 10^4300 pairings; "
        "the hard cap is 5\n",
    )


def test_oracle_requires_override_above_cap(capsys):
    code, _, err = run(capsys, "oracle", "--order", "5")
    assert code == 2
    assert "override" in err


def test_oracle_override_refusal_names_the_flag(capsys):
    code, out, err = run(capsys, "oracle", "--order", "5")
    assert code == 2
    assert out == ""
    assert "pass --override to proceed up to order 5" in err
    assert "override=True" not in err


def test_oracle_override_at_order_five_prints_the_walks_tally(capsys, monkeypatch):
    # the walk's tally by the split identity: C(5, n) (2n)! c(5 - n) pairings
    # cut n vertices off; the real walk of 11! pairings takes seconds, and CI
    # runs it against the same digest
    connected = counting.connected_sequence(5)
    tally = [math.comb(5, n) * math.factorial(2 * n) * connected[5 - n] for n in range(6)]
    assert tally == [31342080, 2711040, 852480, 576000, 806400, 3628800]

    def walk(m, shard=None):
        assert (m, shard) == (5, None)
        return list(tally)

    monkeypatch.setattr(oracle, "_walk_pairings", walk)
    note = "note: orbit census skipped above order 4\n"
    outs = {}
    for fmt in ("json", "table", "csv"):
        code, outs[fmt], err = run(capsys, "oracle", "--order", "5", "--override",
                                   "--format", fmt)
        assert (code, err) == (0, note), fmt
    assert hashlib.sha256(outs["json"].encode()).hexdigest() == ORACLE_5_JSON_SHA256
    assert outs["table"] == (
        "    order         5\n"
        "    total  39916800\n"
        "connected  31342080\n"
        "   vacuum   3628800\n"
    )
    assert outs["csv"] == (
        "metric,value\norder,5\ntotal,39916800\nconnected,31342080\nvacuum,3628800\n"
    )


def test_oracle_writes_dot_files(capsys, tmp_path):
    out_dir = tmp_path / "dots"
    code, out, err = run(
        capsys, "oracle", "--order", "1", "--dot-dir", str(out_dir)
    )
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "diagram_m1_1.dot", "diagram_m1_2.dot",
    ]
    assert "wrote 2 DOT files" in err


def test_oracle_refuses_dot_export_above_census_cap_before_enumerating(
    capsys, tmp_path, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before refusing")

    monkeypatch.setattr(oracle, "enumerate_matchings", refuse)
    monkeypatch.setattr(oracle, "_walk_pairings", refuse)
    out_dir = tmp_path / "dots"
    code, out, err = run(
        capsys, "oracle", "--order", "5", "--override", "--dot-dir", str(out_dir)
    )
    assert code == 2
    assert out == ""
    # the census's own refusal, with its cost
    assert "census" in err and "39916800" in err
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_oracle_and_verify_walk_each_order_once(capsys, monkeypatch):
    walks = []
    walk = oracle._walk_pairings

    def counted(m, *args, **kwargs):
        walks.append(m)
        return walk(m, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_matchings walked the pairings again")

    monkeypatch.setattr(oracle, "_walk_pairings", counted)
    monkeypatch.setattr(oracle, "enumerate_matchings", refuse)
    code, out, _ = run(capsys, "oracle", "--order", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["connected"] == "3552"
    assert walks == [3]

    walks.clear()
    code, _, _ = run(capsys, "verify", "--max-order", "3")
    assert code == 0
    assert walks == [1, 2, 3]


def test_export_subcommand(capsys, tmp_path):
    out_dir = tmp_path / "exported"
    code, out, _ = run(capsys, "export", "--order", "2", "--out-dir", str(out_dir))
    assert code == 0
    assert "wrote 10 DOT files" in out
    files = sorted(out_dir.iterdir())
    assert len(files) == 10
    first = (out_dir / "diagram_m2_1.dot").read_text()
    assert first.startswith("graph diagram_m2 {")
    # re-running produces identical bytes
    run(capsys, "export", "--order", "2", "--out-dir", str(out_dir))
    assert (out_dir / "diagram_m2_1.dot").read_text() == first


def test_empty_output_directory_is_the_working_directory(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "export", "--order", "1", "--out-dir", "")
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diagram_m1_1.dot", "diagram_m1_2.dot"]


def test_export_order_four_dot_files_are_pinned(capsys, tmp_path):
    code, out, _ = run(capsys, "export", "--order", "4", "--out-dir", str(tmp_path))
    assert code == 0
    assert out == f"wrote 706 DOT files to {tmp_path}\n"
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    assert digest.hexdigest() == EXPORT_4_DOT_SHA256


def test_export_respects_census_cap(capsys, tmp_path):
    code, _, err = run(capsys, "export", "--order", "5", "--out-dir", str(tmp_path))
    assert code == 2
    assert "census" in err


def test_compositions_count(capsys):
    code, out, _ = run(capsys, "compositions", "--n", "5")
    assert code == 0
    assert out == "16\n"


def test_compositions_list(capsys):
    code, out, _ = run(capsys, "compositions", "--n", "5", "--list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    listed = {tuple(int(x) for x in line.split("+")) for line in lines}
    assert (5,) in listed and (1, 1, 1, 1, 1) in listed and (4, 1) in listed


def test_compositions_trivial_list(capsys):
    code, out, _ = run(capsys, "compositions", "--n", "1", "--list")
    assert code == 0
    assert out == "1\n"


def test_compositions_renders_past_the_int_str_digit_limit(capsys, default_digit_limit):
    code, out, err = run(capsys, "compositions", "--n", "20000")
    assert code == 0
    assert err == ""
    digits = out.strip()
    assert len(digits) == 6021
    assert digits == str(Decimal(1 << 19999))


@pytest.mark.parametrize(
    "argv, expected_code",
    [
        (["counts", "--max-order", "1"], 0),
        (["compositions", "--n", "0"], 2),
        (["counts", "--help"], 0),  # argparse exits: SystemExit, not a return
        (["counts"], 2),
    ],
)
def test_main_gives_back_the_callers_int_str_digit_limit(
    capsys, monkeypatch, default_digit_limit, argv, expected_code
):
    # the command runs under the caller's limit too: main never lifts it
    limits = []
    distinct_column = counting._distinct_column

    def recording(*args, **kwargs):
        limits.append(sys.get_int_max_str_digits())
        return distinct_column(*args, **kwargs)

    monkeypatch.setattr(counting, "_distinct_column", recording)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == expected_code
    # only the case given an order builds the distinct column
    assert limits == ([default_digit_limit] if "--max-order" in argv else [])
    assert sys.get_int_max_str_digits() == default_digit_limit


def test_an_integer_argument_past_the_digit_limit_is_refused_by_argparse(monkeypatch):
    # 4301 digits: parsed under a lifted limit, the sweep it asks for never ends
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "4300")
    process = spawn("counts", "--max-order", "1" + "0" * 4300)
    try:
        out, err = process.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise
    assert (process.returncode, out) == (2, "")
    assert "error: argument --max-order: invalid int value: '10000" in err


def test_count_faults_are_value_errors():
    # so that `main` reports them, as any fault, without importing `counting`
    assert issubclass(counting.ExactnessError, ValueError)
    assert issubclass(counting.MethodDisagreementError, ValueError)


@pytest.mark.parametrize(
    ("method", "line"),
    [
        ("all", "order 5: walk=31342080, recurrence=31342081, closed-form=31342080,"
                " arques-walsh=31342080"),
        ("recurrence", "connected count at order 5: 31342081 is not divisible by 3840"),
    ],
)
def test_a_route_fault_exits_1_with_its_error_line(capsys, monkeypatch, method, line):
    # one pairing too many at order 5 in route 1
    route = counting.connected_sequence

    def planted(m_max):
        values = route(m_max)
        values[5] += 1
        return values

    monkeypatch.setattr(counting, "connected_sequence", planted)
    code, out, err = run(capsys, "counts", "--max-order", "5", "--method", method)
    assert (code, out, err) == (1, "", f"error: {line}\n")


def test_compositions_rejects_zero(capsys):
    code, _, err = run(capsys, "compositions", "--n", "0")
    assert code == 2
    assert "error" in err


def test_internal_value_error_is_not_reported_as_a_refusal(capsys, monkeypatch):
    def broken(m_max):
        raise ValueError("internal fault")

    monkeypatch.setattr(counting, "connected_sequence", broken)
    code, out, err = run(capsys, "counts", "--max-order", "3", "--method", "recurrence")
    assert code == 1
    assert out == ""
    assert err == "error: internal fault\n"


@pytest.mark.parametrize(
    "argv", [["oracle", "--order", "2", "--dot-dir"], ["export", "--order", "1", "--out-dir"]]
)
def test_unwritable_output_directory_is_an_error_line(tmp_path, argv):
    taken = tmp_path / "taken"
    taken.write_text("")
    proc = spawn(*argv, str(taken))
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["counts", "--max-order", "4"],  # fits the buffer: fails at the final flush
        ["counts", "--max-order", "300"],  # fails at a flush mid-run
        ["counts", "--max-order", "300", "--format", "csv"],
        ["counts", "--help"],  # written by argparse, which exits before the final flush
    ],
)
def test_closed_stdout_is_an_error_line(argv, unbuffered):
    # the reading end is closed before the command starts, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = spawn(*argv, stdout=write_end, unbuffered=unbuffered)
    os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [["counts", "--help"], ["--help"]])
def test_help_in_a_fresh_interpreter_reaches_an_open_pipe(argv, unbuffered):
    # the text's width follows COLUMNS, so only its ends are pinned
    proc = spawn(*argv, unbuffered=unbuffered)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == ""
    assert out.startswith("usage: feyncount") and out.endswith("\n")


def test_help_goes_to_stdout_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["counts", "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: feyncount counts [-h] --max-order M\n")
    assert "[--method {walk,recurrence,closed-form,arques-walsh,all}]" in out
    assert err == ""


def test_oracle_help_names_the_override_cap(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert "  --override            allow order 5 enumeration\n" in out
    assert err == ""


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "make, text",
    [
        (lambda: counting.count_table(1)[1],
         "CountRow(m=1, total=6, bubble=2, connected=4, distinct=2)"),
        (lambda: checks.verify_divisibility(1).checks[0],
         "Check(name='divisibility', params='m=1', expected='0', actual='0', passed=True)"),
        # the README's two reprs
        (lambda: oracle.enumerate_matchings(3), "MatchCensus(vacuum_parts=(3552, 480, 288, 720))"),
        (lambda: oracle.canonical_form((2, 0, 1), 1), "CanonicalDiagram(order=1, pairing=(1, 2, 0))"),
        (lambda: oracle.orbit_census(1),
         "OrbitCensus(order=1, orbit_count=2, orbit_sizes={2: 2}, representatives=("
         "CanonicalDiagram(order=1, pairing=(1, 0, 2)), CanonicalDiagram(order=1, pairing=(1, 2, 0))), "
         "matches=MatchCensus(vacuum_parts=(4, 2)))"),
    ],
    ids=["CountRow", "Check", "MatchCensus", "CanonicalDiagram", "OrbitCensus"],
)
def test_records_are_immutable_named_tuples(make, text):
    record = make()
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.note = ""
    # unpacks, rebuilds and compares by value, in field order
    assert type(record)(*record) == type(record)(**record._asdict()) == make()
    assert list(record._asdict()) == list(record._fields)


def test_startup_loads_only_the_modules_a_command_uses(tmp_path):
    # each command in its own fresh interpreter, which reports the package's
    # modules and the watched stdlib ones after the package's import, the
    # command line's, and the command; -S keeps the site module's .pth files
    # from importing modules of their own
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "watched = ('__future__', 'dataclasses', 'inspect', 'json', 'pathlib', 'decimal')\n"
        "def report():\n"
        "    package = sorted(name.partition('.')[2] for name in sys.modules if name.startswith('feyncount.'))\n"
        "    stdlib = [name for name in watched if name in sys.modules]\n"
        "    print(','.join(package), ','.join(stdlib), sep=';', file=sys.stderr)\n"
        "import feyncount\n"
        "report()\n"
        "from feyncount import cli\n"
        "report()\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "report()\n"
    )
    commands = {
        "compositions --n 1": "cli,compositions;",
        "counts --max-order 4 --format csv": "cli,compositions,counting;decimal",
        "oracle --order 3 --format json": "cli,compositions,oracle;json",
        f"export --order 1 --out-dir {tmp_path}": "cli,compositions,oracle;",
        "verify --max-order 2 --format json": "checks,cli,compositions,counting,oracle;json",
    }
    for argv, loaded in commands.items():
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script, *argv.split()],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        # the package's import loads none of its modules, the command line's
        # only its own and the shared guards, and each command what it runs
        assert proc.stderr.splitlines() == [";", "cli,compositions;", loaded], argv
