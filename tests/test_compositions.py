"""Composition enumeration, counting, and multiset multiplicities."""

import hashlib
import itertools
import os
import subprocess
import sys
from collections import Counter, deque
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feyncount.cli import main
from feyncount.compositions import (
    _Refusal,
    _render,
    count_compositions,
    enumerate_compositions,
    multiset_multiplicity,
)

# sha256 of `compositions --n 16 --list` stdout (557,312 bytes) as the
# stream printed it when every mask was decoded cut by cut
COMPOSITIONS_16_LIST_SHA256 = "1522e2d7d496761a0037eeded4d6ccd702806957926a3f524260acaafb2b6c84"

# The worked 16-entry display for a total of 5.
FIVE_LIST = {
    (5,),
    (4, 1), (1, 4), (2, 3), (3, 2),
    (1, 2, 2), (2, 1, 2), (2, 2, 1), (3, 1, 1), (1, 3, 1), (1, 1, 3),
    (1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 1), (2, 1, 1, 1),
    (1, 1, 1, 1, 1),
}


def test_single_part_total():
    assert list(enumerate_compositions(1)) == [(1,)]


def test_three_by_hand():
    assert set(enumerate_compositions(3)) == {(3,), (2, 1), (1, 2), (1, 1, 1)}


def test_five_matches_worked_list():
    five = list(enumerate_compositions(5))
    assert len(five) == 16
    assert set(five) == FIVE_LIST


def test_cut_mask_order_for_four():
    # ascending (n-1)-bit cut masks: bit j cuts after unit j+1
    assert list(enumerate_compositions(4)) == [
        (4,), (1, 3), (2, 2), (1, 1, 2), (3, 1), (1, 2, 1), (2, 1, 1), (1, 1, 1, 1),
    ]


def _decoded_compositions(n):
    """Reference stream: each ascending cut mask decoded on its own."""
    if n == 0:
        yield ()
        return
    for mask in range(1 << (n - 1)):
        parts = []
        prev = 0
        while mask:
            pos = (mask & -mask).bit_length()  # cut sits after unit `pos`
            parts.append(pos - prev)
            prev = pos
            mask &= mask - 1
        parts.append(n - prev)
        yield tuple(parts)


# past n = 7 every setting of the high cut bits is joined to the low block
@pytest.mark.parametrize("n", range(21))
def test_successor_rule_matches_the_mask_decoder(n):
    assert list(enumerate_compositions(n)) == list(_decoded_compositions(n))


def test_stream_stays_lazy():
    # 2**59 compositions of 60: only those taken are built
    assert next(enumerate_compositions(60)) == (60,)
    assert list(itertools.islice(enumerate_compositions(60), 5000)) == list(
        itertools.islice(_decoded_compositions(60), 5000)
    )


def test_listing_of_sixteen_is_pinned(capsys):
    assert main(["compositions", "--n", "16", "--list"]) == 0
    out = capsys.readouterr().out
    assert len(out) == 557312
    assert hashlib.sha256(out.encode()).hexdigest() == COMPOSITIONS_16_LIST_SHA256


def test_empty_total_convention():
    assert list(enumerate_compositions(0)) == [()]
    assert count_compositions(0) == 1


def test_negative_total_rejected():
    # the generator refuses on its first step, not when it is made
    stream = enumerate_compositions(-1)
    with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
        next(stream)
    with pytest.raises(ValueError, match=r"^n must be >= 0, got -3$"):
        count_compositions(-3)


@pytest.mark.parametrize("n,expected", [(1, 1), (5, 16), (12, 2048)])
def test_count_values(n, expected):
    assert count_compositions(n) == expected


def test_stream_length_matches_count_up_to_16():
    for n in range(1, 17):
        assert sum(1 for _ in enumerate_compositions(n)) == count_compositions(n) == 2 ** (n - 1)


def test_stream_is_duplicate_free_and_valid():
    for n in range(1, 13):
        seen = set()
        for parts in enumerate_compositions(n):
            assert parts not in seen
            seen.add(parts)
            assert all(part >= 1 for part in parts)
            assert sum(parts) == n
        assert len(seen) == 2 ** (n - 1)


def test_stream_order_is_reproducible():
    assert list(enumerate_compositions(9)) == list(enumerate_compositions(9))


def test_multiplicity_of_three_one_one():
    assert multiset_multiplicity({3: 1, 1: 2}) == 3


def test_multiplicity_single_part():
    assert multiset_multiplicity({7: 1}) == 1


def test_multiplicity_against_stream_filter():
    target = Counter({2: 2, 1: 1})
    matches = [c for c in enumerate_compositions(5) if Counter(c) == target]
    assert len(matches) == 3
    assert multiset_multiplicity({2: 2, 1: 1}) == 3


def test_multiplicity_rejects_bad_input():
    # the empty multiset is the one empty composition of 0, not bad input
    assert multiset_multiplicity({}) == 1
    with pytest.raises(_Refusal, match=r"^part must be >= 1, got 0$"):
        multiset_multiplicity({0: 2})
    with pytest.raises(_Refusal, match=r"^multiplicity must be >= 1, got 0$"):
        multiset_multiplicity({3: 0})
    # (sum of multiplicities)! past a C long: refused before any work, not
    # leaked as math.factorial's OverflowError
    refusal = r"^part count is past what math.factorial takes, got 10{20}$"
    for ms in ({1: 10**20}, {1: 10**20 - 1, 2: 1}):
        with pytest.raises(_Refusal, match=refusal):
            multiset_multiplicity(ms)


def test_grouping_by_multiset_is_lossless():
    # summing multiplicities over the distinct part multisets recovers 2**(n-1)
    for n in range(1, 11):
        groups = {frozenset(Counter(c).items()) for c in enumerate_compositions(n)}
        total = sum(multiset_multiplicity(dict(g)) for g in groups)
        assert total == 2 ** (n - 1)


# Integers of either sign and of up to 16000 bits, 4817 digits: past CPython's
# default 4300-digit int -> str limit.
@settings(max_examples=50, deadline=None)
@given(
    value=st.integers(0, 16000).flatmap(lambda bits: st.integers(-(1 << bits), 1 << bits))
)
@example(value=0)
@example(value=10**4300 - 1)
@example(value=-(10**4300))
def test_render_writes_the_digits_str_writes(value):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = str(value)
    finally:
        sys.set_int_max_str_digits(previous)
    assert _render(value) == text


def _render_cases(limit: int) -> dict:
    """The ints to render under an int -> str digit limit of `limit`, by id,
    each of either sign: 10**limit and its two neighbours, of `limit` and
    `limit` + 1 digits, then 2**2000 and its neighbours, of 603 digits, and
    ints of 640, 641 and 701 digits, about the lowest limit CPython accepts.
    """
    edge = 10**limit
    cases = {
        f"10**{limit}-1": edge - 1, f"10**{limit}": edge, f"10**{limit}+1": edge + 1,
        "2**2000-1": (1 << 2000) - 1, "2**2000": 1 << 2000, "2**2000+1": (1 << 2000) + 1,
        "10**639": 10**639, "10**640": 10**640, "10**700": 10**700,
    }
    signed = {}
    for name, value in cases.items():
        signed[name] = value
        if value:
            signed[f"-({name})" if name[-2] in "+-" else f"-{name}"] = -value
    return signed


def _renders_as_decimal_does(limit: int, value: int) -> None:
    # `str` writes what the limit lets it, and `Decimal` the rest: the
    # digits must be the same either side of the limit
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert _render(value) == str(Decimal(value))
    finally:
        sys.set_int_max_str_digits(previous)


# 640 is the lowest int -> str digit limit CPython accepts
@pytest.mark.parametrize(
    "value", [pytest.param(value, id=name) for name, value in _render_cases(640).items()]
)
def test_render_writes_every_int_under_the_lowest_digit_limit(value):
    _renders_as_decimal_does(640, value)


# CPython's default limit, and 0, no limit at all, where `str` never refuses
@pytest.mark.parametrize(
    "limit, value",
    [
        pytest.param(limit, value, id=f"{limit}:{name}")
        for limit in (4300, 0)
        for name, value in _render_cases(limit).items()
    ],
)
def test_render_writes_every_int_under_the_default_limit_and_none(limit, value):
    _renders_as_decimal_does(limit, value)


def test_render_loads_decimal_only_for_an_int_str_refuses():
    # in a fresh interpreter under the default 4300-digit limit: 10**4000
    # has 4001 digits, which `str` writes, and 10**4300 has 4301
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / 'src')!r})\n"
        "from feyncount.compositions import _render\n"
        "assert sys.get_int_max_str_digits() == 4300\n"
        "assert _render(10**4000) == '1' + '0' * 4000\n"
        "print('decimal' in sys.modules)\n"
        "assert _render(10**4300) == '1' + '0' * 4300\n"
        "print('decimal' in sys.modules)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\nTrue\n", "")


def test_stream_holds_no_list_of_its_items():
    # the 524288 compositions of 20, drained as they come: each setting of
    # the high cut bits builds its few middle parts, never a list of items
    import tracemalloc

    tracemalloc.start()
    try:
        deque(enumerate_compositions(20), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10
