"""Acceptance suite: one test per criterion, exact equality at stated time budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion alongside its runtime.
"""

import math
import time

from feyncount.compositions import (
    count_compositions,
    enumerate_compositions,
    multiset_multiplicity,
)
from feyncount.counting import (
    arques_walsh,
    bubble_diagrams,
    coefficient,
    connected_closed_form,
    connected_recurrence,
    connected_sequence,
    count_table,
    distinct_connected,
    double_factorial,
    total_diagrams,
)
from feyncount.checks import verify_coefficient_recursion
from feyncount.oracle import enumerate_matchings, orbit_census

DISTINCT_SEQUENCE = [2, 10, 74, 706]
CONNECTED_SEQUENCE = [4, 80, 3552, 271104]


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(number, label, elapsed, budget):
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"PASS criterion {number}: {label} [{elapsed:.2f}s < {budget}s]")


def test_criterion_01_distinct_sequence():
    with _Timer() as t:
        values = [distinct_connected(m) for m in range(1, 5)]
    assert values == DISTINCT_SEQUENCE
    _report(1, "distinct connected = 2, 10, 74, 706", t.elapsed, 1)


def test_criterion_02_connected_totals():
    with _Timer() as t:
        values = [connected_recurrence(m) for m in range(1, 5)]
    assert values == CONNECTED_SEQUENCE
    _report(2, "connected totals = 4, 80, 3552, 271104", t.elapsed, 1)


def test_criterion_03_worked_example_order_three():
    with _Timer() as t:
        terms = {
            n: coefficient(n, 3) * (total_diagrams(n) - bubble_diagrams(n))
            for n in (1, 2, 3)
        }
        value = connected_closed_form(3)
    # total minus bubble at order 3 is 4320; the lower orders remove 576 and 192
    assert terms[3] == total_diagrams(3) - bubble_diagrams(3) == 4320
    assert terms[2] == -576
    assert terms[1] == -192
    assert value == sum(terms.values()) == 3552
    _report(3, "closed form at order 3 = 4320 - 576 - 192 = 3552", t.elapsed, 1)


def test_criterion_04_three_path_agreement():
    with _Timer() as t:
        recurrence = connected_sequence(18)
        for m in range(1, 19):
            closed = connected_closed_form(m)
            walsh = arques_walsh(m) * double_factorial(2 * m)
            assert recurrence[m] == closed == walsh, f"m={m}"
    _report(4, "recurrence = closed form = (2m)!! * Arques-Walsh for m <= 18", t.elapsed, 30)


def test_criterion_05_oracle_equivalence():
    with _Timer() as t:
        connected = connected_sequence(4)
        for m in range(1, 5):
            census = enumerate_matchings(m)
            assert census.total == math.factorial(2 * m + 1)
            assert census.connected == connected_recurrence(m)
            assert census.vacuum == math.factorial(2 * m)
            for n in range(m + 1):
                assert census.vacuum_parts[n] == (
                    math.comb(m, n) * math.factorial(2 * n) * connected[m - n]
                ), f"m={m} n={n}"
    _report(5, "Wick enumeration matches all formulas for m <= 4", t.elapsed, 60)


def test_criterion_06_orbit_structure():
    with _Timer() as t:
        connected = connected_sequence(4)
        for m in range(1, 5):
            census = orbit_census(m)
            assert census.orbit_sizes == {double_factorial(2 * m): census.orbit_count}
            assert len(census.representatives) == census.orbit_count
            assert census.orbit_count == arques_walsh(m) == DISTINCT_SEQUENCE[m - 1]
            # the census tallies vacuum parts in the same walk
            for n in range(m + 1):
                assert census.matches.vacuum_parts[n] == (
                    math.comb(m, n) * math.factorial(2 * n) * connected[m - n]
                ), f"m={m} n={n}"
    _report(6, "every orbit has size (2m)!! and counts = 2, 10, 74, 706", t.elapsed, 300)


def test_criterion_07_coefficient_recursion():
    with _Timer() as t:
        report = verify_coefficient_recursion(10)
    assert report.overall
    assert len(report.checks) == 55
    _report(7, "coefficient recursion holds for 1 <= s <= m <= 10", t.elapsed, 5)


def test_criterion_08_composition_laws():
    worked_list_for_five = {
        (5,),
        (4, 1), (1, 4), (2, 3), (3, 2),
        (1, 2, 2), (2, 1, 2), (2, 2, 1), (3, 1, 1), (1, 3, 1), (1, 1, 3),
        (1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 1), (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    }
    with _Timer() as t:
        for n in range(1, 17):
            streamed = list(enumerate_compositions(n))
            assert len(streamed) == len(set(streamed)) == count_compositions(n) == 2 ** (n - 1)
        assert set(enumerate_compositions(5)) == worked_list_for_five
        from collections import Counter
        for n in range(1, 11):
            groups = {frozenset(Counter(c).items()) for c in enumerate_compositions(n)}
            assert sum(multiset_multiplicity(dict(g)) for g in groups) == 2 ** (n - 1)
    _report(8, "composition counts, worked list (n=5), multiset grouping", t.elapsed, 5)


def _default_connected_column(max_order):
    # the default route's counts, the ones `counts` prints; the recurrence
    # inverts the convolution identity, so criterion 9 would hold on it by
    # construction
    return [row.connected for row in count_table(max_order)]


def test_criterion_09_convolution_identity():
    with _Timer() as t:
        connected = _default_connected_column(30)
        for m in range(1, 31):
            rebuilt = sum(
                math.comb(m, n) * math.factorial(2 * n) * connected[m - n]
                for n in range(m + 1)
            )
            assert rebuilt == math.factorial(2 * m + 1), f"m={m}"
    _report(9, "convolution identity holds on the default route for m <= 30", t.elapsed, 5)


def test_criterion_10_divisibility():
    # the default route's counts are (2m)!! times its distinct counts, so on
    # them this holds by construction; route 1's are m! times its scaled
    # counts, so on them the factor 2**m is tested
    with _Timer() as t:
        for connected in (_default_connected_column(30), connected_sequence(30)):
            for m in range(1, 31):
                quotient, remainder = divmod(connected[m], double_factorial(2 * m))
                assert remainder == 0, f"m={m}"
                assert quotient * double_factorial(2 * m) == connected[m]
    _report(10, "(2m)!! divides the default and route 1 counts exactly for m <= 30", t.elapsed, 5)
