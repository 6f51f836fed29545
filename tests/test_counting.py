"""Exact counting formulas: factorial totals, the Wick walk by state,
recurrence, closed form, Arques-Walsh sum, and the identity suites."""

import functools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feyncount import counting
from feyncount.compositions import _Refusal, enumerate_compositions
from feyncount.counting import (
    ExactnessError,
    MethodDisagreementError,
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
    verify_coefficient_recursion,
    verify_convolution,
    verify_divisibility,
    verify_rewrite_identities,
    verify_three_path,
)
from feyncount.oracle import enumerate_matchings

CONNECTED = [1, 4, 80, 3552, 271104]
# m = 5 pinned by three-path agreement (recurrence = closed form = (2m)!! * AW)
CONNECTED_5 = 31342080
CONNECTED_7 = 1102119137280
DISTINCT = [1, 2, 10, 74, 706, 8162, 110410, 1708394, 29752066]


def _arques_walsh_by_compositions(m):
    """The paper's signed composition sum, a reference used only by these tests.

    Sums (-1)**(parts-1) * prod_j (2 a_j)!/a_j! over the 2**m compositions
    of m+1, then divides exactly by 2**(m+1).
    """
    total = 0
    for parts in enumerate_compositions(m + 1):
        term = 1
        for a in parts:
            term *= math.factorial(2 * a) // math.factorial(a)
        total += term if len(parts) % 2 else -term
    quotient, remainder = divmod(total, 2 ** (m + 1))
    assert remainder == 0
    return quotient


def _arques_walsh_by_reciprocal(m_max):
    """The paper's sum as a long division by the (2k-1)!! series, a reference
    used only by these tests.

    The signed composition sum at m+1 is the coefficient a(m+1) of
    1 - 1/(1 + sum_k (2k-1)!! x**k), so a(n) = (2n-1)!! - sum_{k<n} (2k-1)!! a(n-k).
    """
    odd = [1]  # odd[k] = (2k-1)!!
    for k in range(1, m_max + 2):
        odd.append(odd[-1] * (2 * k - 1))
    a = [0]
    for n in range(1, m_max + 2):
        a.append(odd[n] - sum(odd[k] * a[n - k] for k in range(1, n)))
    return a[1:]


def _even_product(k):
    """k!! = 2*4*...*k for even k, by direct product."""
    return math.prod(range(2, k + 1, 2))


def _connected_by_binomials(m_max):
    """The unscaled recurrence, a reference used only by these tests.

    c(m) = (2m+1)! - sum_{n=1..m} binom(m, n) (2n)! c(m-n), on the full
    counts, with no division by m!.
    """
    connected = [1]
    for m in range(1, m_max + 1):
        detachable = sum(
            math.comb(m, n) * math.factorial(2 * n) * connected[m - n]
            for n in range(1, m + 1)
        )
        connected.append(math.factorial(2 * m + 1) - detachable)
    return connected


def _vacuum_parts_by_state(m):
    """The oracle's vacuum tally by a forward pass over walk states (r, u),
    a reference used only by these tests.

    From (1, m) with weight 1, a state passes 2u times its weight to
    (r+1, u-1) and r times to (r-1, u).  A walk that reaches every vertex,
    (r, 0), completes in r! ways and is connected; one that empties its
    queue at (0, u) cuts off u vertices, whose 2u slots pair in (2u)! ways.
    """
    weight = {(1, m): 1}
    parts = [0] * (m + 1)
    # a state's predecessors have a larger r + u, or the same r + u and a larger u
    for s in range(m + 1, -1, -1):
        for u in range(s, -1, -1):
            r = s - u
            w = weight.pop((r, u), 0)
            if not w:
                continue
            if u == 0:
                parts[0] += w * math.factorial(r)
            elif r == 0:
                parts[u] += w * math.factorial(2 * u)
            else:
                weight[r + 1, u - 1] = weight.get((r + 1, u - 1), 0) + 2 * u * w
                weight[r - 1, u] = weight.get((r - 1, u), 0) + r * w
    return tuple(parts)


@functools.cache
def _distinct_by_state(r, u):
    """D(r, u), the walk that enters each fresh vertex as the next label at
    its unprimed point, a reference used only by these tests."""
    if u == 0:
        return math.factorial(r)
    if r == 0:
        return 0
    return _distinct_by_state(r + 1, u - 1) + r * _distinct_by_state(r - 1, u)


def _fresh_walk(m):
    """The walk's counts c(0..m) and last diagonal, built from an empty memo."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_walk_memo", ([1], [1, 0]))
        counting._walk_counts(m)
        return counting._walk_memo


def _coefficient_by_multinomial(n, m):
    """`coefficient` with one multinomial per composition, a reference used only by these tests."""
    if n == m:
        return 1
    total = 0
    for parts in enumerate_compositions(m - n):
        weight = 1
        denom = math.factorial(n)
        for a in parts:
            weight *= math.factorial(2 * a)
            denom *= math.factorial(a)
        term = weight * (math.factorial(m) // denom)
        total += -term if len(parts) & 1 else term
    return total


def _closed_form_by_coefficients(m):
    """The closed form as the paper writes it, a reference used only by these tests."""
    return sum(
        coefficient(n, m) * (math.factorial(2 * n + 1) - math.factorial(2 * n))
        for n in range(1, m + 1)
    )


@pytest.mark.parametrize("m,expected", [(0, 1), (1, 6), (4, 362880)])
def test_total_diagrams(m, expected):
    assert total_diagrams(m) == expected


@pytest.mark.parametrize("m,expected", [(0, 1), (2, 24), (3, 720)])
def test_bubble_diagrams(m, expected):
    assert bubble_diagrams(m) == expected


def test_double_factorial_small():
    assert double_factorial(0) == 1
    assert double_factorial(2) == 2
    assert double_factorial(8) == 2 * 4 * 6 * 8


def test_double_factorial_matches_direct_product():
    for m in range(0, 16):
        product = 1
        for k in range(2, 2 * m + 1, 2):
            product *= k
        assert double_factorial(2 * m) == product


def test_double_factorial_rejects_odd_and_negative():
    with pytest.raises(ValueError):
        double_factorial(3)
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_recurrence_sequence():
    assert [connected_recurrence(m) for m in range(5)] == CONNECTED
    assert connected_recurrence(5) == CONNECTED_5


def test_recurrence_matches_hand_unrolled():
    n_c1 = 6 - 2
    n_c2 = 120 - 24 - math.comb(2, 1) * 2 * n_c1
    n_c3 = 5040 - 720 - math.comb(3, 2) * 24 * n_c1 - math.comb(3, 1) * 2 * n_c2
    n_c4 = (
        362880 - 40320
        - math.comb(4, 3) * 720 * n_c1
        - math.comb(4, 2) * 24 * n_c2
        - math.comb(4, 1) * 2 * n_c3
    )
    assert connected_sequence(4) == [1, n_c1, n_c2, n_c3, n_c4]


def test_coefficient_diagonal_is_one():
    for m in range(1, 9):
        assert coefficient(m, m) == 1


def test_coefficient_worked_values():
    # single-composition case: -binom(3,2) * bubble(1)
    assert coefficient(2, 3) == -math.comb(3, 2) * 2 == -6
    # bracket: binom(3,2)binom(2,1)*2*2 - binom(3,1)*24
    assert coefficient(1, 3) == math.comb(3, 2) * math.comb(2, 1) * 4 - math.comb(3, 1) * 24 == -48


def test_coefficient_matches_the_multinomial_sum_to_fourteen():
    for m in range(1, 15):
        for n in range(1, m + 1):
            assert coefficient(n, m) == _coefficient_by_multinomial(n, m), (n, m)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=16).flatmap(
        lambda m: st.tuples(st.integers(min_value=1, max_value=m), st.just(m))
    )
)
def test_coefficient_matches_the_multinomial_sum_at_random_orders(nm):
    n, m = nm
    assert coefficient(n, m) == _coefficient_by_multinomial(n, m)


def test_coefficient_domain_errors():
    with pytest.raises(ValueError):
        coefficient(0, 3)
    with pytest.raises(ValueError):
        coefficient(4, 3)


def test_closed_form_term_structure_at_three():
    terms = [
        coefficient(n, 3) * (total_diagrams(n) - bubble_diagrams(n)) for n in (1, 2, 3)
    ]
    assert terms == [-192, -576, 4320]
    assert sum(terms) == 3552
    assert connected_closed_form(3) == 3552


def test_closed_form_values():
    assert connected_closed_form(0) == 1
    assert connected_closed_form(1) == 4
    assert connected_closed_form(7) == connected_recurrence(7) == CONNECTED_7


def test_arques_walsh_hand_evaluation_at_one():
    # compositions of 2: (2,) gives 4!/2! = 12, (1,1) gives -(2!/1!)**2 = -4
    pre_division = math.factorial(4) // math.factorial(2) - (math.factorial(2) // 1) ** 2
    assert pre_division == 8
    assert arques_walsh(1) == pre_division // 2 ** 2 == 2


def test_arques_walsh_sequence():
    assert [arques_walsh(m) for m in range(9)] == DISTINCT


def test_routes_match_composition_sums_to_fourteen():
    for m in range(15):
        assert arques_walsh(m) == _arques_walsh_by_compositions(m)
    for m in range(1, 15):
        assert connected_closed_form(m) == _closed_form_by_coefficients(m)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=400))
def test_riccati_recurrence_matches_the_reciprocal_at_random_orders(m):
    assert counting._arques_walsh_sequence(m) == _arques_walsh_by_reciprocal(m)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=150))
def test_three_routes_agree_at_random_orders(m):
    assert (
        connected_recurrence(m)
        == connected_closed_form(m)
        == arques_walsh(m) * double_factorial(2 * m)
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=200))
def test_scaled_recurrence_matches_the_unscaled_one(m):
    reference = _connected_by_binomials(m)
    assert connected_recurrence(m) == reference[m]
    assert connected_sequence(m) == reference


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_walk_states_give_the_oracle_vacuum_tally(m):
    parts = _vacuum_parts_by_state(m)
    assert parts == enumerate_matchings(m).vacuum_parts
    assert parts[0] == counting._walk_counts(m)[m]


def test_forward_and_backward_walks_agree_to_thirty():
    for m in range(31):
        parts = _vacuum_parts_by_state(m)
        assert sum(parts) == math.factorial(2 * m + 1)
        assert parts[0] == counting._walk_counts(m)[m]


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=400))
def test_walk_matches_the_other_routes_at_random_orders(m):
    values, _ = _fresh_walk(m)
    assert values == connected_sequence(m)
    assert (
        values[m]
        == connected_closed_form(m)
        == arques_walsh(m) * double_factorial(2 * m)
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=200))
def test_walk_is_orbit_stabiliser_on_every_state(m):
    # V(r, u) = W(r, u)/u! = 2**u D(r, u) on the last diagonal r + u = m + 1,
    # (1, m) included, and the published count is W(1, m) = m! V(1, m)
    values, diagonal = _fresh_walk(m)
    assert len(diagonal) == m + 2
    for u, walks in enumerate(diagonal):
        assert walks == _distinct_by_state(m + 1 - u, u) << u
    assert values[m] == math.factorial(m) * diagonal[m]


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=1000).flatmap(
        lambda m: st.tuples(st.integers(min_value=0, max_value=m), st.just(m))
    )
)
def test_binomial_terms_over_the_group_order_are_odd_double_factorials(nm):
    # the paper's equivalence, term by term:
    # C(m,n) (2n)! (2(m-n))!! / (2m)!! = (2n-1)!!
    n, m = nm
    quotient, remainder = divmod(
        math.comb(m, n) * math.factorial(2 * n) * _even_product(2 * (m - n)),
        _even_product(2 * m),
    )
    assert remainder == 0
    assert quotient == math.prod(range(1, 2 * n, 2))


def test_distinct_connected_values():
    assert distinct_connected(0) == 1
    assert distinct_connected(1) == 2
    assert distinct_connected(4) == 271104 // 384 == 706


def test_three_path_agreement_to_twelve():
    for m in range(1, 13):
        by_recurrence = connected_recurrence(m)
        assert connected_closed_form(m) == by_recurrence
        assert arques_walsh(m) * double_factorial(2 * m) == by_recurrence


def test_three_path_report():
    report = verify_three_path(10)
    assert report.overall
    assert len(report.checks) == 20


def test_convolution_identity_to_thirty():
    report = verify_convolution(30)
    assert report.overall
    connected = connected_sequence(30)
    for m in range(1, 31):
        rebuilt = sum(
            math.comb(m, n) * math.factorial(2 * n) * connected[m - n]
            for n in range(m + 1)
        )
        assert rebuilt == math.factorial(2 * m + 1)


def test_divisibility_to_thirty():
    report = verify_divisibility(30)
    assert report.overall
    for m in range(1, 31):
        assert connected_recurrence(m) % double_factorial(2 * m) == 0


def test_coefficient_recursion_all_pairs_to_ten():
    report = verify_coefficient_recursion(10)
    assert report.overall
    assert len(report.checks) == 55
    # the diagonal convention entry is outside the recursion: no (s, m) with s = m+1
    assert all(
        int(c.params.split()[0].split("=")[1]) <= int(c.params.split()[1].split("=")[1])
        for c in report.checks
    )


def test_coefficient_recursion_minimal():
    report = verify_coefficient_recursion(1)
    assert report.overall
    assert len(report.checks) == 1


def test_fresh_reports_share_no_checks_list():
    first, second = counting.VerificationReport(), counting.VerificationReport()
    first.add("x", "", 1, 1)
    assert second.checks == []


def test_report_renders_past_the_int_str_digit_limit():
    # the CLI lifts the limit for its own process, so restore the default here
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        report = counting.VerificationReport()
        report.add("x", "", 10**5000, 10**5000)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(previous)
    (check,) = report.checks
    assert check.passed
    assert check.expected == check.actual == "1" + "0" * 5000


def test_rewrite_identities_by_hand():
    assert total_diagrams(1) == (math.factorial(1) * bubble_diagrams(2)) // (2 * math.factorial(2))
    assert total_diagrams(2) == (math.factorial(2) * bubble_diagrams(3)) // (2 * math.factorial(3))
    assert bubble_diagrams(3) == bubble_diagrams(1) * bubble_diagrams(3) // 2


def test_rewrite_identities_report():
    report = verify_rewrite_identities(12)
    assert report.overall
    assert len(report.checks) == 24


def test_verify_reports_reject_bad_range():
    for fn in (
        verify_convolution,
        verify_divisibility,
        verify_rewrite_identities,
        verify_three_path,
        verify_coefficient_recursion,
    ):
        with pytest.raises(ValueError):
            fn(0)


def test_exact_division_guard():
    assert counting._exact_div(384 * 706, 384, "check") == 706
    with pytest.raises(ExactnessError):
        counting._exact_div(7, 2, "check")


def test_negative_order_rejected():
    for fn in (total_diagrams, bubble_diagrams, connected_recurrence,
               connected_closed_form, arques_walsh, distinct_connected):
        with pytest.raises(ValueError):
            fn(-1)


@pytest.mark.parametrize("max_order", [4, 1000])
def test_count_table_rows(max_order):
    # the factorial columns are running products, so check every row
    rows = count_table(max_order)
    assert [r.m for r in rows] == list(range(max_order + 1))
    for r in rows:
        assert r.total == math.factorial(2 * r.m + 1)
        assert r.bubble == math.factorial(2 * r.m)
        assert r.distinct * _even_product(2 * r.m) == r.connected
    assert [r.distinct for r in rows[:5]] == [1, 2, 10, 74, 706]


def test_count_table_methods_agree():
    for method in ("walk", "recurrence", "closed-form", "arques-walsh", "all"):
        rows = count_table(6, method=method)
        assert [r.connected for r in rows] == connected_sequence(6)


def test_all_methods_name_the_walk_when_it_disagrees(monkeypatch):
    values, diagonal = _fresh_walk(5)
    monkeypatch.setattr(counting, "_walk_memo", (values[:5] + [values[5] + 3840], diagonal))
    with pytest.raises(MethodDisagreementError, match=r"order 5: walk=31345920, recurrence="):
        count_table(5, method="all")


@pytest.mark.parametrize(
    ("builder", "columns", "checks"),
    [
        # one pairing too many at order 5; route 1 is the three-path reference,
        # so both of its agreement rows fail
        (
            "connected_sequence",
            "recurrence=31342081, closed-form=31342080, arques-walsh=31342080",
            ["closed-form-agreement", "arques-walsh-agreement"],
        ),
        # one pairing too many at order 5
        (
            "_closed_form_sequence",
            "recurrence=31342080, closed-form=31342081, arques-walsh=31342080",
            ["closed-form-agreement"],
        ),
        # one distinct diagram too many at order 5, so (2m)!! = 3840 too many pairings
        (
            "_arques_walsh_sequence",
            "recurrence=31342080, closed-form=31342080, arques-walsh=31345920",
            ["arques-walsh-agreement"],
        ),
    ],
    ids=["recurrence", "closed-form", "arques-walsh"],
)
def test_a_fault_in_one_route_alone_is_caught(monkeypatch, builder, columns, checks):
    route = getattr(counting, builder)

    def planted(m_max):
        values = route(m_max)
        if m_max >= 5:
            values[5] += 1
        return values

    monkeypatch.setattr(counting, builder, planted)
    with pytest.raises(
        MethodDisagreementError,
        match=rf"^order 5: walk=31342080, {columns}$",
    ):
        count_table(5, method="all")
    failed = [c for c in verify_three_path(5).checks if not c.passed]
    assert [c.params for c in failed] == ["m=5"] * len(checks)
    assert [c.name for c in failed] == checks


def test_distinct_count_is_an_exact_division_of_the_walk(monkeypatch):
    values, diagonal = _fresh_walk(5)
    # off by one pairing: no longer a multiple of (2m)!! = 3840
    monkeypatch.setattr(counting, "_walk_memo", (values[:5] + [values[5] + 1], diagonal))
    with pytest.raises(ExactnessError):
        distinct_connected(5)
    with pytest.raises(ExactnessError):
        count_table(5)
    assert not verify_divisibility(5).overall


def test_errors_render_counts_past_the_int_str_digit_limit(monkeypatch):
    # a walk count of 5001 digits planted at order 5, under the default limit
    values, diagonal = _fresh_walk(5)
    monkeypatch.setattr(counting, "_walk_memo", (values[:5] + [10**5000 + 1], diagonal))
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ExactnessError, match=r": 10{4999}1 is not divisible by 3840$"):
            distinct_connected(5)
        with pytest.raises(MethodDisagreementError, match=r"order 5: walk=10{4999}1, rec"):
            count_table(5, method="all")
    finally:
        sys.set_int_max_str_digits(previous)


def test_count_table_rejects_unknown_method(monkeypatch):
    with pytest.raises(ValueError):
        count_table(3, method="guesswork")

    def refuse(m):
        raise AssertionError("ran the walk before checking the method")

    # refused before any work: a check placed after the routes would run the
    # walk first, and at this order the work before it takes well under a second
    monkeypatch.setattr(counting, "_walk_counts", refuse)
    with pytest.raises(_Refusal, match="unknown method"):
        count_table(1000, method="guesswork")


def test_results_are_reproducible():
    assert connected_sequence(15) == connected_sequence(15)
    assert [arques_walsh(m) for m in range(8)] == [arques_walsh(m) for m in range(8)]


def test_connected_sequence_returns_a_private_copy():
    sequence = connected_sequence(5)
    sequence[3] = 0
    sequence.append(-1)
    assert connected_sequence(5) == CONNECTED + [CONNECTED_5]
    assert distinct_connected(3) == 74


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=150), min_size=1, max_size=12))
def test_walk_memo_is_independent_of_query_order(orders):
    reference = count_table(max(orders), method="closed-form")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_walk_memo", ([1], [1, 0]))
        for m in orders:
            assert distinct_connected(m) == reference[m].distinct


def test_walk_growth_leaves_the_published_memo_unchanged(monkeypatch):
    monkeypatch.setattr(counting, "_walk_memo", ([1], [1, 0]))
    counting._walk_counts(10)
    published = counting._walk_memo
    snapshot = tuple(list(part) for part in published)
    counting._walk_counts(20)
    assert counting._walk_memo is not published
    assert published == snapshot


def test_first_call_in_a_fresh_process_does_not_deadlock(monkeypatch):
    # the sweep holds `_grow_lock`, which is not reentrant, so it must call
    # nothing that takes it again; a private lock keeps a hang in this test
    import threading

    monkeypatch.setattr(counting, "_grow_lock", threading.Lock())
    monkeypatch.setattr(counting, "_walk_memo", ([1], [1, 0]))
    results = {}

    def first_calls():
        results["distinct"] = distinct_connected(30)
        results["convolution"] = verify_convolution(10).overall

    worker = threading.Thread(target=first_calls, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "the first walk growth hung on its own lock"
    assert results == {
        "distinct": connected_sequence(30)[30] // double_factorial(60),
        "convolution": True,
    }


def test_walk_memo_grows_safely_under_threads(monkeypatch):
    import threading

    monkeypatch.setattr(counting, "_walk_memo", ([1], [1, 0]))
    distinct = {}

    def worker(k):
        distinct[k] = distinct_connected(40 + 3 * k)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(32)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    grown = counting._walk_memo

    # the memo holds exactly what one sweep from empty builds
    assert grown == _fresh_walk(40 + 3 * 31)
    fresh = connected_sequence(40 + 3 * 31)
    assert grown[0] == fresh
    for k in range(32):
        assert distinct[k] * double_factorial(2 * (40 + 3 * k)) == fresh[40 + 3 * k]
