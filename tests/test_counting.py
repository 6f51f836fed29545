"""Exact counting formulas: factorial totals, the Wick walk by state,
recurrence, closed form, Arques-Walsh sum, and the identity suites."""

import functools
import math
import sys
from collections import Counter
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feyncount import counting
from feyncount.compositions import (
    _Refusal, count_compositions, enumerate_compositions, multiset_multiplicity,
)
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
)
from feyncount.checks import (
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
def _walks_by_state(r, u):
    """W(r, u), the unscaled walk that may enter a fresh vertex at any of its
    2u slots, a reference used only by these tests."""
    if u == 0:
        return math.factorial(r)
    if r == 0:
        return 0
    return 2 * u * _walks_by_state(r + 1, u - 1) + r * _walks_by_state(r - 1, u)


def _fresh_walk(m):
    """The walk's distinct counts D(1, 0..m) and last diagonal, built from an empty memo."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_walk_memo", ([1], [1, 0]))
        counting._walk_counts(m)
        return counting._walk_memo


def _pairings(distinct):
    """(2m)!! * D(1, m) for each m, the connected counts the walk's memo stands for."""
    return [value * _even_product(2 * m) for m, value in enumerate(distinct)]


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


def _part_multisets(n, largest=None):
    """Every part multiset of n once, as part value -> multiplicity, larger
    parts first and none above `largest` (default n); n = 0 yields {} alone."""
    if n == 0:
        yield {}
        return
    for part in range(min(n, n if largest is None else largest), 0, -1):
        for mult in range(n // part, 0, -1):
            for rest in _part_multisets(n - part * mult, part - 1):
                yield {part: mult, **rest}


def _classificatory_sum_by_multisets(k):
    """`counting._classificatory_sum` with one guarded multiplicity per part
    multiset, a reference used only by these tests."""
    return sum(
        multiset_multiplicity(ms) * (-1) ** sum(ms.values())
        * math.prod(math.perm(2 * a, a) ** mult for a, mult in ms.items())
        for ms in _part_multisets(k)
    )


def _closed_form_by_coefficients(m):
    """The closed form as the paper writes it, a reference used only by these tests."""
    return sum(
        coefficient(n, m) * (math.factorial(2 * n + 1) - math.factorial(2 * n))
        for n in range(1, m + 1)
    )


def _convolution_by_binomials(m_max):
    """`verify_convolution` as sum_n binom(m, n) (2n)! c(m-n) on the walk's
    connected counts c(m) = (2m)!! D(1, m), a reference used only by these tests."""
    connected = _pairings(counting._walk_counts(m_max)[: m_max + 1])
    report = counting.VerificationReport()
    for m in range(1, m_max + 1):
        rebuilt = sum(
            math.comb(m, n) * math.factorial(2 * n) * connected[m - n] for n in range(m + 1)
        )
        report.add("convolution", f"m={m}", math.factorial(2 * m + 1), rebuilt)
    return report


def _coefficient_recursion_by_weights(m_max):
    """`verify_coefficient_recursion` over a table of weights n!/s! S(n-s) and
    binomial-factorial terms, a reference used only by these tests."""
    sums = [counting._classificatory_sum(k) for k in range(m_max + 1)]
    weight = {
        (s, n): math.perm(n, n - s) * sums[n - s]
        for s in range(1, m_max + 1)
        for n in range(s, m_max + 2)
    }
    report = counting.VerificationReport()
    for m in range(1, m_max + 1):
        for s in range(1, m + 1):
            recursed = -sum(
                math.comb(m + 1, m - n + 1) * math.factorial(2 * (m - n + 1)) * weight[s, n]
                for n in range(s, m + 1)
            )
            report.add("coefficient-recursion", f"s={s} m={m}", weight[s, m + 1], recursed)
    return report


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
    with pytest.raises(_Refusal, match=r"^only even non-negative arguments arise here, got 3$"):
        double_factorial(3)
    with pytest.raises(_Refusal, match=r"^k must be >= 0, got -2$"):
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


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=16))
@example(0)
def test_part_multisets_are_the_sorted_compositions(k):
    # the classificatory sum's terms: one per distinct sorted composition,
    # weighted by multiplicities that count the whole composition stream;
    # at k = 0 the one term is {}, the empty composition
    multisets = list(_part_multisets(k))
    sorted_parts = [tuple(sorted(Counter(ms).elements())) for ms in multisets]
    assert len(set(sorted_parts)) == len(sorted_parts)
    assert set(sorted_parts) == {tuple(sorted(c)) for c in enumerate_compositions(k)}
    assert sum(multiset_multiplicity(ms) for ms in multisets) == count_compositions(k)


def test_classificatory_sum_matches_the_sum_over_part_multisets():
    for k in range(26):
        assert counting._classificatory_sum(k) == _classificatory_sum_by_multisets(k), k


def test_classificatory_sum_is_the_walks_distinct_count_scaled():
    # S(k) = g(k) = -2**k a(k) and a(k) = D(k - 1): the paper's classificatory
    # sum against the walk, past the coefficient suite's cap of 20
    for k in range(1, 36):
        assert counting._classificatory_sum(k) == -(2**k) * distinct_connected(k - 1), k


def test_coefficient_domain_errors():
    with pytest.raises(_Refusal, match=r"^n must be >= 1, got 0$"):
        coefficient(0, 3)
    with pytest.raises(_Refusal, match=r"^need 1 <= n <= m, got n=4, m=3$"):
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
    assert parts[0] == _even_product(2 * m) * counting._walk_counts(m)[m]


def test_forward_and_backward_walks_agree_to_thirty():
    for m in range(31):
        parts = _vacuum_parts_by_state(m)
        assert sum(parts) == math.factorial(2 * m + 1)
        assert parts[0] == _even_product(2 * m) * counting._walk_counts(m)[m]


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=400))
def test_walk_matches_the_other_routes_at_random_orders(m):
    values, _ = _fresh_walk(m)
    connected = _pairings(values)
    assert connected == connected_sequence(m)
    assert (
        connected[m]
        == connected_closed_form(m)
        == arques_walsh(m) * double_factorial(2 * m)
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=200))
def test_walk_is_orbit_stabiliser_on_every_state(m):
    # W(r, u) = r! 2**u u! E(r, u) on the last diagonal r + u = m + 1, (1, m)
    # included, and the published distinct count is E(1, m) = D(1, m)
    values, diagonal = _fresh_walk(m)
    assert len(diagonal) == m + 2
    # the boundary rows E(r, 0) = 1 and E(0, u) = 0
    assert (diagonal[0], diagonal[m + 1]) == (1, 0)
    for u, scaled in enumerate(diagonal):
        r = m + 1 - u
        assert (scaled << u) * math.factorial(r) * math.factorial(u) == _walks_by_state(r, u)
    assert values[m] == diagonal[m]


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


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=40).flatmap(
        lambda m_max: st.tuples(st.just(m_max), st.integers(min_value=0, max_value=m_max))
    ),
    st.integers(min_value=1, max_value=12).flatmap(
        lambda m_max: st.tuples(st.just(m_max), st.integers(min_value=0, max_value=m_max))
    ),
    st.integers(min_value=-2, max_value=2),
)
def test_suites_report_the_unscaled_rows_around_a_planted_fault(convolution, recursion, delta):
    # every row, passing or failing, must read as the binomial and weight-table
    # forms print it, whatever scale the suites sum on
    values, diagonal = _fresh_walk(40)
    classificatory = counting._classificatory_sum
    with pytest.MonkeyPatch.context() as mp:
        m_max, order = convolution
        planted = values[:order] + [values[order] + delta] + values[order + 1 :]
        mp.setattr(counting, "_walk_memo", (planted, diagonal))
        report = verify_convolution(m_max)
        assert report.checks == _convolution_by_binomials(m_max).checks
        assert report.overall == (delta == 0)

        m_max, order = recursion
        mp.setattr(
            counting, "_classificatory_sum", lambda k: classificatory(k) + delta * (k == order)
        )
        report = verify_coefficient_recursion(m_max)
        assert report.checks == _coefficient_recursion_by_weights(m_max).checks
        assert report.overall == (delta == 0)


def test_fresh_reports_share_no_checks_list():
    first, second = counting.VerificationReport(), counting.VerificationReport()
    first.add("x", "", 1, 1)
    assert second.checks == []


def test_extend_appends_the_other_reports_checks_in_order():
    first, second = counting.VerificationReport(), counting.VerificationReport()
    first.add("a", "m=1", 1, 1)
    second.add("b", "m=2", 2, 2)
    second.add("c", "m=3", 3, 3)
    theirs = list(second.checks)
    first.extend(second)
    assert [check.name for check in first.checks] == ["a", "b", "c"]
    assert first.checks[1:] == theirs
    # the other report is left as it was, and its later checks stay its own
    assert second.checks == theirs
    second.add("d", "m=4", 4, 4)
    assert len(first.checks) == 3


def test_extend_makes_overall_cover_the_checks_of_both():
    passing, also_passing, failing = (counting.VerificationReport() for _ in range(3))
    passing.add("a", "", 1, 1)
    also_passing.add("b", "", 2, 2)
    failing.add("c", "", 3, 4)
    passing.extend(also_passing)
    assert passing.overall
    passing.extend(failing)
    assert not passing.overall
    # a failing report stays failing whatever passing checks it takes on
    failing.extend(also_passing)
    assert not failing.overall


def test_report_renders_past_the_int_str_digit_limit(default_digit_limit):
    report = counting.VerificationReport()
    report.add("x", "", 10**5000, 10**5000)
    assert sys.get_int_max_str_digits() == default_digit_limit
    (check,) = report.checks
    assert check.passed
    assert check.expected == check.actual == "1" + "0" * 5000


def test_failing_rewrite_row_renders_past_the_int_str_digit_limit(
    monkeypatch, default_digit_limit
):
    # a bubble count planted one too high leaves every total-rewrite division
    # inexact; at n = 600 its numerator has more than 4300 digits
    bubble = counting.bubble_diagrams
    monkeypatch.setattr(counting, "bubble_diagrams", lambda n: bubble(n) + (n > 1))
    report = verify_rewrite_identities(600)
    rows = [check for check in report.checks if check.name == "total-rewrite"]
    assert len(rows) == 600 and not any(check.passed for check in rows)
    numerator = math.factorial(600) * (bubble(601) + 1)
    assert numerator > 10**4300
    assert rows[-1].actual == f"{Decimal(numerator)}/{Decimal(2 * math.factorial(601))}"


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


def _plant_at_five(monkeypatch, builder, at_five):
    """Patch the module's `builder` so that its order-5 value becomes `at_five(value)`."""
    route = getattr(counting, builder)

    def planted(m_max):
        values = route(m_max)
        if m_max >= 5:
            values[5] = at_five(values[5])
        return values

    monkeypatch.setattr(counting, builder, planted)


def test_exact_division_guard(monkeypatch):
    # `count_table` divides every route's column by (2m)!!, route 2's included
    assert count_table(4, method="closed-form")[4].distinct == 271104 // 384 == 706
    _plant_at_five(monkeypatch, "_closed_form_sequence", lambda count: count + 1)
    with pytest.raises(
        ExactnessError, match=r"^connected count at order 5: 31342081 is not divisible by 3840$"
    ):
        count_table(5, method="closed-form")


def test_coefficient_refuses_a_negative_order_before_its_range():
    with pytest.raises(_Refusal) as exc:
        coefficient(1, -1)
    assert str(exc.value) == "perturbation order must be >= 0, got -1"


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


@pytest.mark.parametrize("max_order", [0, 1, 60])
def test_count_table_methods_agree(max_order):
    # both columns of every route: connected = (2m)!! * distinct in each row,
    # whether the route divides or multiplies, and every row is the walk's;
    # orders 0 and 1 are the rows where (2m)!! is still 1 and 2
    walk = count_table(max_order)
    assert [r.connected for r in walk] == connected_sequence(max_order)
    assert all(r.connected == _even_product(2 * r.m) * r.distinct for r in walk)
    for method in ("recurrence", "closed-form", "arques-walsh", "all"):
        assert count_table(max_order, method=method) == walk, method


@settings(max_examples=30, deadline=None)
@given(max_order=st.integers(0, 60), method=st.sampled_from(counting._COUNT_METHODS))
def test_count_table_is_rebuilt_from_the_distinct_column(max_order, method):
    # the three columns `counts` renders from the distinct one, as integers
    rows = [
        counting.CountRow(m, math.factorial(2 * m + 1), math.factorial(2 * m),
                          distinct * _even_product(2 * m), distinct)
        for m, distinct in enumerate(counting._distinct_column(max_order, method))
    ]
    assert count_table(max_order, method=method) == rows


@pytest.mark.parametrize("method", counting._COUNT_METHODS)
def test_distinct_column_is_a_new_list_of_its_orders_alone(monkeypatch, method):
    # the walk's memo is longer than the column asked for, and is not handed out
    monkeypatch.setattr(counting, "_walk_memo", ([1], [1, 0]))
    assert distinct_connected(8) == DISTINCT[8]
    column = counting._distinct_column(5, method)
    assert column == DISTINCT[:6]
    column[3] = 0
    column.append(-1)
    assert [distinct_connected(m) for m in range(9)] == DISTINCT
    assert counting._distinct_column(5, method) == DISTINCT[:6]


# each route's builder on the module, by its `--method` name
_BUILDERS = {
    "walk": "_walk_counts",
    "recurrence": "connected_sequence",
    "closed-form": "_closed_form_sequence",
    "arques-walsh": "_arques_walsh_sequence",
}


def _count_builder_calls(monkeypatch):
    """Wrap each route builder on the module; returns the calls per method name."""
    calls = dict.fromkeys(_BUILDERS, 0)
    for route, name in _BUILDERS.items():
        builder = getattr(counting, name)

        def counted(m_max, route=route, builder=builder):
            calls[route] += 1
            return builder(m_max)

        monkeypatch.setattr(counting, name, counted)
    return calls


@pytest.mark.parametrize("method", [*_BUILDERS, "all"])
def test_count_table_builds_each_route_once(monkeypatch, method):
    calls = _count_builder_calls(monkeypatch)
    count_table(12, method=method)
    assert calls == {route: int(method in (route, "all")) for route in _BUILDERS}


def test_three_path_builds_each_route_once(monkeypatch):
    # routes 1-3; the walk is checked by the convolution suite
    calls = _count_builder_calls(monkeypatch)
    assert verify_three_path(12).overall
    assert calls == {"walk": 0, "recurrence": 1, "closed-form": 1, "arques-walsh": 1}


def test_all_methods_name_the_walk_when_it_disagrees(monkeypatch):
    values, diagonal = _fresh_walk(5)
    # one distinct diagram too many, so (2m)!! = 3840 too many pairings
    monkeypatch.setattr(counting, "_walk_memo", (values[:5] + [values[5] + 1], diagonal))
    with pytest.raises(MethodDisagreementError, match=r"order 5: walk=31345920, recurrence="):
        count_table(5, method="all")
    failed = [c for c in verify_convolution(5).checks if not c.passed]
    assert [c.params for c in failed] == ["m=5"]


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
    _plant_at_five(monkeypatch, builder, lambda value: value + 1)
    with pytest.raises(
        MethodDisagreementError,
        match=rf"^order 5: walk=31342080, {columns}$",
    ):
        count_table(5, method="all")
    failed = [c for c in verify_three_path(5).checks if not c.passed]
    assert [c.params for c in failed] == ["m=5"] * len(checks)
    assert [c.name for c in failed] == checks


@pytest.mark.parametrize("method", ["walk", "arques-walsh"])
def test_a_fault_in_a_distinct_route_shows_in_both_of_its_columns(monkeypatch, method):
    # the walk and route 3 build the distinct count, so one extra diagram at
    # order 5 is (2m)!! = 3840 extra pairings, not an inexact division
    if method == "walk":
        values, diagonal = _fresh_walk(5)
        monkeypatch.setattr(counting, "_walk_memo", (values[:5] + [values[5] + 1], diagonal))
    else:
        _plant_at_five(monkeypatch, "_arques_walsh_sequence", lambda value: value + 1)
    rows = count_table(5, method=method)
    assert [(r.connected, r.distinct) for r in rows[4:]] == [(271104, 706), (31345920, 8163)]


def test_distinct_count_is_an_exact_division_of_the_recurrence(monkeypatch):
    # off by one pairing: no longer a multiple of (2m)!! = 3840
    _plant_at_five(monkeypatch, "connected_sequence", lambda count: count + 1)
    with pytest.raises(ExactnessError):
        count_table(5, method="recurrence")
    assert not verify_divisibility(5).overall


def test_errors_render_counts_past_the_int_str_digit_limit(monkeypatch, default_digit_limit):
    # a route 1 count of 5001 digits planted at order 5, under the default limit
    _plant_at_five(monkeypatch, "connected_sequence", lambda count: 10**5000 + 1)
    with pytest.raises(
        ExactnessError,
        match=r"^connected count at order 5: 10{4999}1 is not divisible by 3840$",
    ):
        count_table(5, method="recurrence")
    with pytest.raises(
        MethodDisagreementError, match=r"order 5: walk=31342080, recurrence=10{4999}1, "
    ):
        count_table(5, method="all")


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
    assert _pairings(grown[0]) == fresh
    for k in range(32):
        assert distinct[k] * double_factorial(2 * (40 + 3 * k)) == fresh[40 + 3 * k]
