"""Exact big-integer counts of Feynman diagrams per perturbation order.

Four routes to the connected count are implemented:

* a walk over the Wick contractions counted by state, not by pairing
  (small-by-big products only, the default),
* a subtraction recurrence peeling vacuum bubbles off the factorial
  total (O(m^2) big-integer products),
* a closed form summing signed composition-indexed coefficients against
  (total - bubble) differences,
* the Arques-Walsh rooted-map sequence, which yields the count of
  *distinct* connected diagrams directly.

The walk is the oracle's contraction order folded into states (r, u):
r queued slots still to contract and u vertices not yet reached.  Its
recurrence comes from the pairing model, not from the bubble series the
other three routes share, so agreement with it is an independent check.

Neither composition sum is expanded over its 2**m compositions.  The
closed form's is a coefficient of a reciprocal power series, evaluated by
an O(m^2) convolution recurrence.  The Arques-Walsh sum is a coefficient
of the solution of a Riccati equation, evaluated by its O(m^2) quadratic
recurrence, which reads no (2k-1)!! series.  `coefficient` keeps an
explicit sum, the paper's classificatory one: it groups the compositions
by the parts they use and sums over those p(m - n) part multisets, never
reading the closed form's series.

The recurrence and the closed form both run on c(m)/m!, the connected
count divided by m!: the binomials of the recurrence and the falling
factorials of the closed form cancel, and the operands are about half the
size.  The walk likewise runs on V(r, u) = W(r, u)/u!, where its 2u
multiplier becomes a doubling.  All three multiply back by m!, the walk as
c(m) = m! V(1, m), so callers only see the counts.

The walk's counts are memoised once per process in a write-once memo, so
a per-order query after the first is a lookup.  The other builders keep no
memo and share no table: each steps its own factorial products, and single
factorials come from `math.factorial`, so agreement between the routes
still compares separate computations.

All arithmetic is exact; counts are plain Python integers and must never
pass through floating point.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple

from .compositions import _Refusal, _part_multisets, multiset_multiplicity

class ExactnessError(Exception):
    """An exact-division guarantee failed; this signals an implementation bug."""


class MethodDisagreementError(Exception):
    """Two counting methods produced different values for the same order."""


# The walk's counts are kept in a process-global memo, the lock's only charge.
# Readers take the current memo without locking; growth builds an extended
# copy under the lock and swaps the reference, so the memo, once published,
# is never written again and a growth cut short leaves the old one intact.
_grow_lock = threading.Lock()
# c(0..M) and the walk's last diagonal s = M + 1, of V = W/u!; see `_walk_counts`.
_walk_memo = ([1], [1, 0])


def _check_order(m: int) -> None:
    if m < 0:
        raise _Refusal(f"perturbation order must be >= 0, got {m}")


def _exact_div(numerator: int, denominator: int, what: str) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ExactnessError(
            f"{what}: {_render(numerator)} is not divisible by {_render(denominator)}"
        )
    return quotient


def total_diagrams(m: int) -> int:
    """Total number of order-m diagrams, connected or not: (2m+1)!."""
    _check_order(m)
    return math.factorial(2 * m + 1)


def bubble_diagrams(m: int) -> int:
    """Number of order-m vacuum (bubble) diagrams: (2m)!."""
    _check_order(m)
    return math.factorial(2 * m)


def double_factorial(k: int) -> int:
    """k!! = 2*4*...*k for even k >= 0; the symmetry-group order at k = 2m."""
    if k < 0 or k % 2:
        raise _Refusal(f"only even non-negative arguments arise here, got {k}")
    half = k // 2
    return (1 << half) * math.factorial(half)


def _walk_counts(m: int) -> list[int]:
    """The walk's memo of connected counts c(0..M), grown to M >= m.

    The oracle's walk contracts its queued slots in turn, starting from
    X's.  How a partial walk can finish depends only on r, the queued
    slots still to contract, and u, the vertices not yet reached.
    Contracting into one of the 2u slots of an unreached vertex leads to
    (r+1, u-1), and into one of the r free slots already reached to
    (r-1, u).  So
    W(r, u) = 2u W(r+1, u-1) + r W(r-1, u), with W(r, 0) = r! and
    W(0, u) = 0 for u > 0, as the walk then closed X's component short
    of some vertex; and c(m) = W(1, m).  The sweep runs on
    V(r, u) = W(r, u)/u!, where the 2u becomes a doubling:
    V(r, u) = 2 V(r+1, u-1) + r V(r-1, u), V(r, 0) = r!, and
    c(m) = m! V(1, m).  It takes one diagonal s = r + u at a time, kept
    as the list of V(s-u, u) by u.  The memo is returned, not a copy:
    callers must not change it.
    """
    global _walk_memo
    values, _ = _walk_memo
    if m < len(values):
        return values
    with _grow_lock:
        values, diagonal = _walk_memo
        if m >= len(values):
            values, diagonal = list(values), list(diagonal)
            for s in range(len(values) + 1, m + 2):
                # in place: diagonal[u] turns from V(s-1-u, u) into V(s-u, u);
                # diagonal[0] is (s-1)!, so m! comes from the sweep itself
                fact = diagonal[0]
                walks = diagonal[0] = fact * s
                for u in range(1, s):
                    walks = (walks << 1) + (s - u) * diagonal[u]
                    diagonal[u] = walks
                diagonal.append(0)
                values.append(fact * walks)
            _walk_memo = (values, diagonal)
    return values


def connected_sequence(m_max: int) -> list[int]:
    """Connected counts [order 0 .. m_max] by the bubble-subtraction recurrence.

    Order m starts from the factorial total and removes every way of
    detaching a non-empty vacuum part: binom(m, n) time-argument choices
    times (2n)! bubbles times the connected count of what remains.
    Dividing (2m+1)! = sum_n binom(m, n) (2n)! c(m-n) through by m! gives
    d(m) = (2m+1)!/m! - sum_{n=1..m} (2n)!/n! * d(m-n) on d = c/m!, with no
    binomials.  Each call builds the sequence afresh and returns a new list.
    """
    _check_order(m_max)
    kernel = [1]  # (2n)!/n!
    for n in range(1, m_max + 1):
        kernel.append(kernel[-1] * (4 * n - 2))
    scaled, connected, fact = [1], [1], 1
    for m in range(1, m_max + 1):
        # The scale is m! and not (2m)!!.  Over (2m)!! each term would become
        # (2n-1)!! times the distinct count at m-n, which is the paper's identity:
        # this loop would then be, term for term, the reciprocal long division that
        # the tests keep as the Arques-Walsh reference.  Over m! the operands stay
        # 2**m times those, built from the 4n-2 kernel instead.
        detachable = sum(kernel[n] * scaled[m - n] for n in range(1, m + 1))
        scaled.append(kernel[m] * (2 * m + 1) - detachable)  # (2m+1)!/m! - detachable
        fact *= m
        connected.append(fact * scaled[m])
    return connected


def connected_recurrence(m: int) -> int:
    """Connected order-m diagram count via the bubble-subtraction recurrence."""
    return connected_sequence(m)[m]


def _classificatory_sum(k: int) -> int:
    """The part-multiset sum of `coefficient` at m - n = k, without m!/n!.

    Over part multisets {a: mu_a} of k, the sum of
    multiset_multiplicity * (-1)**(sum mu_a) * prod_a ((2a)!/a!)**mu_a.
    """
    if not k:
        return 1
    ratio = [1]  # (2a)!/a!
    for a in range(1, k + 1):
        ratio.append(ratio[-1] * (4 * a - 2))
    total = 0
    for parts in _part_multisets(k):
        term = multiset_multiplicity(parts) * math.prod(
            ratio[a] ** mult for a, mult in parts.items()
        )
        total += -term if sum(parts.values()) & 1 else term
    return total


def coefficient(n: int, m: int) -> int:
    """Signed weight of the (total - bubble) difference at order n <= m.

    Over compositions (a_1, ..., a_i) of m - n it is the sum of
    (-1)**i * prod_j (2 a_j)! * m! / (a_1! ... a_i! n!), the chain of
    binomials collapsed into one multinomial.  Equals 1 when n == m.
    The multinomial splits as m!/n! * prod_j (2 a_j)!/a_j!, so the one big
    division is m!/n!, taken once per call.  A term depends only on the
    parts a composition uses, so the sum runs over the part multisets of
    m - n, the paper's classificatory sum (`_classificatory_sum`).
    """
    _check_order(m)
    if not 1 <= n <= m:
        raise _Refusal(f"need 1 <= n <= m, got n={n}, m={m}")
    return math.perm(m, m - n) * _classificatory_sum(m - n)


def _closed_form_sequence(m_max: int) -> list[int]:
    """Connected counts [order 0 .. m_max] by the signed closed form.

    The composition sum in `coefficient(n, m)` factors as m!/n! * g(m-n),
    where g(k) sums (-1)**parts * prod_j (2 a_j)!/a_j! over compositions
    of k.  Those g(k) are the coefficients of 1 / (1 + sum_a (2a)!/a! x**a),
    so g(0) = 1 and g(k) = -sum_{a=1..k} (2a)!/a! * g(k-a).  As
    (2n+1)! - (2n)! = 2n (2n)!, the count over m! is then the convolution
    c(m)/m! = sum_{n=1..m} g(m-n) * 2n (2n)!/n!.
    """
    _check_order(m_max)
    ratio = [1]  # (2a)!/a!
    for a in range(1, m_max + 1):
        ratio.append(ratio[-1] * (4 * a - 2))
    g = [1]
    for k in range(1, m_max):
        g.append(-sum(ratio[a] * g[k - a] for a in range(1, k + 1)))
    excess = [2 * n * ratio[n] for n in range(m_max + 1)]  # ((2n+1)! - (2n)!)/n!
    connected, fact = [1], 1
    for m in range(1, m_max + 1):
        scaled = sum(g[m - n] * excess[n] for n in range(1, m + 1))
        fact *= m
        connected.append(fact * scaled)
    return connected


def connected_closed_form(m: int) -> int:
    """Connected order-m diagram count from the signed coefficient expansion."""
    return _closed_form_sequence(m)[m]


def _arques_walsh_sequence(m_max: int) -> list[int]:
    """Distinct connected counts [order 0 .. m_max] by the Arques-Walsh sequence.

    The paper's sum runs over compositions of m+1 of (-1)**(parts-1) times
    prod_j (2 a_j)!/a_j!, divided by 2**(m+1).  As (2a)!/a! = 2**a (2a-1)!!,
    the division cancels termwise, and the signed sum is the coefficient
    a(m+1) of A = 1 - 1/F, with F = sum_{k>=0} (2k-1)!! x**k.  Since
    (2k-1)!! = (2k-1) (2k-3)!!, F = 1 + xF + 2x**2 F', and putting
    F = 1/(1 - A) turns that into Riccati's equation
    2x**2 A' = A - A**2 - x + xA (Arques and Beraud, Discrete Math. 215,
    2000).  Its coefficients give a(1) = 1 and, for n >= 2,
    a(n) = (2n-3) a(n-1) + sum_{k=1..n-1} a(k) a(n-k),
    so the sequence is built from itself alone.
    """
    _check_order(m_max)
    a = [0, 1]
    for n in range(2, m_max + 2):
        a.append((2 * n - 3) * a[n - 1] + sum(a[k] * a[n - k] for k in range(1, n)))
    return a[1:]


def arques_walsh(m: int) -> int:
    """Distinct connected order-m diagram count by the Arques-Walsh sum."""
    return _arques_walsh_sequence(m)[m]


def distinct_connected(m: int) -> int:
    """Connected order-m diagrams up to the (2m)!! relabeling symmetry.

    Exact division of the walk's count, read from its memo, by the
    symmetry-group order; a remainder raises ExactnessError.
    """
    _check_order(m)
    return _exact_div(
        _walk_counts(m)[m], double_factorial(2 * m), "connected count over (2m)!!"
    )


# Each route's builder of the connected counts c(0..M), by its `--method`
# name, in the order the command line lists them.  An entry looks its route up
# when called, so a route patched on this module is the one the table runs.
_ROUTES = {
    "walk": lambda m_max: _walk_counts(m_max)[: m_max + 1],
    "recurrence": lambda m_max: connected_sequence(m_max),
    "closed-form": lambda m_max: _closed_form_sequence(m_max),
    "arques-walsh": lambda m_max: [
        a * double_factorial(2 * m) for m, a in enumerate(_arques_walsh_sequence(m_max))
    ],
}
_COUNT_METHODS = (*_ROUTES, "all")


class CountRow(namedtuple("CountRow", "m total bubble connected distinct")):
    """One order's worth of counts for tabular output."""

    __slots__ = ()


def count_table(max_order: int, *, method: str = "walk") -> list[CountRow]:
    """Rows (m, total, bubble, connected, distinct) for 0 <= m <= max_order.

    `method` is the `--method` name of the route to the connected column,
    or "all", which computes every route, keeps the first one's column,
    and raises MethodDisagreementError on any mismatch.
    """
    _check_order(max_order)
    if method not in _COUNT_METHODS:
        raise _Refusal(f"unknown method: {method!r}")
    names = list(_ROUTES) if method == "all" else [method]
    columns = {name: _ROUTES[name](max_order) for name in names}
    rows = []
    bubble, group = 1, 1  # (2m)!, and (2m)!! the relabelling group's order
    for m, value in enumerate(columns[names[0]]):
        if any(column[m] != value for column in columns.values()):
            raise MethodDisagreementError(
                f"order {m}: "
                + ", ".join(f"{name}={_render(column[m])}" for name, column in columns.items())
            )
        distinct = _exact_div(value, group, f"connected count at order {m}")
        total = bubble * (2 * m + 1)
        rows.append(CountRow(m, total, bubble, value, distinct))
        bubble = total * (2 * m + 2)
        group *= 2 * m + 2
    return rows


def _render(value) -> str:
    """Exact text of a check value, or of a count in an error message.

    Integers go through `Decimal`, which prints the same digits as `str`
    but is not subject to CPython's int -> str digit limit.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        # imported here so that processes building no report never load it
        from decimal import Decimal

        return str(Decimal(value))
    return str(value)


class Check(namedtuple("Check", "name params expected actual passed")):
    """A single named comparison with exact decimal rendering."""

    __slots__ = ()


class VerificationReport:
    """Accumulates named exact-equality checks; overall passes iff all do."""

    def __init__(self) -> None:
        self.checks: list[Check] = []

    def add(self, name: str, params: str, expected, actual) -> None:
        self.checks.append(
            Check(name, params, _render(expected), _render(actual), expected == actual)
        )

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    @property
    def overall(self) -> bool:
        return all(check.passed for check in self.checks)


def _check_suite_order(m_max: int) -> None:
    if m_max < 1:
        raise _Refusal(f"m_max must be >= 1, got {m_max}")


def verify_convolution(m_max: int) -> VerificationReport:
    """Check (2m+1)! = sum_n binom(m,n) (2n)! * connected(m-n) for 1 <= m <= m_max.

    The connected counts are the walk's.  The recurrence inverts this
    identity, so checked against it the rows would hold by construction;
    the walk derives its counts from the pairing model instead, so these
    rows test it against the vacuum split of the (2m+1)! pairings.
    """
    _check_suite_order(m_max)
    connected = _walk_counts(m_max)
    bubbles = [math.factorial(2 * n) for n in range(m_max + 1)]
    report = VerificationReport()
    for m in range(1, m_max + 1):
        rebuilt = sum(
            math.comb(m, n) * bubbles[n] * connected[m - n] for n in range(m + 1)
        )
        report.add("convolution", f"m={m}", math.factorial(2 * m + 1), rebuilt)
    return report


def verify_coefficient_recursion(m_max: int) -> VerificationReport:
    """Check the coefficient recursion for every pair 1 <= s <= m <= m_max.

    The direct evaluation of the weight at (s, m+1) must equal
    -sum_{n=s}^{m} binom(m+1, m-n+1) * (2(m-n+1))! * weight(s, n).
    Failing pairs are reported, not raised.
    """
    _check_suite_order(m_max)
    # each weight either side reads is evaluated directly, as `coefficient`
    # does, with each classificatory sum taken once per n - s
    sums = [_classificatory_sum(k) for k in range(m_max + 1)]
    weight = {
        (s, n): math.perm(n, n - s) * sums[n - s]
        for s in range(1, m_max + 1)
        for n in range(s, m_max + 2)
    }
    report = VerificationReport()
    for m in range(1, m_max + 1):
        for s in range(1, m + 1):
            recursed = -sum(
                math.comb(m + 1, m - n + 1) * math.factorial(2 * (m - n + 1)) * weight[s, n]
                for n in range(s, m + 1)
            )
            report.add("coefficient-recursion", f"s={s} m={m}", weight[s, m + 1], recursed)
    return report


def verify_rewrite_identities(m_max: int) -> VerificationReport:
    """Check the factorial rewrites used to bridge the two counting formulas.

    For 1 <= n <= m_max: total(n) = (n!/2) * bubble(n+1)/(n+1)!  and
    bubble(n) = bubble(1) * bubble(n) / 2, both with exact division.
    """
    _check_suite_order(m_max)
    report = VerificationReport()
    for n in range(1, m_max + 1):
        numerator = math.factorial(n) * bubble_diagrams(n + 1)
        denominator = 2 * math.factorial(n + 1)
        quotient, remainder = divmod(numerator, denominator)
        report.add(
            "total-rewrite",
            f"n={n}",
            total_diagrams(n),
            quotient if remainder == 0 else f"{numerator}/{denominator}",
        )
        halved, remainder = divmod(bubble_diagrams(1) * bubble_diagrams(n), 2)
        report.add(
            "bubble-rewrite",
            f"n={n}",
            bubble_diagrams(n),
            halved if remainder == 0 else "non-integer",
        )
    return report


def verify_three_path(m_max: int) -> VerificationReport:
    """Check recurrence = closed form = (2m)!! * Arques-Walsh for 1 <= m <= m_max."""
    _check_suite_order(m_max)
    connected = _ROUTES["recurrence"](m_max)
    columns = {name: _ROUTES[name](m_max) for name in ("closed-form", "arques-walsh")}
    report = VerificationReport()
    for m in range(1, m_max + 1):
        for name, column in columns.items():
            report.add(f"{name}-agreement", f"m={m}", connected[m], column[m])
    return report


def verify_divisibility(m_max: int) -> VerificationReport:
    """Check that (2m)!! divides the walk's connected count for 1 <= m <= m_max.

    The walk counts pairings, so this is orbit-stabiliser on the pairing
    model: every orbit of the relabeling group has (2m)!! members.
    """
    _check_suite_order(m_max)
    connected = _walk_counts(m_max)
    report = VerificationReport()
    for m in range(1, m_max + 1):
        remainder = connected[m] % double_factorial(2 * m)
        report.add("divisibility", f"m={m}", 0, remainder)
    return report
