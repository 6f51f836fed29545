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
size; both multiply back by m!.  The walk runs on E(r, u) = W(r, u)/(r! 2**u u!):
its 2u multiplier drops out, each operand is r! smaller than its state's
distinct count D(r, u) = r! E(r, u), and E(1, m) = D(1, m) is the distinct
count.  It and the Arques-Walsh route return distinct counts, routes 1
and 2 connected counts.  One loop compares the routes on the connected
scale and divides a connected column by (2m)!!, where a remainder is
possible.  `counts` reads only that distinct column; `count_table`, the
library's four-column table, multiplies it back by (2m)!!.

The walk's distinct counts are memoised once per process in a write-once
memo, so a per-order query after the first is a lookup.  The other
builders keep no memo and share no table: each steps its own factorial
products, and single factorials come from `math.factorial`.  They do not
derive separate series, though.  With a(n) the Arques-Walsh sequence, the
recurrence's c(m)/m! is 2**m a(m+1), and the closed form's weights are
g(k) = -2**k a(k) for k >= 1.  So the three compute one series by three
algorithms: a long division, a reciprocal with a convolution, and a
quadratic recurrence.  Only the walk, and the oracle's exhaustive census,
derive the counts independently of that series.

All arithmetic is exact; counts are plain Python integers and must never
pass through floating point.  `Check` and `VerificationReport` are the
records that `verify`'s suites, in `feyncount.checks`, fill.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple

from .compositions import _COUNT_METHODS, _Refusal, _at_least, _render

class ExactnessError(ValueError):
    """An exact-division guarantee failed; this signals an implementation bug."""


class MethodDisagreementError(ValueError):
    """Two counting methods produced different values for the same order."""


# The walk's counts are kept in a process-global memo, the lock's only charge.
# Readers take the current memo without locking; growth builds an extended
# copy under the lock and swaps the reference, so the memo, once published,
# is never written again and a growth cut short leaves the old one intact.
_grow_lock = threading.Lock()
# The distinct counts D(1, 0..M) and the walk's last diagonal, in the E scale
# of `_walk_counts`.
_walk_memo = ([1], [1, 0])


def total_diagrams(m: int) -> int:
    """Total number of order-m diagrams, connected or not: (2m+1)!."""
    _at_least(m, 0, "perturbation order")
    return math.factorial(2 * m + 1)


def bubble_diagrams(m: int) -> int:
    """Number of order-m vacuum (bubble) diagrams: (2m)!."""
    _at_least(m, 0, "perturbation order")
    return math.factorial(2 * m)


def double_factorial(k: int) -> int:
    """k!! = 2*4*...*k for even k >= 0; the symmetry-group order at k = 2m."""
    _at_least(k, 0, "k")
    if k % 2:
        raise _Refusal(f"only even non-negative arguments arise here, got {_render(k)}")
    half = k // 2
    return (1 << half) * math.factorial(half)


def _walk_counts(m: int) -> list[int]:
    """The walk's memo of distinct counts D(1, 0..M), grown to M >= m.

    The oracle's walk contracts its queued slots in turn, starting from
    X's.  How a partial walk can finish depends only on r, the queued
    slots still to contract, and u, the vertices not yet reached.
    Contracting into one of the 2u slots of an unreached vertex leads to
    (r+1, u-1), and into one of the r free slots already reached to
    (r-1, u).  So
    W(r, u) = 2u W(r+1, u-1) + r W(r-1, u), with W(r, 0) = r! and
    W(0, u) = 0 for u > 0, as the walk then closed X's component short
    of some vertex; and c(m) = W(1, m).  Its distinct counts
    D(r, u) = W(r, u)/(2**u u!) enter each fresh vertex once, under its
    next label at its unprimed point: D(r, u) = D(r+1, u-1) + r D(r-1, u),
    D(r, 0) = r!, and D(1, m) = c(m)/(2m)!!, the distinct count.  Divided
    through by r!, that recurrence has integer terms only, so the sweep
    runs on the integers E(r, u) = D(r, u)/r!:
    E(r, u) = (r+1) E(r+1, u-1) + E(r-1, u), E(r, 0) = 1 and E(0, u) = 0
    for u > 0, and E(1, m) = D(1, m).  Each operand is r! smaller than in D.
    It takes one diagonal s = r + u at a time, kept as the list of
    E(s-u, u) by u.  The memo is returned, not a copy: callers must not
    change it.
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
                # in place: diagonal[u] turns from E(s-1-u, u) into E(s-u, u);
                # diagonal[0] is E(s, 0) = 1 on every diagonal
                walks = 1
                for u in range(1, s):
                    walks = (s - u + 1) * walks + diagonal[u]
                    diagonal[u] = walks
                diagonal.append(0)
                values.append(walks)
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
    _at_least(m_max, 0, "perturbation order")
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

    Over part multisets {a: mu_a} of k, only {} at k = 0, the sum of
    multiset_multiplicity * (-1)**(sum mu_a) * prod_a ((2a)!/a!)**mu_a.
    One depth-first recursion visits the multisets, largest part first.
    Each branch carries its partial term: adding the mu-th part a to
    `count` parts multiplies the multinomial by (count + mu)/mu, exact at
    every step, the sign by -1 and the product by (2a)!/a!.  A branch
    closes by filling what remains with ones in one step, so it visits
    each of the p(k) multisets once and none dead-ends.
    """
    ratio = [1]  # (2a)!/a!
    for a in range(1, k + 1):
        ratio.append(ratio[-1] * (4 * a - 2))

    def branch(rest, largest, count, term):
        # rest ones close this branch; then each part 2 <= a <= largest
        total = term * (-2) ** rest * math.comb(count + rest, rest)
        for a in range(min(rest, largest), 1, -1):
            t = term
            for mu in range(1, rest // a + 1):
                t = -t * ratio[a] * (count + mu) // mu
                total += branch(rest - a * mu, a - 1, count + mu, t)
        return total

    return branch(k, k, 0, 1)


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
    _at_least(m, 0, "perturbation order")
    _at_least(n, 1, "n")
    if n > m:
        raise _Refusal(f"need 1 <= n <= m, got n={_render(n)}, m={_render(m)}")
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
    _at_least(m_max, 0, "perturbation order")
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
    so the sequence is built from itself alone.  The sum is symmetric in k
    and n-k: twice its terms with k < n/2, plus a(n/2)**2 when n is even.
    """
    _at_least(m_max, 0, "perturbation order")
    a = [0, 1]
    for n in range(2, m_max + 2):
        half = sum(a[k] * a[n - k] for k in range(1, (n + 1) // 2))
        middle = 0 if n & 1 else a[n // 2] ** 2
        a.append((2 * n - 3) * a[n - 1] + 2 * half + middle)
    return a[1:]


def arques_walsh(m: int) -> int:
    """Distinct connected order-m diagram count by the Arques-Walsh sum."""
    return _arques_walsh_sequence(m)[m]


def distinct_connected(m: int) -> int:
    """Connected order-m diagrams up to (2m)!! relabelings: the walk's memoised D(1, m)."""
    _at_least(m, 0, "perturbation order")
    return _walk_counts(m)[m]


# Each route's builder for orders 0..M, by its `--method` name, in the order
# `_COUNT_METHODS` lists them.  Each returns the one column it builds: the
# routes in `_DISTINCT_ROUTES` distinct counts, routes 1 and 2 connected
# counts.  An entry looks its route up when called, so a route patched on
# this module is the one the table runs.
_ROUTES = dict(zip(_COUNT_METHODS, (
    lambda m_max: _walk_counts(m_max),
    lambda m_max: connected_sequence(m_max),
    lambda m_max: _closed_form_sequence(m_max),
    lambda m_max: _arques_walsh_sequence(m_max),
)))
_DISTINCT_ROUTES = ("walk", "arques-walsh")


class CountRow(namedtuple("CountRow", "m total bubble connected distinct")):
    """One order's worth of counts for tabular output."""

    __slots__ = ()


def _distinct_column(max_order: int, method: str = "walk") -> list[int]:
    """Distinct counts [order 0 .. max_order] by `method`, as a new list.

    `method` is the `--method` name of the route to the counts, or "all",
    which builds every route, keeps the first one's column, and raises
    MethodDisagreementError on any connected count that differs.  Each
    route is built once.  A distinct route's column is the answer as it
    stands; otherwise one loop over the orders puts each column on the
    connected scale with a running (2m)!!, and divides a connected column
    of route 1 or 2 by it, an exact division that raises ExactnessError
    where it leaves a remainder.
    """
    _at_least(max_order, 0, "perturbation order")
    if method not in _COUNT_METHODS:
        raise _Refusal(f"unknown method, expected one of: {', '.join(_COUNT_METHODS)}")
    names = list(_ROUTES) if method == "all" else [method]
    built = {name: _ROUTES[name](max_order) for name in names}
    distinct = built[names[0]][: max_order + 1]  # a copy: the walk's column is its memo
    if method in _DISTINCT_ROUTES:
        return distinct
    group = 1  # (2m)!!
    for m in range(max_order + 1):
        connected = {
            name: column[m] * group if name in _DISTINCT_ROUTES else column[m]
            for name, column in built.items()
        }
        value = connected[names[0]]
        if any(other != value for other in connected.values()):
            raise MethodDisagreementError(
                f"order {m}: "
                + ", ".join(f"{name}={_render(other)}" for name, other in connected.items())
            )
        if names[0] not in _DISTINCT_ROUTES:
            distinct[m], remainder = divmod(value, group)
            if remainder:
                raise ExactnessError(
                    f"connected count at order {m}: {_render(value)}"
                    f" is not divisible by {_render(group)}"
                )
        group *= 2 * m + 2
    return distinct


def count_table(max_order: int, *, method: str = "walk") -> list[CountRow]:
    """Rows (m, total, bubble, connected, distinct) for 0 <= m <= max_order.

    The library's four-column table: `_distinct_column` takes `method` and
    refuses, reconciles and raises as it says, and each row is built from
    its distinct count by running products, (2m+1)!, (2m)! and the
    connected count distinct * (2m)!!.  The `counts` command reads the
    distinct column alone and renders the other three from it.
    """
    rows = []
    bubble = group = 1  # (2m)! and (2m)!!
    for m, distinct in enumerate(_distinct_column(max_order, method)):
        total = bubble * (2 * m + 1)
        rows.append(CountRow(m, total, bubble, distinct * group, distinct))
        bubble = total * (2 * m + 2)
        group *= 2 * m + 2
    return rows


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
