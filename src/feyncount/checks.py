"""`verify`'s suites, listed in `SUITES` in the order their rows print.  A run
builds each route once, when a suite first reads it, and hands its column to
every suite that reads it, never to another route's build.
"""

import math
from functools import cache

from . import counting, oracle
from .compositions import _at_least, _render, count_compositions, enumerate_compositions
from .counting import VerificationReport

# Verify runs the coefficient-recursion suite no further than this order, which
# bounds its m(m+1)/2 rows, summed over the p(m) partitions of each order: the suite
# took 0.023 s at order 30 and 0.18 s at 40 (Python 3.11.7, 2 shared cores, min of 5).
_COEFFICIENT_SUITE_CAP = 20
# verify's composition rows stream all 2**(n-1) compositions of each n: 65,535 up to n = 16
_COMPOSITION_SUITE_CAP = 16


def _convolution(column, m_max):
    distinct, odd = column("walk"), [1]  # odd[n] = (2n-1)!!
    for m in range(1, m_max + 1):
        odd.append(odd[-1] * (2 * m - 1))
        group = counting.double_factorial(2 * m)
        rebuilt = group * sum(odd[n] * distinct[m - n] for n in range(m + 1))
        yield "convolution", f"m={m}", math.factorial(2 * m + 1), rebuilt


def _divisibility(column, m_max):
    connected = column("recurrence")
    for m in range(1, m_max + 1):
        yield "divisibility", f"m={m}", 0, connected[m] % counting.double_factorial(2 * m)


def _rewrite_identities(column, m_max):
    bubble, total = counting.bubble_diagrams, counting.total_diagrams
    for n in range(1, m_max + 1):
        numerator = math.factorial(n) * bubble(n + 1)
        denominator = 2 * math.factorial(n + 1)
        quotient, remainder = divmod(numerator, denominator)
        if remainder:
            quotient = f"{_render(numerator)}/{_render(denominator)}"
        yield "total-rewrite", f"n={n}", total(n), quotient
        halved, remainder = divmod(bubble(1) * bubble(n), 2)
        yield "bubble-rewrite", f"n={n}", bubble(n), "non-integer" if remainder else halved


def _three_path(column, m_max):
    connected, closed = column("recurrence"), column("closed-form")
    distinct, group = column("arques-walsh"), 1  # (2m)!!
    for m in range(1, m_max + 1):
        group *= 2 * m
        yield "closed-form-agreement", f"m={m}", connected[m], closed[m]
        yield "arques-walsh-agreement", f"m={m}", connected[m], group * distinct[m]


def _coefficient_recursion(column, m_max):
    # (2k)!/k! from math.perm, not from the kernel the classificatory sum steps
    sums = [counting._classificatory_sum(j) for j in range(m_max + 1)]
    recursed = [
        -sum(math.perm(2 * k, k) * sums[j - k] for k in range(1, j + 1)) for j in range(m_max + 1)
    ]
    for m in range(1, m_max + 1):
        for s, j in zip(range(1, m + 1), range(m, 0, -1)):
            scale = math.perm(m + 1, j)  # (m+1)!/s!
            yield "coefficient-recursion", f"s={s} m={m}", scale * sums[j], scale * recursed[j]


def _compositions(column, m_max):
    for n in range(1, min(m_max, _COMPOSITION_SUITE_CAP) + 1):
        streamed = sum(1 for _ in enumerate_compositions(n))
        yield "composition-count", f"n={n}", 1 << (n - 1), streamed
        yield "composition-count-formula", f"n={n}", 1 << (n - 1), count_compositions(n)


def _wick(column, m_max):
    # each order's census checks the walk's distinct count and its (2m)!! relabelings
    distinct = column("walk")
    for m in range(1, min(m_max, oracle.DEFAULT_ORDER_CAP) + 1):
        orbits = oracle.orbit_census(m)
        census, group = orbits.matches, counting.double_factorial(2 * m)
        yield "wick-total", f"m={m}", counting.total_diagrams(m), census.total
        yield "wick-connected", f"m={m}", group * distinct[m], census.connected
        yield "wick-vacuum", f"m={m}", counting.bubble_diagrams(m), census.vacuum
        yield "orbit-count", f"m={m}", distinct[m], orbits.orbit_count
        yield "orbit-histogram", f"m={m}", {group: distinct[m]}, orbits.orbit_sizes


SUITES = (
    ("convolution", _convolution),
    ("divisibility", _divisibility),
    ("rewrite-identities", _rewrite_identities),
    ("three-path", _three_path),
    # the one suite capped with a note, which `cap_note` writes
    ("coefficient-recursion", lambda column, m_max: _coefficient_recursion(
        column, min(m_max, _COEFFICIENT_SUITE_CAP))),
    ("compositions", _compositions),
    ("wick", _wick),
)


def run(m_max: int, suites=SUITES) -> VerificationReport:
    """One report of the rows of `suites`, (name, function) pairs, to order `m_max`."""
    _at_least(m_max, 1, "m_max")
    column = cache(lambda route: counting._ROUTES[route](m_max))
    report = VerificationReport()
    for _, suite in suites:
        for row in suite(column, m_max):
            report.add(*row)
    return report


def cap_note(max_order: int) -> str | None:
    """What `verify` notes when a suite stops short of `max_order`, else None."""
    if max_order > _COEFFICIENT_SUITE_CAP:
        return f"coefficient-recursion suite capped at order {_COEFFICIENT_SUITE_CAP}"
    return None


def verify_convolution(m_max: int) -> VerificationReport:
    """Check (2m+1)! = sum_n binom(m,n) (2n)! * connected(m-n) for 1 <= m <= m_max.

    The connected counts are the walk's, derived from the pairing model, so
    the rows test it against the vacuum split of the (2m+1)! pairings; the
    recurrence inverts this identity and would pass by construction.  Over
    2**m m!, with c(k) = 2**k k! D(k), the split is the paper's (2m+1)!! =
    sum_n (2n-1)!! D(m-n) on the walk's distinct counts D.  Each row sums
    that and multiplies it back, the binomial sum's integer for any D.
    """
    return run(m_max, [("convolution", _convolution)])


def verify_divisibility(m_max: int) -> VerificationReport:
    """Check that (2m)!! divides the recurrence's connected count for 1 <= m <= m_max.

    Every orbit of the relabeling group has (2m)!! members.  Route 1 builds
    c(m) as m! times its scaled count, so m! divides it by construction but
    2**m does not; on the walk's counts the rows would hold by construction.
    """
    return run(m_max, [("divisibility", _divisibility)])


def verify_rewrite_identities(m_max: int) -> VerificationReport:
    """Check the factorial rewrites used to bridge the two counting formulas.

    For 1 <= n <= m_max: total(n) = (n!/2) * bubble(n+1)/(n+1)!  and
    bubble(n) = bubble(1) * bubble(n) / 2, both with exact division.
    """
    return run(m_max, [("rewrite-identities", _rewrite_identities)])


def verify_three_path(m_max: int) -> VerificationReport:
    """Check recurrence = closed form = (2m)!! * Arques-Walsh for 1 <= m <= m_max."""
    return run(m_max, [("three-path", _three_path)])


def verify_coefficient_recursion(m_max: int) -> VerificationReport:
    """Check the coefficient recursion for every pair 1 <= s <= m <= m_max.

    The direct evaluation of the weight at (s, m+1) must equal
    -sum_{n=s}^{m} binom(m+1, m-n+1) * (2(m-n+1))! * weight(s, n).
    As weight(s, n) = n!/s! S(n-s), S the classificatory sum, both sides are
    (m+1)!/s! times a value of j = m+1-s alone: S(j), and -sum_{k=1..j}
    (2k)!/k! S(j-k).  Each is taken once per j and multiplied back per row,
    which gives the unscaled sides' integers for any S, so a failing pair
    reads the same.  Failing pairs are reported, not raised.
    """
    return run(m_max, [("coefficient-recursion", _coefficient_recursion)])
