"""Ordered compositions of an integer n >= 0 and multiset multiplicities.

A composition of n is an ordered tuple of positive parts summing to n;
order matters, so (4, 1) and (1, 4) are distinct.  There are 2**(n-1)
of them, and one, the empty one, at n = 0.  They index the terms of the
signed diagram-count expansions the paper writes down, so enumeration
must be exhaustive, duplicate-free, and deterministic.

Compositions that use the same parts give equal terms in those
expansions.  The paper's classificatory sum therefore runs over part
multisets, the partitions of n, each weighted by how many compositions
share it (`multiset_multiplicity`): p(n) terms instead of 2**(n-1).

The stream runs in cut-mask order.  The successor rule of binary
counting derives each setting of the high cut bits from the one before.
Each setting builds its few middle parts once and is joined to every
entry of a block of the low bits' settings, built once per call, so the
per-item work is one tuple join.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping


# Defined in this module, which imports no other part of the package, so that
# every module can raise it, refuse a value of the wrong type by `_of_type` or
# an input below its floor by `_at_least`, and write a count, a check or a
# refused integer by `_render`.
class _Refusal(ValueError):
    """An input or a cap was refused before any work started.

    The command line exits 2 for exactly this type.  Any other ValueError
    is a fault in the program and exits 1.
    """


def _render(value) -> str:
    """Exact text of a count, a check value or a refused integer.

    `str` writes it unless CPython's int -> str digit limit refuses an
    int; that int goes through `Decimal`, which prints the same digits but
    is not subject to the limit.
    """
    try:
        return str(value)
    except ValueError:
        # imported here so that processes rendering no refused int never load it
        from decimal import Decimal

        return str(Decimal(value))


def _of_type(value, kind: type, noun: str, name: str) -> None:
    """The one type guard: refuse `value`, named `name`, unless it is a `kind`,
    which the refusal calls `noun`.  The value is named by its type alone, as
    its text may pass the int -> str limit.
    """
    if not isinstance(value, kind):
        raise _Refusal(f"{name} must be {noun}, got {type(value).__name__}")


def _at_least(value: int, least: int, name: str) -> None:
    """The one integer guard: refuse `value`, named `name`, unless it is an
    `int` >= `least`.  A `bool` is an `int` here, as it is to `range`.
    """
    _of_type(value, int, "an integer", name)
    if value < least:
        raise _Refusal(f"{name} must be >= {least}, got {_render(value)}")


# Defined here, beside the guards, so that the command line's parser reads
# them without loading `counting`, which keys its routes by these names, or
# `oracle`, which enforces the cap; each module binds its own name too.
#: The `--method` names: each route to the counts, in the order the command
#: line lists them, then "all".
_COUNT_METHODS = ("walk", "recurrence", "closed-form", "arques-walsh", "all")
#: Absolute ceiling of the Wick enumeration; above this even an override is refused.
OVERRIDE_ORDER_CAP = 5


#: Cut-mask bits of the block `enumerate_compositions` builds once per call.
_LOW_BITS = 6


def enumerate_compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every composition of n exactly once, lazily.

    A composition corresponds to an (n-1)-bit mask of cut positions
    between n aligned units; masks are traversed in ascending binary
    order, so the stream starts at (n,) and ends at (1,)*n.  The order is
    fixed and identical across calls.  n = 0 yields the single empty
    composition by convention.

    The low b = min(n-1, 6) bits, the cuts after units 1..b, vary
    fastest.  Their settings, the compositions of b+1, are built once per
    call, each split into its closed head and `left`, the units of its
    last part before unit b+1.  Each composition (first, *rest) of units
    b+1..n, the high bits, builds its b+1 middles (left + first, *rest),
    one per `left`, and is joined to every entry of that block as
    head + middles[left], one tuple join per item.
    """
    _at_least(n, 0, "n")
    if n == 0:
        yield ()
        return
    low = min(n - 1, _LOW_BITS)
    block = [(parts[:-1], parts[-1] - 1) for parts in _by_successor(low + 1)]
    for high in _by_successor(n - low):
        first, rest = high[0], high[1:]
        middles = [(left + first,) + rest for left in range(low + 1)]
        for head, left in block:
            yield head + middles[left]


def _by_successor(n: int) -> Iterator[tuple[int, ...]]:
    """The compositions of n >= 1 in ascending cut-mask order.

    Each is derived from the one before it (Knuth's binary counting step,
    TAOCP 7.2.1.1): if mask - 1 ends in t one-bits, its composition is
    (1,)*t + (p, *rest) with p >= 2, and the composition for mask is
    (t+1, p-1, *rest).
    """
    parts = (n,)
    yield parts
    for mask in range(1, 1 << (n - 1)):
        t = (mask & -mask).bit_length() - 1  # trailing one-bits of mask - 1
        parts = (t + 1, parts[t] - 1) + parts[t + 1:]
        yield parts


def count_compositions(n: int) -> int:
    """Number of compositions of n: 2**(n-1), and 1 for the empty n = 0."""
    _at_least(n, 0, "n")
    return 1 if n == 0 else 1 << (n - 1)


def multiset_multiplicity(ms: Mapping[int, int]) -> int:
    """How many compositions share the part multiset `ms`.

    `ms` maps part value -> multiplicity, each an int >= 1.  Returns the
    multinomial (sum of multiplicities)! / product of multiplicity
    factorials: how often that multiset occurs in the composition stream
    of its weighted total, and 1 for {}, the one empty composition of 0.
    """
    _of_type(ms, Mapping, "a mapping", "part multiset")
    for part, mult in ms.items():
        _at_least(part, 1, "part")
        _at_least(mult, 1, "multiplicity")
    result = math.factorial(sum(ms.values()))
    for mult in ms.values():
        result //= math.factorial(mult)
    return result
