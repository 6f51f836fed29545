"""Brute-force Wick-contraction enumeration at small order.

The order-m operator string carries 2m+1 annihilation and 2m+1 creation
slots: two of each per interaction vertex (the unprimed and primed
points, collapsed onto one graph node) plus one external slot on each
side.  A full contraction is a bijection from annihilation to creation
slots, stored as a tuple p with p[a] = c.  Slot 0 is the external slot
(X on the annihilation side, Y on the creation side); slots 2i-1 and 2i
belong to vertex i.  This layout is written out where it is used:
`diagram_edges` maps slots to graph nodes, and the walks find a slot's
partner at the same vertex by arithmetic.

A pairing's cycles trace paths through the multigraph it induces, so
one walk over slots classifies it: `_vacuum_size` counts the vertices
cut off from the external points, and 0 means connected.  The census
tallies every pairing by that number n, the size of its vacuum part,
which is the split behind (2m+1)! = sum_n C(m,n) (2n)! c(m-n).

`canonical_form` names a diagram by one relabelling walk from slot 0:
each vertex takes the next label when a contraction first reaches it,
and the slot reached becomes its unprimed point, which builds the
orbit's lexicographic minimum directly.  `orbit_census` makes the vacuum
tally and the orbit decomposition in one walk over the pairings: it
relabels only the connected pairings with p[0] == 1, and since the
symmetry group moves p[0] transitively over 1..2m, one in 2m of every
orbit's members lies in that shard.

Everything here is ground truth by exhaustion: no counting formula is
consulted.  Costs grow as (2m+1)!, so orders above the default cap are
refused unless explicitly overridden, and `orbit_census` refuses every
order above the default cap, with its cost, before it walks a pairing.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

from .compositions import _Refusal

#: Largest order enumerated without an explicit override.
DEFAULT_ORDER_CAP = 4
#: Absolute ceiling; above this even an override is refused.
OVERRIDE_ORDER_CAP = 5


class OrderCapError(_Refusal):
    """Requested order exceeds the enumeration cap."""


@dataclass(frozen=True)
class MatchCensus:
    """Exhaustive tally of full contractions at one order.

    `vacuum_parts[n]` counts the pairings that cut exactly n of the m
    vertices off from the external points, for n = 0..m.
    """

    vacuum_parts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.vacuum_parts)

    @property
    def connected(self) -> int:
        return self.vacuum_parts[0]

    @property
    def vacuum(self) -> int:
        """Pairings contracting X with Y directly: all m vertices form the vacuum."""
        return self.vacuum_parts[-1]


@dataclass(frozen=True)
class CanonicalDiagram:
    """Orbit representative: the lexicographically minimal pairing.

    Orbits are taken under the (2m)!! vertex relabellings and point swaps.
    """

    order: int
    pairing: tuple[int, ...]


@dataclass(frozen=True)
class OrbitCensus:
    """Decomposition of connected pairings under the diagram symmetry group."""

    order: int
    orbit_count: int
    orbit_sizes: dict[int, int]
    representatives: tuple[CanonicalDiagram, ...]
    #: Tally of every pairing by vacuum-part size, from the same walk.
    matches: MatchCensus


def _check_order(m: int) -> None:
    if m < 1:
        raise _Refusal(f"order must be >= 1, got {m}")


def _check_cap(m: int, override: bool) -> None:
    _check_order(m)
    if m <= DEFAULT_ORDER_CAP:
        return
    pairings = math.factorial(2 * m + 1)
    if m > OVERRIDE_ORDER_CAP:
        raise OrderCapError(
            f"order {m} means enumerating (2m+1)! = {pairings} pairings; "
            f"the hard cap is {OVERRIDE_ORDER_CAP}"
        )
    if not override:
        raise OrderCapError(
            f"order {m} means enumerating (2m+1)! = {pairings} pairings; "
            f"pass override=True to proceed up to order {OVERRIDE_ORDER_CAP}"
        )


def iter_matchings(m: int, *, first_image: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield pairings in lexicographic order, optionally one shard.

    With `first_image` = c, only pairings sending annihilation slot 0 to
    creation slot c are produced; the 2m+1 shards partition the full
    stream and concatenating them in ascending c reproduces it exactly.
    """
    _check_order(m)
    n = 2 * m + 1
    if first_image is None:
        yield from itertools.permutations(range(n))
        return
    if not 0 <= first_image < n:
        raise _Refusal(f"first_image must be a creation slot index, got {first_image}")
    rest = [c for c in range(n) if c != first_image]
    head = (first_image,)
    for tail in itertools.permutations(rest):
        yield head + tail


def diagram_edges(pairing: tuple[int, ...], m: int) -> list[tuple[int, int]]:
    """Edge multiset of the induced multigraph, one edge per contraction.

    The m + 2 graph nodes are X = 0, Y = 1 and vertex i = i + 1.  Slot 0
    is X on the annihilation side and Y on the creation side; slots 2i-1
    and 2i are vertex i on both sides.  Edges are (annihilation node,
    creation node) in annihilation-slot order; self-loops appear as
    (v, v).  Always exactly 2m+1 edges.
    """
    _validate_pairing(pairing, m)
    return [
        ((a + 1) // 2 + 1 if a else 0, (c + 1) // 2 + 1 if c else 1)
        for a, c in enumerate(pairing)
    ]


def _vacuum_size(pairing: tuple[int, ...]) -> int:
    """Number of vertices cut off from X by the pairing; 0 means connected.

    Walks slots from slot 0.  Following the pairing from a slot traces
    its cycle, one contraction after another, and the partner slot at
    the same vertex (2i-1 and 2i) is pulled in with it.  Slot 0 is X on
    the annihilation side and Y on the creation side, and its cycle
    joins them, so X and Y are never apart.
    """
    seen = [False] * len(pairing)
    todo = [0]
    reached = 0
    while todo:
        s = todo.pop()
        while not seen[s]:
            seen[s] = True
            reached += 1
            if s:
                todo.append(s + 1 if s & 1 else s - 1)
            s = pairing[s]
    return (len(pairing) - reached) // 2


def matching_is_connected(pairing: tuple[int, ...], m: int) -> bool:
    """Whether every node of the induced multigraph is reachable from X."""
    _validate_pairing(pairing, m)
    return _vacuum_size(pairing) == 0


def enumerate_matchings(
    m: int, *, override: bool = False, first_image: int | None = None
) -> MatchCensus:
    """Tally all pairings by the size of their vacuum part, exhaustively.

    With `first_image`, only that shard of the stream is tallied; the
    shards' tallies add up to the full one.
    """
    _check_cap(m, override)
    parts = [0] * (m + 1)
    for p in iter_matchings(m, first_image=first_image):
        parts[_vacuum_size(p)] += 1
    return MatchCensus(tuple(parts))


def _validate_pairing(pairing: tuple[int, ...], m: int) -> None:
    _check_order(m)
    n = 2 * m + 1
    if len(pairing) != n or sorted(pairing) != list(range(n)):
        raise _Refusal(f"not a bijection on {n} slots: {pairing}")


def _relabelled(pairing: tuple[int, ...], queue: tuple[int, ...] = (0,)) -> tuple[int, ...]:
    """Least image of the pairing under vertex relabellings and point swaps.

    `queue` holds the old slots in the order of their new numbers.  The
    walk follows each queued slot's contraction; one that reaches a vertex
    not yet numbered gives it the next label k, the slot reached becoming
    its unprimed point 2k-1, and queues both its slots.  Every new number
    is thus the least still free, so the image is the orbit's minimum.
    When X's component is used up with vertices left, each unnumbered
    slot is tried as the next root and the least result is kept.
    """
    queue = list(queue)
    new = {s: i for i, s in enumerate(queue)}
    for s in queue:
        c = pairing[s]
        if c not in new:
            partner = c + 1 if c & 1 else c - 1
            new[c], new[partner] = len(queue), len(queue) + 1
            queue += (c, partner)
    if len(queue) == len(pairing):
        return tuple(new[pairing[s]] for s in queue)
    return min(
        _relabelled(pairing, (*queue, s, s + 1 if s & 1 else s - 1))
        for s in range(1, len(pairing))
        if s not in new
    )


def canonical_form(pairing: tuple[int, ...], m: int) -> CanonicalDiagram:
    """Lexicographic minimum of the pairing's orbit under the (2m)!! group.

    Two pairings have equal canonical forms exactly when some relabeling
    and point swap carries one onto the other.  One walk from slot 0 builds
    the minimum in O(m) steps for a connected pairing; a disconnected one
    branches over the root of each vacuum part.
    """
    _validate_pairing(pairing, m)
    return CanonicalDiagram(m, _relabelled(pairing))


def orbit_census(m: int) -> OrbitCensus:
    """Group the connected pairings into symmetry orbits, exhaustively.

    One walk over all pairings serves both results: each pairing is
    tallied by its vacuum-part size into `matches` (the same tally as
    `enumerate_matchings(m)`), and each connected pairing with p[0] == 1
    is relabelled to its orbit's minimum and counted under it.  The sorted
    minima are the representatives.

    A connected pairing never has p[0] == 0, and the group moves p[0]
    transitively over 1..2m, so an orbit has equally many members at each
    value of p[0]: its size is 2m times its count in the shard.  Every
    orbit is expected to reach (2m)!!, but smaller sizes would be reported
    rather than folded in.  Sizes that do not add up to the connected
    count mean the stream was incomplete: that raises RuntimeError.

    Orders above `DEFAULT_ORDER_CAP` are refused with their cost before
    any pairing is walked; no override reaches them.
    """
    _check_order(m)
    if m > DEFAULT_ORDER_CAP:
        raise OrderCapError(
            f"orbit census at order {m} would classify (2m+1)! = "
            f"{math.factorial(2 * m + 1)} pairings; the census cap is {DEFAULT_ORDER_CAP}"
        )
    parts = [0] * (m + 1)
    shard: Counter[tuple[int, ...]] = Counter()
    for p in iter_matchings(m):
        n = _vacuum_size(p)
        parts[n] += 1
        if not n and p[0] == 1:
            shard[_relabelled(p)] += 1
    sizes = Counter(2 * m * count for count in shard.values())
    if sum(size * count for size, count in sizes.items()) != parts[0]:
        raise RuntimeError(
            f"orbit sizes {dict(sizes)} do not add up to the "
            f"{parts[0]} connected pairings at order {m}"
        )
    return OrbitCensus(
        order=m,
        orbit_count=len(shard),
        orbit_sizes=dict(sorted(sizes.items())),
        representatives=tuple(CanonicalDiagram(m, p) for p in sorted(shard)),
        matches=MatchCensus(tuple(parts)),
    )


def export_diagram(diagram: CanonicalDiagram) -> str:
    """Render a diagram as DOT multigraph text.

    Nodes are X, Y, v1..vm in that order; one edge per contraction in
    annihilation-slot order, self-loops preserved.  The text depends only
    on the diagram, so repeated exports are byte-identical.
    """
    m = diagram.order
    names = ["X", "Y"] + [f"v{i}" for i in range(1, m + 1)]
    lines = [f"graph diagram_m{m} {{"]
    lines.extend(f"  {name};" for name in names)
    lines.extend(
        f"  {names[u]} -- {names[v]};" for u, v in diagram_edges(diagram.pairing, m)
    )
    lines.append("}")
    return "\n".join(lines) + "\n"
