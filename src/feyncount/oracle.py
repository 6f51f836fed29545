"""Brute-force Wick-contraction enumeration at small order.

The order-m operator string carries 2m+1 annihilation and 2m+1 creation
slots: two of each per interaction vertex (the unprimed and primed
points, collapsed onto one graph node) plus one external slot on each
side.  A full contraction is a bijection from annihilation to creation
slots, stored as a tuple p with p[a] = c.  Slot 0 is the external slot
(X on the annihilation side, Y on the creation side); slots 2i-1 and 2i
belong to vertex i.  This layout is written out where it is used:
`diagram_edges` maps slots to graph nodes, and the walks find a slot's
partner at the same vertex by arithmetic, tabled once per walk.

One queue rule from slot 0 reads a pairing: each queued slot's
contraction that reaches a new vertex numbers it, the slot reached
becoming its unprimed point, and queues both its slots.  The slots left
unqueued belong to the vertices cut off from the external points, so
`_vacuum_size` counts them and 0 means connected.  The census tallies
every pairing by that number n, the size of its vacuum part, which is
the split behind (2m+1)! = sum_n C(m,n) (2n)! c(m-n).  The numbers the
rule hands out build the orbit's lexicographic minimum directly, which
is how `canonical_form` names a diagram.  Past X's component, it roots
each vacuum part in turn at the slot whose part reads least: one greedy
pass, with no search over the order of the roots.

One depth-first walk serves both entry points, `enumerate_matchings`
and `orbit_census`.  It builds the pairings in the rule's own slot
order rather than reading them one by one, so a prefix that pairings
share is walked once, with its queue length, labels and canonical
prefix carried down the tree.  A prefix with nothing left to reach is
tallied in the loop that built it, without a further call: each
completion is still generated, and unless it is recorded, counted in C.
So is a prefix that one more contraction decides: when the next queued
slot is the last in the queue and one vertex is left, each completion
is still generated, and where it sends that slot says whether it cuts
the vertex off or connects it.  The walk tallies every pairing by
vacuum size and counts the orbit minimum of each connected pairing with
p[0] == 1, handing its shard to that subtree alone; since the symmetry
group moves p[0] transitively over 1..2m, one in 2m of every orbit's
members lies in that shard.

Everything here is ground truth by exhaustion: no counting formula is
consulted.  Costs grow as (2m+1)!, so orders above the default cap are
refused unless explicitly overridden, and `orbit_census` refuses every
order above the default cap, with its cost, before it walks a pairing.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from operator import countOf

from .compositions import OVERRIDE_ORDER_CAP, _Refusal, _at_least, _of_type, _render

#: Largest order enumerated without an explicit override.
DEFAULT_ORDER_CAP = 4


class OrderCapError(_Refusal):
    """Requested order exceeds the enumeration cap."""


class MatchCensus(namedtuple("MatchCensus", "vacuum_parts")):
    """Exhaustive tally of full contractions at one order.

    `vacuum_parts[n]` counts the pairings that cut exactly n of the m
    vertices off from the external points, for n = 0..m.
    """

    __slots__ = ()

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


class CanonicalDiagram(namedtuple("CanonicalDiagram", "order pairing")):
    """Orbit representative: the lexicographically minimal pairing.

    Orbits are taken under the (2m)!! vertex relabellings and point swaps.
    """

    __slots__ = ()


class OrbitCensus(
    namedtuple("OrbitCensus", "order orbit_count orbit_sizes representatives matches")
):
    """Decomposition of connected pairings under the diagram symmetry group.

    `matches` is the tally of every pairing by vacuum-part size, from the
    same walk.
    """

    __slots__ = ()


def _pairings(m: int) -> str:
    """(2m+1)!, the number of pairings at order m, as a refusal states it.

    The digits are given by `_render` up to order 778, the last whose
    (2m+1)! has at most 4300 digits.  Above that the factorial is never
    built: at order 10^5 that took seconds, and past order 2^62 it cannot be.
    """
    n = 2 * m + 1
    # n! > 10^n from n = 25 on, so n! > 10^4300 for every n past 4300
    if n <= 4300 and (pairings := math.factorial(n)) < 10**4300:
        return f"(2m+1)! = {_render(pairings)}"
    return "(2m+1)! > 10^4300"


def _check_cap(m: int, override: bool, keyword: str = "override=True") -> None:
    """Refuse an order above the caps; `keyword` names the way to override."""
    _at_least(m, 1, "order")
    if m <= DEFAULT_ORDER_CAP:
        return
    pairings = _pairings(m)
    if m > OVERRIDE_ORDER_CAP:
        raise OrderCapError(
            f"order {_render(m)} means enumerating {pairings} pairings; "
            f"the hard cap is {OVERRIDE_ORDER_CAP}"
        )
    if not override:
        raise OrderCapError(
            f"order {_render(m)} means enumerating {pairings} pairings; "
            f"pass {keyword} to proceed up to order {OVERRIDE_ORDER_CAP}"
        )


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


def _reached(
    pairing: tuple[int, ...], queue: tuple[int, ...] = (0,)
) -> tuple[list[int], dict[int, int]]:
    """The relabelling walk's queue rule, applied to one fixed pairing.

    `queue` holds slots in the order of their new numbers.  The walk follows
    each queued slot's contraction; one that reaches a vertex not yet
    numbered gives it the next label k, the slot reached becoming its
    unprimed point 2k-1, and queues both its slots (2i-1 and 2i share a
    vertex).  Returns the queue, which then holds every slot in the
    component of its first slot, and the new number of each queued slot.
    Slot 0 is X on the annihilation side and Y on the creation side, so
    from slot 0 the two are never apart.
    """
    queue = list(queue)
    new = {s: i for i, s in enumerate(queue)}
    for s in queue:
        c = pairing[s]
        if c not in new:
            partner = c + 1 if c & 1 else c - 1
            new[c], new[partner] = len(queue), len(queue) + 1
            queue += (c, partner)
    return queue, new


def _vacuum_size(pairing: tuple[int, ...]) -> int:
    """Number of vertices cut off from X by the pairing; 0 means connected."""
    return (len(pairing) - len(_reached(pairing)[0])) // 2


def matching_is_connected(pairing: tuple[int, ...], m: int) -> bool:
    """Whether every node of the induced multigraph is reachable from X."""
    _validate_pairing(pairing, m)
    return _vacuum_size(pairing) == 0


def enumerate_matchings(m: int, *, override: bool = False) -> MatchCensus:
    """Tally all pairings by the size of their vacuum part, exhaustively.

    The tally comes from the census's walk, without its orbit minima.
    """
    _check_cap(m, override)
    return MatchCensus(tuple(_walk_pairings(m)))


def _validate_pairing(pairing: tuple[int, ...], m: int) -> None:
    _at_least(m, 1, "order")
    _of_type(pairing, tuple, "a tuple", "pairing")
    n = 2 * m + 1
    if (
        len(pairing) != n
        or not all(isinstance(s, int) for s in pairing)
        or sorted(pairing) != list(range(n))
    ):
        raise _Refusal(f"not a bijection on {_render(n)} slots")


def _relabelled(pairing: tuple[int, ...]) -> tuple[int, ...]:
    """Least image of the pairing under vertex relabellings and point swaps.

    `_reached` numbers the slots from slot 0.  Every new number is the
    least still free, so the image is the orbit's minimum.  While vertices
    are left once X's component has closed, each unnumbered slot is tried
    as the root of the next vacuum part, and the root whose part reads
    least is kept.  That greedy pick is exact: a part reached from any of
    its slots is the whole part, as every vertex has two slots on each
    side, and a part's image is a permutation of the next numbers it
    takes, so no part's image is a proper prefix of another's.  The least
    continuation therefore starts with the least next part, and equal
    parts are interchangeable.  Each part tries every remaining root with
    one `_reached` of the whole queue: O(m^3) steps at worst.
    """
    queue, new = _reached(pairing)
    while len(queue) < len(pairing):
        queue, new = min(
            (_reached(pairing, (*queue, s, s + 1 if s & 1 else s - 1))
             for s in range(1, len(pairing)) if s not in new),
            key=lambda walk: [walk[1][pairing[s]] for s in walk[0]],
        )
    return tuple(new[pairing[s]] for s in queue)


def _walk_pairings(m: int, shard: Counter | None = None) -> list[int]:
    """Tally every pairing by vacuum-part size, built in relabelling order.

    A depth-first walk builds each pairing in the order `_reached` reads
    its slots: the i-th queued slot is contracted with each free creation
    slot in ascending order, and the queue length, the labels and the
    canonical prefix (each contraction's new number) are carried down the
    tree and undone on the way back.  A prefix stops growing when nothing
    is left to reach: either the queue has run out, so the queued slots
    are closed under the pairing and every completion cuts the other
    vertices off, or it holds all slots, so every completion is connected
    and its orbit minimum is the prefix followed by the labels in the
    order taken.  The loop that makes the last contraction of such a
    prefix tallies it on the spot.  Each completion, a permutation of the
    free creation slots, is still generated; all have one vacuum size, so
    unless their orbit minima are recorded, `operator.countOf` counts them
    in C by their lengths.  The loop that makes the contraction one short
    of that tallies on the spot too, after which the next queued slot is
    the last in the queue and one vertex is left unreached: three creation
    slots are free, the last vertex's two and one numbered slot, and where
    each completion sends that next slot decides it.  Sent to the numbered
    slot, it closes the queue and cuts the last vertex off; sent to either
    slot of the vertex, it numbers that slot n - 2 and connects the
    pairing.  Each class is counted from its own completions.

    Given an empty `shard`, each connected pairing with p[0] == 1 adds 1
    to its orbit minimum there, and reaches the connected tally through
    the shard's total rather than one by one.  The first contraction
    decides it: the subtree with p[0] == 1 alone is handed the shard.
    """
    n = 2 * m + 1
    parts = [0] * (m + 1)
    partner = [0] + [c + 1 if c & 1 else c - 1 for c in range(1, n)]
    free = list(range(n))  # creation slots not yet contracted, ascending
    label = [0] + [-1] * (n - 1)  # new number of each numbered slot
    prefix = [0] * n  # the i-th contraction's new number, up to the current i
    permutations = itertools.permutations

    def extend(i: int, queued: int, record: Counter | None) -> None:
        for j in range(len(free)):
            c = free.pop(j)
            if not i:
                # slot 1 is numbered 1 exactly when p[0] == 1
                record = shard if c == 1 else None
            reached = queued
            if label[c] < 0:
                label[c], label[partner[c]] = queued, queued + 1
                reached += 2
            prefix[i] = label[c]
            if reached == i + 2 == n - 2:
                # the next queued slot is the last, and one vertex is left:
                # it takes the one numbered free slot, cutting that vertex
                # off, or reaches the vertex, which is numbered n - 2
                if record is not None:
                    # the last vertex's slots read -1 % n == n - 1: the one
                    # reached is numbered n - 2, and its partner n - 1
                    head = (*prefix[: i + 1], n - 2)
                    for tail in permutations([label[d] % n for d in free]):
                        if tail[0] == n - 1:
                            record[head + tail[1:]] += 1
                        else:
                            parts[1] += 1
                else:
                    connected = cut = 0
                    for tail in permutations(free):
                        if label[tail[0]] < 0:
                            connected += 1
                        else:
                            cut += 1
                    parts[0] += connected
                    parts[1] += cut
            elif i + 1 < reached < n:
                extend(i + 1, reached, record)
            elif reached == n and record is not None:
                head = tuple(prefix[: i + 1])
                record.update(map(head.__add__, permutations([label[d] for d in free])))
            else:
                # one class: each completion is still generated, and
                # counted in C by its length
                parts[(n - reached) // 2] += countOf(map(len, permutations(free)), len(free))
            if reached > queued:
                label[c] = label[partner[c]] = -1
            free.insert(j, c)

    extend(0, 1, None)
    if shard is not None:
        parts[0] += shard.total()
    return parts


def canonical_form(pairing: tuple[int, ...], m: int) -> CanonicalDiagram:
    """Lexicographic minimum of the pairing's orbit under the (2m)!! group.

    Two pairings have equal canonical forms exactly when some relabeling
    and point swap carries one onto the other.  One walk from slot 0 builds
    the minimum in O(m) steps for a connected pairing.  For a disconnected
    one, each vacuum part in turn is rooted where it reads least, in one
    greedy pass of O(m^3) steps at worst, with no search over root orders.
    """
    _validate_pairing(pairing, m)
    return CanonicalDiagram(m, _relabelled(pairing))


def orbit_census(m: int) -> OrbitCensus:
    """Group the connected pairings into symmetry orbits, exhaustively.

    One walk over all pairings serves both results: each pairing is
    tallied by its vacuum-part size into `matches` (the same tally as
    `enumerate_matchings(m)`), and each connected pairing with p[0] == 1
    is counted under its orbit's minimum, which the walk builds as it
    builds the pairing.  The sorted minima are the representatives.

    A connected pairing never has p[0] == 0, and the group moves p[0]
    transitively over 1..2m, so an orbit has equally many members at each
    value of p[0]: its size is 2m times its count in the shard.  Every
    orbit is expected to reach (2m)!!, but smaller sizes would be reported
    rather than folded in.  Sizes that do not add up to the connected
    count mean the walk missed pairings: that raises RuntimeError.

    Orders above `DEFAULT_ORDER_CAP` are refused with their cost before
    any pairing is walked; no override reaches them.
    """
    _at_least(m, 1, "order")
    if m > DEFAULT_ORDER_CAP:
        raise OrderCapError(
            f"orbit census at order {_render(m)} would classify {_pairings(m)} pairings; "
            f"the census cap is {DEFAULT_ORDER_CAP}"
        )
    shard: Counter[tuple[int, ...]] = Counter()
    parts = _walk_pairings(m, shard=shard)
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
    _of_type(diagram, CanonicalDiagram, "a CanonicalDiagram", "diagram")
    m = diagram.order
    edges = diagram_edges(diagram.pairing, m)
    names = ["X", "Y"] + [f"v{i}" for i in range(1, m + 1)]
    lines = [f"graph diagram_m{m} {{"]
    lines.extend(f"  {name};" for name in names)
    lines.extend(f"  {names[u]} -- {names[v]};" for u, v in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
