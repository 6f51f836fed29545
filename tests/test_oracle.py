"""Brute-force Wick enumeration, connectivity, orbits, and DOT export."""

import functools
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feyncount import oracle
from feyncount.compositions import _Refusal
from feyncount.oracle import (
    DEFAULT_ORDER_CAP,
    OVERRIDE_ORDER_CAP,
    CanonicalDiagram,
    OrderCapError,
    canonical_form,
    diagram_edges,
    enumerate_matchings,
    export_diagram,
    matching_is_connected,
    orbit_census,
    _vacuum_size,
)


def _bfs_component_of_x(pairing, m):
    """Independent connectivity reference used only by these tests.

    Nodes are X = 0, Y = 1 and vertex i = i + 1, read from slot tables.
    """
    vertex_nodes = [node for node in range(2, m + 2) for _ in range(2)]
    ann_nodes, cre_nodes = [0] + vertex_nodes, [1] + vertex_nodes
    edges = [(ann_nodes[a], cre_nodes[c]) for a, c in enumerate(pairing)]
    seen = {0}
    grew = True
    while grew:
        grew = False
        for u, v in edges:
            if u in seen and v not in seen:
                seen.add(v)
                grew = True
            elif v in seen and u not in seen:
                seen.add(u)
                grew = True
    return seen


@functools.cache
def _group(m):
    """Slot table per vertex relabelling combined with point swaps, (2m)!! in all.

    Slot 0 is fixed; the same table applies to both slot sides.  This is
    the reference group that the relabelling walk is checked against.
    """
    return tuple(
        _table(relabel, [(flips >> i) & 1 for i in range(m)])
        for relabel in itertools.permutations(range(1, m + 1))
        for flips in range(1 << m)
    )


def _table(relabel, flips):
    """Slot table moving vertex i to relabel[i-1], its points swapped if flips[i-1]."""
    table = [0] * (2 * len(relabel) + 1)
    for i, (j, flip) in enumerate(zip(relabel, flips), start=1):
        table[2 * i - 1] = 2 * j - 1 + flip
        table[2 * i] = 2 * j - flip
    return tuple(table)


def _act(table, pairing):
    """Image of a pairing under one group element's slot table."""
    moved = [0] * len(pairing)
    for a, c in enumerate(pairing):
        moved[table[a]] = table[c]
    return tuple(moved)


def _group_minimum(pairing, m):
    return min(_act(table, pairing) for table in _group(m))


@st.composite
def _pairings(draw, max_order):
    m = draw(st.integers(min_value=1, max_value=max_order))
    return m, tuple(draw(st.permutations(range(2 * m + 1))))


@st.composite
def _block_pairings(draw, max_order):
    """A disjoint union of pairings on random vertex blocks, X's being block 0.

    Each block's slots are paired among themselves at random, so a block
    may split further, and many of these pairings have several vacuum parts.
    """
    m = draw(st.integers(min_value=1, max_value=max_order))
    blocks = draw(st.integers(min_value=1, max_value=m))
    block_of = draw(st.lists(st.integers(0, blocks - 1), min_size=m, max_size=m))
    pairing = [0] * (2 * m + 1)
    for b in range(blocks):
        slots = [0] * (b == 0)
        slots += [s for i, k in enumerate(block_of, 1) if k == b for s in (2 * i - 1, 2 * i)]
        for a, c in zip(slots, draw(st.permutations(slots))):
            pairing[a] = c
    return m, tuple(pairing)


@pytest.mark.parametrize("m", [0, -1])
def test_pairing_entry_points_refuse_orders_below_one(m):
    identity = tuple(range(2 * m + 1))
    with pytest.raises(_Refusal, match="order must be >= 1"):
        canonical_form(identity, m)
    with pytest.raises(_Refusal, match="order must be >= 1"):
        matching_is_connected(identity, m)
    with pytest.raises(_Refusal, match="order must be >= 1"):
        diagram_edges(identity, m)


@pytest.mark.parametrize(
    "m,total,connected",
    [(1, 6, 4), (2, 120, 80), (3, 5040, 3552)],
)
def test_enumeration_census(m, total, connected):
    census = enumerate_matchings(m)
    assert census.total == total
    assert census.connected == connected


_VACUUM_PARTS = {1: (4, 2), 2: (80, 16, 24), 3: (3552, 480, 288, 720)}


@pytest.mark.parametrize("m,vacuum", [(1, 2), (2, 24), (3, 720)])
def test_vacuum_census(m, vacuum):
    census = enumerate_matchings(m)
    assert census.vacuum_parts == _VACUUM_PARTS[m]
    # X contracted with Y leaves the vertex-only string: (2m)! contractions
    assert census.vacuum == math.factorial(2 * m) == vacuum


def test_diagram_edges_shape():
    # X once on the annihilation side, Y once on the creation side, and
    # every vertex twice on each side, whatever the pairing
    for m in (1, 2, 3):
        vertices = sorted(2 * list(range(2, m + 2)))
        for p in itertools.permutations(range(2 * m + 1)):
            edges = diagram_edges(p, m)
            assert sorted(u for u, _ in edges) == [0] + vertices
            assert sorted(v for _, v in edges) == [1] + vertices


def test_diagram_edges_order_one_self_loop():
    assert diagram_edges((1, 0, 2), 1) == [(0, 2), (2, 1), (2, 2)]


def test_connectivity_matches_independent_reference():
    for m in (1, 2, 3):
        n_connected = 0
        for p in itertools.permutations(range(2 * m + 1)):
            component = _bfs_component_of_x(p, m)
            # X and Y can never split apart
            assert 1 in component
            assert _vacuum_size(p) == m + 2 - len(component)
            reachable_all = len(component) == m + 2
            assert matching_is_connected(p, m) == reachable_all
            n_connected += reachable_all
        assert n_connected == enumerate_matchings(m).connected


@settings(max_examples=200, deadline=None)
@given(_pairings(max_order=5), st.data())
def test_vacuum_size_matches_reference_and_is_group_invariant(drawn, data):
    m, p = drawn
    size = _vacuum_size(p)
    assert size == m + 2 - len(_bfs_component_of_x(p, m))
    table = data.draw(st.sampled_from(_group(m)))
    assert _vacuum_size(_act(table, p)) == size


def test_order_one_connected_classification():
    by_hand = {p: matching_is_connected(p, 1) for p in itertools.permutations(range(3))}
    # the two pairings that close the vertex off from the externals
    assert not by_hand[(0, 1, 2)]
    assert not by_hand[(0, 2, 1)]
    assert sum(by_hand.values()) == 4


def test_symmetry_tables_form_the_full_group():
    for m in range(1, 5):
        tables = _group(m)
        assert len(tables) == len(set(tables)) == 2 ** m * math.factorial(m)
        for table in tables:
            assert table[0] == 0
            assert sorted(table) == list(range(2 * m + 1))


def test_orbit_census_order_one():
    census = orbit_census(1)
    assert census.orbit_count == 2
    assert census.orbit_sizes == {2: 2}
    assert [d.pairing for d in census.representatives] == [(1, 0, 2), (1, 2, 0)]


@pytest.mark.parametrize(
    "m,orbits,size", [(1, 2, 2), (2, 10, 8), (3, 74, 48)],
)
def test_orbit_census_small_orders(m, orbits, size):
    census = orbit_census(m)
    assert census.orbit_count == orbits
    assert census.orbit_sizes == {size: orbits}
    assert size == 2 ** m * math.factorial(m)
    # orbit sizes account for every connected pairing
    total = sum(s * f for s, f in census.orbit_sizes.items())
    assert total == enumerate_matchings(m).connected


def test_orbit_census_tallies_the_same_pass_as_the_enumeration():
    for m in (1, 2, 3):
        assert orbit_census(m).matches == enumerate_matchings(m)


#: A connected order-2 pairing outside the p[0] == 1 shard: the kind of
#: pairing `_lossy_walk` takes off the tally.
_DROPPED = (2, 0, 3, 1, 4)


def _lossy_walk(walk):
    """The census walk with one connected pairing outside the p[0] == 1 shard lost."""

    def lossy(m, *args, **kwargs):
        parts = walk(m, *args, **kwargs)
        parts[0] -= 1
        return parts

    return lossy


def test_orbit_census_raises_when_a_pairing_goes_missing(monkeypatch):
    # the shard counts are untouched, so 2m times them overshoots the
    # connected tally by the one pairing lost from the walk
    assert matching_is_connected(_DROPPED, 2) and _DROPPED[0] != 1
    monkeypatch.setattr(oracle, "_walk_pairings", _lossy_walk(oracle._walk_pairings))
    with pytest.raises(RuntimeError, match="do not add up"):
        orbit_census(2)


def test_orbit_census_raises_under_python_dash_o():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), str(root / "tests"), env.get("PYTHONPATH")])
    )
    script = (
        "from feyncount import oracle\n"
        "from test_oracle import _lossy_walk\n"
        "oracle._walk_pairings = _lossy_walk(oracle._walk_pairings)\n"
        "oracle.orbit_census(2)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1
    assert "RuntimeError" in result.stderr and "do not add up" in result.stderr


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_walk_matches_the_reference_stream_shard_by_shard(m):
    # the whole walk against the plain stream of pairings: the vacuum
    # tally by an independent BFS, and the orbit minima of the connected
    # pairings with p[0] == 1, with their multiplicities.  At m = 4 only
    # the 40,320 pairings (1, *tail) are read, as the recorded leaves
    # reach 5 free slots there and at no smaller order; the order-4
    # vacuum tally is test_walk_states_give_the_oracle_vacuum_tally's.
    shard = Counter()
    parts = oracle._walk_pairings(m, shard)
    if m < 4:
        tally = [0] * (m + 1)
        for p in itertools.permutations(range(2 * m + 1)):
            tally[m + 2 - len(_bfs_component_of_x(p, m))] += 1
        assert parts == tally
    tails = itertools.permutations([0, *range(2, 2 * m + 1)])
    forms = Counter(
        canonical_form(p, m).pairing
        for p in ((1, *tail) for tail in tails)
        if len(_bfs_component_of_x(p, m)) == m + 2
    )
    assert shard == forms


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_walk_generates_every_pairing_one_by_one(monkeypatch, m):
    # every completion the walk tallies comes out of itertools.permutations,
    # with and without the shard, so a factorial or a memo by state in place
    # of a loop over completions yields fewer than (2m+1)! tuples
    generated = []
    permutations = itertools.permutations

    def counted(*args):
        for tail in permutations(*args):
            generated.append(None)
            yield tail

    monkeypatch.setattr(itertools, "permutations", counted)
    for args in ((), (Counter(),)):
        generated.clear()
        oracle._walk_pairings(m, *args)
        assert len(generated) == math.factorial(2 * m + 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_walk_counts_no_completion_without_its_tuple(monkeypatch, m):
    # each call to itertools.permutations loses its last tuple, so a tally
    # taken from the tuples falls short by one per call, with and without
    # the shard; a class counted as a factorial, or derived as what is left
    # of the other, would not fall short
    permutations = itertools.permutations
    calls = []

    def all_but_the_last(*args):
        calls.append(None)
        tails = permutations(*args)
        held = next(tails)
        for tail in tails:
            yield held
            held = tail

    monkeypatch.setattr(itertools, "permutations", all_but_the_last)
    for args in ((), (Counter(),)):
        calls.clear()
        parts = oracle._walk_pairings(m, *args)
        assert sum(parts) == math.factorial(2 * m + 1) - len(calls)


def test_walk_holds_no_list_of_completions():
    # the largest leaf at order 4 completes 8 free slots: a list of its
    # 8! completions would take megabytes
    import tracemalloc

    tracemalloc.start()
    try:
        enumerate_matchings(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def test_census_representatives_are_canonical():
    for m in (1, 2, 3):
        for diagram in orbit_census(m).representatives:
            assert canonical_form(diagram.pairing, m) == diagram


def test_canonical_form_classifies_orbits():
    # full per-pairing minimization must produce exactly the census keys,
    # all in the p[0] == 1 shard and in lexicographic order
    for m in (1, 2, 3):
        reps = [d.pairing for d in orbit_census(m).representatives]
        assert all(p[0] == 1 for p in reps)
        forms = {
            canonical_form(p, m).pairing
            for p in itertools.permutations(range(2 * m + 1))
            if matching_is_connected(p, m)
        }
        assert reps == sorted(forms)


def test_canonical_form_is_the_group_minimum_on_every_pairing():
    # disconnected pairings too, where each vacuum part in turn is rooted
    # at the slot whose part reads least
    for m in (1, 2, 3):
        for p in itertools.permutations(range(2 * m + 1)):
            assert canonical_form(p, m).pairing == _group_minimum(p, m), p


@settings(max_examples=100, deadline=None)
@given(_pairings(max_order=4))
def test_canonical_form_is_the_group_minimum(drawn):
    m, p = drawn
    assert canonical_form(p, m).pairing == _group_minimum(p, m)


def test_canonical_form_invariant_under_group():
    tables = _group(2)
    for diagram in orbit_census(2).representatives:
        for table in tables:
            assert canonical_form(_act(table, diagram.pairing), 2) == diagram


@settings(max_examples=50, deadline=None)
@given(_pairings(max_order=4), st.data())
def test_canonical_form_invariant_under_random_group_element(drawn, data):
    m, p = drawn
    table = data.draw(st.sampled_from(_group(m)))
    assert canonical_form(_act(table, p), m) == canonical_form(p, m)


@settings(max_examples=200, deadline=None)
@given(_block_pairings(max_order=12), st.data())
def test_canonical_form_is_invariant_and_idempotent_past_brute_force_reach(drawn, data):
    # one relabel-and-flip table drawn directly: _group(12) would hold
    # 24!! = 1,961,990,553,600 tables
    m, p = drawn
    relabel = data.draw(st.permutations(range(1, m + 1)))
    flips = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    moved = _act(_table(relabel, flips), p)
    form = canonical_form(p, m)
    assert canonical_form(moved, m) == form
    assert canonical_form(form.pairing, m) == form
    assert form.pairing <= min(p, moved)


def test_canonical_form_is_polynomial_in_the_vacuum_parts():
    # a search over the order of the vacuum parts' roots takes about
    # 2^k k! walks for k parts, so it never returns here; one greedy pass
    # takes milliseconds.  A fresh interpreter, so the timeout can stop it.
    # Fifteen two-vertex parts at order 30 alternate between two members
    # of one orbit, whose order-2 form is tiled at slots 1 + 4k.
    members = [(0, 2, 3, 1, 4), (0, 1, 4, 2, 3)]
    form = _group_minimum(members[0], 2)
    assert form == (0, 1, 3, 4, 2) == _group_minimum(members[1], 2)
    tiled = (0, *(4 * k + c for k in range(15) for c in members[k % 2][1:]))
    expected = (0, *(4 * k + c for k in range(15) for c in form[1:]))
    script = (
        "from feyncount.oracle import canonical_form\n"
        "print(canonical_form(tuple(range(81)), 40).pairing)\n"
        f"print(canonical_form({tiled}, 30).pairing)\n"
    )
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=20,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"{tuple(range(81))}\n{expected}\n"


def test_canonical_form_separates_order_one_diagrams():
    census = orbit_census(1)
    first, second = census.representatives
    assert first != second
    # the point swap maps each connected pairing onto its orbit partner
    assert canonical_form((2, 0, 1), 1) == canonical_form((1, 2, 0), 1)


def test_canonical_form_validates_input():
    with pytest.raises(ValueError):
        canonical_form((0, 0, 1), 1)
    with pytest.raises(ValueError):
        canonical_form((0, 1), 1)


@pytest.mark.parametrize("entry", [canonical_form, matching_is_connected, diagram_edges])
@pytest.mark.parametrize("pairing", [(0.0, 1, 2), (1.0, 0, 2), (1, 0, 2.0)])
def test_pairing_entry_points_refuse_slots_that_are_not_ints(entry, pairing):
    # each sorts equal to range(3), so only the slots' type gives them away
    with pytest.raises(_Refusal) as refusal:
        entry(pairing, 1)
    assert str(refusal.value) == "not a bijection on 3 slots"


def test_caps():
    with pytest.raises(OrderCapError, match="39916800"):
        enumerate_matchings(DEFAULT_ORDER_CAP + 1)
    with pytest.raises(OrderCapError):
        enumerate_matchings(OVERRIDE_ORDER_CAP + 1, override=True)
    with pytest.raises(OrderCapError, match="39916800"):
        orbit_census(DEFAULT_ORDER_CAP + 1)
    with pytest.raises(ValueError):
        enumerate_matchings(0)
    # a cap refusal is an input refusal, so callers catching ValueError see it
    with pytest.raises(ValueError):
        orbit_census(DEFAULT_ORDER_CAP + 1)


def test_export_first_order_one_diagram():
    census = orbit_census(1)
    dot = export_diagram(census.representatives[0])
    assert dot == (
        "graph diagram_m1 {\n"
        "  X;\n"
        "  Y;\n"
        "  v1;\n"
        "  X -- v1;\n"
        "  v1 -- Y;\n"
        "  v1 -- v1;\n"
        "}\n"
    )


def test_export_writes_a_bool_order_as_the_int_it_is():
    # a bool is an int, as it is to `range`, and its diagram's text is order 1's
    first = export_diagram(orbit_census(1).representatives[0])
    assert export_diagram(orbit_census(True).representatives[0]) == first
    assert export_diagram(canonical_form((1, 0, 2), True)) == first
    assert export_diagram(CanonicalDiagram(True, (1, 0, 2))) == first


def test_export_is_deterministic_and_well_formed():
    for diagram in orbit_census(2).representatives:
        dot = export_diagram(diagram)
        assert dot == export_diagram(diagram)
        lines = dot.splitlines()
        assert lines[0] == "graph diagram_m2 {"
        assert lines[1:5] == ["  X;", "  Y;", "  v1;", "  v2;"]
        assert sum(1 for line in lines if " -- " in line) == 5


def test_export_rejects_corrupt_diagram():
    with pytest.raises(ValueError):
        export_diagram(CanonicalDiagram(order=1, pairing=(0, 1)))
