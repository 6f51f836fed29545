#!/usr/bin/env python3
"""Ground truth by exhaustion: enumerate every Wick contraction at small order.

The order-m operator string has 2m+1 slots per side; every bijection from
annihilation to creation slots is visited, sorted by the size n of its
vacuum part (the vertices cut off from the external points), and the
connected ones (n = 0) are grouped into orbits of the (2m)!! symmetry
(vertex relabelings times primed/unprimed point swaps).  The counts land
exactly on what the formulas predict, with no formula consulted by the
enumeration; the demo asserts each one.

Run: python3 demos/wick_enumeration.py
"""

from math import comb

from feyncount import (
    arques_walsh,
    bubble_diagrams,
    connected_sequence,
    export_diagram,
    orbit_census,
    total_diagrams,
)


def main():
    print("Exhaustive enumeration versus the formulas:\n")
    for m in range(1, 4):
        orbits = orbit_census(m)
        census = orbits.matches
        connected = connected_sequence(m)
        print(f"order {m}:")
        print(f"  pairings visited   {census.total:>6}   formula (2m+1)!   = {total_diagrams(m)}")
        assert census.total == total_diagrams(m)
        for n, count in enumerate(census.vacuum_parts):
            predicted = comb(m, n) * bubble_diagrams(n) * connected[m - n]
            print(f"  vacuum part n={n}    {count:>6}   C(m,n)(2n)!c(m-n) = {predicted}")
            assert count == predicted
        print(f"  symmetry orbits    {orbits.orbit_count:>6}   arques-walsh      = {arques_walsh(m)}")
        assert orbits.orbit_count == arques_walsh(m)
        print(f"  orbit size histogram: {orbits.orbit_sizes}")
        print()

    print("The two distinct order-1 diagrams, as DOT multigraphs:\n")
    for diagram in orbit_census(1).representatives:
        print(export_diagram(diagram))


if __name__ == "__main__":
    main()
