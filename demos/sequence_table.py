#!/usr/bin/env python3
"""Walk through the diagram-count sequences order by order.

Builds the per-order table (total, bubble, connected, distinct) with the
default route, which counts the Wick walk by state, then recomputes the
connected column through the other three routes (the bubble-subtraction
recurrence, the signed closed form and the Arques-Walsh rooted-map sum)
and shows that all four agree exactly.

Counts print through `Decimal`, which CPython's int -> str digit limit
does not govern: the total passes its default 4300 digits at order 779.

Run: python3 demos/sequence_table.py [max_order]
"""

import sys
from decimal import Decimal

from feyncount import count_table


def main():
    max_order = int(sys.argv[1]) if len(sys.argv) > 1 else 10

    print(f"Counts for perturbation orders 0..{max_order} (exact integers):\n")
    rows = count_table(max_order)
    header = f"{'m':>3}  {'total':>22}  {'bubble':>22}  {'connected':>22}  {'distinct':>14}"
    print(header)
    print("-" * len(header))
    for r in rows:
        total, bubble, connected, distinct = map(Decimal, r[1:])
        print(f"{r.m:>3}  {total:>22}  {bubble:>22}  {connected:>22}  {distinct:>14}")

    print("\nThe distinct column is the Arques-Walsh sequence: 2, 10, 74, 706, ...")
    print("Cross-checking the connected column through the other three routes:\n")

    # one build per route; Arques-Walsh's connected column is (2m)!! times its distinct counts
    recurrence, closed, walsh = (
        [row.connected for row in count_table(max_order, method=method)]
        for method in ("recurrence", "closed-form", "arques-walsh")
    )
    for r in rows[1:]:
        m = r.m
        status = "agree" if r.connected == recurrence[m] == closed[m] == walsh[m] else "DISAGREE"
        print(f"  m={m:>2}: recurrence={Decimal(recurrence[m])}  closed-form={Decimal(closed[m])}  "
              f"(2m)!!*arques-walsh={Decimal(walsh[m])}  -> {status}")
        assert status == "agree"

    print("\nAll four routes produced identical exact values.")


if __name__ == "__main__":
    main()
