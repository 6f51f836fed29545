#!/usr/bin/env python3
"""Compositions: the index tuples behind every signed count expansion.

Lists the 16 ordered ways of adding 5, groups them by part multiset, and
shows that the multinomial multiplicity predicts each group size: the
bookkeeping that lets `coefficient`'s classificatory sum run over the
p(n) part multisets of n instead of its 2**(n-1) compositions.

Run: python3 demos/compositions_tour.py
"""

from collections import Counter

from feyncount import count_compositions, enumerate_compositions, multiset_multiplicity


def main():
    n = 5
    print(f"All {count_compositions(n)} compositions of {n}, in cut-mask order:\n")
    for parts in enumerate_compositions(n):
        print("   " + " + ".join(str(p) for p in parts))

    print("\nGrouped by part multiset (multiplicity = multinomial):\n")
    groups: dict[tuple, list] = {}
    for parts in enumerate_compositions(n):
        key = tuple(sorted(Counter(parts).items()))
        groups.setdefault(key, []).append(parts)

    total = 0
    for key, members in sorted(groups.items()):
        multiset = dict(key)
        predicted = multiset_multiplicity(multiset)
        assert predicted == len(members)
        total += predicted
        shown = ", ".join("+".join(map(str, p)) for p in members)
        print(f"   {multiset}: {predicted} compositions  ({shown})")

    print(f"\nGroup sizes sum to {total} = 2**{n - 1}; the grouping is lossless.")


if __name__ == "__main__":
    main()
