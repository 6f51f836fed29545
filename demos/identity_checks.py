#!/usr/bin/env python3
"""Exercise every identity suite the checks module provides.

Each suite returns a report of named exact-equality checks:

  * convolution      : the factorial total rebuilt from bubble x walk counts
  * divisibility     : (2m)!! divides the recurrence's connected count
  * rewrites         : factorial identities bridging the two count formulas
  * three-path       : recurrence vs closed form vs Arques-Walsh
  * coefficient      : the recursion that propagates closed-form weights

Run: python3 demos/identity_checks.py
"""

from feyncount import (
    verify_coefficient_recursion,
    verify_convolution,
    verify_divisibility,
    verify_rewrite_identities,
    verify_three_path,
)


def show(title, report, sample=3):
    passed = sum(1 for c in report.checks if c.passed)
    print(f"{title}: {passed}/{len(report.checks)} checks pass")
    for check in report.checks[:sample]:
        print(f"    {check.name} [{check.params}] expected={check.expected} "
              f"actual={check.actual} -> {'PASS' if check.passed else 'FAIL'}")
    if len(report.checks) > sample:
        print(f"    ... {len(report.checks) - sample} more")
    assert report.overall
    print()


def main():
    show("Convolution identity, m <= 30", verify_convolution(30))
    show("Divisibility of the recurrence's counts by (2m)!!, m <= 30", verify_divisibility(30))
    show("Factorial rewrites, n <= 12", verify_rewrite_identities(12))
    show("Three-path agreement, m <= 14", verify_three_path(14))
    show("Coefficient recursion, all (s, m) pairs with m <= 10",
         verify_coefficient_recursion(10))
    print("Every suite passed.")


if __name__ == "__main__":
    main()
