"""Exact counting of connected Feynman diagrams per perturbation order.

Four exact-arithmetic routes to the connected-diagram count (the Wick
walk counted by state, the default; a bubble-subtraction recurrence; a
signed closed form; and the Arques-Walsh rooted-map sequence, by its
Riccati recurrence) plus a brute-force Wick-contraction enumerator that
serves as ground truth at small order.

Importing the package loads none of its modules: each is imported when
one of its names is first used, so a caller of `distinct_connected`
never compiles the Wick oracle.
"""

__version__ = "0.1.0"

#: The public names, each under the module that defines it.
_EXPORTS = {
    "compositions": (
        "count_compositions",
        "enumerate_compositions",
        "multiset_multiplicity",
    ),
    "counting": (
        "Check",
        "CountRow",
        "ExactnessError",
        "MethodDisagreementError",
        "VerificationReport",
        "arques_walsh",
        "bubble_diagrams",
        "coefficient",
        "connected_closed_form",
        "connected_recurrence",
        "connected_sequence",
        "count_table",
        "distinct_connected",
        "double_factorial",
        "total_diagrams",
    ),
    "checks": (
        "verify_coefficient_recursion",
        "verify_convolution",
        "verify_divisibility",
        "verify_rewrite_identities",
        "verify_three_path",
    ),
    "oracle": (
        "DEFAULT_ORDER_CAP",
        "OVERRIDE_ORDER_CAP",
        "CanonicalDiagram",
        "MatchCensus",
        "OrbitCensus",
        "OrderCapError",
        "canonical_form",
        "diagram_edges",
        "enumerate_matchings",
        "export_diagram",
        "matching_is_connected",
        "orbit_census",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule binds it in this namespace; bind the name beside
    # it, so the next lookup does not come back here
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
