"""`verify`'s suite list: its row order, one build per route per run, and
the planted-fault matrix, which names the checks each fault in `src/` fails."""

from itertools import islice

import pytest

from feyncount import checks, counting, oracle
from feyncount.cli import main

# each route's builder on `counting`, by its `--method` name
BUILDERS = {
    "walk": "_walk_counts",
    "recurrence": "connected_sequence",
    "closed-form": "_closed_form_sequence",
    "arques-walsh": "_arques_walsh_sequence",
}

# These restate their own inputs, so they fail only where the function they
# check is changed, never where a count is wrong: `bubble-rewrite` holds
# for any bubble(n) once bubble(1) = 2, `total-rewrite` compares two
# `math.factorial` wrappers with each other, and `composition-count-formula`
# compares `count_compositions(n)` with its own body.  They stay until a
# change that may update the pinned `verify` digests retires them.
TAUTOLOGIES = {"bubble-rewrite", "total-rewrite", "composition-count-formula"}


def _plant(monkeypatch, module, name, order, delta=1):
    """Patch `module.name` so that its value at `order` is `delta` more.

    A route builder's column gains `delta` at index `order`; any other
    function's value gains it where its one argument is `order`.
    """
    original = getattr(module, name)
    if name in BUILDERS.values():
        def planted(m_max):
            column = list(original(m_max))
            column[order] += delta
            return column
    else:
        def planted(arg):
            return original(arg) + delta * (arg == order)
    monkeypatch.setattr(module, name, planted)


def _short_stream(monkeypatch, order):
    # the composition stream of `order` one composition short
    stream = checks.enumerate_compositions
    monkeypatch.setattr(checks, "enumerate_compositions",
                        lambda n: islice(stream(n), (1 << (n - 1)) - (n == order)))


def _census_part(monkeypatch, order, index):
    # the census walk's tally at `order` one pairing over in vacuum_parts[index]
    walk = oracle._walk_pairings

    def planted(m, *args, **kwargs):
        parts = walk(m, *args, **kwargs)
        parts[index] += m == order
        return parts

    monkeypatch.setattr(oracle, "_walk_pairings", planted)


FAULTS = {
    "walk D(5) + 1": (lambda mp: _plant(mp, counting, "_walk_counts", 5), {"convolution"}),
    # the census rows read the walk's column
    "walk D(3) + 1": (
        lambda mp: _plant(mp, counting, "_walk_counts", 3),
        {"convolution", "wick-connected", "orbit-count", "orbit-histogram"},
    ),
    "route 1 c(5) + 1": (
        lambda mp: _plant(mp, counting, "connected_sequence", 5),
        {"divisibility", "closed-form-agreement", "arques-walsh-agreement"},
    ),
    "route 2 c(5) + 1": (
        lambda mp: _plant(mp, counting, "_closed_form_sequence", 5), {"closed-form-agreement"},
    ),
    "route 3 D(5) + 1": (
        lambda mp: _plant(mp, counting, "_arques_walsh_sequence", 5), {"arques-walsh-agreement"},
    ),
    "route 3 D(3) + 1": (
        lambda mp: _plant(mp, counting, "_arques_walsh_sequence", 3), {"arques-walsh-agreement"},
    ),
    "total_diagrams(5) + 1": (
        lambda mp: _plant(mp, counting, "total_diagrams", 5), {"total-rewrite"},
    ),
    # bubble(1) bubble(5)/2 is bubble(5), planted or not
    "bubble_diagrams(5) + 1": (
        lambda mp: _plant(mp, counting, "bubble_diagrams", 5), {"total-rewrite"},
    ),
    "double_factorial(10) + 1": (
        lambda mp: _plant(mp, counting, "double_factorial", 10), {"convolution", "divisibility"},
    ),
    "_classificatory_sum(3) + 1": (
        lambda mp: _plant(mp, counting, "_classificatory_sum", 3), {"coefficient-recursion"},
    ),
    "count_compositions(5) + 1": (
        lambda mp: _plant(mp, checks, "count_compositions", 5), {"composition-count-formula"},
    ),
    "composition stream of 5 one short": (
        lambda mp: _short_stream(mp, 5), {"composition-count"},
    ),
    # the census checks no vacuum part, so the rows read it
    "census vacuum part + 1 at m = 3": (
        lambda mp: _census_part(mp, 3, -1), {"wick-total", "wick-vacuum"},
    ),
}


def _failing(max_order):
    return {c.name for c in checks.run(max_order).checks if not c.passed}


@pytest.mark.parametrize("fault", FAULTS)
def test_each_planted_fault_fails_exactly_its_checks(monkeypatch, fault):
    plant, failing = FAULTS[fault]
    plant(monkeypatch)
    assert _failing(6) == failing


def test_a_census_that_misses_a_connected_pairing_raises(monkeypatch):
    # the census's orbits no longer sum to its connected tally
    _census_part(monkeypatch, 3, 0)
    with pytest.raises(RuntimeError):
        checks.run(6)


def test_every_check_but_a_restatement_is_failed_by_a_planted_fault():
    names = {c.name for c in checks.run(6).checks}
    caught = set().union(*(failing for _, failing in FAULTS.values()))
    assert caught <= names and TAUTOLOGIES <= names
    assert names - caught == {"bubble-rewrite"}


def test_the_suites_are_listed_in_row_order():
    # each suite adds its rows after the one before it, and the public
    # functions each run their own suite to the same rows
    names = [c.name for c in checks.run(6).checks]
    assert list(dict.fromkeys(names)) == [
        "convolution", "divisibility", "total-rewrite", "bubble-rewrite",
        "closed-form-agreement", "arques-walsh-agreement", "coefficient-recursion",
        "composition-count", "composition-count-formula", "wick-total", "wick-connected",
        "wick-vacuum", "orbit-count", "orbit-histogram",
    ]
    assert [name for name, _ in checks.SUITES] == [
        "convolution", "divisibility", "rewrite-identities", "three-path",
        "coefficient-recursion", "compositions", "wick",
    ]
    alone = [checks.verify_convolution, checks.verify_divisibility,
             checks.verify_rewrite_identities, checks.verify_three_path,
             checks.verify_coefficient_recursion]
    # all but the 2 composition rows per n and the 5 census rows per m
    rows = checks.run(6).checks[: -(2 * 6 + 5 * 4)]
    assert sum((verify(6).checks for verify in alone), []) == rows


def test_verify_builds_each_route_once(monkeypatch, capsys):
    calls = dict.fromkeys(BUILDERS, 0)
    for route, name in BUILDERS.items():
        builder = getattr(counting, name)

        def counted(m_max, route=route, builder=builder):
            calls[route] += 1
            return builder(m_max)

        monkeypatch.setattr(counting, name, counted)
    assert main(["verify", "--max-order", "6"]) == 0
    assert calls == dict.fromkeys(BUILDERS, 1)
