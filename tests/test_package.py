"""The package namespace: its public names, when their modules load, and
the integer guard of each entry point: its floor and its non-integers."""

import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import feyncount
from feyncount.compositions import _Refusal, multiset_multiplicity
from feyncount.counting import _COUNT_METHODS, coefficient, double_factorial
from feyncount.oracle import CanonicalDiagram, OrderCapError

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Run in a fresh interpreter, as the test session has long imported every
# module; each step asserts on the state the steps before it left.
PUBLIC_NAMES_SCRIPT = """
import sys
sys.path.insert(0, SRC)
import feyncount

def loaded():
    return sorted(name for name in sys.modules if name.startswith('feyncount.'))

def missing(name):
    try:
        getattr(feyncount, name)
    except AttributeError:
        return True
    return False

assert loaded() == [], loaded()
assert {'__all__', '__version__', 'compositions', 'counting', 'oracle'} <= set(dir(feyncount))
assert set(feyncount.__all__) <= set(dir(feyncount))
assert missing('cli') and missing('no_such_name')

# a module name resolves after a bare import, loading only what it needs
assert feyncount.counting is sys.modules['feyncount.counting']
assert loaded() == ['feyncount.compositions', 'feyncount.counting'], loaded()

star = {}
exec('from feyncount import *', star)
del star['__builtins__']
assert sorted(star) == sorted(feyncount.__all__), sorted(star)
assert len(feyncount.__all__) == len(set(feyncount.__all__))

modules = [feyncount.compositions, feyncount.counting, feyncount.checks, feyncount.oracle]
for name in feyncount.__all__:
    value = getattr(feyncount, name)
    assert star[name] is value, name
    if name == '__version__':
        continue
    # every module that binds the name binds this object, and a function or
    # class is exported from the module that defines it
    homes = [module for module in modules if hasattr(module, name)]
    assert homes and all(getattr(module, name) is value for module in homes), name
    defined_in = getattr(value, '__module__', None)
    if defined_in is not None:
        assert getattr(sys.modules[defined_in], name) is value, name

# the star import loads the four modules, but not the command
assert loaded() == [
    'feyncount.checks', 'feyncount.compositions', 'feyncount.counting', 'feyncount.oracle'
], loaded()
assert missing('cli')
from feyncount import cli
assert feyncount.cli is cli and 'cli' in dir(feyncount)
"""


def test_public_names_are_their_modules_objects_and_load_on_first_use():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"SRC = {SRC!r}\n{PUBLIC_NAMES_SCRIPT}"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == proc.stderr == ""


def _pairing(call):
    """An entry point that takes a pairing, given the identity one of order m.

    The pairing is built from int(m), so a non-integer m reaches the entry
    point as the order alone.
    """
    return lambda m: call(tuple(range(2 * int(m) + 1)), m)


# Every public entry point with a floor on one integer argument: the floor and
# the name its refusal gives that argument.  `coefficient` refuses its floor
# before its n range, and at m = 0 that range is empty, so test_counting tests
# it apart.
FLOORS = {
    "total_diagrams": (0, "perturbation order"),
    "bubble_diagrams": (0, "perturbation order"),
    "connected_sequence": (0, "perturbation order"),
    "connected_recurrence": (0, "perturbation order"),
    "connected_closed_form": (0, "perturbation order"),
    "arques_walsh": (0, "perturbation order"),
    "distinct_connected": (0, "perturbation order"),
    "count_table": (0, "perturbation order"),
    "verify_convolution": (1, "m_max"),
    "verify_coefficient_recursion": (1, "m_max"),
    "verify_rewrite_identities": (1, "m_max"),
    "verify_three_path": (1, "m_max"),
    "verify_divisibility": (1, "m_max"),
    "enumerate_matchings": (1, "order"),
    "orbit_census": (1, "order"),
    "canonical_form": (1, "order"),
    "matching_is_connected": (1, "order"),
    "diagram_edges": (1, "order"),
    "count_compositions": (0, "n"),
    "enumerate_compositions": (0, "n"),
}
CALLS = {
    "canonical_form": _pairing(feyncount.canonical_form),
    "matching_is_connected": _pairing(feyncount.matching_is_connected),
    "diagram_edges": _pairing(feyncount.diagram_edges),
    # the generator refuses on its first step
    "enumerate_compositions": lambda n: next(feyncount.enumerate_compositions(n)),
}


@pytest.mark.parametrize("name", sorted(FLOORS))
@settings(max_examples=10, deadline=None)
@given(below=st.integers(max_value=-1))
# more than 4300 digits at either floor, past CPython's default int -> str limit
@example(below=-10**4300 - 1)
def test_every_entry_point_refuses_below_its_floor_and_not_at_it(name, below):
    least, label = FLOORS[name]
    call = CALLS.get(name, getattr(feyncount, name))
    with pytest.raises(_Refusal) as exc:
        call(least + below)
    assert str(exc.value) == f"{label} must be >= {least}, got {Decimal(least + below)}"
    call(least)


def _results(result):
    """What two calls' results compare by: a report by its checks."""
    return getattr(result, "checks", result)


@pytest.mark.parametrize("name", sorted(FLOORS))
def test_every_entry_point_refuses_a_non_integer_and_takes_a_bool(name):
    least, label = FLOORS[name]
    call = CALLS.get(name, getattr(feyncount, name))
    for value in (float(least), Fraction(least), Decimal(least), str(least)):
        with pytest.raises(_Refusal) as exc:
            call(value)
        assert str(exc.value) == f"{label} must be an integer, got {type(value).__name__}"
    # a bool is an int, as it is to `range`
    for value in (False, True):
        if value >= least:
            assert _results(call(value)) == _results(call(int(value)))


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: double_factorial(4.0), "k must be an integer, got float"),
        (lambda: coefficient(1.5, 3), "n must be an integer, got float"),
        (lambda: coefficient(1, 3.0), "perturbation order must be an integer, got float"),
        (lambda: multiset_multiplicity({1.5: 1}), "part must be an integer, got float"),
        (lambda: multiset_multiplicity({2: 1.0}), "multiplicity must be an integer, got float"),
        # a container of the wrong type, named by its type as a non-integer is
        (lambda: feyncount.canonical_form(4.0, 1), "pairing must be a tuple, got float"),
        (lambda: feyncount.diagram_edges(None, 1), "pairing must be a tuple, got NoneType"),
        (lambda: feyncount.matching_is_connected([1, 0, 2], 1),
         "pairing must be a tuple, got list"),
        (lambda: multiset_multiplicity([(1, 2)]), "part multiset must be a mapping, got list"),
        (lambda: feyncount.export_diagram((1, (1, 0, 2))),
         "diagram must be a CanonicalDiagram, got tuple"),
    ],
    ids=["double_factorial", "coefficient-n", "coefficient-m", "part", "multiplicity",
         "canonical_form-pairing", "diagram_edges-pairing", "matching_is_connected-pairing",
         "part-multiset", "export_diagram-diagram"],
)
def test_the_guards_outside_floors_refuse_a_non_integer(call, text):
    with pytest.raises(_Refusal) as exc:
        call()
    assert str(exc.value) == text


# Values no guard takes.  A type drawn here stands for that type of 10**k, built
# in the test: hypothesis writes the repr of what it draws, and from k = 4300 on
# that repr passes CPython's int -> str limit.
JUNK = st.one_of(
    st.floats(),
    st.text(max_size=20).filter(lambda text: text not in _COUNT_METHODS),
    st.none(),
    st.sampled_from([Fraction, Decimal]),
)
PAIRING_ENTRY_POINTS = ("canonical_form", "matching_is_connected", "diagram_edges")
# Every guard, given the junk at one argument: the 20 entry points of FLOORS,
# with a fixed pairing where they take one; the guards outside FLOORS; a slot of
# each pairing entry point; count_table's method; a diagram's order; and each
# container: a pairing, a part multiset and a diagram.
GUARDS = {
    **{name: CALLS.get(name, getattr(feyncount, name)) for name in FLOORS},
    **{name: lambda m, call=getattr(feyncount, name): call((1, 0, 2), m)
       for name in PAIRING_ENTRY_POINTS},
    "double_factorial": double_factorial,
    "coefficient-n": lambda n: coefficient(n, 3),
    "coefficient-m": lambda m: coefficient(1, m),
    "part": lambda part: multiset_multiplicity({part: 1}),
    "multiplicity": lambda mult: multiset_multiplicity({2: mult}),
    **{f"{name}-slot": lambda slot, call=getattr(feyncount, name): call((1, 0, slot), 1)
       for name in PAIRING_ENTRY_POINTS},
    "count_table-method": lambda method: feyncount.count_table(3, method=method),
    "export_diagram": lambda m: feyncount.export_diagram(CanonicalDiagram(m, (1, 0, 2))),
    **{f"{name}-pairing": lambda pairing, call=getattr(feyncount, name): call(pairing, 1)
       for name in PAIRING_ENTRY_POINTS},
    "part-multiset": multiset_multiplicity,
    "export_diagram-diagram": feyncount.export_diagram,
}
# the arguments whose refusal never states them, so an int of any size is junk there
UNSTATED = {
    f"{name}-{argument}" for name in PAIRING_ENTRY_POINTS for argument in ("slot", "pairing")
} | {"count_table-method", "part-multiset", "export_diagram-diagram"}


@pytest.mark.parametrize("name", sorted(GUARDS))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(junk=JUNK, k=st.integers(0, 5000))
@example(junk=Fraction, k=5000)
def test_every_guard_refuses_junk_in_a_short_message(name, junk, k, default_digit_limit):
    if isinstance(junk, type):
        junk = junk(10**k)
    for value in (junk, 10**k + 3) if name in UNSTATED else (junk,):
        with pytest.raises(_Refusal) as exc:
            GUARDS[name](value)
        assert len(str(exc.value)) < 200


# Every other refusal that states an integer argument, given one of more than
# 4300 digits: the refusal it raises and the value its message states.
PAST_THE_LIMIT = 10**4300
REFUSALS_PAST_THE_LIMIT = {
    "double_factorial": (
        lambda: double_factorial(PAST_THE_LIMIT + 1), _Refusal, PAST_THE_LIMIT + 1
    ),
    # the even argument, whose half is past what math.factorial takes
    "double_factorial-even": (
        lambda: double_factorial(2 * PAST_THE_LIMIT), _Refusal, 2 * PAST_THE_LIMIT
    ),
    # 2m+1 and 2m, past what math.factorial takes
    "total_diagrams": (
        lambda: feyncount.total_diagrams(PAST_THE_LIMIT), _Refusal, PAST_THE_LIMIT
    ),
    "bubble_diagrams": (
        lambda: feyncount.bubble_diagrams(PAST_THE_LIMIT), _Refusal, PAST_THE_LIMIT
    ),
    "coefficient": (lambda: coefficient(PAST_THE_LIMIT, 3), _Refusal, PAST_THE_LIMIT),
    "multiset_multiplicity": (
        lambda: multiset_multiplicity({-PAST_THE_LIMIT: 1}), _Refusal, -PAST_THE_LIMIT
    ),
    # the part count, the sum of the multiplicities
    "multiset_multiplicity-count": (
        lambda: multiset_multiplicity({1: PAST_THE_LIMIT}), _Refusal, PAST_THE_LIMIT
    ),
    # (2m+1)! > 10^4300, past the hard cap that no override reaches
    "enumerate_matchings": (
        lambda: feyncount.enumerate_matchings(PAST_THE_LIMIT), OrderCapError, PAST_THE_LIMIT
    ),
    "enumerate_matchings-override": (
        lambda: feyncount.enumerate_matchings(PAST_THE_LIMIT, override=True),
        OrderCapError,
        PAST_THE_LIMIT,
    ),
    "orbit_census": (
        lambda: feyncount.orbit_census(PAST_THE_LIMIT), OrderCapError, PAST_THE_LIMIT
    ),
    # the slot count 2m+1
    "canonical_form": (
        lambda: feyncount.canonical_form((0,), PAST_THE_LIMIT), _Refusal, 2 * PAST_THE_LIMIT + 1
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS_PAST_THE_LIMIT))
def test_refusals_state_values_past_the_digit_limit_in_full(name, default_digit_limit):
    call, refusal, value = REFUSALS_PAST_THE_LIMIT[name]
    with pytest.raises(refusal) as exc:
        call()
    assert str(Decimal(value)) in str(exc.value)
