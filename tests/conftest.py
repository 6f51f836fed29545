import sys

import pytest


@pytest.fixture
def default_digit_limit():
    """Pin CPython's default 4300-digit int -> str limit for one test."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(previous)
