"""What a valid number is, stated once; every check raises ValueError.

A bool is never a number (True == 1 would pass as a count or a bound),
and a real is finite: NaN, +-inf and an int beyond the double range are not."""

import functools
import math
import numbers
from dataclasses import fields
from typing import get_type_hints


@functools.cache
def param_kinds(params_cls: type) -> dict[str, type]:
    """Field name -> int or float for a params dataclass, in field order."""
    hints = get_type_hints(params_cls)
    return {f.name: hints[f.name] for f in fields(params_cls)}


def is_integer(v) -> bool:
    """True for an int or numpy integer (numpy registers its integer types,
    not np.bool_, as numbers.Integral)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v) -> bool:
    """True for a finite real number, numpy scalars included."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int beyond the double range
        return False


def shown(v) -> str:
    """repr(v) for an error message. repr raises ValueError on an int of more
    decimal digits than sys.get_int_max_str_digits(): such an int is shown
    by its size, and a value holding one by its type."""
    try:
        return repr(v)
    except ValueError:
        if isinstance(v, int):
            return f"{'a negative' if v < 0 else 'an'} int of {v.bit_length()} bits"
        return f"a {type(v).__name__} that cannot be printed"


def check_positive_int(name: str, v) -> None:
    if not (is_integer(v) and v >= 1):
        raise ValueError(f"{name} must be a positive integer, got {shown(v)}")


def check_positive_real(name: str, v) -> None:
    if not (is_real(v) and v > 0):
        raise ValueError(f"{name} must be a positive finite real, got {shown(v)}")


def check_seed(name: str, v) -> None:
    """A seed is an integer in [0, 2**64): every seed mix64 derives, and so
    every seed a record stores, lies in it."""
    if not (is_integer(v) and v >= 0):
        raise ValueError(f"{name} must be a non-negative integer, got {shown(v)}")
    if int(v) >= 2**64:
        raise ValueError(f"{name} must be below 2**64, got {shown(v)}")


def check_positive(params) -> None:
    """Check every field of a params dataclass by the rule for its kind."""
    for name, kind in param_kinds(type(params)).items():
        (check_positive_int if kind is int else check_positive_real)(name, getattr(params, name))
