"""Every positive real parameter is checked the same way, wherever it
enters: a bool, NaN, +-inf or a value <= 0 raises ValueError. The strong
threshold of `analyze` is the one real that may also be 0. A seed is an
integer in [0, 2**64), checked by every function that consumes one."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filexlab.analysis import PAIRINGS, analyze_records
from filexlab.filex import FilexParams
from filexlab.params import PARAMS
from filexlab.seeding import make_rng, mix64
from filexlab.stats import binomial_sign_test, gaussian_smooth
from filexlab.sweep import FILEX, TOY_ELS, RunRecord, SweepSpec, default_filex_suite, log_sweep
from filexlab.toy_els import ToyElsParams
from filexlab.validation import check_seed, is_integer, param_kinds, shown

_NOT_POSITIVE = st.one_of(
    st.sampled_from([True, False, np.True_, np.False_, math.nan, math.inf, -math.inf,
                     np.float64(math.nan), np.float32(math.inf), np.float32(-math.inf)]),
    st.floats(max_value=0.0),
    st.floats(max_value=0.0).map(np.float64),
    st.integers(max_value=0),
    st.integers(-(2**63), 0).map(np.int64),
)

# four untied points per compared sweep, so any finite threshold >= 0 works
_SWEEPS = {(FILEX, f_param) for _, f_param, _ in PAIRINGS} | {(TOY_ELS, t) for *_, t in PAIRINGS}
_RECORDS = [
    RunRecord(target=target, swept_param=param, value=float(i + 1), seed=i, entropy=float(i))
    for target, param in sorted(_SWEEPS)
    for i in range(4)
]


def _is_zero(v) -> bool:
    return not isinstance(v, (bool, np.bool_)) and v == 0


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_NOT_POSITIVE)
def test_positive_parameters_reject_the_same_values(bad):
    for cls, target in ((FilexParams, FILEX), (ToyElsParams, TOY_ELS)):
        for name in param_kinds(cls):
            with pytest.raises(ValueError):
                cls(**{**asdict(PARAMS[target]()), name: bad})
    for bound in ({"low": bad, "high": 10.0}, {"low": 1.0, "high": bad}):
        with pytest.raises(ValueError):
            SweepSpec(FILEX, "alpha", steps=3, integer_valued=False, defaults={}, base_seed=0,
                      **bound)
    with pytest.raises(ValueError):
        gaussian_smooth([(1.0, 0.0), (10.0, 1.0)], bandwidth=bad)
    if _is_zero(bad):
        assert analyze_records(_RECORDS, strong_threshold=bad).strong_match_count == 5
    else:
        with pytest.raises(ValueError, match="strong_threshold"):
            analyze_records(_RECORDS, strong_threshold=bad)


@pytest.mark.parametrize("v", [3, np.int8(3), np.int64(3), np.uint64(3)], ids=repr)
def test_numpy_integers_of_every_width_are_integers(v):
    assert is_integer(v)
    assert FilexParams(alpha=1.0, beta=v, lexicon_size=v, n_iters=v).beta == 3


_TOP_SEED = 2**64 - 1


@pytest.mark.parametrize("v", [0, _TOP_SEED, np.uint64(_TOP_SEED)], ids=repr)
def test_a_seed_is_any_64_bit_integer(v):
    check_seed("seed", v)
    make_rng(v)
    assert mix64(v, 0) == mix64(int(v), 0)


@pytest.mark.parametrize("v, rule", [
    (-1, "must be a non-negative integer, got -1"),
    (2**64, f"must be below 2**64, got {2**64}"),
    (True, "must be a non-negative integer, got True"),
    (1.0, "must be a non-negative integer, got 1.0"),
    ("1", "must be a non-negative integer, got '1'"),
], ids=repr)
def test_check_seed_rejects_what_is_not_a_64_bit_integer(v, rule):
    with pytest.raises(ValueError) as info:
        check_seed("seed", v)
    assert str(info.value) == f"seed {rule}"


@pytest.mark.parametrize("call", [
    lambda: SweepSpec(FILEX, "alpha", 1.0, 2.0, 3, False, {}, base_seed=-1),
    lambda: default_filex_suite(root_seed=2**64),
    lambda: mix64(-1, 0),
    lambda: make_rng(True),
], ids=["spec", "suite", "mix64", "make_rng"])
def test_every_seed_consumer_checks_the_seed_rule(call):
    with pytest.raises(ValueError, match="seed must be"):
        call()


# float(v) overflows for every int of at least 2**1024 in magnitude
_BEYOND_DOUBLE = st.one_of(st.integers(min_value=2**1024), st.integers(max_value=-(2**1024)))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_BEYOND_DOUBLE)
def test_ints_beyond_double_range_are_not_reals(huge):
    # an int beyond the double range is no finite real: a ValueError where
    # it enters, not an OverflowError when a run or a grid converts it
    for cls, target in ((FilexParams, FILEX), (ToyElsParams, TOY_ELS)):
        for name, kind in param_kinds(cls).items():
            if kind is float:
                with pytest.raises(ValueError, match=name):
                    cls(**{**asdict(PARAMS[target]()), name: huge})
    for low, high in ((huge, 10.0), (1.0, huge)):
        with pytest.raises(ValueError, match="bounds"):
            SweepSpec(FILEX, "alpha", low, high, steps=3, integer_valued=False, defaults={},
                      base_seed=0)
        with pytest.raises(ValueError, match="bounds"):
            log_sweep(low, high, 3)
    with pytest.raises(ValueError, match="bandwidth"):
        gaussian_smooth([(1.0, 0.0), (10.0, 1.0)], bandwidth=huge)
    with pytest.raises(ValueError, match="strong_threshold"):
        analyze_records(_RECORDS, strong_threshold=huge)


# 16,610 bits: past the 4,300 decimal digits Python prints by default
# (sys.get_int_max_str_digits()), so repr() of it raises ValueError
_UNPRINTABLE = 10**5000


def test_shown_is_repr_or_the_size_of_an_unprintable_int():
    assert [shown(v) for v in (3, 2.5, "a", True, 10**400)] == [
        "3", "2.5", "'a'", "True", repr(10**400),
    ]
    assert shown(_UNPRINTABLE) == "an int of 16610 bits"
    assert shown(-_UNPRINTABLE) == "a negative int of 16610 bits"
    assert shown([_UNPRINTABLE]) == "a list that cannot be printed"


@pytest.mark.parametrize("call, message", [
    (lambda: FilexParams(alpha=_UNPRINTABLE, beta=1, lexicon_size=2, n_iters=1),
     "alpha must be a positive finite real, got an int of 16610 bits"),
    (lambda: FilexParams(alpha=1.0, beta=1, lexicon_size=-_UNPRINTABLE, n_iters=1),
     "lexicon_size must be a positive integer, got a negative int of 16610 bits"),
    (lambda: log_sweep(1, _UNPRINTABLE, 3),
     "bounds must be finite positive reals, got (1, an int of 16610 bits)"),
    (lambda: log_sweep(1, 2, -_UNPRINTABLE),
     "n must be a positive integer, got a negative int of 16610 bits"),
    (lambda: SweepSpec(FILEX, "alpha", 1.0, 2.0, 3, _UNPRINTABLE, {}, 0),
     "integer_valued must be a bool, got an int of 16610 bits"),
    (lambda: binomial_sign_test(_UNPRINTABLE, 3),
     "successes must be in [0, 3], got an int of 16610 bits"),
    (lambda: analyze_records(_RECORDS, strong_threshold=-_UNPRINTABLE),
     "strong_threshold must be a finite real >= 0, got a negative int of 16610 bits"),
    (lambda: check_seed("seed", _UNPRINTABLE), "seed must be below 2**64, got an int of 16610 bits"),
], ids=["real", "int", "bounds", "log_sweep_n", "integer_valued", "sign_test", "threshold", "seed"])
def test_messages_name_an_unprintable_int_by_size(call, message):
    # the message is the rule's own, not Python's "Exceeds the limit" error
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
