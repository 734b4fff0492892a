import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau

from filexlab import stats
from filexlab.stats import (
    CorrelationSummary,
    UndefinedCorrelationError,
    binomial_sign_test,
    gaussian_smooth,
    kendall_tau,
    shannon_entropy,
)

from helpers import (
    dense_smooth_oracle,
    entropy_oracle,
    exact_tau_p_oracle,
    inversion_counts_oracle,
    inversion_tau_p_oracle,
    kendall_oracle,
    pair_sum_oracle,
)


# ---------------------------------------------------------------- entropy


def test_entropy_uniform_64():
    assert shannon_entropy(np.full(64, 1 / 64)) == pytest.approx(6.0, abs=1e-12)


def test_entropy_one_hot():
    assert shannon_entropy(np.array([0.0, 1.0, 0.0])) == 0.0


def test_entropy_dyadic():
    assert shannon_entropy(np.array([0.5, 0.25, 0.25])) == pytest.approx(1.5, abs=1e-12)


def test_entropy_permutation_invariant():
    rng = np.random.default_rng(8)
    p = rng.dirichlet(np.ones(12))
    for _ in range(5):
        q = rng.permutation(p)
        assert shannon_entropy(q) == pytest.approx(shannon_entropy(p), rel=1e-12)


def test_entropy_matches_direct_formula():
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = rng.dirichlet(np.ones(rng.integers(2, 40)))
        assert shannon_entropy(p) == pytest.approx(entropy_oracle(p), rel=1e-12)


def test_entropy_rejects_bad_input():
    with pytest.raises(ValueError):
        shannon_entropy(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        shannon_entropy(np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        shannon_entropy(np.array([]))
    with pytest.raises(ValueError):
        shannon_entropy(np.array([[0.5], [0.5]]))


# ---------------------------------------------------------------- kendall tau


def test_tau_perfect_concordance():
    s = kendall_tau([(1, 1), (2, 2), (3, 3)])
    assert s.tau == 1.0
    assert s.sign == "positive"
    assert s.n == 3


def test_tau_perfect_discordance():
    s = kendall_tau([(1, 3), (2, 2), (3, 1)])
    assert s.tau == -1.0
    assert s.sign == "negative"


def test_tau_matches_pair_counting_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(5, 200))
        # coarse integer grids force plenty of ties on both axes
        x = rng.integers(0, 8, n).astype(float)
        y = (x + rng.integers(0, 6, n)).astype(float)
        if len(set(x)) == 1 or len(set(y)) == 1:
            continue
        pts = np.column_stack([x, y])
        assert kendall_tau(pts).tau == pytest.approx(kendall_oracle(pts), abs=1e-12)


def test_tau_matches_scipy():
    rng = np.random.default_rng(18)
    for k in range(15):
        n = int(rng.integers(10, 250))
        x = rng.normal(size=n)
        y = 0.3 * x + rng.normal(size=n)
        if k % 2:
            x, y = np.round(x), np.round(y)
        ref, _ = kendalltau(x, y)
        assert kendall_tau(np.column_stack([x, y])).tau == pytest.approx(ref, abs=1e-12)


def test_tau_p_matches_scipy_normal_regime():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(51, 400))
        x = rng.integers(0, 10, n).astype(float)
        y = 0.5 * x + rng.normal(size=n)
        _, ref_p = kendalltau(x, y, method="asymptotic")
        mine = kendall_tau(np.column_stack([x, y]))
        assert mine.p_value == pytest.approx(ref_p, rel=1e-9, abs=1e-12)


def test_tau_exact_p_small_n():
    rng = np.random.default_rng(20)
    for _ in range(8):
        n = int(rng.integers(3, 8))
        x = rng.integers(0, 4, n).astype(float)
        y = rng.integers(0, 4, n).astype(float)
        if len(set(x)) == 1 or len(set(y)) == 1:
            continue
        mine = kendall_tau(np.column_stack([x, y]))
        assert mine.p_value == pytest.approx(exact_tau_p_oracle(x, y), abs=1e-12)


def test_tau_montecarlo_regime():
    # monotone data tied in both margins, n between 9 and 50: no
    # permutation beats it, and only 2 * 2^10 of the 20! do as well
    pts = [(i // 2, i // 2) for i in range(20)]
    a = kendall_tau(pts)
    b = kendall_tau(pts)
    assert a.tau == 1.0
    assert a.p_value == 1 / (stats._MC_PERMUTATIONS + 1)
    assert a.p_value == b.p_value  # fixed internal permutation stream


# p sits well inside (0, 1) and x is not monotone, so a kernel that
# miscounts C - D moves it; these values change only with a p-value
# re-baseline. Each row: points, pinned p, and the 100k-permutation Monte
# Carlo estimate the first three had before their exact null was used. The
# last row pins the Monte Carlo permutation stream itself.
_PINNED_P = [
    ([((i * 23) % 41, (i * 11) % 43) for i in range(40)],
     0.43750613358676754, 0.43978560214397855),  # exact, untied
    ([((i * 13) % 41 // 5, (i * 5) % 43) for i in range(40)],
     0.380604240735785, 0.3813061869381306),  # exact, tied x
    ([((i * 19) % 43, (i * 11) % 41 // 4) for i in range(40)],
     0.45589626056552834, 0.45535544644553555),  # exact, tied y
    ([((i * 3) % 8 // 2, (i * 7) % 9 // 2) for i in range(8)],
     0.3341269841269841, None),  # enumeration, both tied
    ([(i // 2, (i * 7) % 13 // 3) for i in range(20)],
     0.7764622353776462, None),  # Monte Carlo, both tied
]


def test_tau_p_values_pinned():
    for pts, p, _ in _PINNED_P:
        assert kendall_tau(pts).p_value == p


def test_tau_pinned_exact_p_matches_oracle_and_old_estimate():
    for pts, p, estimate in _PINNED_P[:3]:
        assert inversion_tau_p_oracle(*zip(*pts)) == p
        # the Monte Carlo estimate had standard error sqrt(p(1-p)/100k)
        assert abs(p - estimate) <= 4 * math.sqrt(p * (1 - p) / stats._MC_PERMUTATIONS)


# small integer datasets: a narrow value range gives ties, a wide one mostly none
def _int_points(sizes):
    return st.tuples(sizes, st.integers(1, 100)).flatmap(
        lambda nk: st.lists(
            st.tuples(st.integers(0, nk[1]), st.integers(0, nk[1])),
            min_size=nk[0],
            max_size=nk[0],
        )
    )


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_int_points(st.one_of(st.integers(2, 8), st.integers(51, 70))))
def test_tau_property_matches_oracle(pts):
    # sizes skip the Monte Carlo regime only to keep the p-value cheap
    x, y = zip(*pts)
    assume(len(set(x)) > 1 and len(set(y)) > 1)
    assert kendall_tau(pts).tau == pytest.approx(kendall_oracle(pts), abs=1e-12)


# at most one margin tied: x is a permutation of range(n), y small integers,
# and each example also runs with the two margins swapped
_one_margin_tied = st.integers(2, 8).flatmap(
    lambda n: st.tuples(st.permutations(range(n)),
                        st.lists(st.integers(0, n), min_size=n, max_size=n))
)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_one_margin_tied)
def test_tau_one_margin_tied_p_matches_enumeration(xy):
    x, y = xy
    assume(len(set(y)) > 1)
    for a, b in ((x, y), (y, x)):
        assert kendall_tau(list(zip(a, b))).p_value == exact_tau_p_oracle(a, b)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=6))
def test_inversion_counts_property(groups):
    n = sum(groups)
    counts = stats._inversion_counts(n, groups)
    assert sum(counts) == math.factorial(n) // math.prod(math.factorial(g) for g in groups)
    assert counts == counts[::-1]
    assert counts == inversion_counts_oracle(groups)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_int_points(st.integers(2, 50)), st.integers(0, 2**32 - 1))
def test_pair_sum_kernel_property_matches_oracle(pts, seed):
    x, y = (np.array(v, dtype=np.float64) for v in zip(*pts))
    rng = np.random.default_rng(seed)
    perms = np.array([rng.permutation(len(y)) for _ in range(4)])
    cmd = stats._signed_pair_sums(stats._x_ordered_pairs(x), np.array(stats._dense_ranks(y))[perms])
    assert [int(c) for c in cmd] == [pair_sum_oracle(x, y[perm]) for perm in perms]


def test_tau_sign_matches_oracle_pair_sum():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(5, 60))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        s = kendall_tau(np.column_stack([x, y]))
        cmd = pair_sum_oracle(x, y)
        if cmd > 0:
            assert s.sign == "positive"
        elif cmd < 0:
            assert s.sign == "negative"
        else:
            assert s.sign == "zero"


def test_tau_invariant_under_monotone_maps():
    rng = np.random.default_rng(22)
    n = 80
    x = rng.uniform(1, 10, n)
    y = x + rng.normal(size=n)
    base = kendall_tau(np.column_stack([x, y]))
    warped = kendall_tau(np.column_stack([np.exp(x), y**3]))
    assert warped.tau == pytest.approx(base.tau, abs=1e-12)
    assert warped.p_value == pytest.approx(base.p_value, rel=1e-12)


def test_tau_undefined_when_degenerate():
    with pytest.raises(UndefinedCorrelationError):
        kendall_tau([(1, 1), (1, 2), (1, 3)])
    with pytest.raises(UndefinedCorrelationError):
        kendall_tau([(1, 5), (2, 5), (3, 5)])


def test_tau_input_validation():
    with pytest.raises(ValueError):
        kendall_tau([(1, 2)])
    with pytest.raises(ValueError):
        kendall_tau([(1, 2, 3), (4, 5, 6)])
    with pytest.raises(ValueError):
        kendall_tau([(1, float("nan")), (2, 3)])


def test_tau_summary_type():
    s = kendall_tau([(1, 2), (2, 1), (3, 3), (4, 4)])
    assert isinstance(s, CorrelationSummary)
    assert -1.0 <= s.tau <= 1.0
    assert 0.0 <= s.p_value <= 1.0


_KENDALL_MARGINS = ("none", "x", "y", "both")


def _kendall_bits_points(n, margins):
    # normal values, negative and fractional; a tied margin replaces its
    # values by their rank groups of isqrt(n) (at least 2), scaled to quarters
    rng = np.random.default_rng(1000 * n + _KENDALL_MARGINS.index(margins))
    x = rng.normal(0.0, 3.0, n)
    y = 0.3 * x + rng.normal(0.0, 3.0, n)
    g = max(2, math.isqrt(n))

    def tie(v):
        return (np.argsort(np.argsort(v)) // g - n // (2 * g)) / 4.0

    if margins in ("x", "both"):
        x = tie(x)
    if margins in ("y", "both"):
        y = tie(y)
    return np.column_stack([x, y])


# (n, tied margins, float.hex of tau, float.hex of p): bit-exact values that
# change only with a p-value re-baseline. Every route is covered: exact
# inversions (n <= 50, at most one margin tied), enumeration (both tied,
# n <= 8), Monte Carlo (both tied, 9 <= n <= 50) and the normal
# approximation (n > 50), whose tie sums are exact ints.
_KENDALL_BITS = [
    (2, 'none', '-0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    (3, 'none', '0x1.5555555555555p-2', '0x1.0000000000000p+0'),
    (3, 'x', '0x0.0p+0', '0x1.0000000000000p+0'),
    (3, 'y', '0x1.a20bd700c2c3fp-1', '0x1.5555555555555p-1'),
    (3, 'both', '-0x1.0000000000000p-1', '0x1.0000000000000p+0'),
    (5, 'none', '-0x1.999999999999ap-3', '0x1.a222222222222p-1'),
    (5, 'x', '-0x1.c9f25c5bfedd9p-3', '0x1.999999999999ap-1'),
    (5, 'y', '0x1.c9f25c5bfedd9p-2', '0x1.ddddddddddddep-2'),
    (5, 'both', '0x0.0p+0', '0x1.0000000000000p+0'),
    (8, 'none', '0x1.2492492492492p-1', '0x1.f3cf3cf3cf3cfp-5'),
    (8, 'x', '0x1.3c03650e00e03p-1', '0x1.ad1ad1ad1ad1bp-5'),
    (8, 'y', '0x1.da05179501504p-3', '0x1.12b12b12b12b1p-1'),
    (8, 'both', '0x1.5555555555555p-1', '0x1.3813813813814p-5'),
    (9, 'none', '0x1.8e38e38e38e39p-2', '0x1.71029e62c9badp-3'),
    (9, 'x', '-0x1.aafb8b9d049d3p-2', '0x1.83a83a83a83a8p-3'),
    (9, 'y', '0x1.8a2345cc04426p-4', '0x1.a972972972973p-1'),
    (9, 'both', '0x1.8e38e38e38e39p-1', '0x1.743da24a21b9ap-6'),
    (20, 'none', '0x1.840ac7691840bp-4', '0x1.2bf5a3631fa4ap-1'),
    (20, 'x', '0x1.3d24f1887969ep-2', '0x1.4020033092197p-4'),
    (20, 'y', '0x0.0p+0', '0x1.0000000000000p+0'),
    (20, 'both', '0x1.d99999999999ap-2', '0x1.628bd4b748af7p-7'),
    (50, 'none', '0x1.311c3655ae7f8p-2', '0x1.0e3ab679c2013p-9'),
    (50, 'x', '0x1.bd8bc5cb07902p-3', '0x1.1c574dd496867p-5'),
    (50, 'y', '0x1.c11c40351a0e4p-3', '0x1.106d42780d6f6p-5'),
    (50, 'both', '0x1.cf8e02d9875cap-4', '0x1.33a32265fbf88p-2'),
    (51, 'none', '0x1.eb851eb851eb8p-4', '0x1.b63aa35151cfap-3'),
    (51, 'x', '0x1.0566351262bd2p-3', '0x1.ac85a0b985c6cp-3'),
    (51, 'y', '0x1.40579b6455ddbp-2', '0x1.118414800c5c3p-9'),
    (51, 'both', '0x1.6b7159454801dp-3', '0x1.8ecaf5aca2716p-4'),
    (137, 'none', '0x1.7affab9528c7ap-4', '0x1.bd44b3b7f98ecp-4'),
    (137, 'x', '0x1.88f3ffd269331p-3', '0x1.55657b1752924p-10'),
    (137, 'y', '0x1.1492c253df013p-2', '0x1.92d1b238966dbp-18'),
    (137, 'both', '0x1.1cf529bfb0693p-3', '0x1.8c709d08f5c4cp-6'),
    (2000, 'none', '0x1.7b0d9ac065b28p-3', '0x1.05185be9f6bddp-115'),
    (2000, 'x', '0x1.9eafaa2032206p-3', '0x1.caddac5378ff6p-135'),
    (2000, 'y', '0x1.7d4b782cc9528p-3', '0x1.0c0e9633a4516p-114'),
    (2000, 'both', '0x1.60c21ad482694p-3', '0x1.00e0a92c68b54p-96'),
]


@pytest.mark.parametrize("n, margins, tau, p", _KENDALL_BITS,
                         ids=[f"n{n}-{m}" for n, m, *_ in _KENDALL_BITS])
def test_tau_bits_pinned(n, margins, tau, p):
    pts = _kendall_bits_points(n, margins)
    for form in (pts, [tuple(map(float, row)) for row in pts]):
        s = kendall_tau(form)
        assert (s.tau.hex(), s.p_value.hex()) == (tau, p)


# the messages of the point validation kendall_tau and gaussian_smooth share
_BAD_POINTS = [
    ([(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)], "points must be an (n, 2) collection with n >= {}"),
    ([1.0, 2.0, 3.0], "points must be an (n, 2) collection with n >= {}"),
    (np.zeros((3, 2, 1)), "points must be an (n, 2) collection with n >= {}"),
    ([(1.0, float("nan")), (2.0, 3.0)], "points must be finite"),
    ([(1.0, 2.0), (float("inf"), 3.0)], "points must be finite"),
    ([(1.0, 2.0), (-float("inf"), 3.0)], "points must be finite"),
    ([(1.0, "abc"), (2.0, 3.0)], "could not convert string to float: 'abc'"),
]


@pytest.mark.parametrize("fn, n_min", [(kendall_tau, 2), (gaussian_smooth, 1)],
                         ids=["kendall_tau", "gaussian_smooth"])
def test_point_validation_messages(fn, n_min):
    too_few = [(1.0, 2.0)] * (n_min - 1)
    for points, message in [(too_few, _BAD_POINTS[0][1]), *_BAD_POINTS]:
        with pytest.raises(ValueError) as info:
            fn(points)
        assert str(info.value) == message.format(n_min)


def test_point_validation_accepts_numpy_scalars_arrays_and_numeric_strings():
    mixed = [(np.float32(1.5), np.int64(2)), (np.float64(2.0), np.uint8(1)), ("3", 7)]
    same = [(1.5, 2.0), (2.0, 1.0), (3.0, 7.0)]
    assert kendall_tau(mixed) == kendall_tau(same) == kendall_tau(np.array(same))
    assert kendall_tau(same) == CorrelationSummary(tau=1 / 3, p_value=1.0, n=3, sign="positive")
    for points in (mixed, np.array(same)):
        curve, expected = gaussian_smooth(points), gaussian_smooth(same)
        assert np.array_equal(curve.xs, expected.xs) and np.array_equal(curve.ys, expected.ys)
    single = gaussian_smooth(np.array([(4.0, 1.25)]))
    assert list(single.xs) == [4.0] and list(single.ys) == [1.25]


# ---------------------------------------------------------------- binomial test


def test_binomial_all_successes():
    assert binomial_sign_test(20, 20) == pytest.approx(2.0**-20, rel=1e-15)
    assert binomial_sign_test(20, 20) < 0.001


def test_binomial_fifteen_of_twenty():
    assert binomial_sign_test(15, 20) == 21700 / 1048576
    assert round(binomial_sign_test(15, 20), 2) == 0.02


def test_binomial_zero_successes():
    assert binomial_sign_test(0, 20) == 1.0


def test_binomial_symmetric_midpoint():
    # odd trials: P(X >= (n+1)/2) = 1/2 exactly
    assert binomial_sign_test(3, 5) == 0.5
    assert binomial_sign_test(11, 21) == 0.5


def test_binomial_monotone_in_successes():
    prev = 1.1
    for s in range(21):
        cur = binomial_sign_test(s, 20)
        assert cur <= prev
        prev = cur


def test_binomial_validation():
    with pytest.raises(ValueError):
        binomial_sign_test(-1, 20)
    with pytest.raises(ValueError):
        binomial_sign_test(21, 20)
    with pytest.raises(ValueError):
        binomial_sign_test(1, 0)
    for successes, trials in ((0.5, 20), (True, 1), (1, True), (1, 2.0), (np.bool_(True), 1)):
        with pytest.raises(ValueError):
            binomial_sign_test(successes, trials)
    assert binomial_sign_test(np.int64(1), np.int64(1)) == 0.5


# ---------------------------------------------------------------- smoothing


def test_smooth_constant_y():
    pts = [(x, 2.5) for x in (1, 3, 10, 40, 100)]
    curve = gaussian_smooth(pts)
    assert np.allclose(curve.ys, 2.5, atol=1e-12)


def test_smooth_single_point():
    curve = gaussian_smooth([(4.0, 1.25)])
    assert list(curve.xs) == [4.0]
    assert list(curve.ys) == [1.25]


def test_smooth_same_x_collapses():
    curve = gaussian_smooth([(2.0, 1.0), (2.0, 3.0)])
    assert list(curve.xs) == [2.0]
    assert list(curve.ys) == [2.0]


def test_smooth_tiny_bandwidth_steps_at_log_midpoint():
    # log-midpoint of 1 and 100 is 10: left of it the curve sits on y1,
    # right of it on y2
    curve = gaussian_smooth([(1.0, 0.0), (100.0, 1.0)], bandwidth=0.01)
    for x, y in zip(curve.xs, curve.ys):
        if x < 9.0:
            assert y == pytest.approx(0.0, abs=1e-9)
        elif x > 11.0:
            assert y == pytest.approx(1.0, abs=1e-9)


def test_smooth_convex_combination_and_grid():
    rng = np.random.default_rng(30)
    xs = np.sort(rng.uniform(0.5, 500, 40))
    ys = rng.normal(size=40)
    curve = gaussian_smooth(np.column_stack([xs, ys]), grid_size=200)
    assert len(curve.xs) == len(curve.ys) == 200
    assert np.all(np.diff(curve.xs) > 0)
    assert curve.xs[0] == pytest.approx(xs.min(), rel=1e-12)
    assert curve.xs[-1] == pytest.approx(xs.max(), rel=1e-12)
    assert np.all(curve.ys >= ys.min() - 1e-12)
    assert np.all(curve.ys <= ys.max() + 1e-12)


def test_smooth_huge_bandwidth_approaches_global_mean():
    rng = np.random.default_rng(31)
    xs = np.sort(rng.uniform(1, 100, 25))
    ys = rng.normal(size=25)
    curve = gaussian_smooth(np.column_stack([xs, ys]), bandwidth=1e6)
    assert np.allclose(curve.ys, ys.mean(), atol=1e-6)


def test_smooth_validation():
    with pytest.raises(ValueError):
        gaussian_smooth([])
    with pytest.raises(ValueError):
        gaussian_smooth([(0.0, 1.0), (2.0, 1.0)])
    with pytest.raises(ValueError):
        gaussian_smooth([(-1.0, 1.0), (2.0, 1.0)])
    with pytest.raises(ValueError):
        gaussian_smooth([(1.0, 1.0), (2.0, 1.0)], bandwidth=0.0)
    # a bool is never a bandwidth or a grid size, and a grid size is whole
    for kw in ({"grid_size": 0}, {"grid_size": True}, {"grid_size": 2.5}, {"grid_size": None},
               {"bandwidth": True}, {"bandwidth": "1"}, {"bandwidth": float("nan")},
               {"bandwidth": float("inf")}, {"bandwidth": -float("inf")}):
        with pytest.raises(ValueError):
            gaussian_smooth([(1.0, 1.0), (2.0, 1.0)], **kw)
    curve = gaussian_smooth([(1.0, 1.0), (2.0, 1.0)], bandwidth=np.float32(0.5), grid_size=np.int64(5))
    assert len(curve.xs) == 5


def _smooth_points(rng, n):
    return np.column_stack([np.exp(rng.uniform(0.0, 8.0, n)), rng.normal(size=n)])


def test_smooth_matches_dense_oracle():
    # the trend is computed in blocks of grid rows; its bits are those of
    # the dense grid x points formula: n = 1, either side of the block size,
    # grids of one block, of several and of a short last block, at the
    # default and at a given bandwidth
    block = stats._SMOOTH_BLOCK_ELEMENTS
    rng = np.random.default_rng(41)
    cases = [(1, (1, 200)), (2, (1, 200)), (163, (200, 201)), (164, (198, 199, 200, 397)),
             (5000, (1, 6, 7, 13, 200)), (block - 1, (1, 2, 3)), (block, (1, 2, 3)),
             (block + 1, (1, 2, 3))]
    for n, grid_sizes in cases:
        pts = _smooth_points(rng, n)
        for grid_size in grid_sizes:
            for bandwidth in (None, 0.3):
                curve = gaussian_smooth(pts, bandwidth=bandwidth, grid_size=grid_size)
                xs, ys = dense_smooth_oracle(pts, bandwidth=bandwidth, grid_size=grid_size)
                assert np.array_equal(curve.xs, xs), (n, grid_size, bandwidth)
                assert np.array_equal(curve.ys, ys), (n, grid_size, bandwidth)
    # tied x values: the curve is the oracle's there too
    pts = np.column_stack([np.round(np.exp(rng.uniform(0.0, 3.0, 5000))), rng.normal(size=5000)])
    xs, ys = dense_smooth_oracle(pts)
    curve = gaussian_smooth(pts)
    assert np.array_equal(curve.xs, xs) and np.array_equal(curve.ys, ys)


def test_smooth_memory_is_linear_in_points():
    # a dense 200 x 20,000 float64 temporary alone would be 32 MB
    pts = _smooth_points(np.random.default_rng(42), 20_000)
    tracemalloc.start()
    try:
        gaussian_smooth(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_smooth_rejects_overflowing_bandwidth():
    # z^2 overflows for every point of most grid rows: their log-weights
    # are all -inf, and -inf - (-inf) is NaN
    pts = _smooth_points(np.random.default_rng(43), 1000)
    with pytest.raises(ValueError, match="not finite"):
        gaussian_smooth(pts, bandwidth=1e-300)
