"""Statistics toolkit: entropy, Kendall tau-b, sign test, kernel smoothing.

Everything here is a pure function of its inputs. The Kendall p-value
takes one of three routes, picked by sample size and ties:

- n > 50: the tie-corrected normal approximation;
- n <= 50 with at most one margin tied: the exact permutation null, from
  the integer inversion counts of a random (multiset) permutation;
- n <= 50 with both margins tied: all n! permutations while n <= 8,
  otherwise seeded Monte-Carlo permutations.

Ranks, ties and inversions are counted in Python ints. numpy is imported
only where arrays are computed: entropy, smoothing and the last route.
So importing this module loads no numpy.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

from .validation import check_positive_int, check_positive_real, is_integer, shown

if TYPE_CHECKING:
    import numpy as np

SIGN_TOLERANCE = 1e-12

_MC_PERMUTATIONS = 100_000
_MC_SEED = 0x7A11E5  # fixed: identical inputs give identical p-values

# The smoother works through its grid in blocks of rows, each temporary
# holding at most this many doubles (256 KiB; one row always fits), so its
# memory grows with the number of points, not with grid * points.
_SMOOTH_BLOCK_ELEMENTS = 1 << 15


class UndefinedCorrelationError(ValueError):
    """Raised when a rank correlation has no defined value (a margin is constant)."""


@dataclass(frozen=True)
class CorrelationSummary:
    """Kendall tau-b with its two-sided significance.

    sign is "zero" when |tau| < SIGN_TOLERANCE, otherwise the sign of tau.
    """

    tau: float
    p_value: float
    n: int
    sign: str


@dataclass(frozen=True)
class TrendCurve:
    """Smoothed trend: strictly increasing x grid and estimates at each point."""

    xs: np.ndarray
    ys: np.ndarray


def shannon_entropy(p) -> float:
    """Shannon entropy in bits, with the 0*log(0) = 0 convention.

    `p` must be a probability vector: non-negative entries summing to 1
    within 1e-9.
    """
    import numpy as np

    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("p must be a non-empty 1-d vector")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ValueError("p must have finite non-negative entries")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"p must sum to 1 within 1e-9, got sum {total!r}")
    nz = p[p > 0]
    return max(0.0, float(-(nz * np.log2(nz)).sum()))


def _finite_points(points, n_min: int) -> array:
    """The points as one array of doubles: x0, y0, x1, y1, ...

    `points` is a collection of n >= n_min rows (x, y), a numpy (n, 2)
    array included. float() converts each value, number or numeric
    string, as numpy's float64 conversion does, and every one must be
    finite; an int beyond the double range is not.
    """
    shape = f"points must be an (n, 2) collection with n >= {n_min}"
    if getattr(points, "ndim", 2) != 2:
        raise ValueError(shape)
    flat = array("d")
    try:
        for row in points:
            if isinstance(row, (str, bytes)) or len(row) != 2:
                raise ValueError(shape)
            x, y = row
            flat.append(float(x))
            flat.append(float(y))
    except TypeError:  # not a collection of rows, or a value float() does not take
        raise ValueError(shape) from None
    except OverflowError:
        raise ValueError("points must be finite") from None
    if len(flat) < 2 * n_min:
        raise ValueError(shape)
    if not all(map(math.isfinite, flat)):
        raise ValueError("points must be finite")
    return flat


def _dense_ranks(values) -> list[int]:
    """0-based ranks of the distinct values, tied values sharing one.

    They keep every order and tie of the values, so every count that
    Kendall tau needs comes from them in integers.
    """
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return [rank[v] for v in values]


def _tied_pairs(group_sizes) -> int:
    return sum(g * (g - 1) // 2 for g in group_sizes)


def _inversions(ranks: list[int], size: int) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for ranks in range(size), by a
    Fenwick tree of how often each rank came earlier. O(n log size)."""
    tree = [0] * (size + 1)
    inversions = 0
    for seen, rank in enumerate(ranks):
        inversions += seen  # every earlier rank, less those at or below this one
        i = rank + 1
        while i:
            inversions -= tree[i]
            i &= i - 1
        i = rank + 1
        while i <= size:
            tree[i] += 1
            i += i & -i
    return inversions


def _concordant_minus_discordant(xr: list[int], yr: list[int], xtie: int, ytie: int) -> int:
    """C - D from the dense ranks and the x- and y-tied pair counts.

    C + D counts the pairs tied in neither margin. Sorted x-major, ties
    broken by y, the discordant pairs are exactly the inversions of y.
    """
    n, base = len(xr), max(yr) + 1
    keys = [a * base + b for a, b in zip(xr, yr)]
    keys.sort()
    both = _tied_pairs(Counter(keys).values())
    return n * (n - 1) // 2 - xtie - ytie + both - 2 * _inversions([k % base for k in keys], base)


def _x_ordered_pairs(x) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) index arrays over the upper-triangle pairs with distinct x,
    each oriented so that x[lo] < x[hi]; x-tied pairs add 0 to C - D and
    are left out."""
    import numpy as np

    x = np.asarray(x)
    i, j = np.triu_indices(len(x), 1)
    up, down = x[j] > x[i], x[j] < x[i]
    return np.concatenate((i[up], j[down])), np.concatenate((j[up], i[down]))


def _signed_pair_sums(pairs: tuple[np.ndarray, np.ndarray], yranks: np.ndarray) -> np.ndarray:
    """C - D for each row of `yranks` against the x that gave `pairs`.

    Each row assigns y's dense ranks to the n points. With `pairs` from
    `_x_ordered_pairs(x)`, C - D is the sum of sign(y[hi] - y[lo]) over the
    upper triangle, n(n-1)/2 pairs at most, so no x sign is multiplied in.
    The ranks are taken as int8, as they fit for n <= 50. Cost is
    O(rows * n^2 / 2) in int8 temporaries of rows * n(n-1)/2 bytes, 2.4 MB
    for 2,000 rows at n = 50; |C - D| <= 1225 there, so the int16 sums are
    exact.
    """
    import numpy as np

    lo, hi = pairs
    t = np.ascontiguousarray(yranks.T, dtype=np.int8)
    d = t[hi] - t[lo]
    np.sign(d, out=d)
    return d.sum(axis=0, dtype=np.int16)


def _all_permutations(n: int) -> np.ndarray:
    """Every permutation of range(n), one per row (n! rows), as int8."""
    import numpy as np

    perms = np.zeros((1, 0), dtype=np.int8)
    for k in range(n):
        # put the new element k at every position of each permutation of range(k)
        perms = np.concatenate([np.insert(perms, pos, k, axis=1) for pos in range(k + 1)])
    return perms


def _inversion_counts(n: int, groups) -> list[int]:
    """counts[i]: arrangements of n items, tied in groups of the given
    sizes, that have i inversions (pairs out of order; tied pairs never are).

    Their generating function is the q-multinomial [n]_q! / prod [g]_q!,
    [m]_q = 1 + q + ... + q^(m-1) (MacMahon); with no ties it is the
    Mahonian distribution. Groups of one may be left out. The counts are
    Python ints: they sum to n! / prod g!, about 3e64 at n = 50.
    """
    counts = [1]
    for m in range(2, n + 1):
        # times [m]_q: each count becomes the sum of the m counts up to it
        run = [0, *accumulate(counts + [0] * (m - 1))]
        counts = [hi - lo for hi, lo in zip(run[1:], [0] * (m - 1) + run)]
    for g in groups:
        for m in range(2, g + 1):
            # divided by [m]_q = (1 - q^m) / (1 - q): times 1 - q, then a
            # running sum with stride m
            quot = [c - b for c, b in zip(counts, [0] + counts)][: len(counts) - m + 1]
            for k in range(m, len(quot)):
                quot[k] += quot[k - m]
            counts = quot
    return counts


def _p_inversions(n: int, groups, observed_cmd: int) -> float:
    """Exact permutation p-value when only one margin (with tie groups
    `groups`) or neither is tied.

    In the order of the untied margin, the tied one is a random multiset
    permutation, and C - D = P - 2I over its I inversions, P being the pairs
    tied in neither margin: the top index of the counts. The counts are
    palindromic, so the sign of C - D does not matter.
    """
    counts = _inversion_counts(n, groups)
    top = len(counts) - 1
    hits = sum(c for i, c in enumerate(counts) if abs(top - 2 * i) >= abs(observed_cmd))
    return hits / sum(counts)


def _p_permutations(xr: list[int], yr: list[int], observed_cmd: int) -> float:
    # under the null all n! assignments of y to x are equally likely: they are
    # enumerated while n! <= _MC_PERMUTATIONS (n <= 8); otherwise that many are
    # drawn with a fixed seed, and the observed order counts once
    import numpy as np

    pairs = _x_ordered_pairs(xr)

    def hits(yp: np.ndarray) -> int:
        return int(np.count_nonzero(np.abs(_signed_pair_sums(pairs, yp)) >= abs(observed_cmd)))

    n_perms = math.factorial(len(yr))
    if n_perms <= _MC_PERMUTATIONS:
        return hits(np.array(yr)[_all_permutations(len(yr))]) / n_perms
    rng = np.random.default_rng(_MC_SEED)
    total = 0
    for done in range(0, _MC_PERMUTATIONS, 2_000):
        rows = min(2_000, _MC_PERMUTATIONS - done)
        total += hits(rng.permuted(np.tile(yr, (rows, 1)), axis=1))
    return (total + 1) / (_MC_PERMUTATIONS + 1)


def _p_normal(n: int, xcounts, ycounts, observed_cmd: int) -> float:
    # tie-corrected variance of C - D under the null of independence, from
    # each margin's tie group sizes; the sums are exact ints, equal to
    # float sums of the same terms while those stay below 2**53
    def tie_sums(counts):
        return (
            sum(t * (t - 1) // 2 for t in counts),
            sum(t * (t - 1) * (t - 2) for t in counts),
            sum(t * (t - 1) * (2 * t + 5) for t in counts),
        )

    xtie, x3, xv = tie_sums(xcounts)
    ytie, y3, yv = tie_sums(ycounts)
    m = n * (n - 1)
    var = (
        (m * (2 * n + 5) - xv - yv) / 18.0
        + 2.0 * xtie * ytie / m
        + x3 * y3 / (9.0 * m * (n - 2))
    )
    z = observed_cmd / math.sqrt(var)
    return math.erfc(abs(z) / math.sqrt(2.0))


def kendall_tau(points) -> CorrelationSummary:
    """Kendall tau-b over (x, y) points, with two-sided significance.

    Raises UndefinedCorrelationError when all x or all y are tied.
    """
    flat = _finite_points(points, 2)
    x, y = flat[0::2], flat[1::2]
    n = len(x)

    xr, yr = _dense_ranks(x), _dense_ranks(y)
    xcounts, ycounts = Counter(xr).values(), Counter(yr).values()
    xtie, ytie = _tied_pairs(xcounts), _tied_pairs(ycounts)
    tot = n * (n - 1) // 2
    if xtie == tot:
        raise UndefinedCorrelationError("all x values are tied; tau is undefined")
    if ytie == tot:
        raise UndefinedCorrelationError("all y values are tied; tau is undefined")
    cmd = _concordant_minus_discordant(xr, yr, xtie, ytie)
    tau = cmd / math.sqrt(float(tot - xtie) * float(tot - ytie))
    tau = max(-1.0, min(1.0, tau))

    if n > 50:
        p = _p_normal(n, xcounts, ycounts, cmd)
    elif not (xtie and ytie):
        p = _p_inversions(n, xcounts if xtie else ycounts, cmd)
    else:
        p = _p_permutations(xr, yr, cmd)

    if tau > SIGN_TOLERANCE:
        sign = "positive"
    elif tau < -SIGN_TOLERANCE:
        sign = "negative"
    else:
        sign = "zero"
    return CorrelationSummary(tau=tau, p_value=p, n=n, sign=sign)


def binomial_sign_test(successes: int, trials: int) -> float:
    """Exact one-sided tail P(X >= successes) for X ~ Binomial(trials, 1/2).

    Computed in integer arithmetic, then converted to a float.
    """
    check_positive_int("trials", trials)
    if not (is_integer(successes) and 0 <= successes <= trials):
        raise ValueError(f"successes must be in [0, {shown(trials)}], got {shown(successes)}")
    tail = sum(math.comb(trials, k) for k in range(successes, trials + 1))
    return tail / 2**trials


def gaussian_smooth(points, bandwidth: float | None = None, grid_size: int = 200) -> TrendCurve:
    """Gaussian-kernel trend of y over a log-spaced x grid (Nadaraya-Watson).

    Distances are measured in log-x, so the smoothing is uniform across a
    logarithmic sweep. bandwidth defaults to 1/20 of the log-x range.
    Every output value is a convex combination of the input y values.
    Raises ValueError when a trend value is not finite: with a bandwidth
    so small that every squared distance of a grid row overflows, all its
    log-weights are -inf.
    """
    import numpy as np

    # x and y are strided views of one (n, 2) array, the layout the output bits are pinned in
    x, y = np.array(_finite_points(points, 1)).reshape(-1, 2).T
    if np.any(x <= 0):
        raise ValueError("all x values must be positive")
    check_positive_int("grid_size", grid_size)
    if bandwidth is not None:
        check_positive_real("bandwidth", bandwidth)

    lx = np.log(x)
    lo, hi = float(lx.min()), float(lx.max())
    if lo == hi:
        return TrendCurve(xs=np.array([x[0]]), ys=np.array([float(y.mean())]))

    h = bandwidth if bandwidth is not None else (hi - lo) / 20.0
    lgrid = np.linspace(lo, hi, grid_size)
    ys = np.empty(grid_size)
    rows = max(1, _SMOOTH_BLOCK_ELEMENTS // len(lx))
    # an overflow leaves a non-finite trend value, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, grid_size, rows):
            # each row's arithmetic is the same whatever the block holds
            block = slice(start, start + rows)
            z = (lgrid[block, None] - lx) / h
            logw = -0.5 * z * z
            w = np.exp(logw - logw.max(axis=1, keepdims=True))
            ys[block] = (w * y).sum(axis=1) / w.sum(axis=1)
    if not np.all(np.isfinite(ys)):
        raise ValueError(
            f"the trend is not finite at bandwidth {h!r}: the kernel weights or their sums overflow"
        )

    xs = np.exp(lgrid)
    xs[0], xs[-1] = x[lx.argmin()], x[lx.argmax()]
    keep = np.concatenate(([True], np.diff(xs) > 0))
    return TrendCurve(xs=xs[keep], ys=ys[keep])
