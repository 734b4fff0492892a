"""Independent oracles used across test modules.

Everything here is deliberately naive: O(n^2) pair counting for tau,
brute-force permutation enumeration and a memoised insertion count for
its null, closed-form multinomial pmf, direct tail enumeration, the FiLex
expected collision probability as a plain product, the beta = 1 Polya-urn
law of its counts from log-gamma, the law of the toy agent's S = 2 walk
by dynamic programming, bounds on its up-probability at any buffer size
from binned FFT convolution, the trend smoother as one dense
grid-by-points array. The point is that
none of it shares code with the package implementations it checks.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from functools import lru_cache
from itertools import permutations

import numpy as np


def kendall_oracle(points) -> float:
    """Tau-b by brute-force pair counting."""
    pts = np.asarray(points, dtype=np.float64)
    x, y = pts[:, 0], pts[:, 1]
    n = len(x)
    concordant = discordant = xtie = ytie = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = np.sign(x[i] - x[j])
            dy = np.sign(y[i] - y[j])
            if dx == 0 and dy == 0:
                xtie += 1
                ytie += 1
            elif dx == 0:
                xtie += 1
            elif dy == 0:
                ytie += 1
            elif dx == dy:
                concordant += 1
            else:
                discordant += 1
    tot = n * (n - 1) // 2
    denom = math.sqrt((tot - xtie) * (tot - ytie))
    return (concordant - discordant) / denom


def pair_sum_oracle(x, y) -> int:
    """Concordant minus discordant pairs, brute force."""
    n = len(x)
    s = 0
    for i in range(n):
        for j in range(i + 1, n):
            s += int(np.sign(x[i] - x[j]) * np.sign(y[i] - y[j]))
    return s


def exact_tau_p_oracle(x, y) -> float:
    """Two-sided permutation p-value by full enumeration (tiny n only)."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    n = len(x)
    # (i, j, sign of x[j] - x[i]) over the pairs with distinct x
    xpairs = [(i, j, (x[j] > x[i]) - (x[j] < x[i]))
              for i in range(n) for j in range(i + 1, n) if x[i] != x[j]]
    observed = abs(pair_sum_oracle(x, y))
    hits = total = 0
    for perm in permutations(y):
        total += 1
        if abs(sum(s * ((perm[j] > perm[i]) - (perm[j] < perm[i])) for i, j, s in xpairs)) >= observed:
            hits += 1
    return hits / total


@lru_cache(maxsize=None)
def _partitions_in_box(parts: int, largest: int, total: int) -> int:
    """Multisets of `parts` integers in [0, largest] that sum to `total`."""
    if total < 0:
        return 0
    if parts == 0 or largest == 0:
        return int(total == 0)
    return (_partitions_in_box(parts, largest - 1, total)
            + _partitions_in_box(parts - 1, largest, total - largest))


def inversion_counts_oracle(groups) -> list[int]:
    """counts[i]: arrangements of a multiset with the given group sizes that
    have i strict inversions, by inserting one group at a time.

    The g copies of a new value, larger than the L items already placed,
    land in the gaps of those items; the new inversions are the numbers of
    old items after each copy, a multiset of g integers in [0, L].
    """
    counts = {0: 1}
    placed = 0
    for g in groups:
        new = defaultdict(int)
        for inv, c in counts.items():
            for extra in range(g * placed + 1):
                new[inv + extra] += c * _partitions_in_box(g, placed, extra)
        counts, placed = new, placed + g
    return [counts[i] for i in range(max(counts) + 1)]


def inversion_tau_p_oracle(x, y) -> float:
    """Exact two-sided permutation p-value when at most one margin is tied:
    C - D = P - 2I, I the inversions of the tied margin read in the order
    of the untied one, P the pairs tied in neither margin."""
    x, y = list(x), list(y)
    if len(set(x)) < len(x):
        x, y = y, x
    assert len(set(x)) == len(x), "both margins are tied"
    groups = list(Counter(y).values())
    counts = inversion_counts_oracle(groups)
    n = len(x)
    untied = n * (n - 1) // 2 - sum(g * (g - 1) // 2 for g in groups)
    observed = abs(pair_sum_oracle(x, y))
    hits = sum(c for i, c in enumerate(counts) if abs(untied - 2 * i) >= observed)
    return hits / sum(counts)


def multinomial_pmf(counts, probs) -> float:
    """Exact multinomial probability of a count vector."""
    n = int(sum(counts))
    coef = math.factorial(n)
    p = 1.0
    for c, q in zip(counts, probs):
        coef //= math.factorial(int(c))
        p *= q ** int(c)
    return coef * p


def all_count_vectors(n_trials: int, k: int):
    """Every length-k vector of non-negative ints summing to n_trials."""
    if k == 1:
        yield (n_trials,)
        return
    for head in range(n_trials + 1):
        for rest in all_count_vectors(n_trials - head, k - 1):
            yield (head,) + rest


def entropy_oracle(p) -> float:
    """Plain direct entropy in bits."""
    return float(sum(-q * math.log2(q) for q in p if q > 0))


def expected_collision(params, weights=None) -> float:
    """E[Q_N], Q = sum p_i^2 of the normalized FiLex weights after n_iters
    iterations from `weights` (default: the uniform start, 1/S each).

    One iteration adds alpha/beta per draw to a total mass M_t = M_0 + t alpha,
    and E[Q_t | Q_{t-1}] = Q_{t-1} + (1 - Q_{t-1}) alpha^2 / (beta M_t^2) from
    any state, so 1 - E[Q_N] = (1 - Q_0) prod_{t=1..N} (1 - alpha^2 / (beta M_t^2)).
    From the uniform start Q_0 = 1/S and M_0 = 1.
    """
    a, b = params.alpha, params.beta
    if weights is None:
        rest, mass = 1.0 - 1.0 / params.lexicon_size, 1.0
    else:
        mass = math.fsum(weights)
        rest = 1.0 - math.fsum((w / mass) ** 2 for w in weights)
    for t in range(1, params.n_iters + 1):
        rest *= 1.0 - a * a / (b * (mass + t * a) ** 2)
    return 1.0 - rest


def polya_count_pmf(params) -> list[float]:
    """P(n_1 = k), k = 0..N, for the draws n_1 of one word in a FiLex run at
    beta = 1.

    At beta = 1 each iteration draws one word from the current weights and
    adds alpha to it: a Polya urn holding a = 1/(S alpha) balls of each of S
    colours (Eggenberger & Polya 1923), so n_1 ~ BetaBinomial(N, a, (S-1) a).
    """
    assert params.beta == 1
    n, s = params.n_iters, params.lexicon_size
    a = 1.0 / (s * params.alpha)
    b = (s - 1) * a

    def log_beta(x, y):
        return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)

    return [
        math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                 + log_beta(k + a, n - k + b) - log_beta(a, b))
        for k in range(n + 1)
    ]


def polya_expected_entropy(params) -> float:
    """E[H] in bits of the normalized FiLex weights at beta = 1:
    S * sum_k P(n_1 = k) h((1/S + alpha k) / (1 + N alpha)), h(p) = -p log2 p,
    each word's final weight being 1/S plus alpha per draw."""
    s, alpha, n = params.lexicon_size, params.alpha, params.n_iters
    total = 0.0
    for k, pk in enumerate(polya_count_pmf(params)):
        w = (1.0 / s + alpha * k) / (1.0 + n * alpha)
        total += pk * -w * math.log2(w)
    return s * total


def dense_smooth_oracle(points, bandwidth=None, grid_size=200):
    """(xs, ys) of the log-x Gaussian trend, every grid row at once: the
    grid_size x n formula that `stats.gaussian_smooth` computes in blocks."""
    pts = np.asarray(points, dtype=np.float64)
    x, y = pts[:, 0], pts[:, 1]
    lx = np.log(x)
    lo, hi = float(lx.min()), float(lx.max())
    if lo == hi:
        return np.array([x[0]]), np.array([float(y.mean())])
    h = bandwidth if bandwidth is not None else (hi - lo) / 20.0
    lgrid = np.linspace(lo, hi, grid_size)
    z = (lgrid[:, None] - lx[None, :]) / h
    logw = -0.5 * z * z
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    ys = (w * y).sum(axis=1) / w.sum(axis=1)
    xs = np.exp(lgrid)
    xs[-1], xs[0] = x[lx.argmax()], x[lx.argmin()]
    keep = np.concatenate(([True], np.diff(xs) > 0))
    return xs[keep], ys[keep]


def pool_bins(observed, expected, floor=5.0):
    """Adjacent bins merged from the left until each expects >= floor, for a
    chi-square test; a short last bin joins the one before it."""
    obs, exp = [0], [0.0]
    for o, e in zip(observed, expected):
        if exp[-1] >= floor:
            obs.append(0)
            exp.append(0.0)
        obs[-1] += o
        exp[-1] += e
    if exp[-1] < floor and len(exp) > 1:
        obs[-2] += obs.pop()
        exp[-2] += exp.pop()
    return np.array(obs), np.array(exp)


def two_word_walk_law(updates: int, lr: float, temperature: float, up=None) -> list[float]:
    """P(Delta_K = 2 lr j), j = -K..K, for the toy agent at S = 2 after
    K = updates updates from Delta = theta_0 - theta_1 = 0.

    Each update moves Delta by +-2 lr, up with probability up(Delta): by
    default the B = 1 closed form q(Delta) = 1 / (1 + e^{Delta (T - 1)}).
    A dynamic program over the 2K + 1 states, one update at a time.
    """
    if up is None:
        def up(delta):
            return 1.0 / (1.0 + math.exp(delta * (temperature - 1)))
    law = [0.0] * updates + [1.0] + [0.0] * updates
    for _ in range(updates):
        nxt = [0.0] * len(law)
        for i, p in enumerate(law):
            if p:
                q = up(2 * lr * (i - updates))
                nxt[i + 1] += p * q
                nxt[i - 1] += p * (1.0 - q)
        law = nxt
    return law


@lru_cache(maxsize=None)
def two_word_up_bracket(buffer_size: int, temperature: float, delta: float,
                        bins: int = 2048) -> tuple[float, float]:
    """(lower, upper) bounds on the toy agent's up-probability at S = 2,
    q_B(Delta) = P(mean_b X_b > sigma(Delta)), X_b = sigma((Delta + L_b) / T)
    with L_b i.i.d. standard logistic and B = buffer_size.

    P(X <= x) = sigma(T logit x - Delta) puts X's mass on `bins` equal bins
    of [0, 1]. Rounding every X down to its bin's lower edge can only lower
    the buffer mean, and rounding up can only raise it; the sum of B rounded
    values is the B-fold convolution of the bin masses (by FFT), shifted by
    B bins for the upper bound. Negative Delta is the mirror image:
    q_B(-Delta) = 1 - q_B(Delta).
    """
    if delta < 0:
        lower, upper = two_word_up_bracket(buffer_size, temperature, -delta, bins)
        return 1.0 - upper, 1.0 - lower
    edges = np.arange(bins + 1) / bins
    with np.errstate(divide="ignore", over="ignore"):
        logit = np.log(edges) - np.log1p(-edges)
        cdf = 1.0 / (1.0 + np.exp(delta - temperature * logit))
    mass = np.diff(cdf)
    n = buffer_size * (bins - 1) + 1
    size = 1 << (n - 1).bit_length()
    law = np.fft.irfft(np.fft.rfft(mass, size) ** buffer_size, size)[:n]
    # the rounded-down sum (in bins) must pass B bins * sigma(Delta)
    threshold = buffer_size * bins / (1.0 + math.exp(-delta))
    lower = law[math.floor(threshold) + 1:].sum()
    upper = law[max(0, math.floor(threshold - buffer_size) + 1):].sum()
    return float(np.clip(lower, 0.0, 1.0)), float(np.clip(upper, 0.0, 1.0))
