"""Independent oracles used across test modules.

Everything here is deliberately naive: O(n^2) pair counting for tau,
closed-form multinomial pmf, direct tail enumeration, the FiLex expected
collision probability as a plain product. The point is that
none of it shares code with the package implementations it checks.
"""

from __future__ import annotations

import math
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
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    observed = abs(pair_sum_oracle(x, y))
    hits = total = 0
    for perm in permutations(range(len(y))):
        total += 1
        if abs(pair_sum_oracle(x, y[list(perm)])) >= observed:
            hits += 1
    return hits / total


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


def expected_collision(params) -> float:
    """E[Q_N], Q = sum p_i^2 of the normalized FiLex weights after n_iters.

    One iteration adds alpha/beta per draw to a total mass M_t = 1 + t alpha,
    and E[Q_t | Q_{t-1}] = Q_{t-1} + (1 - Q_{t-1}) alpha^2 / (beta M_t^2), so
    1 - E[Q_N] = (1 - 1/S) prod_{t=1..N} (1 - alpha^2 / (beta (1 + t alpha)^2)).
    """
    a, b = params.alpha, params.beta
    rest = 1.0 - 1.0 / params.lexicon_size
    for t in range(1, params.n_iters + 1):
        rest *= 1.0 - a * a / (b * (1.0 + t * a) ** 2)
    return 1.0 - rest
