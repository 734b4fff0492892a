"""FiLex: a fixed-lexicon self-reinforcing stochastic process.

A weight vector over S words starts uniform at 1/S. Each iteration draws
beta word indices i.i.d. from the normalized weights (the distribution is
frozen for the whole iteration) and adds alpha/beta to every drawn word,
so one iteration adds exactly alpha of mass. After n_iters iterations the
normalized weights are the process output: a random distribution over the
lexicon. Words that get drawn become more likely to be drawn again, the
same rich-get-richer mechanism as a Chinese restaurant process, but over
a fixed menu of words.

The normalized weights are a martingale: the expected update direction
equals the current distribution and the mass increment is deterministic,
so any drift toward low entropy is purely variance-driven.
"""

from __future__ import annotations

import numpy as np

from .params import FilexParams
from .sampling import categorical_counts
from .seeding import make_rng


def init_state(params: FilexParams) -> np.ndarray:
    """Uniform initial weights: every word gets 1/S, total mass 1."""
    s = params.lexicon_size
    return np.full(s, 1.0 / s)


def _update(weights: np.ndarray, params: FilexParams, rng: np.random.Generator) -> None:
    # One iteration, in place: beta draws from the frozen weights, each +alpha/beta.
    counts = categorical_counts(weights, params.beta, rng)
    weights += counts * (params.alpha / params.beta)


def step(weights: np.ndarray, params: FilexParams, rng: np.random.Generator) -> np.ndarray:
    """Apply one update iteration to a weight vector and return the new vector.

    The weights must be S strictly positive values. The beta indices are
    drawn i.i.d. from the normalized weights as they were at the start of
    the iteration; the input is not modified.
    """
    weights = np.array(weights, dtype=np.float64)  # a copy
    if weights.shape != (params.lexicon_size,):
        raise ValueError(
            f"weights must be a 1-d vector of lexicon_size = {params.lexicon_size} values,"
            f" got shape {weights.shape}"
        )
    if not np.all(weights > 0):
        raise ValueError("weights must be strictly positive")
    _update(weights, params, rng)
    return weights


def run(params: FilexParams, seed: int) -> np.ndarray:
    """Run the process from the uniform state for n_iters iterations.

    Returns the normalized final weights: a probability vector over the
    lexicon. Deterministic for a fixed (params, seed).
    """
    rng = make_rng(seed)
    weights = init_state(params)
    for _ in range(params.n_iters):
        _update(weights, params, rng)
    return weights / weights.sum()


def run_batch(params: FilexParams, seeds: list[int]) -> list[np.ndarray]:
    """run() for each seed, in input order.

    Each run's stream is derived from its own seed, so the outputs do not
    depend on execution order.
    """
    return run_many([params] * len(seeds), seeds)


# A row group holds at most this many draw-plus-weight elements per
# iteration (one row always fits), and a block of pre-drawn uniforms at most
# this many doubles: enough rows to amortize numpy's per-call overhead while
# the working set stays in cache.
_GROUP_ELEMENTS = 8192
_BLOCK_DOUBLES = 2**15


def run_many(params_list: list[FilexParams], seeds: list[int]) -> list[np.ndarray]:
    """run(params_list[i], seeds[i]) for every i, in input order.

    The runs advance together as the rows of one weight matrix, so each
    iteration costs a few numpy calls for a whole group of runs instead of
    a few per run. Every output is bit-identical to run(): the same
    uniforms come from each run's own generator, and every weight gets the
    same sequence of floating-point operations.
    """
    if len(params_list) != len(seeds):
        raise ValueError(f"{len(params_list)} params but {len(seeds)} seeds")
    if len(seeds) == 0:
        raise ValueError("seeds must be non-empty")
    # every row is padded to its group's largest beta and S, so groups are
    # cut from the rows sorted by (beta, S): like rows share a group
    order = sorted(range(len(seeds)), key=lambda i: (params_list[i].beta, params_list[i].lexicon_size))
    out: list[np.ndarray] = [None] * len(seeds)
    start = 0
    while start < len(order):
        # rows * (max beta + max S) within budget
        end, beta_max, s_max = start, 0, 0
        while end < len(order):
            p = params_list[order[end]]
            b, s = max(beta_max, p.beta), max(s_max, p.lexicon_size)
            if end > start and (end + 1 - start) * (b + s) > _GROUP_ELEMENTS:
                break
            end, beta_max, s_max = end + 1, b, s
        group = order[start:end]
        dists = _run_group([params_list[i] for i in group], [seeds[i] for i in group])
        for i, dist in zip(group, dists):
            out[i] = dist
        start = end
    return out


def _run_group(params_list: list[FilexParams], seeds: list[int]) -> list[np.ndarray]:
    # Rows sorted by n_iters, so finished rows drop off the front of the
    # active block weights[lo:]. Each row's weights sit zero-padded in (R, s_max).
    order = sorted(range(len(seeds)), key=lambda i: params_list[i].n_iters)
    rows = [params_list[i] for i in order]
    rngs = [make_rng(seeds[i]) for i in order]
    n_iters = [p.n_iters for p in rows]
    n_rows = len(rows)
    beta_max = max(p.beta for p in rows)
    s_max = max(p.lexicon_size for p in rows)
    weights = np.zeros((n_rows, s_max))
    for w, p in zip(weights, rows):
        w[: p.lexicon_size] = 1.0 / p.lexicon_size
    # the same scalar _update multiplies the counts by
    rate = np.array([p.alpha / p.beta for p in rows], dtype=np.float64)[:, None]
    # Each iteration merges every row's u with (-1.0, cs_0, .., cs_{S_max-1});
    # the floor -1.0 sorts before every u and makes #{u <= cs_{-1}} = 0.
    # offsets[r, j] is where row r starts in the flattened merge, plus j.
    floor = np.full((n_rows, 1), -1.0)
    offsets = np.arange(n_rows)[:, None] * (beta_max + 1 + s_max) + np.arange(s_max + 1)

    t = lo = 0
    while t < n_iters[-1]:
        # One block of uniforms for the active rows: rng.random((k, beta)) is
        # the same stream as k calls of rng.random(beta). Padding draws of inf
        # land past every row's total, even one near the double range, and
        # count in no bin. Counts do not depend on the order of the draws, so
        # each iteration's draws are sorted; u = r * total is then sorted too.
        while n_iters[lo] <= t:
            lo += 1
        first = lo
        block = min(n_iters[-1] - t, max(1, _BLOCK_DOUBLES // ((n_rows - lo) * beta_max)))
        draws = np.full((n_rows - lo, block, beta_max), np.inf)
        for i in range(lo, n_rows):
            k = min(block, n_iters[i] - t)
            draws[i - first, :k, : rows[i].beta] = rngs[i].random((k, rows[i].beta))
        draws.sort(axis=2)
        for k in range(block):
            while n_iters[lo] <= t:
                lo += 1
            w = weights[lo:]
            cs = np.cumsum(w, axis=1)
            u = draws[lo - first :, k] * cs[:, -1:]
            # A stable sort of (u, cs) puts a tie u == cs_j before cs_j, so
            # cs_j's position, less j, is #{u <= cs_j}; differencing that
            # over j gives bincount(searchsorted(cs, u, "left")) exactly.
            # Both halves are sorted, so the stable sort is a linear merge.
            merged = np.argsort(
                np.concatenate((u, floor[: len(w)], cs), axis=1), axis=1, kind="stable"
            )
            at_most = np.flatnonzero(merged >= beta_max).reshape(-1, s_max + 1)
            at_most -= offsets[: len(w)]
            w += (at_most[:, 1:] - at_most[:, :-1]) * rate[lo:]
            t += 1

    out = [None] * n_rows
    for i, w, p in zip(order, weights, rows):
        w = w[: p.lexicon_size].copy()
        out[i] = w / w.sum()
    return out
