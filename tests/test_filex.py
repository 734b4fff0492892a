import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma
from scipy.stats import betabinom, chi2

from filexlab.filex import FilexParams, init_state, run, run_batch, run_many, step
from filexlab.seeding import make_rng
from filexlab.stats import shannon_entropy

from helpers import (
    all_count_vectors,
    expected_collision,
    multinomial_pmf,
    polya_count_pmf,
    polya_expected_entropy,
    pool_bins,
)

DEFAULTS = dict(alpha=1.0, beta=8, lexicon_size=64, n_iters=1000)


def test_params_validation():
    FilexParams(**DEFAULTS)
    with pytest.raises(ValueError):
        FilexParams(alpha=0.0, beta=8, lexicon_size=64, n_iters=1000)
    with pytest.raises(ValueError):
        FilexParams(alpha=-1.0, beta=8, lexicon_size=64, n_iters=1000)
    with pytest.raises(ValueError):
        FilexParams(alpha=float("inf"), beta=8, lexicon_size=64, n_iters=1000)
    with pytest.raises(ValueError):
        FilexParams(alpha=1.0, beta=0, lexicon_size=64, n_iters=1000)
    with pytest.raises(ValueError):
        FilexParams(alpha=1.0, beta=2.5, lexicon_size=64, n_iters=1000)
    with pytest.raises(ValueError):
        FilexParams(alpha=1.0, beta=8, lexicon_size=0, n_iters=1000)
    with pytest.raises(ValueError):
        FilexParams(alpha=1.0, beta=8, lexicon_size=64, n_iters=0)
    # bools are never numbers; non-numbers fail with ValueError, not TypeError
    for bad in ({"beta": True}, {"alpha": True}, {"alpha": "1"}, {"alpha": None},
                {"alpha": float("nan")}, {"lexicon_size": np.int64(0)}):
        with pytest.raises(ValueError):
            FilexParams(**{**DEFAULTS, **bad})
    FilexParams(**{**DEFAULTS, "alpha": np.float32(0.5), "beta": np.int64(3)})


def test_final_mass_must_be_a_finite_double():
    # 1 + alpha * n_iters is the weights' total after the last iteration
    for bad in ({"alpha": 1e308, "n_iters": 10}, {"n_iters": 10**400},
                {"alpha": np.float64(1e306), "n_iters": np.int64(1000)}):
        with pytest.raises(ValueError, match=r"^the final mass 1 \+ alpha \* n_iters must be a "
                                             r"finite double, got alpha = .*, n_iters = "):
            FilexParams(**{**DEFAULTS, **bad})
    # just inside the range nothing warns, in run or in run_many, which pads
    # rows of several betas into one group
    rows = [FilexParams(alpha=1.79e305, beta=b, lexicon_size=s, n_iters=1000)
            for b, s in ((8, 64), (1, 3), (64, 5))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params, seed, out in zip(rows, [1, 2, 3], run_many(rows, [1, 2, 3])):
            assert np.array_equal(out, run(params, seed))
            assert out.sum() == pytest.approx(1.0)


def test_state_validation():
    # step takes a 1-d vector of S strictly positive weights
    params = FilexParams(alpha=1.0, beta=2, lexicon_size=2, n_iters=1)
    step(np.array([0.5, 0.5]), params, make_rng(0))
    for bad in ([0.5, 0.0], [0.5, -0.5], [0.5, np.nan], [[0.5, 0.5]], [0.5], [0.5] * 3):
        with pytest.raises(ValueError):
            step(np.array(bad), params, make_rng(0))


_weights = st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=32)
_alphas = st.floats(1e-3, 1e3)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_weights, _alphas, st.integers(1, 100), st.integers(0, 2**64 - 1))
def test_step_property_adds_alpha_and_keeps_input(weights, alpha, beta, seed):
    weights = np.array(weights)
    before = weights.copy()
    params = FilexParams(alpha=alpha, beta=beta, lexicon_size=len(weights), n_iters=1)
    nxt = step(weights, params, make_rng(seed))
    assert np.array_equal(weights, before)
    assert nxt.shape == weights.shape
    assert np.all(nxt > 0)
    assert nxt.sum() == pytest.approx(before.sum() + alpha, rel=1e-12)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_weights, st.integers(0, 31), st.sampled_from([0.0, -1.0, -0.0, np.nan, -np.inf]),
       st.sampled_from(["value", "longer", "shorter", "2-d"]))
def test_step_property_rejects_bad_weights(weights, at, bad, how):
    weights = np.array(weights)
    params = FilexParams(alpha=1.0, beta=4, lexicon_size=len(weights), n_iters=1)
    if how == "value":
        weights[at % len(weights)] = bad
    elif how == "longer":
        weights = np.append(weights, 1.0)
    elif how == "shorter":
        weights = weights[:-1]
    else:
        weights = weights[None, :]
    with pytest.raises(ValueError):
        step(weights, params, make_rng(0))


def test_init_uniform():
    w4 = init_state(FilexParams(alpha=1.0, beta=8, lexicon_size=4, n_iters=1))
    assert np.array_equal(w4, np.full(4, 0.25))

    w1 = init_state(FilexParams(alpha=1.0, beta=8, lexicon_size=1, n_iters=1))
    assert np.array_equal(w1, np.array([1.0]))

    w64 = init_state(FilexParams(alpha=1.0, beta=8, lexicon_size=64, n_iters=1))
    assert np.all(w64 == 0.015625)
    assert w64.sum() == 1.0


def test_step_single_word_adds_alpha():
    params = FilexParams(alpha=0.7, beta=3, lexicon_size=1, n_iters=1)
    weights = init_state(params)
    nxt = step(weights, params, make_rng(0))
    assert nxt[0] == pytest.approx(1.7, rel=1e-15)
    # original untouched
    assert weights[0] == 1.0


def test_step_mass():
    params = FilexParams(alpha=0.5, beta=4, lexicon_size=3, n_iters=1)
    nxt = step(init_state(params), params, make_rng(5))
    assert nxt.sum() == pytest.approx(1.5, rel=1e-12)


def test_step_dimension_mismatch():
    params = FilexParams(alpha=1.0, beta=2, lexicon_size=3, n_iters=1)
    with pytest.raises(ValueError):
        step(np.array([0.5, 0.5]), params, make_rng(0))


def test_step_two_word_count_distribution():
    # uniform S=2, beta=2: counts (2,0),(1,1),(0,2) occur w.p. 1/4, 1/2, 1/4
    params = FilexParams(alpha=1.0, beta=2, lexicon_size=2, n_iters=1)
    rng = make_rng(123)
    n = 20_000
    seen = {0.0: 0, 0.5: 0, 1.0: 0}
    weights = init_state(params)
    for _ in range(n):
        nxt = step(weights, params, rng)
        seen[round(nxt[0] - 0.5, 10)] += 1
    for gain, expected in ((0.0, 0.25), (0.5, 0.5), (1.0, 0.25)):
        se = (expected * (1 - expected) / n) ** 0.5
        assert abs(seen[gain] / n - expected) < 4 * se


def test_step_multinomial_chisquare():
    # S=3, beta=4 from uniform: draw counts must follow Multi(4, (1/3,)*3);
    # chi-square against the exact pmf at significance 0.001
    params = FilexParams(alpha=0.5, beta=4, lexicon_size=3, n_iters=1)
    rng = make_rng(99)
    trials = 100_000
    cells = list(all_count_vectors(4, 3))
    observed = dict.fromkeys(cells, 0)
    weights = init_state(params)
    unit = params.alpha / params.beta
    for _ in range(trials):
        nxt = step(weights, params, rng)
        counts = tuple(int(round(d / unit)) for d in nxt - weights)
        observed[counts] += 1
    stat = 0.0
    for cell in cells:
        expected = trials * multinomial_pmf(cell, [1 / 3] * 3)
        stat += (observed[cell] - expected) ** 2 / expected
    assert stat < chi2.ppf(0.999, len(cells) - 1)


def test_step_martingale_from_skewed_state():
    # E[normalized weights after step] equals current normalized weights
    params = FilexParams(alpha=2.0, beta=4, lexicon_size=5, n_iters=1)
    base = np.array([3.0, 1.0, 0.5, 0.25, 0.25])
    p0 = base / base.sum()
    rng = make_rng(2024)
    n = 20_000
    acc = np.zeros(5)
    for _ in range(n):
        nxt = step(base, params, rng)
        acc += nxt / nxt.sum()
    mean = acc / n
    # per-component 4-sigma band, sd measured from the binomial-ish spread
    spread = params.alpha / (base.sum() + params.alpha)
    assert np.all(np.abs(mean - p0) < 4 * spread / np.sqrt(n))

    # E[sum p^2] after N step()s from the same state follows the collision
    # recurrence with Q_0 = sum p0^2 and M_t = sum(base) + t alpha: one
    # z-score per N, |z| <= 4
    zs = {}
    for n_iters in (1, 4, 16):
        params_n = FilexParams(alpha=2.0, beta=4, lexicon_size=5, n_iters=n_iters)
        q = np.empty(2000)
        for k in range(len(q)):
            weights = base
            for _ in range(n_iters):
                weights = step(weights, params_n, rng)
            q[k] = np.sum((weights / weights.sum()) ** 2)
        expected = expected_collision(params_n, base)
        zs[n_iters] = (q.mean() - expected) / (q.std(ddof=1) / np.sqrt(len(q)))
    assert all(abs(z) <= 4 for z in zs.values()), zs


def test_expected_collision_from_uniform_start_is_default():
    # the start-state recurrence at w0 = 1/S is the uniform-start product
    for params in [*_COLLISION_CASES, FilexParams(alpha=1e-3, beta=1, lexicon_size=1, n_iters=7)]:
        uniform = init_state(params)
        assert abs(expected_collision(params, uniform) - expected_collision(params)) <= 1e-12


def test_run_vanishing_alpha_is_uniform():
    params = FilexParams(alpha=1e-12, beta=8, lexicon_size=64, n_iters=1000)
    out = run(params, 7)
    assert np.all(np.abs(out - 1 / 64) < 1e-9)
    assert shannon_entropy(out) == pytest.approx(6.0, abs=1e-6)


def test_run_single_word():
    params = FilexParams(alpha=3.0, beta=5, lexicon_size=1, n_iters=50)
    out = run(params, 0)
    assert np.array_equal(out, np.array([1.0]))
    assert shannon_entropy(out) == 0.0


def test_run_deterministic_and_seed_sensitive():
    params = FilexParams(**DEFAULTS)
    a = run(params, 11)
    b = run(params, 11)
    c = run(params, 12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_run_output_is_distribution():
    rng = np.random.default_rng(1)
    for _ in range(20):
        params = FilexParams(
            alpha=float(10 ** rng.uniform(-3, 3)),
            beta=int(rng.integers(1, 50)),
            lexicon_size=int(rng.integers(1, 65)),
            n_iters=int(rng.integers(1, 200)),
        )
        out = run(params, int(rng.integers(2**32)))
        assert np.all(out > 0)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        h = shannon_entropy(out)
        assert 0.0 <= h <= np.log2(params.lexicon_size) + 1e-12


def test_mass_conservation_through_steps():
    rng = np.random.default_rng(3)
    for _ in range(25):
        params = FilexParams(
            alpha=float(10 ** rng.uniform(-3, 3)),
            beta=int(rng.integers(1, 30)),
            lexicon_size=int(rng.integers(1, 40)),
            n_iters=int(rng.integers(1, 60)),
        )
        weights = init_state(params)
        step_rng = make_rng(int(rng.integers(2**32)))
        for _ in range(params.n_iters):
            weights = step(weights, params, step_rng)
        expected = 1.0 + params.n_iters * params.alpha
        assert abs(weights.sum() - expected) <= 1e-9 * expected


def test_run_batch_singleton_and_order():
    params = FilexParams(alpha=1.0, beta=4, lexicon_size=8, n_iters=20)
    only = run_batch(params, [7])
    assert len(only) == 1
    assert np.array_equal(only[0], run(params, 7))

    seeds = [3, 1, 4, 1, 5]
    outs = run_batch(params, seeds)
    for s, o in zip(seeds, outs):
        assert np.array_equal(o, run(params, s))


def test_run_batch_empty_rejected():
    params = FilexParams(alpha=1.0, beta=4, lexicon_size=8, n_iters=20)
    with pytest.raises(ValueError):
        run_batch(params, [])


def test_run_many_matches_run_on_mixed_rows():
    # edge rows plus random ones: S=1, beta=1, n_iters=1, alpha at both ends,
    # beta up to 1000 and S up to 256, numpy scalars, n_iters out of order,
    # and enough rows of beta=1000 to span several row groups
    p = FilexParams
    rows = [
        p(alpha=1.0, beta=8, lexicon_size=1, n_iters=30),
        p(alpha=2.0, beta=1, lexicon_size=16, n_iters=200),
        p(alpha=0.5, beta=5, lexicon_size=9, n_iters=1),
        p(alpha=1e-3, beta=8, lexicon_size=64, n_iters=300),
        p(alpha=1e3, beta=8, lexicon_size=64, n_iters=300),
        p(alpha=1.0, beta=1000, lexicon_size=256, n_iters=40),
        p(alpha=1.0, beta=1, lexicon_size=1, n_iters=1),
        p(alpha=np.float32(0.3), beta=np.int64(3), lexicon_size=np.int64(5), n_iters=np.int64(7)),
    ]
    rows += [p(alpha=1.0, beta=1000, lexicon_size=64, n_iters=n)
             for n in (90, 10, 60, 30, 70, 20, 80, 50)]
    rng = np.random.default_rng(8)
    for _ in range(40):
        rows.append(p(
            alpha=float(10 ** rng.uniform(-3, 3)),
            beta=int(np.floor(10 ** rng.uniform(0, 3))),
            lexicon_size=int(np.floor(2 ** rng.uniform(0, 8))),
            n_iters=int(rng.integers(1, 150)),
        ))
    seeds = [int(s) for s in rng.integers(2**63, size=len(rows))]
    outs = run_many(rows, seeds)
    assert len(outs) == len(rows)
    for params, seed, out in zip(rows, seeds, outs):
        assert np.array_equal(out, run(params, seed)), params
    # rows are grouped by (beta, S), whatever order they come in
    order = rng.permutation(len(rows))
    shuffled = run_many([rows[i] for i in order], [seeds[i] for i in order])
    assert all(np.array_equal(out, outs[i]) for i, out in zip(order, shuffled))


def test_run_many_rejects_bad_lengths():
    params = FilexParams(alpha=1.0, beta=4, lexicon_size=8, n_iters=20)
    with pytest.raises(ValueError):
        run_many([], [])
    with pytest.raises(ValueError):
        run_many([params, params], [1])
    with pytest.raises(ValueError):
        run_many([params], [1, 2])


def test_batch_mean_entropy_below_max():
    # self-reinforcement drives entropy strictly below log2(S) on average
    params = FilexParams(alpha=1.0, beta=8, lexicon_size=8, n_iters=1000)
    outs = run_batch(params, list(range(100)))
    mean_h = np.mean([shannon_entropy(o) for o in outs])
    assert mean_h < 3.0


def test_entropy_decreases_with_more_iterations():
    short = FilexParams(alpha=1.0, beta=8, lexicon_size=64, n_iters=10)
    long = FilexParams(alpha=1.0, beta=8, lexicon_size=64, n_iters=1000)
    h_short = np.mean([shannon_entropy(o) for o in run_batch(short, list(range(200)))])
    h_long = np.mean([shannon_entropy(o) for o in run_batch(long, list(range(200)))])
    assert h_long < h_short


def test_expected_collision_is_polya_at_beta_one():
    # beta = 1 is the Polya urn: the product telescopes to
    # (1 - 1/S)(1 + (N+1) alpha) / ((1 + alpha)(1 + N alpha))
    for alpha in (1e-3, 0.5, 1.0, 10.0, 1e3):
        for s in (1, 2, 64):
            for n in (1, 7, 1000):
                params = FilexParams(alpha=alpha, beta=1, lexicon_size=s, n_iters=n)
                polya = (1 - 1 / s) * (1 + (n + 1) * alpha) / ((1 + alpha) * (1 + n * alpha))
                assert abs(expected_collision(params) - (1 - polya)) <= 1e-12, params


# (alpha, beta, S, N): the Polya urn, a strong-update case and two middling ones
_COLLISION_CASES = [
    FilexParams(alpha=1.0, beta=8, lexicon_size=16, n_iters=50),
    FilexParams(alpha=10.0, beta=4, lexicon_size=8, n_iters=20),
    FilexParams(alpha=0.3, beta=1, lexicon_size=32, n_iters=60),
    FilexParams(alpha=2.0, beta=32, lexicon_size=64, n_iters=30),
]


def _collision_z(params, dists) -> float:
    q = np.array([np.sum(d * d) for d in dists])
    return (q.mean() - expected_collision(params)) / (q.std(ddof=1) / np.sqrt(len(q)))


def test_mean_collision_matches_closed_form():
    # every path to a FiLex outcome (run_batch, run_many on interleaved
    # rows, a step loop) must give E[sum p^2] as in the closed form: 12
    # z-scores, and |z| <= 4 bounds the false-alarm rate by 12 * 6.3e-5
    n = 2000
    zs = {}
    for i, params in enumerate(_COLLISION_CASES):
        zs["run_batch", i] = _collision_z(params, run_batch(params, list(range(n))))
    rows = [params for _ in range(n) for params in _COLLISION_CASES]
    dists = run_many(rows, list(range(10**6, 10**6 + len(rows))))
    k = len(_COLLISION_CASES)
    for i, params in enumerate(_COLLISION_CASES):
        zs["run_many", i] = _collision_z(params, dists[i::k])
    for i, params in enumerate(_COLLISION_CASES):
        rng = make_rng(7 + i)
        dists = []
        for _ in range(n // 4):
            weights = init_state(params)
            for _ in range(params.n_iters):
                weights = step(weights, params, rng)
            dists.append(weights / weights.sum())
        zs["step", i] = _collision_z(params, dists)
    assert all(abs(z) <= 4 for z in zs.values()), zs


# beta = 1 makes FiLex a Polya urn, whose whole law is known; these
# (alpha, S, N) start it with a = 1/(S alpha) = 1/64, 12.5 and 1/160 balls
# of each colour
_POLYA_CASES = [
    FilexParams(alpha=1.0, beta=1, lexicon_size=64, n_iters=1000),
    FilexParams(alpha=0.01, beta=1, lexicon_size=8, n_iters=50),
    FilexParams(alpha=10.0, beta=1, lexicon_size=16, n_iters=200),
]


def test_polya_count_pmf_is_beta_binomial():
    # the log-gamma pmf of the oracle against scipy's beta-binomial
    for params in _POLYA_CASES + [FilexParams(alpha=0.5, beta=1, lexicon_size=8, n_iters=40)]:
        n, s = params.n_iters, params.lexicon_size
        a = 1 / (s * params.alpha)
        want = betabinom.pmf(np.arange(n + 1), n, a, (s - 1) * a)
        assert np.allclose(polya_count_pmf(params), want, rtol=1e-9, atol=1e-300), params


def test_polya_entropy_approaches_dirichlet_limit():
    # as N grows the weights tend to Dirichlet(a, ..., a), a = 1/(S alpha),
    # whose E[H] is (psi(S a + 1) - psi(a + 1)) / ln 2 bits (Blackwell &
    # MacQueen 1973). The exact finite-N E[H] lies above it, and the gap
    # shrinks by 7 to 10 times per tenfold N: about as 1/N once N alpha >= 5
    # (at S = 64, alpha = 1: 0.56, 0.074, 0.0088, 0.0010 bits at N = 10 .. 10,000)
    for alpha, s in ((1.0, 64), (0.5, 8), (10.0, 16)):
        a = 1 / (s * alpha)
        limit = (digamma(s * a + 1) - digamma(a + 1)) / math.log(2)
        gaps = [polya_expected_entropy(FilexParams(alpha=alpha, beta=1, lexicon_size=s, n_iters=n))
                - limit for n in (10, 100, 1_000, 10_000)]
        assert all(g > 0 for g in gaps), (alpha, s, gaps)
        assert all(7 < g / h < 10 for g, h in zip(gaps, gaps[1:])), (alpha, s, gaps)


def _entropy_z(params, dists) -> float:
    h = np.array([shannon_entropy(d) for d in dists])
    return (h.mean() - polya_expected_entropy(params)) / (h.std(ddof=1) / np.sqrt(len(h)))


def test_mean_entropy_matches_polya_urn():
    # every path to a FiLex outcome at beta = 1 (run_batch, run_many with
    # beta = 2 and 8 rows, one row group holding beta = 1 and 2 rows, a
    # step loop) must give the exact E[H] of the urn: 5 z-scores, |z| <= 4
    zs = {}
    for i, params in enumerate(_POLYA_CASES):
        zs["run_batch", i] = _entropy_z(params, run_batch(params, list(range(4000))))
    polya = _POLYA_CASES[1]
    wider = [FilexParams(alpha=0.01, beta=b, lexicon_size=8, n_iters=50) for b in (2, 8)]
    rows = [p for _ in range(2000) for p in (polya, *wider)]
    dists = run_many(rows, list(range(10**6, 10**6 + len(rows))))
    zs["run_many"] = _entropy_z(polya, dists[:: 1 + len(wider)])
    rng = make_rng(11)
    dists = []
    for _ in range(2000):
        weights = init_state(polya)
        for _ in range(polya.n_iters):
            weights = step(weights, polya, rng)
        dists.append(weights / weights.sum())
    zs["step"] = _entropy_z(polya, dists)
    assert all(abs(z) <= 4 for z in zs.values()), zs


def test_polya_counts_follow_beta_binomial():
    # each word's draws are recovered exactly from its final weight,
    # n = (w (1 + N alpha) - 1/S) / alpha, and n_1 over 3,000 runs must fit
    # the beta-binomial pmf (chi-square, p above the |z| = 4 rate)
    params = FilexParams(alpha=0.5, beta=1, lexicon_size=8, n_iters=40)
    runs = 3000
    dists = np.array(run_many([params] * runs, list(range(runs))))
    n = params.n_iters
    counts = (dists * (1 + n * params.alpha) - 1 / params.lexicon_size) / params.alpha
    whole = np.rint(counts)
    assert np.abs(counts - whole).max() <= 1e-9
    assert np.all(whole.sum(axis=1) == n)
    observed = np.bincount(whole[:, 0].astype(int), minlength=n + 1)
    obs, exp = pool_bins(observed, runs * np.array(polya_count_pmf(params)))
    stat = float(((obs - exp) ** 2 / exp).sum())
    assert chi2.sf(stat, len(exp) - 1) >= 6.3e-5, (stat, len(exp) - 1)
