import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from filexlab.seeding import make_rng
from filexlab.stats import shannon_entropy
from filexlab.toy_els import ToyElsParams, init_state, softmax, toy_run, toy_update

from helpers import pool_bins, two_word_up_bracket, two_word_walk_law


def make_params(**overrides):
    base = dict(
        time_steps=2048,
        lexicon_size=16,
        learning_rate=3e-3,
        buffer_size=256,
        temperature=1.5,
        eval_samples=2000,
    )
    base.update(overrides)
    return ToyElsParams(**base)


def test_params_validation():
    make_params()
    with pytest.raises(ValueError):
        make_params(time_steps=0)
    with pytest.raises(ValueError):
        make_params(lexicon_size=0)
    with pytest.raises(ValueError):
        make_params(learning_rate=0.0)
    with pytest.raises(ValueError):
        make_params(learning_rate=-0.1)
    with pytest.raises(ValueError):
        make_params(temperature=0.0)
    with pytest.raises(ValueError):
        make_params(buffer_size=0)
    with pytest.raises(ValueError):
        make_params(eval_samples=0)
    with pytest.raises(ValueError):
        make_params(time_steps=100, buffer_size=256)  # no update would fit
    for bad in ({"learning_rate": True}, {"temperature": "1"}, {"time_steps": True},
                {"eval_samples": 2.5}):
        with pytest.raises(ValueError):
            make_params(**bad)
    make_params(learning_rate=np.float32(0.1), buffer_size=np.int64(8))


def test_state_validation():
    # toy_update takes a 1-d vector of S finite logits
    params = make_params(lexicon_size=2, buffer_size=8, time_steps=8)
    toy_update(np.array([-1.0, 0.0]), params, make_rng(0))
    for bad in ([1.0, np.nan], [np.inf, 0.0], [0.0, -np.inf], [[0.0, 0.0]], [0.0], [0.0] * 3):
        with pytest.raises(ValueError):
            toy_update(np.array(bad), params, make_rng(0))


_logits = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=32)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_logits, st.integers(1, 64), st.floats(1e-4, 1.0), st.floats(0.05, 20.0),
       st.integers(0, 2**64 - 1))
def test_update_property_is_finite_and_keeps_input(logits, buffer_size, learning_rate,
                                                   temperature, seed):
    theta = np.array(logits)
    before = theta.copy()
    params = make_params(lexicon_size=len(theta), buffer_size=buffer_size, time_steps=buffer_size,
                         learning_rate=learning_rate, temperature=temperature)
    nxt = toy_update(theta, params, make_rng(seed))
    assert np.array_equal(theta, before)
    assert nxt.shape == theta.shape
    assert np.all(np.isfinite(nxt))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_logits, st.integers(0, 31), st.sampled_from([np.nan, np.inf, -np.inf]),
       st.sampled_from(["value", "longer", "shorter", "2-d"]))
def test_update_property_rejects_bad_logits(logits, at, bad, how):
    theta = np.array(logits)
    params = make_params(lexicon_size=len(theta), buffer_size=4, time_steps=4)
    if how == "value":
        theta[at % len(theta)] = bad
    elif how == "longer":
        theta = np.append(theta, 0.0)
    elif how == "shorter":
        theta = theta[:-1]
    else:
        theta = theta[None, :]
    with pytest.raises(ValueError):
        toy_update(theta, params, make_rng(0))


def test_update_single_word_is_noop():
    params = make_params(lexicon_size=1, buffer_size=8, time_steps=8)
    nxt = toy_update(init_state(params), params, make_rng(3))
    assert np.array_equal(nxt, np.zeros(1))


def test_update_dimension_mismatch():
    params = make_params(lexicon_size=4)
    with pytest.raises(ValueError):
        toy_update(np.zeros(3), params, make_rng(0))


def test_update_high_temperature_pulls_leader_down():
    # T huge: relaxed messages are near-uniform, so the top logit must drop
    params = ToyElsParams(
        time_steps=10_000,
        lexicon_size=4,
        learning_rate=1.0,
        buffer_size=10_000,
        temperature=1e6,
        eval_samples=10,
    )
    theta = np.array([5.0, 0.0, 0.0, 0.0])
    for seed in range(20):
        nxt = toy_update(theta, params, make_rng(seed))
        assert nxt[0] < theta[0]


def test_update_zero_mean_at_uniform():
    # from uniform logits the expected applied update vanishes by symmetry
    params = make_params(lexicon_size=6, buffer_size=16, time_steps=16)
    theta = init_state(params)
    rng = make_rng(77)
    n = 10_000
    acc = np.zeros(6)
    acc_sq = np.zeros(6)
    for _ in range(n):
        delta = toy_update(theta, params, rng) - theta
        acc += delta
        acc_sq += delta * delta
    mean = acc / n
    se = np.sqrt((acc_sq / n - mean**2) / n)
    assert np.all(np.abs(mean) < 3 * se)


def test_update_frozen_buffer_oracle():
    # recompute the update by hand from the same seed: every relaxed sample
    # must come from the same frozen logits
    params = make_params(lexicon_size=5, buffer_size=3, time_steps=3)
    theta0 = np.array([0.4, -0.2, 0.0, 1.0, -1.2])
    seed = 4242
    nxt = toy_update(theta0.copy(), params, make_rng(seed))

    rng = make_rng(seed)
    # exponential race: the Gumbel noise is -log of the clamped Exp(1) draws
    g = -np.log(np.maximum(rng.standard_exponential((3, 5)), np.finfo(float).tiny))
    z = (theta0 + g) / params.temperature
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    p = np.exp(theta0 - theta0.max())
    p /= p.sum()
    grad = y.mean(axis=0) - p
    rms = np.sqrt(np.mean(grad * grad))
    expected = theta0 + params.learning_rate * grad / rms
    assert np.array_equal(nxt, expected)


class _ZeroExponential:
    """A generator stand-in whose Exp(1) draws hold an exact 0.0."""

    def standard_exponential(self, size):
        e = np.ones(size)
        e[0, 0] = 0.0
        return e


def test_update_survives_zero_exponential_draw():
    # -log 0 = inf would turn the softmax row into NaN; clamped, the draw is
    # the largest finite noise (about 708), so its row is one-hot on word 0
    # and logit 0 must rise
    params = make_params(lexicon_size=4, buffer_size=3, time_steps=3)
    theta = np.array([0.5, 0.0, -0.5, 1.0])
    nxt = toy_update(theta, params, _ZeroExponential())
    assert np.all(np.isfinite(nxt))
    assert nxt[0] > theta[0]


def test_update_rejects_overflowing_temperature():
    # (theta - log E) / T overflows to inf at T = 1e-308, and the softmax
    # rows turn NaN; the update must fail, not be skipped as a zero step
    params = make_params(lexicon_size=4, buffer_size=8, time_steps=8, temperature=1e-308)
    with pytest.raises(ValueError, match="temperature"), np.errstate(over="ignore", invalid="ignore"):
        toy_update(init_state(params), params, make_rng(0))


def test_run_overflow_raises_without_numpy_warnings():
    # the ValueError is the one report: numpy's overflow and invalid-value
    # warnings on the way to it are silenced for the run
    params = make_params(lexicon_size=4, buffer_size=8, time_steps=16, temperature=1e-308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too small"):
            toy_run(params, 0)


def test_update_gumbel_max_exactness():
    # at B=1 and T -> 0 the relaxed message is the hard argmax of theta + g,
    # so logit 0 rises exactly when word 0 wins the race: probability
    # softmax(theta)[0] if the noise is standard Gumbel
    params = make_params(lexicon_size=2, buffer_size=1, time_steps=1, temperature=1e-3)
    theta = np.array([1.3, -0.4])
    rng = make_rng(2024)
    n = 20_000
    wins = sum(toy_update(theta, params, rng)[0] > theta[0] for _ in range(n))
    p = softmax(theta)[0]
    assert abs(wins / n - p) <= 4 * np.sqrt(p * (1 - p) / n)


def test_run_no_learning_limit():
    # one update with a vanishing learning rate leaves the policy uniform:
    # the evaluation is plain uniform sampling
    params = ToyElsParams(
        time_steps=256,
        lexicon_size=16,
        learning_rate=1e-15,
        buffer_size=256,
        temperature=1.5,
        eval_samples=10_000,
    )
    freqs = toy_run(params, 9)
    assert freqs.sum() == pytest.approx(1.0, abs=1e-12)
    assert shannon_entropy(freqs) > np.log2(16) - 0.05


def test_run_single_word():
    params = ToyElsParams(
        time_steps=64,
        lexicon_size=1,
        learning_rate=0.1,
        buffer_size=8,
        temperature=1.0,
        eval_samples=500,
    )
    out = toy_run(params, 0)
    assert np.array_equal(out, np.array([1.0]))
    assert shannon_entropy(out) == 0.0


def test_run_deterministic():
    params = make_params()
    a = toy_run(params, 31)
    b = toy_run(params, 31)
    c = toy_run(params, 32)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_run_update_count_is_floor():
    # 2049 steps at buffer 1024 is exactly 2 updates; verify by replaying
    params = ToyElsParams(
        time_steps=2049,
        lexicon_size=4,
        learning_rate=0.05,
        buffer_size=1024,
        temperature=1.5,
        eval_samples=100,
    )
    rng = make_rng(5)
    theta = toy_update(init_state(params), params, rng)
    theta = toy_update(theta, params, rng)
    counts = rng.multinomial(100, softmax(theta))
    assert np.array_equal(toy_run(params, 5), counts / 100)


def test_defaults_entropy_below_max():
    # stock configuration: self-reinforcement keeps measured entropy under
    # the 6-bit ceiling for nearly every seed
    params = ToyElsParams(
        time_steps=200_000,
        lexicon_size=64,
        learning_rate=3e-3,
        buffer_size=256,
        temperature=1.5,
        eval_samples=10_000,
    )
    below = sum(shannon_entropy(toy_run(params, seed)) < 6.0 for seed in range(100))
    assert below >= 95


def test_higher_learning_rate_lowers_entropy():
    # near-hard samples: aggressive steps collapse the lexicon
    common = dict(
        time_steps=80_000,
        lexicon_size=8,
        buffer_size=8,
        temperature=0.1,
        eval_samples=2000,
    )
    fast = ToyElsParams(learning_rate=0.1, **common)
    slow = ToyElsParams(learning_rate=1e-3, **common)
    h_fast = np.mean([shannon_entropy(toy_run(fast, s)) for s in range(50)])
    h_slow = np.mean([shannon_entropy(toy_run(slow, s)) for s in range(50)])
    assert h_fast < h_slow


def test_eval_frequencies_are_distribution():
    for seed in range(5):
        params = make_params(lexicon_size=32, eval_samples=777)
        out = toy_run(params, seed)
        assert np.all(out >= 0)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        assert shannon_entropy(out) <= np.log2(32) + 1e-12


@pytest.mark.parametrize("temperature,delta", [(1.0, 0.5), (0.5, 2.0), (2.0, 0.5)])
def test_two_word_up_bracket_holds_the_buffer_one_closed_form(temperature, delta):
    q = 1 / (1 + np.exp(delta * (temperature - 1)))
    lower, upper = two_word_up_bracket(1, temperature, delta)
    assert lower <= q <= upper and upper - lower < 2e-3
    assert two_word_up_bracket(1, temperature, -delta) == (1 - upper, 1 - lower)


# ids "delta-temperature", with "-B<size>" past buffer size 1
@pytest.mark.parametrize("delta,temperature,buffer_size", [
    pytest.param(d, t, b, id=f"{d}-{t}" + (f"-B{b}" if b > 1 else ""))
    for b in (1, 4, 16) for t in (0.5, 1.0, 2.0) for d in (0.5, 2.0)
])
def test_update_two_word_one_message_law(delta, temperature, buffer_size):
    # S = 2: the gradient is (g, -g) at any buffer size and the RMS step is
    # lr in each logit, so Delta = theta_0 - theta_1 moves by exactly +-2 lr.
    # It moves up when the buffer mean of softmax((theta + G_b) / T)_0 passes
    # softmax(theta)_0 = sigma(Delta). At B = 1 that is the standard
    # logistic G_0 - G_1 exceeding Delta (T - 1): probability
    # q = 1 / (1 + e^{Delta (T - 1)}), where T < 1 is rich-get-richer and
    # T > 1 pulls Delta back to 0. At any B, q lies in the exact bracket
    lr, n = 0.05, 4000
    params = ToyElsParams(time_steps=buffer_size, lexicon_size=2, learning_rate=lr,
                          buffer_size=buffer_size, temperature=temperature, eval_samples=1)
    theta = np.array([delta / 2, -delta / 2])
    rng = make_rng(int(1000 * temperature + 10 * delta) + 10_000 * (buffer_size - 1))
    moves = np.array([np.subtract(*toy_update(theta, params, rng)) - delta for _ in range(n)])
    assert np.allclose(np.abs(moves), 2 * lr, rtol=0, atol=1e-12)
    ups = (moves > 0).sum()
    lower, upper = two_word_up_bracket(buffer_size, temperature, delta)
    # the z of the bracket end nearer the observed count; 0 inside it
    q = min(max(ups / n, lower), upper)
    z = (ups - n * q) / np.sqrt(n * q * (1 - q))
    assert abs(z) <= 4


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
def test_two_word_one_message_walk_follows_its_exact_law(temperature):
    # after K updates from Delta = 0, Delta / (2 lr) is an integer of K's
    # parity, and its counts over independent chains must fit the exact law
    # (pooled chi-square, p above the |z| = 4 rate)
    k, lr, chains = 30, 0.1, 2000
    params = ToyElsParams(time_steps=k, lexicon_size=2, learning_rate=lr, buffer_size=1,
                          temperature=temperature, eval_samples=1)
    rng = make_rng(int(100 * temperature))
    ends = []
    for _ in range(chains):
        theta = init_state(params)
        for _ in range(k):
            theta = toy_update(theta, params, rng)
        ends.append(np.subtract(*theta) / (2 * lr))
    steps = np.rint(ends).astype(int)
    assert np.allclose(ends, steps, rtol=0, atol=1e-9)
    observed = np.bincount(steps + k, minlength=2 * k + 1)
    # index j + K is even for every reachable state j
    assert observed[1::2].sum() == 0
    law = np.array(two_word_walk_law(k, lr, temperature))
    assert law[1::2].sum() == 0
    obs, exp = pool_bins(observed[0::2], chains * law[0::2])
    stat = float(((obs - exp) ** 2 / exp).sum())
    assert chi2.sf(stat, len(exp) - 1) >= 6.3e-5, (stat, len(exp) - 1)
