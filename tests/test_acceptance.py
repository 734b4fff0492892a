"""Acceptance suite: one test per criterion, one printed verdict line each.

The two default sweep suites run once per session, each on one pool of
two workers, and are shared by the correlation criteria; criterion 9
checks that the worker count does not change a sweep's output.
Everything else is self-contained. Three more tests, not criteria, predict
signs without simulation: criterion 1's from the closed-form FiLex
expected collision probability, and at beta = 1 from the exact expected
entropy of the Polya urn; the toy's time_steps, learning_rate and
temperature signs of criterion 2 from the exact law of its S = 2, B = 1
walk.
"""

import json
import math
import time

import numpy as np
import pytest

from filexlab.analysis import group_points
from filexlab.cli import main
from filexlab.filex import FilexParams, init_state, run_batch, step
from filexlab.records import format_rows, write_records
from filexlab.seeding import make_rng
from filexlab.stats import binomial_sign_test, kendall_tau, shannon_entropy
from filexlab.sweep import (
    FILEX,
    TOY_ELS,
    SweepSpec,
    default_filex_suite,
    default_toy_els_suite,
    execute_sweep,
    execute_sweeps,
    log_sweep,
)

from helpers import (
    expected_collision,
    kendall_oracle,
    polya_expected_entropy,
    two_word_up_bracket,
    two_word_walk_law,
)


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


_SUITE_WORKERS = 2


@pytest.fixture(scope="session")
def filex_suite():
    t0 = time.perf_counter()
    suite = default_filex_suite()
    out = list(zip(suite, list(execute_sweeps(suite, workers=_SUITE_WORKERS))))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="session")
def toy_suite():
    t0 = time.perf_counter()
    suite = default_toy_els_suite()
    out = list(zip(suite, list(execute_sweeps(suite, workers=_SUITE_WORKERS))))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="session")
def suite_dir(tmp_path_factory, filex_suite, toy_suite):
    d = tmp_path_factory.mktemp("suites")
    for spec, outcome in filex_suite[0] + toy_suite[0]:
        path = d / f"{spec.target}_{spec.swept_param}.csv"
        write_records(path, outcome.records, spec=spec, skipped=outcome.skipped)
    return d


# the five reproduction targets; the beta sweep serves both buffer and
# temperature columns
_TARGET_TAUS = (
    ("Time Steps", "n_iters", -0.53),
    ("Lexicon Size", "lexicon_size", +0.67),
    ("Learning Rate", "alpha", -0.87),
    ("Buffer Size", "beta", +0.93),
    ("Temperature", "beta", +0.93),
)


def test_criterion_1_filex_correlations(filex_suite):
    outcomes, elapsed = filex_suite
    points = {spec.swept_param: [(r.value, r.entropy) for r in oc.records]
              for spec, oc in outcomes}
    ok = True
    bits = []
    for label, param, expected in _TARGET_TAUS:
        s = kendall_tau(points[param])
        good = abs(s.tau - expected) <= 0.10 and s.p_value <= 0.01
        ok &= good
        bits.append(f"{label} tau={s.tau:+.3f} (target {expected:+.2f}, p={s.p_value:.1e})")
    _verdict(1, ok, f"suite {elapsed:.0f}s; " + "; ".join(bits))


def test_collision_oracle_predicts_criterion_1_signs():
    # no simulation: along each default FiLex grid the closed-form E[Q]
    # (Q = sum p_i^2) moves strictly one way, and more concentration means
    # less entropy, so its direction is the opposite of the entropy sign
    # that criterion 1 measures
    predicted = {}
    for spec in default_filex_suite():
        kind = int if spec.integer_valued else float
        values = sorted({kind(v) for v in spec.grid()})
        q = [expected_collision(FilexParams(**{**spec.defaults, spec.swept_param: v}))
             for v in values]
        steps = np.diff(q)
        assert np.all(steps > 0) or np.all(steps < 0), spec.swept_param
        predicted[spec.swept_param] = -np.sign(steps[0])
    for _, param, expected in _TARGET_TAUS:
        assert predicted[param] == np.sign(expected), param


def test_polya_oracle_predicts_criterion_1_signs_at_beta_one():
    # no simulation: at beta = 1 FiLex is a Polya urn with an exact E[H];
    # along the n_iters, lexicon_size and alpha grids of the default suite
    # (taken at 12 steps) it moves strictly the way criterion 1's tau
    # points. The beta grid is left out: beta is held at 1
    predicted = {}
    for spec in default_filex_suite(steps=12):
        if spec.swept_param == "beta":
            continue
        kind = int if spec.integer_valued else float
        values = sorted({kind(v) for v in spec.grid()})
        h = [polya_expected_entropy(
                 FilexParams(**{**spec.defaults, "beta": 1, spec.swept_param: v}))
             for v in values]
        signs = set(np.sign(np.diff(h)))
        assert len(signs) == 1 and 0 not in signs, spec.swept_param
        predicted[spec.swept_param] = signs.pop()
    assert predicted == {param: np.sign(expected) for _, param, expected in _TARGET_TAUS
                         if param != "beta"}


def _two_word_policy_entropy(updates: int, lr: float, temperature: float, up=None) -> float:
    # E[h(sigma(Delta_K))] in bits over the law of Delta_K = 2 lr j: the
    # toy's entropy at S = 2 in the eval_samples -> infinity limit, at B = 1
    # unless `up` gives another up-probability; 0 log 0 is 0
    total = 0.0
    for j, p in enumerate(two_word_walk_law(updates, lr, temperature, up)):
        delta = 2 * lr * (j - updates)
        for q in (1.0 / (1.0 + math.exp(-delta)), 1.0 / (1.0 + math.exp(delta))):
            if q > 0.0:
                total -= p * q * math.log2(q)
    return total


def test_two_word_walk_law_predicts_the_toy_signs_at_buffer_one():
    # no simulation: at S = 2 and buffer_size 1, K = time_steps updates
    # move Delta = theta_0 - theta_1 by the exact DP law, so the expected
    # policy entropy is a finite sum. It falls with time_steps and with
    # learning_rate and rises with temperature: the toy signs criterion 2
    # observes. Buffer size (B > 1) has its own test below, and lexicon size
    # (S > 2) is not covered
    def falls(values):
        return all(b < a for a, b in zip(values, values[1:]))

    for t in (0.5, 1.0, 1.5):
        assert falls([_two_word_policy_entropy(k, 0.1, t) for k in (5, 10, 20, 40)]), t
        assert falls([_two_word_policy_entropy(40, lr, t) for lr in (0.01, 0.03, 0.1, 0.3)]), t
    for k in (10, 40):
        h = [_two_word_policy_entropy(k, 0.1, t) for t in (0.25, 0.5, 1.0, 1.5, 2.0, 4.0)]
        assert falls(h[::-1]), k


def test_two_word_walk_law_predicts_the_toy_buffer_size_sign():
    # no simulation: at S = 2 and any buffer size B, Delta still moves by
    # +-2 lr, up with a probability held in an exact bracket. With a fixed
    # budget of 256 time steps, K = 256 // B updates, the expected policy
    # entropy rises with B under the law run at either bracket end: the toy
    # buffer_size sign criterion 2 observes. Lexicon size (S > 2) is not covered
    lr, budget = 0.1, 256
    for t in (0.5, 1.0, 1.5):
        for end in (0, 1):
            h = [_two_word_policy_entropy(
                     budget // b, lr, t, lambda delta, b=b: two_word_up_bracket(b, t, delta)[end])
                 for b in (2, 4, 8, 16, 32)]
            assert all(a < b for a, b in zip(h, h[1:])), (t, end, h)


def test_criterion_2_sign_match_protocol(suite_dir, toy_suite, capsys):
    _, toy_elapsed = toy_suite
    report_path = suite_dir / "report.json"
    csvs = sorted(str(p) for p in suite_dir.glob("*.csv"))
    rc = main(["analyze", *csvs, "--out", str(report_path)])
    capsys.readouterr()  # analyzer table already checked structurally below
    data = json.loads(report_path.read_text(encoding="utf-8"))

    expected_signs = ["negative", "positive", "negative", "positive", "positive"]
    got_filex = [p["filex"]["sign"] for p in data["pairs"]]
    got_toy = [p["toy_els"]["sign"] for p in data["pairs"]]
    taus = [abs(p[side]["tau"]) for p in data["pairs"] for side in ("filex", "toy_els")]
    ok = (
        rc == 0
        and data["sign_match_count"] == 5
        and got_filex == expected_signs
        and got_toy == expected_signs
        and all(t >= 0.05 for t in taus)
        and data["binomial_p"] == 0.03125
    )
    toy_taus = "; ".join(
        f"{p['label']} toy tau={p['toy_els']['tau']:+.3f}" for p in data["pairs"]
    )
    _verdict(
        2,
        ok,
        f"toy suite {toy_elapsed:.0f}s; {data['sign_match_count']}/5 matches, "
        f"binomial p={data['binomial_p']}; min |tau|={min(taus):.3f}; {toy_taus}",
    )


def test_criterion_3_binomial_exactness():
    p20 = binomial_sign_test(20, 20)
    p15 = binomial_sign_test(15, 20)
    ok = (
        p20 == 2.0**-20
        and p20 < 0.001
        and p15 == 21700 / 1048576
        and round(p15, 2) == 0.02
    )
    _verdict(3, ok, f"p(20/20)={p20:.4g}, p(15/20)={p15:.6g}")


def test_criterion_4_mass_conservation():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        params = FilexParams(
            alpha=float(10 ** rng.uniform(-3, 3)),
            beta=int(np.floor(10 ** rng.uniform(0, 3))),
            lexicon_size=int(np.floor(2 ** rng.uniform(3, 8))),
            n_iters=int(np.floor(10 ** rng.uniform(0, 3))),
        )
        weights = init_state(params)
        step_rng = make_rng(int(rng.integers(2**63)))
        for _ in range(params.n_iters):
            weights = step(weights, params, step_rng)
        expected = 1.0 + params.n_iters * params.alpha
        worst = max(worst, abs(weights.sum() - expected) / expected)
    ok = worst <= 1e-9
    _verdict(4, ok, f"1000 random configs, worst relative mass error {worst:.2e}")


def test_criterion_5_martingale_mean():
    params = FilexParams(alpha=1.0, beta=8, lexicon_size=64, n_iters=1000)
    n = 10_000
    acc = np.zeros(64)
    acc_sq = np.zeros(64)
    for out in run_batch(params, list(range(n))):
        acc += out
        acc_sq += out * out
    mean = acc / n
    se = np.sqrt((acc_sq / n - mean**2) / n)
    z = np.abs(mean - 1 / 64) / se
    outside = int(np.sum(z > 3))
    ok = outside <= 2
    _verdict(5, ok, f"{n} runs; {outside}/64 components outside 3 standard errors")


def test_criterion_6_entropy_monotone_in_iterations():
    short = FilexParams(alpha=1.0, beta=8, lexicon_size=64, n_iters=10)
    long = FilexParams(alpha=1.0, beta=8, lexicon_size=64, n_iters=1000)
    h10 = float(np.mean([shannon_entropy(o) for o in run_batch(short, list(range(200)))]))
    h1000 = float(np.mean([shannon_entropy(o) for o in run_batch(long, list(range(200)))]))
    ok = h1000 < h10
    _verdict(6, ok, f"mean entropy N=10: {h10:.3f} bits, N=1000: {h1000:.3f} bits")


def test_criterion_7_kendall_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 201))
        x = rng.integers(0, 10, n).astype(float)
        y = (rng.integers(0, 6, n) + np.where(rng.random(n) < 0.5, x, 0)).astype(float)
        if len(set(x)) == 1 or len(set(y)) == 1:
            continue
        pts = np.column_stack([x, y])
        worst = max(worst, abs(kendall_tau(pts).tau - kendall_oracle(pts)))
    ok = worst <= 1e-12
    _verdict(7, ok, f"100 tied datasets, worst |tau - oracle| = {worst:.2e}")


def test_criterion_8_log_sweep_exactness():
    decades = log_sweep(1, 1000, 4)
    powers = [int(np.floor(v)) for v in log_sweep(8, 1024, 8)]
    ok = decades == [1.0, 10.0, 100.0, 1000.0] and powers == [8, 16, 32, 64, 128, 256, 512, 1024]
    _verdict(8, ok, f"LS(1,1000,4)={decades}, floored LS(8,1024,8)={powers}")


def test_criterion_9_byte_identical_sweeps():
    filex_spec = SweepSpec(
        target=FILEX,
        swept_param="beta",
        low=1.0,
        high=1000.0,
        steps=30,
        integer_valued=True,
        defaults={"alpha": 1.0, "beta": 8, "lexicon_size": 64, "n_iters": 300},
        base_seed=909,
    )
    toy_spec = SweepSpec(
        target=TOY_ELS,
        swept_param="time_steps",
        low=100.0,
        high=2000.0,
        steps=10,
        integer_valued=True,
        defaults={
            "time_steps": 1000,
            "lexicon_size": 16,
            "learning_rate": 0.01,
            "buffer_size": 256,
            "temperature": 1.5,
            "eval_samples": 2000,
        },
        base_seed=910,
    )
    ok = True
    details = []
    for spec in (filex_spec, toy_spec):
        blobs = []
        for workers in (1, 1, 2):
            outcome = execute_sweep(spec, workers=workers)
            blobs.append(format_rows(outcome.records).encode("utf-8"))
        same = blobs[0] == blobs[1] == blobs[2]
        ok &= same
        details.append(f"{spec.target}/{spec.swept_param}: {'identical' if same else 'DIVERGED'}")
    _verdict(9, ok, "; ".join(details) + " across repeats and worker counts")
