import json
from dataclasses import asdict

import numpy as np
import pytest

from filexlab import analysis
from filexlab.analysis import (
    PAIRINGS,
    MissingRecordsError,
    analyze_records,
    format_report,
)
from filexlab.stats import binomial_sign_test, kendall_tau
from filexlab.sweep import FILEX, TOY_ELS, RunRecord


def synth(target, param, slope, seed, n=60):
    # noisy monotone data with the requested trend sign
    rng = np.random.default_rng(seed)
    xs = np.logspace(0, 3, n)
    ys = slope * np.log10(xs) + rng.normal(0, 0.3, n) + 3.0
    return [
        RunRecord(target=target, swept_param=param, value=float(x), seed=i, entropy=float(y))
        for i, (x, y) in enumerate(zip(xs, ys))
    ]


def matched_records():
    recs = []
    recs += synth(FILEX, "n_iters", -1.0, 1)
    recs += synth(FILEX, "lexicon_size", +1.0, 2)
    recs += synth(FILEX, "alpha", -1.0, 3)
    recs += synth(FILEX, "beta", +1.0, 4)
    recs += synth(TOY_ELS, "time_steps", -1.0, 5)
    recs += synth(TOY_ELS, "lexicon_size", +1.0, 6)
    recs += synth(TOY_ELS, "learning_rate", -1.0, 7)
    recs += synth(TOY_ELS, "buffer_size", +1.0, 8)
    recs += synth(TOY_ELS, "temperature", +1.0, 9)
    return recs


def test_pairings_table():
    assert [p[0] for p in PAIRINGS] == [
        "Time Steps",
        "Lexicon Size",
        "Learning Rate",
        "Buffer Size",
        "Temperature",
    ]
    # the urn process's beta column is reused for both buffer and temperature
    assert PAIRINGS[3][1] == PAIRINGS[4][1] == "beta"


def test_full_match_report():
    report = analyze_records(matched_records())
    assert report.trials == 5
    assert report.sign_match_count == 5
    assert report.binomial_p == 2.0**-5 == 0.03125
    assert report.strong_match_count == 5
    assert report.strong_binomial_p == 0.03125
    signs = [p.filex.sign for p in report.pairs]
    assert signs == ["negative", "positive", "negative", "positive", "positive"]
    for p in report.pairs:
        assert p.sign_match and p.strong_match
        assert abs(p.filex.tau) <= 1 and abs(p.toy_els.tau) <= 1


def test_mismatch_counting():
    recs = []
    recs += synth(FILEX, "n_iters", -1.0, 1)
    recs += synth(FILEX, "lexicon_size", +1.0, 2)
    recs += synth(FILEX, "alpha", -1.0, 3)
    recs += synth(FILEX, "beta", +1.0, 4)
    recs += synth(TOY_ELS, "time_steps", +1.0, 5)  # wrong direction
    recs += synth(TOY_ELS, "lexicon_size", +1.0, 6)
    recs += synth(TOY_ELS, "learning_rate", -1.0, 7)
    recs += synth(TOY_ELS, "buffer_size", +1.0, 8)
    recs += synth(TOY_ELS, "temperature", -1.0, 9)  # wrong direction
    report = analyze_records(recs)
    assert report.sign_match_count == 3
    assert report.binomial_p == binomial_sign_test(3, 5) == 0.5
    bad = {p.label for p in report.pairs if not p.sign_match}
    assert bad == {"Time Steps", "Temperature"}


def test_binomial_invariant():
    report = analyze_records(matched_records())
    assert report.binomial_p == binomial_sign_test(report.sign_match_count, report.trials)
    assert report.strong_binomial_p == binomial_sign_test(
        report.strong_match_count, report.trials
    )


def test_strong_threshold_separates_weak_matches():
    recs = []
    recs += synth(FILEX, "n_iters", -1.0, 1)
    recs += synth(FILEX, "lexicon_size", +1.0, 2)
    recs += synth(FILEX, "alpha", -1.0, 3)
    recs += synth(FILEX, "beta", +1.0, 4)
    # same sign but nearly flat: tau stays well under 0.9
    recs += synth(TOY_ELS, "time_steps", -0.05, 5)
    recs += synth(TOY_ELS, "lexicon_size", +1.0, 6)
    recs += synth(TOY_ELS, "learning_rate", -1.0, 7)
    recs += synth(TOY_ELS, "buffer_size", +1.0, 8)
    recs += synth(TOY_ELS, "temperature", +1.0, 9)
    strict = analyze_records(recs, strong_threshold=0.9)
    assert strict.sign_match_count == 5
    assert strict.strong_match_count < 5
    loose = analyze_records(recs, strong_threshold=0.0)
    assert loose.strong_match_count == loose.sign_match_count == 5


def test_missing_counterpart_is_reported():
    recs = matched_records()
    trimmed = [r for r in recs if not (r.target == TOY_ELS and r.swept_param == "temperature")]
    with pytest.raises(MissingRecordsError, match="Temperature"):
        analyze_records(trimmed)


def test_row_order_does_not_matter():
    recs = matched_records()
    report_a = analyze_records(recs)
    rng = np.random.default_rng(0)
    shuffled = [recs[i] for i in rng.permutation(len(recs))]
    report_b = analyze_records(shuffled)
    assert report_a == report_b


def test_each_sweep_is_correlated_once(monkeypatch):
    # FiLex beta serves the Buffer Size and the Temperature pairings
    calls = []

    def counting(points):
        calls.append(tuple(points))
        return kendall_tau(points)

    monkeypatch.setattr(analysis, "kendall_tau", counting)
    report = analyze_records(matched_records())
    assert len(calls) == len(set(calls)) == 9
    assert report.pairs[3].filex is report.pairs[4].filex


def test_format_report_readable():
    text = format_report(analyze_records(matched_records()))
    assert "Temperature" in text
    assert "sign matches: 5/5" in text
    assert "0.03125" in text
    assert "|tau| >= 0.2" in text


def test_report_dict_is_json_ready():
    report = analyze_records(matched_records())
    blob = json.dumps(asdict(report))
    data = json.loads(blob)
    assert data["sign_match_count"] == 5
    assert len(data["pairs"]) == 5
    assert data["pairs"][0]["filex"]["sign"] == "negative"
    assert data["strong_threshold"] == 0.2


def test_threshold_validation():
    for bad in (-0.1, True, float("nan"), "0.2", None):
        with pytest.raises(ValueError):
            analyze_records(matched_records(), strong_threshold=bad)
