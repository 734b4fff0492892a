"""Isolated per-layer timings: repeated calls of filexlab's public functions
at fixed shapes, each reported as a median and an interquartile range.

The shapes are the ones the workloads run; the inputs come from a fixed
seed, so every run times the same calls.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from filexlab import filex, sampling, stats, toy_els
from filexlab.analysis import analyze_records
from filexlab.records import read_records, write_records
from filexlab.sweep import RunRecord, log_sweep
from filexlab.svgplot import build_plot
from workloads import AnalyzePlotWorkload

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def _timed(fn, samples: int, inner: int) -> list[float]:
    """Seconds per call: `samples` timings, each over `inner` calls."""
    out = []
    for _ in range(samples):
        start = perf_counter()
        for _ in range(inner):
            fn()
        out.append((perf_counter() - start) / inner)
    return out


def summarize(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range); the range is 0 for a single value."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def _cases(work: Path):
    """(metric, unit, samples, inner, per-call divisor, callable) per timing."""
    rng = np.random.default_rng(0)
    weights = rng.random(64) + 0.5
    probs = weights / weights.sum()

    fx = filex.FilexParams(alpha=1.0, beta=8, lexicon_size=64, n_iters=1000)
    fx_beta = filex.FilexParams(alpha=1.0, beta=1000, lexicon_size=64, n_iters=1000)
    batch_seeds = list(range(64))

    def toy(buffer_size):
        return toy_els.ToyElsParams(
            time_steps=200_000, lexicon_size=64, learning_rate=3e-3,
            buffer_size=buffer_size, temperature=1.5, eval_samples=100_000,
        )

    toy8, toy256 = toy(8), toy(256)
    toy_state = toy_els.init_state(toy256)

    x40 = np.arange(1.0, 41.0)
    x40_tied = np.floor(log_sweep(8.0, 256.0, 40))  # toy lexicon_size grid: 39 distinct
    x1000 = np.floor(log_sweep(1.0, 1000.0, 1000))  # FiLex n_iters grid, tied
    y = rng.random(1000)
    pts8 = np.column_stack((x40[:8], y[:8]))
    pts40 = np.column_stack((x40, y[:40]))
    pts40_tied = np.column_stack((x40_tied, y[:40]))
    pts1000 = np.column_stack((x1000, y))

    rows = [RunRecord("filex", "n_iters", float(v), i, float(e)) for i, (v, e) in enumerate(pts1000)]
    csv_path = work / "rows1000.csv"
    write_records(csv_path, rows)
    meta = {"swept_param": "n_iters", "defaults": {"lexicon_size": 64}}

    # the analyze_plot input layout at reduced size: 4 normal-regime FiLex
    # sweeps of 100 points, Monte Carlo toy sweeps of 20, one exact sweep of 8
    sweeps, _ = AnalyzePlotWorkload(100, 20, 8).generate(0)
    analyze_input = [r for _, records, _ in sweeps for r in records]

    return [
        ("sampling.categorical_counts.draws8_us", "us", 15, 200, 1,
         lambda: sampling.categorical_counts(weights, 8, rng)),
        ("sampling.categorical_counts.draws100k_us", "us", 15, 1, 1,
         lambda: sampling.categorical_counts(probs, 100_000, rng)),
        ("filex.run.default_ms", "ms", 15, 1, 1, lambda: filex.run(fx, 1)),
        ("filex.run.beta1000_ms", "ms", 7, 1, 1, lambda: filex.run(fx_beta, 1)),
        ("filex.run_batch.per_run_ms", "ms", 3, 1, len(batch_seeds),
         lambda: filex.run_batch(fx, batch_seeds)),
        ("toy_els.toy_update.b8_us", "us", 15, 20, 1,
         lambda: toy_els.toy_update(toy_state, toy8, rng)),
        ("toy_els.toy_update.b256_us", "us", 15, 5, 1,
         lambda: toy_els.toy_update(toy_state, toy256, rng)),
        ("toy_els.toy_run.default_ms", "ms", 3, 1, 1, lambda: toy_els.toy_run(toy256, 1)),
        ("stats.kendall_tau.exact_n8_ms", "ms", 7, 1, 1, lambda: stats.kendall_tau(pts8)),
        ("stats.kendall_tau.mc_n40_ms", "ms", 3, 1, 1, lambda: stats.kendall_tau(pts40)),
        ("stats.kendall_tau.mc_n40_tied_ms", "ms", 3, 1, 1,
         lambda: stats.kendall_tau(pts40_tied)),
        ("stats.kendall_tau.normal_n1000_ms", "ms", 15, 1, 1, lambda: stats.kendall_tau(pts1000)),
        ("stats.gaussian_smooth.n1000_ms", "ms", 15, 1, 1, lambda: stats.gaussian_smooth(pts1000)),
        ("stats.shannon_entropy_us", "us", 15, 100, 1, lambda: stats.shannon_entropy(probs)),
        ("records.write_records.rows1000_ms", "ms", 15, 1, 1,
         lambda: write_records(csv_path, rows)),
        ("records.read_records.rows1000_ms", "ms", 15, 1, 1, lambda: read_records(csv_path)),
        ("analysis.analyze_records_s", "s", 3, 1, 1, lambda: analyze_records(analyze_input)),
        ("svgplot.build_plot.n1000_ms", "ms", 15, 1, 1, lambda: build_plot(rows, metadata=meta)),
    ]


def measure(work: Path, quick: bool) -> dict[str, tuple[float, float, str]]:
    """metric -> (median, IQR, unit). `quick` takes one sample of one call each."""
    work.mkdir(parents=True, exist_ok=True)
    out = {}
    for name, unit, samples, inner, divisor, fn in _cases(work):
        if quick:
            samples, inner = 1, 1
        values = [t / divisor * _SCALE[unit] for t in _timed(fn, samples, inner)]
        median, iqr = summarize(values)
        out[name] = (median, iqr, unit)
    return out
