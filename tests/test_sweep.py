import logging
import math
import multiprocessing
import time
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filexlab.filex import FilexParams, run
from filexlab.params import PARAMS
from filexlab.records import metadata_path, write_records
from filexlab.seeding import mix64
from filexlab.stats import shannon_entropy
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

FILEX_DEFAULTS = {"alpha": 1.0, "beta": 8, "lexicon_size": 64, "n_iters": 1000}


def small_filex_spec(**overrides):
    kw = dict(
        target=FILEX,
        swept_param="beta",
        low=1.0,
        high=64.0,
        steps=7,
        integer_valued=True,
        defaults={"alpha": 1.0, "beta": 8, "lexicon_size": 16, "n_iters": 50},
        base_seed=11,
    )
    kw.update(overrides)
    return SweepSpec(**kw)


def toy_time_steps_spec(low, high, steps, base_seed):
    # buffer_size 256 skips every grid point below 256 time steps
    defaults = {"time_steps": 512, "lexicon_size": 4, "learning_rate": 0.01,
                "buffer_size": 256, "temperature": 1.5, "eval_samples": 200}
    return SweepSpec(TOY_ELS, "time_steps", low, high, steps, True, defaults, base_seed)


# ---------------------------------------------------------------- log_sweep


def test_log_sweep_decades_exact():
    assert log_sweep(1, 1000, 4) == [1.0, 10.0, 100.0, 1000.0]


def test_log_sweep_powers_of_two_floor_exact():
    grid = [math.floor(v) for v in log_sweep(8, 1024, 8)]
    assert grid == [8, 16, 32, 64, 128, 256, 512, 1024]


def test_log_sweep_degenerate_interval():
    assert log_sweep(5, 5, 3) == [5.0, 5.0, 5.0]


def test_log_sweep_single_point():
    assert log_sweep(3.7, 99.0, 1) == [3.7]


def test_log_sweep_endpoints_exact():
    grid = log_sweep(0.017, 93.4, 57)
    assert grid[0] == 0.017
    assert grid[-1] == 93.4


def test_log_sweep_monotone_on_random_ranges():
    rng = np.random.default_rng(2)
    for _ in range(30):
        lo = float(10 ** rng.uniform(-4, 2))
        hi = lo * float(10 ** rng.uniform(0, 4))
        n = int(rng.integers(1, 400))
        grid = log_sweep(lo, hi, n)
        assert len(grid) == n
        assert all(b >= a for a, b in zip(grid, grid[1:]))
        assert grid[0] == lo and grid[-1] == hi


_POSITIVE_FLOATS = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_POSITIVE_FLOATS, _POSITIVE_FLOATS, st.integers(1, 300))
def test_log_sweep_property_non_decreasing_with_exact_endpoints(a, b, n):
    # any finite positive bounds: subnormal, past 5e11 (where the integer
    # snap can move a value by 0.5), or a ratio past the largest double,
    # which is a ValueError
    low, high = min(a, b), max(a, b)
    if not math.isfinite(high / low):
        with pytest.raises(ValueError):
            log_sweep(low, high, n)
        return
    grid = log_sweep(low, high, n)
    assert len(grid) == n
    assert grid[0] == low and grid[-1] == (high if n > 1 else low)
    assert all(y >= x for x, y in zip(grid, grid[1:]))


def test_log_sweep_stays_within_bounds_past_5e11():
    # 5e11 + 0.5 is within 1e-12 of the integer 5e11 below it, which is
    # out of range; and low * (high / low) ** t can round past high, here
    # past the largest double
    assert log_sweep(500000000000.5, 500000000000.5, 3) == [500000000000.5] * 3
    grid = log_sweep(1.7976931348623155e308, 1.7976931348623157e308, 4)
    assert grid[0] == 1.7976931348623155e308 and grid[-1] == 1.7976931348623157e308
    assert all(b >= a for a, b in zip(grid, grid[1:]))


def test_log_sweep_geometric_spacing():
    grid = log_sweep(2.0, 512.0, 9)
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert all(r == pytest.approx(2.0, rel=1e-12) for r in ratios)


def test_log_sweep_validation():
    with pytest.raises(ValueError):
        log_sweep(10, 1, 5)
    with pytest.raises(ValueError):
        log_sweep(0.0, 1, 5)
    with pytest.raises(ValueError):
        log_sweep(-1.0, 1, 5)
    with pytest.raises(ValueError):
        log_sweep(1, 10, 0)
    with pytest.raises(ValueError):
        log_sweep(1, 10, True)
    for bad in (True, "1", None):
        with pytest.raises(ValueError):
            log_sweep(bad, 10, 3)
        with pytest.raises(ValueError):
            log_sweep(1, bad, 3)


# ---------------------------------------------------------------- SweepSpec


def test_spec_validation():
    small_filex_spec()
    with pytest.raises(ValueError):
        small_filex_spec(target="nope")
    with pytest.raises(ValueError):
        small_filex_spec(swept_param="temperature")  # not a filex knob
    with pytest.raises(ValueError):
        small_filex_spec(defaults={"alpha": 1.0, "bogus": 2})
    with pytest.raises(ValueError):
        small_filex_spec(steps=0)
    with pytest.raises(ValueError):
        small_filex_spec(low=64.0, high=1.0)
    with pytest.raises(ValueError):
        small_filex_spec(low=0.0)
    with pytest.raises(ValueError):
        small_filex_spec(base_seed="seed")
    # bools are never counts or seeds
    with pytest.raises(ValueError):
        small_filex_spec(steps=True)
    with pytest.raises(ValueError):
        small_filex_spec(base_seed=True)
    with pytest.raises(ValueError):
        SweepSpec("filex", "n_iters", 1, 10, True, True, {}, True)
    # bounds are real numbers and integer_valued is a bool, nothing truthy
    small_filex_spec(low=np.float32(2.0), high=np.int64(64))
    for bad in (True, "1", None):
        with pytest.raises(ValueError):
            small_filex_spec(low=bad)
        with pytest.raises(ValueError):
            small_filex_spec(high=bad)
    for bad in (1, "no", None, np.bool_(True)):
        with pytest.raises(ValueError):
            small_filex_spec(integer_valued=bad)
    with pytest.raises(ValueError):
        SweepSpec("filex", "n_iters", True, 10.0, 3, "no", {}, 0)
    # an int parameter's grid is always floored; a float one's only on request
    assert small_filex_spec(integer_valued=False) == small_filex_spec()
    small_filex_spec(swept_param="alpha", integer_valued=False)
    # the defaults are one parameter set, judged by its class when the spec
    # is built: a cross-field rule no grid value can mend fails here
    with pytest.raises(ValueError, match="must not exceed time_steps"):
        SweepSpec(TOY_ELS, "learning_rate", 1e-3, 1e-1, 3, False, {"buffer_size": 300_000}, 0)
    # the swept parameter's own default is in the set too
    with pytest.raises(ValueError, match="must not exceed time_steps"):
        SweepSpec(TOY_ELS, "buffer_size", 8.0, 64.0, 4, False, {"time_steps": 100}, 0)
    spec = SweepSpec(TOY_ELS, "buffer_size", 8.0, 64.0, 4, False,
                     {"time_steps": 100, "buffer_size": 8}, 0)
    assert len(execute_sweep(spec).records) == 4


def test_numpy_scalar_spec_runs_and_writes_the_python_sidecar(tmp_path):
    python_spec = small_filex_spec(low=1, high=64.0, steps=3, base_seed=5,
                                   defaults={"beta": 4, "n_iters": 20})
    numpy_spec = small_filex_spec(low=np.int64(1), high=np.float64(64.0), steps=np.int64(3),
                                  base_seed=np.int64(5),
                                  defaults={"beta": np.int64(4), "n_iters": np.int64(20)})
    assert numpy_spec == python_spec
    for name in ("low", "high", "steps", "base_seed"):
        assert type(getattr(numpy_spec, name)) is type(getattr(python_spec, name))
    assert [type(v) for v in numpy_spec.defaults.values()] == [float, int, int, int]
    paths = []
    for name, spec in (("python", python_spec), ("numpy", numpy_spec)):
        outcome = execute_sweep(spec)
        path = tmp_path / f"{name}.csv"
        write_records(path, outcome.records, spec=spec, skipped=outcome.skipped)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert metadata_path(paths[0]).read_bytes() == metadata_path(paths[1]).read_bytes()


def test_grid_flooring_keeps_duplicates():
    spec = small_filex_spec(low=3.0, high=9.0, steps=10)
    grid = spec.grid()
    assert len(grid) == 10
    assert all(v == math.floor(v) for v in grid)
    assert len(set(grid)) < 10  # coarse integer range duplicates
    assert all(b >= a for a, b in zip(grid, grid[1:]))


# ---------------------------------------------------------------- execution


def test_singleton_sweep_equals_direct_run():
    spec = small_filex_spec(steps=1, low=4.0, high=64.0)
    outcome = execute_sweep(spec)
    assert len(outcome.records) == 1
    rec = outcome.records[0]
    params = FilexParams(alpha=1.0, beta=4, lexicon_size=16, n_iters=50)
    expected = shannon_entropy(run(params, mix64(11, 0)))
    assert rec.entropy == expected
    assert rec.value == 4.0
    assert rec.seed == mix64(11, 0)
    assert rec.target == FILEX
    assert rec.swept_param == "beta"


def test_sweep_is_reproducible():
    spec = small_filex_spec()
    a = execute_sweep(spec)
    b = execute_sweep(spec)
    assert a.records == b.records
    assert a.skipped == b.skipped


def test_sweep_worker_count_does_not_change_results():
    spec = small_filex_spec()
    serial = execute_sweep(spec, workers=1)
    parallel = execute_sweep(spec, workers=2)
    assert serial.records == parallel.records
    assert serial.skipped == parallel.skipped


def test_sweep_skips_invalid_points():
    spec = SweepSpec(
        target=TOY_ELS,
        swept_param="time_steps",
        low=100.0,
        high=1000.0,
        steps=6,
        integer_valued=True,
        defaults={
            "time_steps": 512,
            "lexicon_size": 8,
            "learning_rate": 0.01,
            "buffer_size": 256,
            "temperature": 1.5,
            "eval_samples": 500,
        },
        base_seed=3,
    )
    outcome = execute_sweep(spec)
    grid = spec.grid()
    bad = [v for v in grid if v < 256]
    assert len(outcome.skipped) == len(bad) > 0
    assert len(outcome.records) == spec.steps - len(outcome.skipped)
    for skip in outcome.skipped:
        assert skip.value < 256
        assert "buffer_size" in skip.reason
    # skipped points keep their grid indices
    assert [s.index for s in outcome.skipped] == list(range(len(bad)))


def test_execute_sweep_logs_skips(caplog):
    spec = toy_time_steps_spec(100.0, 600.0, 3, 1)
    with caplog.at_level(logging.WARNING):
        records = execute_sweep(spec).records
    assert len(records) < spec.steps
    assert any("skipped" in r.message for r in caplog.records)


def test_partial_defaults_filled_from_target():
    spec = SweepSpec(TOY_ELS, "time_steps", 100, 2560, 3, True, {"lexicon_size": 8}, 0)
    assert spec.defaults == {**asdict(PARAMS[TOY_ELS]()), "lexicon_size": 8}
    assert list(spec.defaults) == list(asdict(PARAMS[TOY_ELS]()))
    outcome = execute_sweep(spec)
    assert [r.value for r in outcome.records] == spec.grid()[1:] == [505.0, 2560.0]
    assert [s.value for s in outcome.skipped] == [100.0]


def test_sweep_repeats():
    spec = small_filex_spec(steps=4)
    outcome = execute_sweep(spec, repeats=3)
    assert len(outcome.records) == 12
    seeds = [r.seed for r in outcome.records]
    assert len(set(seeds)) == 12
    grid = spec.grid()
    for i in range(4):
        chunk = outcome.records[3 * i : 3 * i + 3]
        assert all(r.value == grid[i] for r in chunk)
        assert [r.seed for r in chunk] == [mix64(11, 3 * i + r) for r in range(3)]


def test_sweep_argument_validation():
    spec = small_filex_spec()
    for run in (execute_sweep, lambda spec, **kw: execute_sweeps([spec], **kw)):
        for bad in ({"workers": 0}, {"repeats": 0}, {"workers": True}, {"repeats": True}):
            with pytest.raises(ValueError):
                run(spec, **bad)
    assert multiprocessing.active_children() == []


def mixed_specs():
    return [
        small_filex_spec(),
        toy_time_steps_spec(10.0, 100.0, 3, 5),  # every point skipped: no chunk
        toy_time_steps_spec(100.0, 600.0, 3, 1),  # one valid point, fewer than workers
        small_filex_spec(swept_param="n_iters", low=1.0, high=80.0, steps=5, base_seed=4),
    ]


@pytest.mark.parametrize("workers,repeats", [(1, 1), (2, 1), (2, 3)])
def test_execute_sweeps_matches_execute_sweep_per_spec(workers, repeats):
    specs = mixed_specs()
    expected = [execute_sweep(spec, repeats=repeats) for spec in specs]
    assert [len(o.records) for o in expected] == [7 * repeats, 0, repeats, 5 * repeats]
    assert [len(o.skipped) for o in expected] == [0, 3, 2, 0]
    outcomes = list(execute_sweeps(specs, workers=workers, repeats=repeats))
    assert outcomes == expected
    assert multiprocessing.active_children() == []


def test_execute_sweeps_of_no_specs_yields_nothing():
    assert list(execute_sweeps([], workers=2)) == []


def test_closing_execute_sweeps_stops_running_chunks():
    # the dear spec's chunks are already handed to workers when the
    # consumer stops after the cheap spec: they are stopped, not waited for
    cheap = small_filex_spec(steps=2)
    dear = small_filex_spec(swept_param="n_iters", low=4e4, high=5e4, steps=2)
    start = time.perf_counter()
    assert len(list(execute_sweeps([dear], workers=2))) == 1
    dear_s = time.perf_counter() - start
    outcomes = execute_sweeps([cheap, dear], workers=2)
    assert next(outcomes) == execute_sweep(cheap)
    start = time.perf_counter()
    outcomes.close()
    assert time.perf_counter() - start < dear_s / 4, dear_s
    assert multiprocessing.active_children() == []


def test_a_worker_error_reaches_the_caller_and_stops_the_pool():
    # every point's temperature overflows its first update: each of the two
    # workers raises the ValueError, and no numpy warning comes before it
    # (the workers are forked with warnings as errors)
    spec = SweepSpec(TOY_ELS, "temperature", 1e-308, 1e-308, 2, False,
                     {"time_steps": 8, "lexicon_size": 4, "buffer_size": 8, "eval_samples": 10}, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too small"):
            list(execute_sweeps([spec], workers=2))
    assert multiprocessing.active_children() == []


def test_execute_sweeps_logs_every_skip_before_running(caplog):
    specs = mixed_specs()
    with caplog.at_level(logging.WARNING):
        outcomes = execute_sweeps(specs, workers=2)
        logged = [r.message for r in caplog.records if "skipped" in r.message]
        assert len(logged) == 5
        assert len(list(outcomes)) == len(specs)
    assert [r.message for r in caplog.records if "skipped" in r.message] == logged


# ---------------------------------------------------------------- seeds


def test_mix64_no_collisions():
    seen = {mix64(0, i) for i in range(50_000)}
    assert len(seen) == 50_000
    # two nearby bases must not collide across indices either
    seen_b = {mix64(1, i) for i in range(50_000)}
    assert not (seen & seen_b)


_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = 2**64 - 1


def _unmix64(z: int, base_seed: int) -> int:
    # undo the SplitMix64 finalizer step by step, then the state increment
    def unshift(y, k):
        x = y
        for _ in range(64 // k + 1):
            x = y ^ (x >> k)
        return x

    z = unshift(z, 31)
    z = unshift((z * pow(0x94D049BB133111EB, -1, 2**64)) & _MASK64, 27)
    z = unshift((z * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & _MASK64, 30)
    return (((z - base_seed) * pow(_GOLDEN, -1, 2**64)) & _MASK64) - 1


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 2))
def test_mix64_property_injective_in_index(base_seed, index):
    # mix64(base, .) has a left inverse on [0, 2^64 - 1), so no two indices
    # of one base share a seed
    assert _unmix64(mix64(base_seed, index), base_seed) == index


def test_mix64_rejects_negative_index():
    with pytest.raises(ValueError):
        mix64(0, -1)


# ---------------------------------------------------------------- suites


def test_filex_suite_shape():
    suite = default_filex_suite()
    assert len(suite) == 4
    by_param = {s.swept_param: s for s in suite}
    assert set(by_param) == {"n_iters", "lexicon_size", "alpha", "beta"}
    n_spec = by_param["n_iters"]
    assert (n_spec.low, n_spec.high, n_spec.steps) == (1.0, 1000.0, 1000)
    assert n_spec.integer_valued
    assert n_spec.defaults["lexicon_size"] == 64
    assert n_spec.defaults["alpha"] == 1.0
    assert n_spec.defaults["beta"] == 8
    s_grid = by_param["lexicon_size"].grid()
    assert s_grid[0] == 8.0 and s_grid[-1] == 256.0
    a_spec = by_param["alpha"]
    assert (a_spec.low, a_spec.high, a_spec.integer_valued) == (1e-3, 1e3, False)
    b_spec = by_param["beta"]
    assert (b_spec.low, b_spec.high) == (1.0, 1000.0)
    assert len({s.base_seed for s in suite}) == 4


def test_toy_suite_shape():
    suite = default_toy_els_suite()
    assert len(suite) == 5
    by_param = {s.swept_param: s for s in suite}
    assert set(by_param) == {
        "time_steps",
        "lexicon_size",
        "learning_rate",
        "buffer_size",
        "temperature",
    }
    t_spec = by_param["temperature"]
    assert (t_spec.low, t_spec.high) == (0.1, 10.0)
    b_grid = by_param["buffer_size"].grid()
    assert b_grid[0] == 8.0 and b_grid[-1] == 1024.0
    ts_spec = by_param["time_steps"]
    assert (ts_spec.low, ts_spec.high, ts_spec.steps) == (1e2, 1e6, 200)
    assert ts_spec.defaults["time_steps"] == 200_000
    assert ts_spec.defaults["learning_rate"] == 3e-3
    assert ts_spec.defaults["buffer_size"] == 256
    assert ts_spec.defaults["temperature"] == 1.5
    # suite-level evaluation precision, 10x the stock dataclass default
    assert all(s.defaults["eval_samples"] == 100_000 for s in suite)
    assert len({s.base_seed for s in suite}) == 5


def test_suites_share_no_base_seeds():
    filex = {s.base_seed for s in default_filex_suite()}
    toy = {s.base_seed for s in default_toy_els_suite()}
    assert not (filex & toy)


def test_suite_steps_override():
    assert all(s.steps == 40 for s in default_filex_suite(steps=40))
    assert all(s.steps == 15 for s in default_toy_els_suite(steps=15))


def test_suite_root_seed_changes_base_seeds():
    a = [s.base_seed for s in default_filex_suite(root_seed=0)]
    b = [s.base_seed for s in default_filex_suite(root_seed=1)]
    assert set(a).isdisjoint(b)
