"""Declarative hyperparameter sweeps over the urn process and the toy agent.

A SweepSpec names one hyperparameter, a geometric grid for it, and the
defaults for everything else. Each grid point runs once with a seed mixed
from (base_seed, grid index), so results are reproducible and independent
of execution order or worker count.

TARGETS gives each simulated process its batch runner and its default
sweep suite; its parameter class in `params.PARAMS` gives the parameter
names, their int/float kinds and their defaults.
"""

from __future__ import annotations

import concurrent.futures
import logging
import math
from contextlib import closing
from dataclasses import asdict, dataclass, field
from typing import Callable, Generator

import numpy as np

from .filex import run as filex_run  # noqa: F401  (unused; the benchmark tracer wraps this name)
from .filex import run_many as filex_run_many
from .params import PARAMS
from .records import FILEX, TOY_ELS, RunRecord
from .seeding import mix64
from .stats import shannon_entropy
from .toy_els import toy_run
from .validation import check_positive_int, check_seed, is_real, param_kinds, shown

_LOG = logging.getLogger(__name__)

# snap tolerance for grid values that should be exact integers; geometric
# grids from the default suites space adjacent points >= 0.69% apart, so
# this cannot merge distinct points
_INT_SNAP_RTOL = 1e-12


def _check_bounds(low, high) -> None:
    if not all(is_real(b) and b > 0 for b in (low, high)):
        raise ValueError(f"bounds must be finite positive reals, got ({shown(low)}, {shown(high)})")
    if low > high:
        raise ValueError(f"low ({low}) must not exceed high ({high})")
    if not math.isfinite(high / low):
        # the grid is low * (high / low) ** t
        raise ValueError(f"high / low must be a finite float, got {shown(high)} / {shown(low)}")


def _python_scalar(v):
    return v.item() if isinstance(v, np.generic) else v


def log_sweep(low: float, high: float, n: int) -> list[float]:
    """Geometric grid of n values from low to high, endpoints exact.

    Interior values within 1e-12 relative of an integer are snapped to
    it, so decade grids like (1, 10, 100, 1000) come out exact despite
    floating-point pow. Interior values stay within [low, high]: pow may
    round past high, and a snap (by up to 0.5 beyond 5e11) only lands on
    an integer in range, so the grid is non-decreasing.
    """
    check_positive_int("n", n)
    _check_bounds(low, high)
    if n == 1:
        return [float(low)]
    out = [float(low)]
    for i in range(1, n - 1):
        v = min(low * (high / low) ** (i / (n - 1)), high)
        r = round(v)
        if low <= r <= high and abs(v - r) <= _INT_SNAP_RTOL * v:
            v = float(r)
        out.append(float(v))
    out.append(float(high))
    return out


@dataclass(frozen=True)
class SweepSpec:
    """One hyperparameter sweep: target process, grid, defaults, base seed."""

    target: str
    swept_param: str
    low: float
    high: float
    steps: int
    integer_valued: bool
    defaults: dict
    base_seed: int

    def __post_init__(self) -> None:
        if self.target not in PARAMS:
            raise ValueError(f"unknown target {self.target!r}")
        params_cls = PARAMS[self.target]
        kinds = param_kinds(params_cls)
        names = tuple(kinds)
        if self.swept_param not in names:
            raise ValueError(
                f"{self.swept_param!r} is not a {self.target} parameter "
                f"(expected one of {names})"
            )
        for key in self.defaults:
            if key not in names:
                raise ValueError(f"unknown default {key!r} for target {self.target}")
        # one parameter set, the swept parameter's default included, judged by
        # its class; what the spec leaves out runs at the target's defaults
        defaults = asdict(params_cls(**self.defaults))
        check_positive_int("steps", self.steps)
        _check_bounds(self.low, self.high)
        if not isinstance(self.integer_valued, bool):
            raise ValueError(f"integer_valued must be a bool, got {shown(self.integer_valued)}")
        # an int parameter's grid is always floored: an unfloored value is a
        # float, which its field rejects
        object.__setattr__(self, "integer_valued", self.integer_valued or kinds[self.swept_param] is int)
        check_seed("base_seed", self.base_seed)
        # numpy scalars are stored as Python numbers: the JSON sidecar
        # takes only those
        for name in ("low", "high", "steps", "base_seed"):
            object.__setattr__(self, name, _python_scalar(getattr(self, name)))
        object.__setattr__(self, "defaults", {k: _python_scalar(v) for k, v in defaults.items()})

    def grid(self) -> list[float]:
        """Post-floor grid values, one per step, non-decreasing."""
        vals = log_sweep(self.low, self.high, self.steps)
        if self.integer_valued:
            vals = [float(np.floor(v)) for v in vals]
        return vals


@dataclass(frozen=True)
class SkippedPoint:
    """A grid point whose parameters were invalid, with the reason."""

    index: int
    value: float
    reason: str


@dataclass(frozen=True)
class SweepOutcome:
    records: list[RunRecord]
    skipped: list[SkippedPoint] = field(default_factory=list)


def _run_chunk(target: str, params_list: list, seeds: list[int]) -> list[np.ndarray]:
    # module-level so the process pool can pickle it
    return TARGETS[target].run_many(params_list, seeds)


@dataclass
class _Points:
    """A spec's valid points, in grid order, and its skipped ones."""

    spec: SweepSpec
    values: list[float]
    params_list: list
    seeds: list[int]
    skipped: list[SkippedPoint]

    def outcome(self, dists: list[np.ndarray]) -> SweepOutcome:
        records = [
            RunRecord(
                target=self.spec.target,
                swept_param=self.spec.swept_param,
                value=value,
                seed=seed,
                entropy=shannon_entropy(dist),
            )
            for value, seed, dist in zip(self.values, self.seeds, dists)
        ]
        return SweepOutcome(records=records, skipped=self.skipped)


def _points(spec: SweepSpec, repeats: int) -> _Points:
    params_cls = PARAMS[spec.target]
    points = _Points(spec, [], [], [], [])
    for i, value in enumerate(spec.grid()):
        installed = int(value) if spec.integer_valued else value
        try:
            params = params_cls(**{**spec.defaults, spec.swept_param: installed})
        except ValueError as exc:
            points.skipped.append(SkippedPoint(index=i, value=value, reason=str(exc)))
            _LOG.warning(
                "%s %s: skipped grid point %d (value %g): %s",
                spec.target, spec.swept_param, i, value, exc,
            )
            continue
        for r in range(repeats):
            points.values.append(value)
            points.params_list.append(params)
            points.seeds.append(mix64(spec.base_seed, i * repeats + r))
    return points


def execute_sweeps(
    specs: list[SweepSpec], workers: int = 1, repeats: int = 1
) -> Generator[SweepOutcome, None, None]:
    """Run every spec's grid; yield one SweepOutcome per spec, in spec order.

    Each point runs at its grid index i, with repeats > 1 repeats times,
    seeded by mix64(base_seed, i * repeats + r). Invalid points (the
    installed value makes the parameter set unconstructible) are skipped,
    logged here, before any point runs, and reported in their spec's
    outcome, one entry per grid point.

    The arguments are checked and every spec's points built when this is
    called. With workers > 1, one process pool serves all the specs: each
    spec's valid points are split into min(workers, n) strided chunks, and
    every chunk of every spec is queued, in spec order, before the first
    result is awaited, so no worker idles at the end of a spec. Closing the
    returned generator early cancels the chunks still queued and stops the
    running ones; no worker outlives it.
    """
    check_positive_int("workers", workers)
    check_positive_int("repeats", repeats)
    all_points = [_points(spec, repeats) for spec in specs]
    return _run(all_points, workers)


def _run(all_points: list[_Points], workers: int) -> Generator[SweepOutcome, None, None]:
    # chunk c of a spec takes every k-th point from c on: cost often grows
    # along a grid (time_steps, lexicon_size), and a contiguous split would
    # leave most of it to the last chunk
    splits = [min(workers, len(points.seeds)) for points in all_points]
    n_procs = min(workers, sum(splits))
    if n_procs <= 1:
        for points in all_points:
            run_many = TARGETS[points.spec.target].run_many
            yield points.outcome(run_many(points.params_list, points.seeds) if points.seeds else [])
        return
    # the default start method (fork on Linux) is safe here: the executor
    # forks every worker at the first submit, before it starts its thread,
    # and a forked worker does not re-import numpy and the package.
    # concurrent.futures loads ProcessPoolExecutor, and with it
    # multiprocessing, on first use, so a serial sweep never pays for them.
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=n_procs)
    queued: list[list[concurrent.futures.Future]] = []
    try:
        for points, k in zip(all_points, splits):
            queued.append([
                pool.submit(_run_chunk, points.spec.target, points.params_list[c::k], points.seeds[c::k])
                for c in range(k)
            ])
        for points, futures in zip(all_points, queued):
            dists = [None] * len(points.seeds)
            for c, future in enumerate(futures):
                dists[c :: len(futures)] = future.result()
            yield points.outcome(dists)
    finally:
        # a consumer that stops early (a failed write, an interrupt) wants no
        # more results: the queued chunks are cancelled and the running ones
        # stopped, not waited for. Before Python 3.14 (terminate_workers) the
        # executor has no public way to stop a running chunk.
        if not all(future.done() for futures in queued for future in futures):
            for process in pool._processes.values():
                process.terminate()
        pool.shutdown(cancel_futures=True)


def execute_sweep(spec: SweepSpec, workers: int = 1, repeats: int = 1) -> SweepOutcome:
    """The one-spec case of execute_sweeps."""
    with closing(execute_sweeps([spec], workers, repeats)) as outcomes:
        return next(outcomes)


def _suite(target: str, rows, seed_offset: int, root_seed: int, steps: int,
           defaults: dict) -> list[SweepSpec]:
    # one spec per (param, low, high) row, seeded mix64(root_seed, seed_offset + k)
    return [
        SweepSpec(target, name, low, high, steps, False, defaults, mix64(root_seed, seed_offset + k))
        for k, (name, low, high) in enumerate(rows)
    ]


def default_filex_suite(root_seed: int = 0, steps: int = 1000) -> list[SweepSpec]:
    """The four urn-process sweeps: n_iters, lexicon_size, alpha, beta."""
    rows = [
        ("n_iters", 1.0, 1e3),
        ("lexicon_size", 8.0, 256.0),
        ("alpha", 1e-3, 1e3),
        ("beta", 1.0, 1e3),
    ]
    return _suite(FILEX, rows, 0, root_seed, steps, {})


def default_toy_els_suite(root_seed: int = 0, steps: int = 200) -> list[SweepSpec]:
    """The five toy-agent sweeps: time_steps, lexicon_size, learning_rate,
    buffer_size, temperature.

    The suite evaluates with 10x the stock eval_samples: the time_steps
    trend is shallow (a few millibits across the grid) and drowns in
    frequency-estimation noise at the stock precision.
    """
    rows = [
        ("time_steps", 1e2, 1e6),
        ("lexicon_size", 8.0, 256.0),
        ("learning_rate", 1e-4, 1e-1),
        ("buffer_size", 8.0, 1024.0),
        ("temperature", 0.1, 10.0),
    ]
    return _suite(TOY_ELS, rows, 8, root_seed, steps, {"eval_samples": 100_000})


@dataclass(frozen=True)
class Target:
    """One simulated process: its batch runner and its default suite.

    run_many(params_list, seeds) returns the output distribution of each
    (params, seed) pair, in input order; suite(root_seed=..., steps=...)
    returns its default sweeps.
    """

    run_many: Callable
    suite: Callable


# The toy runner looks toy_run up in this module when called, so a caller
# that rebinds that name (the benchmark tracer does) sees every run. No
# caller wraps the FiLex batch runner, so its row holds it directly. Pool
# workers receive the target's name and look it up here.
TARGETS = {
    FILEX: Target(run_many=filex_run_many, suite=default_filex_suite),
    TOY_ELS: Target(
        run_many=lambda params_list, seeds: [toy_run(p, s) for p, s in zip(params_list, seeds)],
        suite=default_toy_els_suite,
    ),
}
