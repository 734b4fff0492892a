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

import functools
import math
import numbers
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .sampling import categorical_counts
from .seeding import make_rng


@functools.cache
def param_kinds(params_cls: type) -> dict[str, type]:
    """Field name -> int or float for a params dataclass, in field order."""
    hints = get_type_hints(params_cls)
    return {f.name: hints[f.name] for f in fields(params_cls)}


def check_positive(params) -> None:
    """Raise ValueError unless every field of a params dataclass is positive.

    A field annotated int takes an int or numpy integer >= 1; a field
    annotated float takes any finite real > 0, numpy scalars included. A
    bool is never a number.
    """
    for name, kind in param_kinds(type(params)).items():
        v = getattr(params, name)
        if kind is int:
            what = "a positive integer"
            ok = isinstance(v, (int, np.integer)) and v >= 1
        else:
            what = "a positive finite real"
            ok = isinstance(v, numbers.Real) and 0 < v < math.inf
        if isinstance(v, bool) or not ok:
            raise ValueError(f"{name} must be {what}, got {v!r}")


@dataclass(frozen=True)
class FilexParams:
    """Process hyperparameters (alpha, beta, S, N).

    alpha: total weight mass added per iteration (update magnitude).
    beta: draws per iteration; more draws make smoother updates.
    lexicon_size: number of words S.
    n_iters: number of update iterations N.
    """

    alpha: float
    beta: int
    lexicon_size: int
    n_iters: int

    def __post_init__(self):
        check_positive(self)


@dataclass
class WeightState:
    """Evolving weight vector plus the number of updates applied to it.

    Invariants: every weight strictly positive; total mass equals
    1 + iteration * alpha (each iteration adds beta draws of alpha/beta).
    """

    weights: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1 or len(self.weights) == 0:
            raise ValueError("weights must be a non-empty 1-d vector")
        if not np.all(self.weights > 0):
            raise ValueError("weights must be strictly positive")
        if self.iteration < 0:
            raise ValueError(f"iteration must be non-negative, got {self.iteration}")


def init_state(params: FilexParams) -> WeightState:
    """Uniform initial state: every word gets weight 1/S, total mass 1."""
    s = params.lexicon_size
    return WeightState(weights=np.full(s, 1.0 / s), iteration=0)


def _update(weights: np.ndarray, params: FilexParams, rng: np.random.Generator) -> None:
    # One iteration, in place: beta draws from the frozen weights, each +alpha/beta.
    counts = categorical_counts(weights, params.beta, rng)
    weights += counts * (params.alpha / params.beta)


def step(state: WeightState, params: FilexParams, rng: np.random.Generator) -> WeightState:
    """Apply one update iteration and return the new state.

    The beta indices are drawn i.i.d. from the state's normalized weights
    as they were at the start of the iteration; the input state is not
    modified.
    """
    if len(state.weights) != params.lexicon_size:
        raise ValueError(
            f"state has {len(state.weights)} weights but params.lexicon_size"
            f" is {params.lexicon_size}"
        )
    weights = state.weights.copy()
    _update(weights, params, rng)
    return WeightState(weights=weights, iteration=state.iteration + 1)


def run(params: FilexParams, seed: int) -> np.ndarray:
    """Run the process from the uniform state for n_iters iterations.

    Returns the normalized final weights: a probability vector over the
    lexicon. Deterministic for a fixed (params, seed).
    """
    rng = make_rng(seed)
    weights = init_state(params).weights
    for _ in range(params.n_iters):
        _update(weights, params, rng)
    return weights / weights.sum()


def run_batch(params: FilexParams, seeds: list[int]) -> list[np.ndarray]:
    """run() for each seed, in input order.

    Each run's stream is derived from its own seed, so the outputs do not
    depend on execution order.
    """
    if len(seeds) == 0:
        raise ValueError("seeds must be non-empty")
    return [run(params, s) for s in seeds]
