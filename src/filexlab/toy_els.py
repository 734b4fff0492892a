"""Toy emergent-language analog: a softmax policy that reinforces its own messages.

A single logit vector theta over S words stands in for a sender network.
Each update draws a buffer of relaxed one-hot messages from the frozen
policy (Gumbel noise, temperature-scaled softmax) and takes one ascent
step toward them. Messages the policy favors get sampled more, so their
logits grow: the same rich-get-richer mechanism as the urn process, with
knobs for experience budget, lexicon size, learning rate, buffer size,
and relaxation temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filex import check_positive
from .sampling import categorical_counts  # noqa: F401  (unused; the benchmark tracer wraps this name)
from .seeding import make_rng

# smallest positive normal double: an Exp(1) draw of exactly 0.0 is raised
# to it, so -log E stays finite (about 708) instead of +inf
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class ToyElsParams:
    """Hyperparameters of the toy agent.

    time_steps is the total episode budget; each parameter update consumes
    buffer_size episodes, so a run applies floor(time_steps / buffer_size)
    updates. eval_samples controls the precision of the final frequency
    estimate only, not the learning dynamics.
    """

    time_steps: int
    lexicon_size: int
    learning_rate: float
    buffer_size: int
    temperature: float
    eval_samples: int = 10_000

    def __post_init__(self) -> None:
        check_positive(self)
        if self.buffer_size > self.time_steps:
            raise ValueError(
                f"buffer_size ({self.buffer_size}) must not exceed "
                f"time_steps ({self.time_steps}); no update would fit"
            )


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def init_state(params: ToyElsParams) -> np.ndarray:
    """Uniform policy: all logits zero."""
    return np.zeros(params.lexicon_size)


def toy_update(logits: np.ndarray, params: ToyElsParams, rng: np.random.Generator) -> np.ndarray:
    """One buffer collection plus one ascent step.

    Draws buffer_size relaxed messages y_b = softmax((theta + g_b) / T),
    g_b i.i.d. standard Gumbel, all from the frozen current logits. Each
    g = -log E with E ~ Exp(1) from numpy's ziggurat (the exponential-race
    form of the Gumbel-max trick), about half the cost of numpy's own
    gumbel, which takes two scalar logs per element. The
    ascent direction is the buffer-averaged cross-entropy gradient
    mean_b(y_b) - softmax(theta). The raw direction is rescaled to a fixed
    root-mean-square step length of learning_rate, the way adaptive
    optimizers normalize gradient magnitude; a zero gradient is a no-op.
    The logits must be S finite values; a new vector is returned and the
    input is not modified.
    """
    theta = np.asarray(logits, dtype=np.float64)
    if theta.shape != (params.lexicon_size,):
        raise ValueError(
            f"logits must be a 1-d vector of lexicon_size = {params.lexicon_size} values,"
            f" got shape {theta.shape}"
        )
    if not np.isfinite(theta).all():
        raise ValueError("logits must be finite")
    # in place on the one buffer-sized array: y = theta - log(max(E, tiny))
    y = rng.standard_exponential((params.buffer_size, params.lexicon_size))
    np.maximum(y, _TINY, out=y)
    np.log(y, out=y)
    np.subtract(theta, y, out=y)
    y /= params.temperature
    y -= y.max(axis=1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)
    grad = np.add.reduce(y, axis=0)
    grad /= params.buffer_size
    grad -= softmax(theta)
    rms = math.sqrt(np.add.reduce(grad * grad) / params.lexicon_size)
    if rms > 0.0:
        return theta + params.learning_rate * grad / rms
    return theta.copy()


def toy_run(params: ToyElsParams, seed: int) -> np.ndarray:
    """Train from the uniform policy, then estimate word frequencies.

    Applies floor(time_steps / buffer_size) updates and returns the
    empirical distribution of eval_samples draws from the final policy,
    counted by one multinomial draw. Deterministic per (params, seed).
    """
    rng = make_rng(seed)
    theta = init_state(params)
    for _ in range(params.time_steps // params.buffer_size):
        theta = toy_update(theta, params, rng)
    counts = rng.multinomial(params.eval_samples, softmax(theta))
    return counts / params.eval_samples
