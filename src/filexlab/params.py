"""The parameter sets of both simulated processes, with their validity rules.

`PARAMS` maps each target name to its parameter class. The field names
are the parameter names, their annotations the int/float kinds and their
defaults the target's defaults, so the CLI builds every flag from this
table without loading a model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .records import FILEX, TOY_ELS
from .validation import check_positive, is_real, shown


@dataclass(frozen=True)
class FilexParams:
    """Process hyperparameters (alpha, beta, S, N).

    alpha: total weight mass added per iteration (update magnitude).
    beta: draws per iteration; more draws make smoother updates.
    lexicon_size: number of words S.
    n_iters: number of update iterations N.
    """

    alpha: float = 1.0
    beta: int = 8
    lexicon_size: int = 64
    n_iters: int = 1000

    def __post_init__(self):
        check_positive(self)
        # the weights' total after the last iteration: past the double range
        # the normalized weights are NaN
        if not (is_real(self.n_iters) and math.isfinite(1.0 + float(self.alpha) * int(self.n_iters))):
            raise ValueError(
                f"the final mass 1 + alpha * n_iters must be a finite double,"
                f" got alpha = {shown(self.alpha)}, n_iters = {shown(self.n_iters)}"
            )


@dataclass(frozen=True)
class ToyElsParams:
    """Hyperparameters of the toy agent.

    time_steps is the total episode budget; each parameter update consumes
    buffer_size episodes, so a run applies floor(time_steps / buffer_size)
    updates. eval_samples controls the precision of the final frequency
    estimate only, not the learning dynamics.
    """

    time_steps: int = 200_000
    lexicon_size: int = 64
    learning_rate: float = 3e-3
    buffer_size: int = 256
    temperature: float = 1.5
    eval_samples: int = 10_000

    def __post_init__(self) -> None:
        check_positive(self)
        if self.buffer_size > self.time_steps:
            raise ValueError(
                f"buffer_size ({self.buffer_size}) must not exceed "
                f"time_steps ({self.time_steps}); no update would fit"
            )


PARAMS = {FILEX: FilexParams, TOY_ELS: ToyElsParams}
