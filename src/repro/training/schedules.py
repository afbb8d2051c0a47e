"""Learning-rate schedules: linear warmup and cosine decay (Section 5.1).

The paper uses "a linear warmup over 5 epochs for both learning rates up
to their initial value and decay to zero during training using a cosine
schedule".
"""

from __future__ import annotations

import math
from typing import Callable

Schedule = Callable[[int], float]


def cosine_decay(initial_lr: float, total_steps: int) -> Schedule:
    """Cosine decay from ``initial_lr`` to zero over ``total_steps``."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")

    def schedule(step: int) -> float:
        t = min(step, total_steps) / total_steps
        return initial_lr * 0.5 * (1.0 + math.cos(math.pi * t))

    return schedule


def warmup_cosine(initial_lr: float, warmup_steps: int, total_steps: int) -> Schedule:
    """Linear warmup to ``initial_lr``, then cosine decay to zero."""
    if warmup_steps < 0 or total_steps <= warmup_steps:
        raise ValueError("need 0 <= warmup_steps < total_steps")
    decay = cosine_decay(initial_lr, total_steps - warmup_steps)

    def schedule(step: int) -> float:
        if step < warmup_steps:
            return initial_lr * (step + 1) / warmup_steps
        return decay(step - warmup_steps)

    return schedule
