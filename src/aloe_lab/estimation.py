"""Practical estimation of the function-noise level.

When the zeroth-order oracle's mean error is unknown, the acceptance-test
slack is set to a small multiple of the empirical standard deviation of
repeated oracle calls at the incumbent point, refreshed once per epoch.
"""

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod


@dataclass(frozen=True)
class EstimatorConfig:
    n_calls: int = 30
    scale_factor: float = 0.2
    refresh_period: int = 50  # iterations per epoch

    def __post_init__(self):
        if self.n_calls < 2:
            raise ValueError("n_calls must be >= 2")
        if self.scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        if self.refresh_period < 1:
            raise ValueError("refresh_period must be >= 1")


def estimate_eps_f(zeroth_oracle, x, config: EstimatorConfig, rng) -> float:
    """scale_factor times the sample standard deviation (ddof 1) of
    `n_calls` independent oracle values at x."""
    values = np.array([zeroth_oracle(x, rng)[0] for _ in range(config.n_calls)])
    return config.scale_factor * float(np.std(values, ddof=1))


class EpochEpsFController:
    """Per-epoch refresh hook for the line-search loop: re-estimates the
    slack at every epoch boundary, at the current incumbent point.  The
    refreshes of a trial draw in turn from its one EPS_EST generator."""

    def __init__(self, zeroth_oracle, config: EstimatorConfig, scale: float = 1.0):
        self.zeroth_oracle = zeroth_oracle
        self.config = config
        self.scale = scale
        self._current = 0.0
        self.history: list[tuple[int, float]] = []

    def __call__(self, k: int, x, streams) -> float:
        if k % self.config.refresh_period == 0:
            est = estimate_eps_f(self.zeroth_oracle, x, self.config,
                                 streams.stream(rngmod.EPS_EST))
            self._current = self.scale * est
            self.history.append((k, self._current))
        return self._current
