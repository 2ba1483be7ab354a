"""Practical estimation of the function-noise level.

When the zeroth-order oracle's mean error is unknown, the acceptance-test
slack is set to a small multiple of the empirical standard deviation of
repeated oracle calls at the incumbent point, refreshed once per epoch.
For a block of trials one refresh is one stacked query: n_calls copies of
each incumbent, every copy drawing from its trial's EPS_EST generator in
turn, as n_calls one-point queries would.
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


def estimate_eps_f(zeroth_oracle, x, config: EstimatorConfig, rng, phi=None):
    """scale_factor times the sample standard deviation (ddof 1) of
    `n_calls` independent oracle values at x.

    A point x with its generator gives a float, from n_calls one-point
    queries in turn.  An (n, dim) stack with one generator per row gives n
    estimates from one stacked query of n * n_calls rows; `phi`, the exact
    values at the rows when the caller knows them, is handed to it.
    """
    m = config.n_calls
    if np.ndim(x) == 1:
        values = np.array([zeroth_oracle(x, rng)[0] for _ in range(m)])
        return config.scale_factor * float(np.std(values, ddof=1))
    known = {} if phi is None else {"phi": np.repeat(phi, m)}
    values, _ = zeroth_oracle(np.repeat(x, m, axis=0),
                              [gen for gen in rng for _ in range(m)], **known)
    return config.scale_factor * np.std(values.reshape(len(x), m), axis=1, ddof=1)


class EpochEpsFController:
    """Per-epoch refresh hook for the line-search loop: re-estimates the
    slack at every epoch boundary, at the current incumbent points.  The
    refreshes of a trial draw in turn from its one EPS_EST generator.

    Called as ``controller(k, X, streams, phi)`` with the (n, dim)
    incumbents of a block, its `rng.BlockStreams` and the exact values at
    X; returns the n slacks.  A point with one trial's `TrialStreams` gives
    a float."""

    def __init__(self, zeroth_oracle, config: EstimatorConfig, scale: float = 1.0):
        self.zeroth_oracle = zeroth_oracle
        self.config = config
        self.scale = scale
        self._current = 0.0
        self.history: list[tuple[int, object]] = []

    def __call__(self, k: int, x, streams, phi=None):
        if k % self.config.refresh_period == 0:
            est = estimate_eps_f(self.zeroth_oracle, x, self.config,
                                 streams.stream(rngmod.EPS_EST), phi)
            self._current = self.scale * est
            self.history.append((k, self._current))
        return self._current
