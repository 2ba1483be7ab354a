"""Deterministic per-purpose random streams.

Each trial owns one generator per purpose (gradient query, zeroth-order
query at x_k, at x_k+, noise-level estimation), keyed by (trial seed,
purpose).  A purpose's queries draw from its generator in iteration order.
Every oracle takes a number of draws per query that depends only on its
own draws, never on x, alpha or the accept/reject history, so the noise of
iteration k is a function of (trial seed, purpose, k) alone: draws stay
independent across iterations and every trial replays exactly from its
seed.

The line search advances a block of trials in lockstep, one trial per row.
`BlockStreams` hands each stacked query one generator per row, trial r's
generator for the query's purpose at row r, so a trial draws the same
numbers whichever block it runs in, and at whatever row.
"""

import numpy as np

# Purpose codes for the per-trial streams.
GRAD = 0
F_CURR = 1
F_PLUS = 2
EPS_EST = 3
PROBE = 4

# probe_rng tag of the growth-constant probes of a logistic fixture; above
# any certification probe index, which counts up from 0.
GROWTH_PROBES = 1 << 20


class TrialStreams:
    """The per-purpose generators of one trial."""

    def __init__(self, trial_seed: int):
        if trial_seed < 0:
            raise ValueError("trial_seed must be nonnegative")
        self.trial_seed = int(trial_seed)
        self._generators: dict[int, np.random.Generator] = {}

    def stream(self, purpose: int) -> np.random.Generator:
        """The trial's generator for `purpose`, built on first use."""
        gen = self._generators.get(purpose)
        if gen is None:
            gen = np.random.default_rng((self.trial_seed, int(purpose)))
            self._generators[purpose] = gen
        return gen


class BlockStreams:
    """The per-purpose generators of a block of trials, one trial per row."""

    def __init__(self, trial_seeds):
        self.trials = tuple(TrialStreams(s) for s in trial_seeds)

    def stream(self, purpose: int) -> list:
        """Row r's entry is trial r's generator for `purpose`."""
        return [t.stream(purpose) for t in self.trials]


def probe_rng(base_seed: int, tag: int = 0) -> np.random.Generator:
    """Generator for offline probing (certification, constant estimation)."""
    return np.random.default_rng((int(base_seed), PROBE, int(tag)))
