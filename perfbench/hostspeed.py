"""Host-speed reference for normalizing timings.

On a shared host the same code runs up to 1.7x slower for stretches of
seconds to minutes (another tenant on the same physical core), so raw times
of two runs can differ by more than any useful bound.  The benchmark times a
fixed reference loop right before and right after each timed section; the
section's slowdown is the mean of the two reference times over
REF_NOMINAL_S.  A normalized time is the raw time divided by the slowdown
(a rate is multiplied by it): seconds on a host that runs the reference loop
in REF_NOMINAL_S.
"""

from time import perf_counter

import numpy as np

REF_ROUNDS = 3000
# reference_seconds() pinned to one core of an idle 2-vCPU Xeon at 2.1 GHz,
# Python 3.11.7, numpy 2.4.6
REF_NOMINAL_S = 0.050


def reference_seconds(rounds: int = REF_ROUNDS) -> float:
    """Duration of a fixed mix of interpreter work, small numpy operations
    and generator builds, like the mix of the trial loop; no aloe_lab code."""
    a = np.linspace(0.1, 10.0, 100).reshape(10, 10)
    x = np.ones(10)
    acc = 0.0
    t = perf_counter()
    for i in range(rounds):
        g = np.random.default_rng((i, 7, 2))
        v = a @ (x + g.standard_normal(10))
        acc += float(np.linalg.norm(v)) + g.random()
        rec = {"k": i, "v": acc}
        acc -= rec["v"] * 0.5
    return perf_counter() - t


def warm_up() -> None:
    reference_seconds(REF_ROUNDS // 10)


def slowdown(ref_before: float, ref_after: float) -> float:
    return (ref_before + ref_after) / (2 * REF_NOMINAL_S)
