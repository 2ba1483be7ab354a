"""Keyed counter-based streams of oracle noise.

Every random word an oracle draws is a pure function of a key, a query
counter q and a position j within the query.  A key is a tuple of integers:
(trial seed, purpose) for the queries of a trial, (base seed, PROBE, probe
index) for those of a certification probe.  The key hashes to a start
state s and an odd increment g, and word j of query q is

    mix(key, q, j) = fmix64(s + (q * 2**WIDTH_BITS + j + 1) * g  mod 2**64),

the SplitMix64 output (Steele, Lea & Flood, "Fast splittable pseudorandom
number generators", OOPSLA 2014) at position q * 2**WIDTH_BITS + j of the
sequence that starts at s and walks by g.  This is the counter-based design
of Salmon, Moraes, Dror & Shaw ("Parallel random numbers: as easy as 1, 2,
3", SC 2011): no state is carried from one draw to the next, so a whole
stack of queries is one pass of uint64 array operations.

Limits: a query reads at most 2**WIDTH_BITS words and a key answers fewer
than QUERY_LIMIT = 2**(64 - WIDTH_BITS) queries; within them distinct
(q, j) are distinct positions, and since g is odd, distinct positions give
distinct words.  Two walks with distinct increments may meet in a word
but never in two consecutive ones, so no key replays a shifted run of
another's.

A `KeyedStream` holds the keys of n rows and one query counter.  An
(m, width) draw over n keys takes m / n consecutive queries of every key,
row r being query count + r % (m / n) of key r // (m / n), and advances the
counter by m / n.  So query q of a key gives the same words whatever the
stack it is drawn in, whatever its row there, and whatever else was drawn
under other keys: a trial draws the same numbers in any block and at any
row, and as long as every query of a purpose takes the same number of
queries per key, the noise of iteration k is a function of (trial seed,
purpose, k) alone.

Fixture data (the random problem instances and the growth-constant probes
of the logistic fixture) is not oracle noise and comes from numpy
generators; `probe_rng` keys those probes.
"""

import numpy as np

# Purpose codes of the per-trial keys.
GRAD = 0
F_CURR = 1
F_PLUS = 2
EPS_EST = 3
PROBE = 4

# probe_rng tag of the growth-constant probes of a logistic fixture; it
# fixes their draws, and with them M_c and M_v.
GROWTH_PROBES = 1 << 20

WIDTH_BITS = 20
QUERY_LIMIT = 1 << (64 - WIDTH_BITS)

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)
_ALTERNATING = _U64(0xAAAAAAAAAAAAAAAA)


def fmix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function (Stafford's variant 13), in place on a
    uint64 array; a bijection of 64-bit words."""
    z ^= z >> _U64(30)
    z *= _M1
    z ^= z >> _U64(27)
    z *= _M2
    z ^= z >> _U64(31)
    return z


def key_words(seeds, *tag) -> tuple[np.ndarray, np.ndarray]:
    """Start states and increments of the keys (seed, *tag), one per seed.

    The parts are folded in with SplitMix64 steps; the increment is made
    odd and, as in SplitMix64's `mixGamma`, given enough bit transitions
    that the walk is not a near-multiple of a power of two."""
    parts = np.asarray(seeds, dtype=np.int64)
    if parts.ndim != 1 or (parts < 0).any() or any(t < 0 for t in tag):
        raise ValueError("key parts must be nonnegative integers")
    h = np.zeros(len(parts), dtype=_U64)
    for part in (parts, *(np.full(len(parts), t) for t in tag)):
        h = fmix64(h + (part.astype(_U64) + _U64(1)) * _GOLDEN)
    gamma = fmix64(h + _GOLDEN) | _U64(1)
    sparse = np.bitwise_count(gamma ^ (gamma >> _U64(1))) < 24
    gamma[sparse] ^= _ALTERNATING
    return h, gamma


class KeyedStream:
    """The keys of n rows and `count`, the queries each key has answered."""

    def __init__(self, seeds, *tag):
        start, gamma = key_words(seeds, *tag)
        self.count = 0
        # word j of query q sits at position (q << WIDTH_BITS) + j + 1
        self._start, self._gamma = start[:, None, None], gamma[:, None, None]
        self._positions: dict[tuple[int, int], np.ndarray] = {}

    def words(self, m: int, width: int) -> np.ndarray:
        """(m, width) uint64 words: m / n consecutive queries of each key,
        key-major, each reading words 0..width-1."""
        n = len(self._start)
        per, rest = divmod(m, n)
        if rest or per < 1:
            raise ValueError(f"{n} keys cannot split {m} rows evenly")
        if not 1 <= width <= 1 << WIDTH_BITS:
            raise ValueError(f"a query reads 1 to 2**{WIDTH_BITS} words, "
                             f"not {width}")
        if self.count + per > QUERY_LIMIT:
            raise OverflowError(f"a key answers at most {QUERY_LIMIT} queries")
        pos = self._positions.get((per, width))
        if pos is None:
            pos = ((np.arange(per, dtype=_U64)[:, None] << _U64(WIDTH_BITS))
                   + np.arange(1, width + 1, dtype=_U64))
            self._positions[per, width] = pos
        z = pos * self._gamma
        z += self._start + _U64(self.count << WIDTH_BITS) * self._gamma
        self.count += per
        return fmix64(z.reshape(m, width))

    def uniforms(self, m: int, width: int) -> np.ndarray:
        """(m, width) uniforms on [0, 1), one per word."""
        return uniform(self.words(m, width))


# The benchmark's tracer (perfbench/tracer.py) still reads this name, and
# records its missing `stream` method as a missing hook; drop the name with
# the next change to the benchmark.
TrialStreams = KeyedStream


def uniform(words: np.ndarray) -> np.ndarray:
    """The top 53 bits of each word as a float on [0, 1)."""
    return (words >> _U64(11)) * 2.0 ** -53


def normal_words(dim: int) -> int:
    """Words that `normals` needs for `dim` normals."""
    return (dim + 1) // 2


def normals(words: np.ndarray, dim: int) -> np.ndarray:
    """(m, dim) standard normals from (m, normal_words(dim)) words by
    Box-Muller, one word per pair: its high 32 bits give u1 in (0, 1] and
    its low 24 bits the angle theta.  Columns 0..h-1 are r cos(theta), the
    rest r sin(theta).

    Two departures from the exact law, both far below what any test of the
    noise can see: the radius r = sqrt(-2 ln u1) is truncated at
    sqrt(64 ln 2) ~ 6.66 since u1 >= 2**-32 (a normal exceeds it with
    probability about 3e-11), and cos and sin are taken in float32 on the
    24-bit angle, a relative error below 1e-7 (float64 trigonometry costs
    ten times as much and dominates a Gaussian-smoothing query)."""
    m, h = words.shape
    r = (words >> _U64(32)) + _U64(1)
    r = r * 2.0 ** -32
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = (words & _U64(0xFFFFFF)).astype(np.float32)
    theta *= np.float32(2 * np.pi / 2 ** 24)
    out = np.empty((m, 2 * h))
    np.multiply(r, np.cos(theta), out=out[:, :h])
    np.multiply(r, np.sin(theta), out=out[:, h:])
    return out[:, :dim]


def probe_stream(base_seed: int, tag: int = 0) -> KeyedStream:
    """The one-key stream (base_seed, PROBE, tag) for queries at probe
    points: certification, demos, tests."""
    return KeyedStream([base_seed], PROBE, tag)


def probe_rng(base_seed: int, tag: int = 0) -> np.random.Generator:
    """numpy generator for offline probing of a fixture (the growth
    constants of the logistic fixture); not oracle noise."""
    return np.random.default_rng((int(base_seed), PROBE, int(tag)))
