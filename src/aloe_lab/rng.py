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
purpose, k) alone.  `KeyedStream.keep` drops keys, as trials leave a
lockstep block; the kept keys' words do not change.  A block's streams, one
per purpose over the same seeds, hash their keys in one `key_words` pass
(`KeyedStream.purposes`).

Oracles take their noise through `KeyedStream.draw(m, width, transform)`,
which answers transform(words(m, width)) for a row-wise transform: output
row r is a function of word row r alone.  Query q of a key then always
yields the same noise, so a stream may hash and transform queries before
they are asked for.  When a draw takes one query per key and the previous
call on the stream was a draw of the same width and transform that also
took one query per key, the stream reads ahead: one `words` pass hashes
the next window of queries, the transform runs over it once, and later
draws of that shape are answered from the window.  A window starts at two
queries and doubles, up to WINDOW_WORDS words, so at most twice the words
served are hashed; any other call on the stream drops it.  `count` after
every draw, and the noise each draw returns, are what the draw without a
window gives.  A stack of several queries per key (estimator refreshes,
certification, a Gaussian-smoothing gradient's directions) never reads
ahead.

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

# Words one read-ahead pass of a stream hashes at most (64 KiB).  The
# window holds their transform, up to about twice their size (a unit
# direction is dim floats from dim / 2 words), and the pass's temporaries
# take a few times it; a larger budget made no run faster and raised the
# peak memory of a run by megabytes.
WINDOW_WORDS = 1 << 13

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
    A part of `tag` is an integer, the same for every key, or an array of
    one integer per key.

    The parts are folded in with SplitMix64 steps; the increment is made
    odd and, as in SplitMix64's `mixGamma`, given enough bit transitions
    that the walk is not a near-multiple of a power of two."""
    parts = np.asarray(seeds, dtype=np.int64)
    if parts.ndim != 1:
        raise ValueError("key parts must be nonnegative integers")
    parts = (parts, *(np.broadcast_to(np.asarray(t, dtype=np.int64), parts.shape)
                      for t in tag))
    if any((part < 0).any() for part in parts):
        raise ValueError("key parts must be nonnegative integers")
    h = np.zeros(len(parts[0]), dtype=_U64)
    for part in parts:
        h = fmix64(h + (part.astype(_U64) + _U64(1)) * _GOLDEN)
    gamma = fmix64(h + _GOLDEN) | _U64(1)
    sparse = np.bitwise_count(gamma ^ (gamma >> _U64(1))) < 24
    gamma[sparse] ^= _ALTERNATING
    return h, gamma


class KeyedStream:
    """The keys of n rows and `count`, the queries each key has answered."""

    def __init__(self, seeds, *tag):
        self._set_keys(*key_words(seeds, *tag))

    @classmethod
    def purposes(cls, seeds, purposes) -> tuple["KeyedStream", ...]:
        """``KeyedStream(seeds, p)`` for each p of `purposes`, their keys
        hashed in one `key_words` pass."""
        seeds = np.asarray(seeds, dtype=np.int64)
        words = key_words(np.tile(seeds, len(purposes)),
                          np.repeat(purposes, len(seeds)))
        streams = tuple(cls.__new__(cls) for _ in purposes)
        for stream, start, gamma in zip(streams, *(np.split(w, len(purposes))
                                                   for w in words)):
            stream._set_keys(start, gamma)
        return streams

    def _set_keys(self, start, gamma):
        self.count = 0
        # word j of query q sits at position (q << WIDTH_BITS) + j + 1
        self._start, self._gamma = start[:, None, None], gamma[:, None, None]
        self._positions: dict[tuple[int, int], np.ndarray] = {}
        # the read-ahead: (width, transform) of the last call when it was a
        # one-query-per-key draw, the queries of the next window, and the
        # window with the query count of its first row
        self._shape = None
        self._span = 2
        self._window, self._window_at = None, 0

    def words(self, m: int, width: int) -> np.ndarray:
        """(m, width) uint64 words: m / n consecutive queries of each key,
        key-major, each reading words 0..width-1.  Drops the read-ahead."""
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
        self._shape = self._window = None
        return fmix64(z.reshape(m, width))

    def draw(self, m: int, width: int, transform):
        """transform(self.words(m, width)) for a row-wise `transform`, the
        same bits and the same `count` after it, served from the read-ahead
        window when the draw takes one query per key (see the module
        docstring).  The result may be a view of the window: read it only."""
        n = len(self._start)
        shape = (width, transform)
        if m != n or self._shape != shape:
            out = transform(self.words(m, width))
            if m == n:
                self._shape, self._span = shape, 2
            return out
        row = self.count - self._window_at
        if self._window is None or not 0 <= row < self._window.shape[1]:
            at = self.count
            span = max(1, min(self._span, WINDOW_WORDS // (n * width),
                              QUERY_LIMIT - at))
            words = self.words(n * span, width)
            self.count = at
            out = transform(words)
            # key-major: query at + t of key r is out row r * span + t
            self._window = out.reshape(n, span, *out.shape[1:])
            self._window_at, self._shape, self._span = at, shape, 2 * span
            row = 0
        self.count += 1
        return self._window[:, row]

    def keep(self, rows) -> None:
        """Drop every key but those `rows` selects (a bool mask or indices),
        as rows leave a lockstep block.  `count` stays, and so does the
        read-ahead, on the kept keys."""
        self._start, self._gamma = self._start[rows], self._gamma[rows]
        if self._window is not None:
            self._window = self._window[rows]


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
