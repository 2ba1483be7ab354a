"""Stated-bound quality checks of the keyed counter-based streams.

Every check reads a fixed key, so it is deterministic; each bound is five
standard deviations of its statistic under the ideal law, derived in the
comment next to it.  N = 2**18 = 262 144 samples unless stated, so
sqrt(N) = 512.
"""

import math

import numpy as np
import pytest

from aloe_lab.oracles import sample_one_sided_subexp
from aloe_lab.rng import (EPS_EST, F_CURR, F_PLUS, GRAD, PROBE, QUERY_LIMIT,
                          WIDTH_BITS, KeyedStream, key_words, normal_words,
                          normals, probe_stream, uniform)

N = 1 << 18


def corr(a, b):
    return float(np.corrcoef(a, b)[0, 1])


def all_distinct(words):
    w = np.sort(words, axis=None)
    return bool((w[1:] != w[:-1]).all())


# Pearson correlation of N independent pairs: about N(0, 1/N), sd 1/512
CORR_BOUND = 5 / math.sqrt(N)


class TestBits:
    def test_each_output_bit_is_fair(self):
        # ones among N fair bits: Binomial(N, 1/2), mean N/2, sd sqrt(N)/2
        # = 256; bound 5 sd = 1280 for each of the 64 bits
        words = KeyedStream([20260], GRAD).words(N >> 4, 16).reshape(N, 1)
        bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
        ones = bits.sum(axis=0, dtype=np.int64)
        assert ones.shape == (64,)
        assert np.abs(ones - N / 2).max() <= 5 * math.sqrt(N) / 2

    def test_no_repeated_word_across_a_key_and_its_neighbours(self):
        # 2**18 words of each of four adjacent keys, all distinct
        words = [KeyedStream([s], F_CURR).words(N >> 6, 64) for s in range(4)]
        assert all_distinct(np.concatenate(words))


class TestCorrelation:
    @staticmethod
    def u(seeds, purpose, m, width):
        return KeyedStream(seeds, purpose).uniforms(m, width)

    def test_adjacent_keys(self):
        # word 0 of query 0 of the keys (s, GRAD) and (s + 1, GRAD)
        u = self.u(range(N + 1), GRAD, N + 1, 1)[:, 0]
        assert abs(corr(u[:-1], u[1:])) <= CORR_BOUND

    def test_adjacent_purposes(self):
        seeds = range(N)
        a = self.u(seeds, F_CURR, N, 1)[:, 0]
        b = self.u(seeds, F_PLUS, N, 1)[:, 0]
        assert abs(corr(a, b)) <= CORR_BOUND

    def test_adjacent_counters(self):
        # queries q and q + 1 of one key
        u = self.u([7], EPS_EST, N + 1, 1)[:, 0]
        assert abs(corr(u[:-1], u[1:])) <= CORR_BOUND

    def test_adjacent_words(self):
        # words j and j + 1 of one query, N pairs over N / 2 queries
        u = self.u([7], GRAD, N >> 1, 3)
        pairs = np.concatenate((u[:, :2], u[:, 1:]))
        assert abs(corr(pairs[:, 0], pairs[:, 1])) <= CORR_BOUND


class TestUniform:
    def test_mean_and_variance(self):
        u = probe_stream(31).uniforms(N, 1)[:, 0]
        assert u.min() >= 0.0 and u.max() < 1.0
        # mean: sd sqrt(1/12 / N) = 5.64e-4
        assert abs(u.mean() - 0.5) <= 5 * math.sqrt(1 / 12 / N)
        # sample variance: sd sqrt((mu4 - sigma^4) / N) with mu4 = 1/80 and
        # sigma^4 = 1/144, = 1.46e-4
        assert abs(u.var() - 1 / 12) <= 5 * math.sqrt((1 / 80 - 1 / 144) / N)

    def test_top_53_bits(self):
        words = np.array([0, 1 << 11, (1 << 64) - 1], dtype=np.uint64)
        assert uniform(words).tolist() == [0.0, 2.0 ** -53, 1 - 2.0 ** -53]


class TestNormals:
    @pytest.fixture(scope="class")
    def z(self):
        # N normals as N / 10 rows of dim 10
        dim = 10
        return normals(probe_stream(32).words(N // dim + 1, normal_words(dim)),
                       dim)

    def test_moments(self, z):
        x = z.ravel()[:N]
        # mean: sd 1/sqrt(N) = 1.95e-3
        assert abs(x.mean()) <= 5 / math.sqrt(N)
        # second moment: Var(z^2) = E z^4 - 1 = 2, sd sqrt(2/N) = 2.76e-3
        assert abs((x ** 2).mean() - 1) <= 5 * math.sqrt(2 / N)
        # fourth moment (kurtosis 3): Var(z^4) = E z^8 - 9 = 105 - 9 = 96,
        # sd sqrt(96/N) = 0.0191
        assert abs((x ** 4).mean() - 3) <= 5 * math.sqrt(96 / N)

    def test_pair_of_one_word_uncorrelated(self, z):
        # r cos(theta) and r sin(theta) of one word: independent under the
        # exact law; N / 10 pairs, sd sqrt(10 / N)
        assert abs(corr(z[:, 0], z[:, 5])) <= 5 * math.sqrt(10 / N)

    def test_truncated_radius(self, z):
        assert np.abs(z).max() <= math.sqrt(64 * math.log(2))

    def test_odd_dim_drops_the_last_sine(self):
        words = probe_stream(33).words(4, normal_words(5))
        assert words.shape == (4, 3)
        np.testing.assert_array_equal(normals(words, 5), normals(words, 6)[:, :5])


class TestSubexpLaw:
    def test_exponential_mean(self):
        # with b > 0 the error is target - m + m * E, E ~ Exp(1) taken as
        # -log(1 - u); here m = target = 0.1, so the error is m * E:
        # mean m, sd m / sqrt(N)
        m = 0.1
        u = probe_stream(34).uniforms(N, 1)[:, 0]
        errors = sample_one_sided_subexp(0.2, 0.2, m, u)
        assert abs(errors.mean() - m) <= 5 * m / math.sqrt(N)
        # the largest error: -log(2**-53) m, at u = 1 - 2**-53
        assert sample_one_sided_subexp(0.2, 0.2, m, 1 - 2.0 ** -53) == pytest.approx(
            53 * math.log(2) * m)


class TestLimits:
    def test_distinct_positions_give_distinct_words(self):
        # positions (q << WIDTH_BITS) + j + 1 of one key at the edges of the
        # limits: all words of the first query, of the query before the
        # last and of the last, with words of queries 1..63; a repeat would
        # mean two (q, j) share a position, since fmix64 and the walk by an
        # odd increment are bijections
        stream = KeyedStream([9], GRAD)
        first = stream.words(1, 1 << WIDTH_BITS)
        middle = stream.words(63, 1 << 10)
        stream.count = QUERY_LIMIT - 2
        last = stream.words(2, 1 << WIDTH_BITS)
        assert all_distinct(np.concatenate((first.ravel(), middle.ravel(),
                                            last.ravel())))

    def test_distinct_keys_give_distinct_walks(self):
        # trial keys of 2**14 seeds for every purpose, and probe keys
        keys = [key_words(range(1 << 14), p) for p in (GRAD, F_CURR, F_PLUS, EPS_EST)]
        keys.append(key_words(range(1 << 14), PROBE, 0))
        keys.append(key_words(range(1 << 14), PROBE, 1))
        start = np.concatenate([k[0] for k in keys])
        gamma = np.concatenate([k[1] for k in keys])
        assert all_distinct(start) and all_distinct(gamma)
        assert (gamma & np.uint64(1)).all()

    def test_raises_past_the_query_limit(self):
        stream = KeyedStream([9, 10], GRAD)
        stream.count = QUERY_LIMIT - 1
        stream.words(2, 1)
        with pytest.raises(OverflowError):
            stream.words(2, 1)
        stream.count = QUERY_LIMIT - 1
        with pytest.raises(OverflowError):
            stream.words(4, 1)

    @pytest.mark.parametrize("width", [0, (1 << WIDTH_BITS) + 1])
    def test_raises_past_the_width_limit(self, width):
        with pytest.raises(ValueError):
            KeyedStream([9], GRAD).words(1, width)

    def test_rows_must_split_over_the_keys(self):
        with pytest.raises(ValueError):
            KeyedStream(range(3), GRAD).words(4, 1)

    def test_negative_key_parts_rejected(self):
        with pytest.raises(ValueError):
            KeyedStream([-1], GRAD)
        with pytest.raises(ValueError):
            KeyedStream([1], -1)

    def test_a_failed_draw_leaves_the_counter(self):
        stream = KeyedStream([9], GRAD)
        with pytest.raises(ValueError):
            stream.words(1, 0)
        assert stream.count == 0
