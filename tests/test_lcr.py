import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmcodec import ChannelIndexSet, LcrCode, binomial, lcr_decode, lcr_encode
from fcmcodec.errors import DomainError, RankRangeError


def reference_lcr_encode(indices, n):
    """The rank by a fresh math.comb per skipped index, as lcr_encode once
    computed it."""
    k = len(indices)
    rank = 0
    prev = -1
    for t, i_t in enumerate(indices):
        for j in range(prev + 1, i_t):
            rank += binomial(n - j - 1, k - t - 1)
        prev = i_t
    return rank


def reference_lcr_decode(k, rank, n):
    """The subset by a fresh math.comb per step, as lcr_decode once walked it."""
    if k > n:
        raise DomainError(f"k={k} exceeds total channels N={n}")
    if rank >= binomial(n, k):
        raise RankRangeError(f"rank {rank} >= C({n}, {k})")
    x = 0
    out = []
    for t in range(k):
        while binomial(n - x - 1, k - t - 1) <= rank:
            rank -= binomial(n - x - 1, k - t - 1)
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def lex_rank_oracle(indices, n):
    """Position of a subset in the lexicographic enumeration of k-subsets."""
    k = len(indices)
    for rank, combo in enumerate(itertools.combinations(range(n), k)):
        if combo == tuple(indices):
            return rank
    raise AssertionError("subset not found")


class TestBinomial:
    @pytest.mark.parametrize(
        "n,r,expected", [(5, 2, 10), (10, 3, 120), (4, 7, 0), (4, -1, 0), (0, 0, 1), (6, 6, 1)]
    )
    def test_known_values(self, n, r, expected):
        assert binomial(n, r) == expected

    def test_pascals_rule_exhaustive(self):
        for n in range(1, 65):
            for r in range(0, n + 1):
                assert binomial(n, r) == binomial(n - 1, r - 1) + binomial(n - 1, r)

    def test_exact_at_large_magnitude(self):
        assert binomial(256, 128) == math.comb(256, 128)

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            binomial(-1, 0)


class TestEncodeDecode:
    @pytest.mark.parametrize(
        "indices,n,rank",
        [
            ((0, 1), 5, 0),
            ((3, 4), 5, 9),
            ((1, 3), 5, 5),
            ((0, 2), 5, 1),
            ((), 5, 0),
            ((0, 1, 2, 3, 4), 5, 0),
        ],
    )
    def test_known_ranks(self, indices, n, rank):
        code = lcr_encode(ChannelIndexSet(indices, n))
        assert (code.k, code.rank) == (len(indices), rank)
        assert lcr_decode(code, n).indices == indices

    def test_exhaustive_small_n(self):
        for n in range(1, 11):
            for k in range(0, n + 1):
                for rank, combo in enumerate(itertools.combinations(range(n), k)):
                    s = ChannelIndexSet(combo, n)
                    code = lcr_encode(s)
                    assert code.rank == rank
                    assert lcr_decode(code, n).indices == combo

    @given(st.integers(0, 2**64))
    @settings(max_examples=60, deadline=None)
    def test_large_n_roundtrip(self, seed):
        import random

        r = random.Random(seed)
        n = 256
        k = r.randint(0, n)
        combo = tuple(sorted(r.sample(range(n), k)))
        s = ChannelIndexSet(combo, n)
        assert lcr_decode(lcr_encode(s), n).indices == combo

    def test_rank_out_of_range(self):
        with pytest.raises(RankRangeError):
            lcr_decode(LcrCode(2, 10), 5)

    def test_rank_of_more_digits_than_str_allows_refused_by_its_bit_length(self):
        # Its message formatted the rank in decimal, and str() of an int of
        # more than 4300 digits raised a bare ValueError.
        rank = 10**5000
        with pytest.raises(RankRangeError, match=rf"^a rank of {rank.bit_length()} bits >= C\(5, 2\)$"):
            lcr_decode(LcrCode(2, rank), 5)

    def test_k_exceeds_n(self):
        with pytest.raises(DomainError):
            lcr_decode(LcrCode(6, 0), 5)

    def test_index_set_validation(self):
        with pytest.raises(DomainError):
            ChannelIndexSet((2, 2), 5)
        with pytest.raises(DomainError):
            ChannelIndexSet((0, 5), 5)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: ChannelIndexSet((1.5,), 3), r"^channel index must be in \[0, 2\], got 1.5$"),
            (lambda: ChannelIndexSet((True,), 3), r"^channel index must be in \[0, 2\], got True$"),
            (lambda: ChannelIndexSet((1,), 2.5), r"^total_channels must be an integer >= 0, got 2.5$"),
            (lambda: LcrCode(1.5, 0), r"^k must be an integer >= 0, got 1.5$"),
            (lambda: lcr_decode(LcrCode(1, 0), 3.0), r"^total_channels must be an integer >= 0, got 3.0$"),
        ],
        ids=["index_1.5", "index_True", "total_2.5", "k_1.5", "decode_total_3.0"],
    )
    def test_integer_that_is_not_an_integer_refused(self, build, message):
        # Index 1.5 was truncated to 1, True passed as 1, and the totals and
        # k passed, until lcr_decode's binomial raised a bare TypeError.
        with pytest.raises(DomainError, match=message):
            build()


class TestIncrementalBinomials:
    """lcr_encode and lcr_decode update each binomial from the last; the
    reference walks take a fresh one per step."""

    @given(st.integers(1, 300), st.data())
    @settings(max_examples=200, deadline=None)
    def test_ranks_and_sets_match_the_reference(self, n, data):
        k = data.draw(st.one_of(st.sampled_from([0, 1, n - 1, n]), st.integers(0, n)))
        combo = tuple(sorted(data.draw(st.permutations(range(n)))[:k]))
        rank = reference_lcr_encode(combo, n)
        assert lcr_encode(ChannelIndexSet(combo, n)) == LcrCode(k, rank)
        assert lcr_decode(LcrCode(k, rank), n).indices == combo
        other = data.draw(st.integers(0, math.comb(n, k) - 1))
        assert lcr_decode(LcrCode(k, other), n).indices == reference_lcr_decode(k, other, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 255, 256])
    def test_edge_ranks_match_the_reference(self, n):
        for k in sorted({0, 1, n - 1, n}):
            last = math.comb(n, k) - 1
            for rank in sorted({0, last // 2, last}):
                expected = reference_lcr_decode(k, rank, n)
                assert lcr_decode(LcrCode(k, rank), n).indices == expected
                assert lcr_encode(ChannelIndexSet(expected, n)).rank == rank
            assert reference_lcr_decode(k, last, n) == tuple(range(n - k, n))
            with pytest.raises(RankRangeError, match=rf"^a rank of {(last + 1).bit_length()} bits >= C\({n}, {k}\)$"):
                lcr_decode(LcrCode(k, last + 1), n)
            with pytest.raises(RankRangeError, match=rf"^rank {last + 1} >= C\({n}, {k}\)$"):
                reference_lcr_decode(k, last + 1, n)
