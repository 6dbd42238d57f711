import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitref import BitReader, BitWriter, expgolomb_read, expgolomb_write
from fcmcodec.errors import TruncatedError


def expgolomb_bits_oracle(value):
    """Independent construction: binary of v+1, prefixed by len-1 zeros."""
    body = format(value + 1, "b")
    return "0" * (len(body) - 1) + body


def bits_of(data, nbits):
    return "".join(format(b, "08b") for b in data)[:nbits]


class TestExpGolomb:
    @pytest.mark.parametrize(
        "value,expected", [(0, "1"), (1, "010"), (2, "011"), (3, "00100"), (7, "0001000")]
    )
    def test_known_codewords(self, value, expected):
        assert expgolomb_bits_oracle(value) == expected  # oracle sanity
        data = expgolomb_write(value)
        assert bits_of(data, len(expected)) == expected

    @given(st.integers(0, 2**40))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_matches_oracle(self, value):
        w = BitWriter()
        w.write_ue(value)
        encoded = w.getvalue()
        expected = expgolomb_bits_oracle(value)
        assert bits_of(encoded, len(expected)) == expected
        assert expgolomb_read(encoded) == value

    def test_sequence_roundtrip(self):
        values = [0, 1, 5, 1023, 2, 0, 77]
        w = BitWriter()
        for v in values:
            w.write_ue(v)
        r = BitReader(w.getvalue())
        assert [r.read_ue() for _ in values] == values

    def test_truncated_read(self):
        with pytest.raises(TruncatedError):
            BitReader(b"").read_ue()
        # prefix promises more bits than exist
        with pytest.raises(TruncatedError):
            BitReader(b"\x00").read_ue()


class TestRawBits:
    @given(st.lists(st.tuples(st.integers(1, 24), st.integers(0, 2**24 - 1)), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_write_read_roundtrip(self, fields):
        w = BitWriter()
        clipped = [(n, v & ((1 << n) - 1)) for n, v in fields]
        for n, v in clipped:
            w.write_bits(v, n)
        r = BitReader(w.getvalue())
        assert [r.read_bits(n) for n, _ in clipped] == [v for _, v in clipped]
