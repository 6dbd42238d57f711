import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitref import MAX_DCT_PREFIX, BitReader, BitWriter, read_split_ue, write_split_ue
from fcmcodec.errors import TruncatedError


def expgolomb_bits_oracle(value):
    """Independent construction: binary of v+1, prefixed by len-1 zeros."""
    body = format(value + 1, "b")
    return "0" * (len(body) - 1) + body


def bits_of(data, nbits):
    return "".join(format(b, "08b") for b in data)[:nbits]


def split_ue_bytes(values) -> bytes:
    w = BitWriter()
    write_split_ue(w, values)
    return w.getvalue()


class TestExpGolomb:
    """The split-plane ue sequences of the reference coder against the
    bit-string oracle. A codeword of z zeros is 2z + 1 bits: its first z + 1
    go to the prefix plane and the rest to the suffix plane, so one value's
    planes are its plain codeword."""

    @pytest.mark.parametrize(
        "value,expected", [(0, "1"), (1, "010"), (2, "011"), (3, "00100"), (7, "0001000")]
    )
    def test_known_codewords(self, value, expected):
        assert expgolomb_bits_oracle(value) == expected  # oracle sanity
        assert bits_of(split_ue_bytes([value]), len(expected)) == expected

    @given(st.integers(0, 2 ** (MAX_DCT_PREFIX + 1) - 2))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_matches_oracle(self, value):
        encoded = split_ue_bytes([value])
        expected = expgolomb_bits_oracle(value)
        assert bits_of(encoded, len(expected)) == expected
        assert read_split_ue(BitReader(encoded), 1) == [value]

    def test_sequence_roundtrip(self):
        values = [0, 1, 5, 1023, 2, 0, 77]
        encoded = split_ue_bytes(values)
        codewords = [expgolomb_bits_oracle(v) for v in values]
        planes = "".join(c[: len(c) // 2 + 1] for c in codewords) + "".join(c[len(c) // 2 + 1 :] for c in codewords)
        assert bits_of(encoded, len(planes)) == planes
        assert read_split_ue(BitReader(encoded), len(values)) == values

    def test_truncated_read(self):
        with pytest.raises(TruncatedError):
            read_split_ue(BitReader(b""), 1)
        # prefix promises more bits than exist
        with pytest.raises(TruncatedError):
            read_split_ue(BitReader(b"\x00"), 1)


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
