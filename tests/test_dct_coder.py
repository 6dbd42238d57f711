"""The vectorized BLOCK_DCT coder against the bit-serial reference in bitref.

Streams and frames must be identical to the reference's. On corrupt input the
codec must raise a classified FcmError wherever the reference raises, and
decode to the same frame wherever the reference decodes.
"""

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

import fcmcodec.codec
from bitref import BitWriter, reference_decode_dct, reference_encode_dct
from fcmcodec import (
    CodecId,
    EncodedPayload,
    EncoderConfig,
    FeatureTensor,
    TensorGroup,
    codec_decode,
    codec_encode,
    fcm_decode,
    fcm_encode,
)
from fcmcodec.codec import _MASK, _TAKEN
from fcmcodec.errors import FcmError, PayloadDecodeError, TruncatedError

FUZZ_DIMS = ((1, 1), (8, 8), (13, 21), (16, 16), (40, 24))


def encode(frame, qp, bit_depth):
    return codec_encode(frame, CodecId.BLOCK_DCT, qp=qp, bit_depth=bit_depth).data


def decode(data, qp, shape):
    return codec_decode(EncodedPayload(int(CodecId.BLOCK_DCT), qp, data), shape)


def make_frame(rng, shape, bit_depth, smooth):
    if smooth:
        field = gaussian_filter(rng.normal(size=shape), sigma=2.0)
        field = (field - field.min()) / max(np.ptp(field), 1e-12)
        return np.round(field * ((1 << bit_depth) - 1)).astype(np.uint16)
    return rng.integers(0, 1 << bit_depth, size=shape).astype(np.uint16)


def assert_matches_reference(frame, qp, bit_depth):
    expected = reference_encode_dct(frame, qp, bit_depth)
    assert encode(frame, qp, bit_depth) == expected
    decoded = decode(expected, qp, frame.shape)
    assert decoded.dtype == np.uint16
    np.testing.assert_array_equal(decoded, reference_decode_dct(expected, qp, frame.shape))


@given(
    seed=st.integers(0, 2**32 - 1),
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    bit_depth=st.integers(8, 16),
    qp=st.integers(0, 63),
    smooth=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_random_frames_match_reference(seed, h, w, bit_depth, qp, smooth):
    frame = make_frame(np.random.default_rng(seed), (h, w), bit_depth, smooth)
    assert_matches_reference(frame, qp, bit_depth)


@pytest.mark.parametrize(
    "frame,qp,bit_depth",
    [
        (np.zeros((16, 24), np.uint16), 22, 10),  # every block codes count 0
        (np.full((1, 1), 1023, np.uint16), 22, 10),
        (make_frame(np.random.default_rng(1), (13, 21), 10, smooth=True), 4, 10),
        # 16-bit noise at qp 0 gives the longest codewords the encoder makes
        (make_frame(np.random.default_rng(2), (16, 16), 16, smooth=False), 0, 16),
        (np.full((8, 8), 65535, np.uint16), 0, 16),
        # more than one encoder slice of blocks
        (make_frame(np.random.default_rng(3), (136, 136), 10, smooth=True), 22, 10),
    ],
)
def test_edge_frames_match_reference(frame, qp, bit_depth):
    assert_matches_reference(frame, qp, bit_depth)


def test_window_tables_match_a_bit_serial_parse():
    rng = np.random.default_rng(7)
    for w in [0, 1, 0x00FF, 0x0100, 0x8000, 0xFFFF, *rng.integers(0, 1 << 16, 500).tolist()]:
        bits = format(w, "016b")
        pos = mask = 0
        while "1" in bits[pos:]:
            size = 2 * (bits.index("1", pos) - pos) + 1
            if pos + size > 16:
                break
            mask |= 1 << pos
            pos += size
        assert (_TAKEN[w], _MASK[w]) == (pos, mask), hex(w)


def ue_payload(symbols, bit_depth=10, tail=b""):
    writer = BitWriter()
    for v in symbols:
        writer.write_ue(v)
    return bytes([bit_depth]) + writer.getvalue() + tail


class TestLaziness:
    def test_long_prefix_past_the_blocks_is_ignored(self):
        data = ue_payload([1, 0, 5], tail=bytes(10))  # then 80 zero bits
        np.testing.assert_array_equal(decode(data, 22, (8, 8)), reference_decode_dct(data, 22, (8, 8)))

    def test_truncation_past_the_blocks_is_ignored(self):
        data = ue_payload([0, 0, 0, 0]) + b"\x00"
        np.testing.assert_array_equal(decode(data, 22, (16, 16)), reference_decode_dct(data, 22, (16, 16)))

    def test_long_prefix_in_a_block_raises(self):
        data = ue_payload([1, 0]) + bytes(10)
        with pytest.raises(PayloadDecodeError):
            decode(data, 22, (8, 8))

    def test_truncation_in_a_block_raises(self):
        with pytest.raises(TruncatedError):
            decode(ue_payload([2, 0, 3, 1]), 22, (8, 8))

    def test_first_error_in_stream_order_wins(self):
        # block 0 holds a zero level; block 1 a count over 64
        data = ue_payload([1, 0, 0, 65])
        with pytest.raises(PayloadDecodeError, match="zero level"):
            decode(data, 22, (8, 16))


@pytest.mark.parametrize(
    "levels",
    [
        [2**31 + 1, 2**31 + 2],  # past int32
        [2**40 + 7, 3],
        [2**64 + 5, 2**64 + 6],  # the longest prefix accepted: exact ints
        [2**65 - 2],
    ],
)
def test_huge_levels_decode_like_the_reference(levels):
    symbols = [len(levels)]
    for level in levels:
        symbols += [0, level]
    data = ue_payload(symbols + [0], bit_depth=16)
    np.testing.assert_array_equal(decode(data, 4, (16, 8)), reference_decode_dct(data, 4, (16, 8)))


def test_hostile_dims_are_refused_before_any_allocation():
    payload = EncodedPayload(int(CodecId.BLOCK_DCT), 22, bytes([10, 0xFF]))
    tracemalloc.start()
    try:
        with pytest.raises(FcmError):
            codec_decode(payload, (4096, 4096))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def mutate(rng, data: bytes) -> bytes:
    blob = bytearray(data)
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return bytes(blob[: int(rng.integers(0, len(blob) + 1))])
    if kind == 1:
        for _ in range(int(rng.integers(1, 5))):
            blob[int(rng.integers(0, len(blob)))] = int(rng.integers(0, 256))
    elif kind == 2:
        i = int(rng.integers(0, len(blob)))
        blob[i] ^= 1 << int(rng.integers(0, 8))
    else:
        blob += rng.integers(0, 256, size=int(rng.integers(1, 12)), dtype=np.uint8).tobytes()
    return bytes(blob)


def outcome(fn, *args):
    try:
        return fn(*args)
    except FcmError as exc:
        return exc


@pytest.mark.parametrize("dims", FUZZ_DIMS)
def test_mutated_payloads_decode_like_the_reference(dims):
    rng = np.random.default_rng(sum(dims))
    decoded = raised = 0
    for i in range(160):
        bit_depth = int(rng.integers(8, 17))
        qp = int(rng.choice([0, 4, 22, 40]))
        frame = make_frame(rng, dims, bit_depth, smooth=i % 4 != 0)
        blob = mutate(rng, reference_encode_dct(frame, qp, bit_depth))
        expected = outcome(reference_decode_dct, blob, qp, dims)
        got = outcome(decode, blob, qp, dims)
        if isinstance(expected, np.ndarray):
            assert isinstance(got, np.ndarray), (i, got)
            np.testing.assert_array_equal(got, expected)
            decoded += 1
            continue
        assert isinstance(got, FcmError), (i, got)
        blocks = -(-dims[0] // 8) * -(-dims[1] // 8)
        if blocks <= 8 * (len(blob) - 1):  # else refused up front as truncated
            assert type(got) is type(expected), (i, got, expected)
        raised += 1
    assert decoded and raised


@contextmanager
def reference_codec():
    original = fcmcodec.codec._decode_dct
    fcmcodec.codec._decode_dct = reference_decode_dct
    try:
        yield
    finally:
        fcmcodec.codec._decode_dct = original


def test_mutated_streams_decode_like_the_reference():
    rng = np.random.default_rng(20)
    group = TensorGroup(
        (
            FeatureTensor(gaussian_filter(rng.normal(size=(4, 8, 8)), 1.0).astype(np.float32)),
            FeatureTensor(rng.normal(1, 1, (3, 13, 5)).astype(np.float32)),
        )
    )
    streams = [
        fcm_encode(group, EncoderConfig(prune_ratio=prune, codec=CodecId.BLOCK_DCT, qp=qp, bit_depth=depth))
        for prune, qp, depth in ((0.0, 22, 10), (0.5, 4, 16), (0.25, 40, 8))
    ]
    decoded = raised = 0
    for i in range(300):
        blob = mutate(rng, streams[i % len(streams)])
        with reference_codec():
            expected = outcome(fcm_decode, blob)
        got = outcome(fcm_decode, blob)
        if isinstance(expected, TensorGroup):
            assert isinstance(got, TensorGroup), (i, got)
            assert len(got) == len(expected)
            for a, b in zip(got.tensors, expected.tensors):
                np.testing.assert_array_equal(a.data, b.data)
            decoded += 1
        else:
            assert isinstance(got, FcmError), (i, got)
            raised += 1
    assert decoded and raised
