"""The vectorized BLOCK_DCT coder against the bit-serial reference in bitref.

Streams and frames must be identical to the reference's. On corrupt input the
codec must raise the reference's FcmError class wherever the reference raises,
and decode to the same frame wherever the reference decodes.
"""

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

import fcmcodec.codec
from bitref import (
    MAX_DCT_PREFIX,
    BitReader,
    BitWriter,
    read_split_ue,
    reference_decode_dct,
    reference_encode_dct,
    write_split_ue,
)
from fcmcodec import (
    CodecId,
    EncoderConfig,
    FeatureTensor,
    TensorGroup,
    codec_decode,
    codec_encode,
    fcm_decode,
    fcm_encode,
)
from fcmcodec.codec import _SLICE_PAIRS, _BitWriter, _cuts, _row_slices, _slices
from fcmcodec.errors import FcmError, PayloadDecodeError, TruncatedError

from helpers import mutate

FUZZ_DIMS = ((1, 1), (8, 8), (13, 21), (16, 16), (40, 24))


def encode(frame, qp, bit_depth):
    return codec_encode(frame, CodecId.BLOCK_DCT, qp=qp, bit_depth=bit_depth)


def decode(data, bit_depth, shape):
    return codec_decode(data, CodecId.BLOCK_DCT, bit_depth, shape)


def make_frame(rng, shape, bit_depth, smooth):
    if smooth:
        field = gaussian_filter(rng.normal(size=shape), sigma=2.0)
        field = (field - field.min()) / max(np.ptp(field), 1e-12)
        return np.round(field * ((1 << bit_depth) - 1)).astype(np.uint16)
    return rng.integers(0, 1 << bit_depth, size=shape).astype(np.uint16)


def assert_matches_reference(frame, qp, bit_depth):
    expected = reference_encode_dct(frame, qp)
    assert encode(frame, qp, bit_depth) == expected
    decoded = decode(expected, bit_depth, frame.shape)
    assert decoded.dtype == np.uint16
    np.testing.assert_array_equal(decoded, reference_decode_dct(expected, bit_depth, frame.shape))


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


# 16-bit noise at qp 0: more than one encoder slice, with long suffixes
# across their joins
SEVERAL_SLICES = make_frame(np.random.default_rng(4), (192, 192), 16, smooth=False)


@pytest.mark.parametrize(
    "frame,qp,bit_depth",
    [
        (np.zeros((16, 24), np.uint16), 22, 10),  # every block codes count 0
        (np.full((1, 1), 1023, np.uint16), 22, 10),
        (make_frame(np.random.default_rng(1), (13, 21), 10, smooth=True), 4, 10),
        # 16-bit noise at qp 0 gives the longest codewords the encoder makes
        (make_frame(np.random.default_rng(2), (16, 16), 16, smooth=False), 0, 16),
        (np.full((8, 8), 65535, np.uint16), 0, 16),
        (make_frame(np.random.default_rng(3), (136, 136), 10, smooth=True), 22, 10),
        (SEVERAL_SLICES, 0, 16),
        # The encoder transforms _CHUNK // 64 = 512 blocks at a time: whole
        # block rows, or part of a row wider than that. 2 rows of 600 blocks,
        # each cut at 512; one row of 563 blocks, from 5 rows of pixels; 13
        # rows of 100 blocks, in chunks of 5 rows, the last of them 3 rows.
        pytest.param(make_frame(np.random.default_rng(8), (16, 4800), 10, smooth=True), 22, 10, id="rows_wider_than_a_chunk"),
        pytest.param(make_frame(np.random.default_rng(9), (5, 4500), 16, smooth=True), 4, 16, id="one_block_row"),
        pytest.param(
            make_frame(np.random.default_rng(10), (104, 800), 12, smooth=True), 8, 12, id="blocks_not_a_multiple_of_the_chunk"
        ),
    ],
)
def test_edge_frames_match_reference(frame, qp, bit_depth):
    assert_matches_reference(frame, qp, bit_depth)


def test_the_sliced_edge_frame_spans_three_slices():
    counts = read_split_ue(BitReader(reference_encode_dct(SEVERAL_SLICES, 0)[1:]), 24 * 24)
    assert len(_slices(len(counts), _cuts(np.array(counts), _SLICE_PAIRS))) >= 3


# The decoder's slices hold whole block rows; with budgets of 1024 pairs and
# 16 blocks, 16-bit noise at qp 0 (about 63 pairs per block) spans 3 or more
# slices in 5 block rows of 8 blocks and overruns both budgets in one row of
# 20 blocks, and a flat frame (at most a pair per block) spans 3 slices of 3
# block rows of 5 blocks by the block budget alone.
DECODER_SLICE_CASES = {
    "three_slices": (make_frame(np.random.default_rng(6), (40, 64), 16, smooth=False), lambda n, rows: n >= 3),
    "one_row_over_the_budgets": (
        make_frame(np.random.default_rng(7), (8, 160), 16, smooth=False),
        lambda n, rows: n == 1 and rows[0] > 1024,
    ),
    "flat_rows_over_the_block_budget": (np.full((72, 40), 40000, np.uint16), lambda n, rows: n == 3 and rows.max() <= 5),
}


@pytest.mark.parametrize("frame,check", DECODER_SLICE_CASES.values(), ids=DECODER_SLICE_CASES)
def test_decoder_slices_match_reference(frame, check, monkeypatch):
    monkeypatch.setattr(fcmcodec.codec, "_DECODE_SLICE_PAIRS", 1024)
    monkeypatch.setattr(fcmcodec.codec, "_DECODE_SLICE_BLOCKS", 16)
    data = reference_encode_dct(frame, 0)
    hb, wb = -(-frame.shape[0] // 8), -(-frame.shape[1] // 8)
    counts = np.array(read_split_ue(BitReader(data[1:]), hb * wb)).reshape(hb, wb)
    assert check(len(_row_slices(counts)), counts.sum(axis=1))
    np.testing.assert_array_equal(decode(data, 16, frame.shape), reference_decode_dct(data, 16, frame.shape))


def ue_symbols(rng, n: int) -> np.ndarray:
    """n symbols whose suffixes are 0 to 20 bits wide, a third of them at
    either end of that range."""
    zeros = rng.choice([0, 20, int(rng.integers(0, 21))], size=n)
    return (1 << zeros) - 1 + rng.integers(0, 1 << zeros)


def reference_bits(*sequences) -> bytes:
    writer = BitWriter()
    for symbols in sequences:
        write_split_ue(writer, symbols)
    return writer.getvalue()


@pytest.mark.parametrize("seed", range(24))
def test_bit_writer_matches_the_reference_across_calls(seed, monkeypatch):
    """A whole-plane sequence, then pairs written in several calls, some of
    them empty, with partial words carried from call to call."""
    monkeypatch.setattr(fcmcodec.codec, "_EXTEND_WORDS", 2)
    rng = np.random.default_rng(seed)
    head = ue_symbols(rng, int(rng.integers(0, 40)))
    calls = [ue_symbols(rng, 2 * int(rng.integers(0, 30))) for _ in range(int(rng.integers(1, 9)))]
    out, suffixes = _BitWriter(), _BitWriter()
    out.write_ue(out, head)
    for symbols in calls:
        out.write_ue(suffixes, symbols[0::2], symbols[1::2])
    out.extend(suffixes)
    assert out.getvalue(b"\x0a") == b"\x0a" + reference_bits(head, np.concatenate(calls))


@pytest.mark.parametrize("offset", range(64))
def test_bit_writer_at_every_offset(offset, monkeypatch):
    """offset one-bit codewords lead both writers, so over the 64 offsets the
    20-bit suffixes straddle 32- and 64-bit word boundaries at every bit, and
    extend starts at every offset in a 64-bit word."""
    monkeypatch.setattr(fcmcodec.codec, "_EXTEND_WORDS", 1)
    widest = [2**21 - 2, 2**20 - 1, 0, 2**20 + 5, 2**21 - 2, 2**21 - 2]
    pairs = widest + widest[::-1]
    lead = [0] * offset
    out, suffixes = _BitWriter(), _BitWriter()
    out.write_ue(out, np.array(lead + widest))
    suffixes.write_ue(suffixes, np.array(lead, dtype=np.int64))
    out.write_ue(suffixes, np.array(pairs[0::2]), np.array(pairs[1::2]))
    out.extend(suffixes)
    prefixes, suffix_bits = split_planes(pairs)
    expected = split_bits(lead + widest) + prefixes + "1" * offset + suffix_bits
    assert out.getvalue(b"\x10") == payload(expected, qp=16)


def max_prefix_zeros(data: bytes, nblocks: int) -> int:
    reader = BitReader(data[1:])
    counts = read_split_ue(reader, nblocks)
    symbols = counts + read_split_ue(reader, 2 * sum(counts))
    return max((v + 1).bit_length() - 1 for v in symbols)


@pytest.mark.parametrize(
    "frame",
    [
        np.full((16, 16), 65535, np.uint16),
        (np.indices((16, 16)).sum(axis=0) % 2 * 65535).astype(np.uint16),
    ],
    ids=["all_65535", "checkerboard"],
)
def test_extreme_16bit_frames_need_at_most_20_prefix_zeros(frame):
    data = reference_encode_dct(frame, 0)
    assert max_prefix_zeros(data, 4) <= 20 < MAX_DCT_PREFIX
    assert_matches_reference(frame, 0, 16)


def split_planes(values) -> tuple[str, str]:
    """The prefix bits and the suffix bits of a split-plane ue sequence."""
    codes = [format(v + 1, "b") for v in values]
    return "".join("0" * (len(c) - 1) + "1" for c in codes), "".join(c[1:] for c in codes)


def split_bits(values) -> str:
    """The bits of one split-plane ue sequence: every prefix, then every suffix."""
    return "".join(split_planes(values))


def payload(bits: str, qp=10, tail=b"") -> bytes:
    """qp, then bits and zero bits up to a whole byte, then tail."""
    bits += "0" * (-len(bits) % 8)
    return bytes([qp]) + bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8)) + tail


def codec_and_reference(data, shape, bit_depth=10):
    return outcome(decode, data, bit_depth, shape), outcome(reference_decode_dct, data, bit_depth, shape)


ONE_PAIR = split_bits([1]) + split_bits([0, 5])  # 9 bits

LAYOUT_ERRORS = {
    "qp_over_63": (payload(ONE_PAIR, qp=64), PayloadDecodeError),
    "no_qp": (b"", TruncatedError),
    # 25 zeros: no level past 2^25 - 2 can be coded
    "level_past_the_prefix_cap": (payload(split_bits([1]) + split_bits([0, 2**25 - 1])), PayloadDecodeError),
    "count_past_the_prefix_cap": (payload(split_bits([2**26])), PayloadDecodeError),
    "zero_run_past_the_cap_at_the_end": (payload(split_bits([1]) + "0" * 37), PayloadDecodeError),
    "zero_run_within_the_cap_at_the_end": (payload(split_bits([1]) + "0" * 21), TruncatedError),
    "cut_in_the_count_suffixes": (payload("0000001" + "0"), TruncatedError),
    "cut_in_the_pair_prefixes": (payload(split_bits([2]) + "111" + "00"), TruncatedError),
    "cut_in_the_pair_suffixes": (payload(ONE_PAIR[:8]), TruncatedError),
    # refused on the count alone, not on the long zero run that follows
    "more_pairs_than_bits": (payload(split_bits([64]) + "0" * 35), TruncatedError),
    "count_over_64": (payload(split_bits([65]) + split_bits([0, 1] * 65)), PayloadDecodeError),
    "position_past_the_block": (payload(split_bits([2]) + split_bits([60, 1, 3, 1])), PayloadDecodeError),
    "zero_level": (payload(split_bits([1]) + split_bits([0, 0])), PayloadDecodeError),
    "a_whole_byte_past_the_codewords": (payload(ONE_PAIR, tail=b"\x00"), PayloadDecodeError),
    "nonzero_padding_bit": (payload(ONE_PAIR + "01"), PayloadDecodeError),
}


@pytest.mark.parametrize("data,error", LAYOUT_ERRORS.values(), ids=LAYOUT_ERRORS)
def test_layout_rules_raise_like_the_reference(data, error):
    got, expected = codec_and_reference(data, (8, 8))
    assert type(expected) is error, expected
    assert type(got) is error, got


@pytest.mark.parametrize(
    "levels",
    [
        [2**31 + 1, 2**31 + 2],  # past int32
        [2**40 + 7, 3],
        [2**64 + 5, 2**64 + 6],
        [2**65 - 2],
    ],
)
def test_huge_levels_decode_like_the_reference(levels):
    """Levels whose codewords need more than 24 zeros are malformed."""
    pairs = []
    for level in levels:
        pairs += [0, level]
    data = payload(split_bits([len(levels), 0]) + split_bits(pairs), qp=4)
    got, expected = codec_and_reference(data, (16, 8), bit_depth=16)
    assert type(expected) is PayloadDecodeError, expected
    assert type(got) is PayloadDecodeError, got


def test_counts_are_checked_before_any_pair():
    # block 0 holds a zero level; block 1 a count over 64
    data = payload(split_bits([1, 65]) + split_bits([0, 0] + [0, 1] * 65))
    for decoder in (lambda: decode(data, 10, (8, 16)), lambda: reference_decode_dct(data, 10, (8, 16))):
        with pytest.raises(PayloadDecodeError, match="count 65"):
            decoder()


@pytest.mark.parametrize(
    "data",
    [
        payload(split_bits([1, 0, 0, 0]) + split_bits([0, 2**25 - 2])),  # 24 zeros: the longest prefix accepted
        payload(split_bits([0, 2, 0, 64]) + split_bits([3, 9, 0, 1] + [0, 2] * 64)),
        payload(split_bits([1, 0, 0, 1]) + split_bits([63, 7, 0, 1])),
        payload(split_bits([0, 0, 0, 0])),  # 4 bits, then 4 zero padding bits
    ],
)
def test_layout_edge_payloads_decode_like_the_reference(data):
    got, expected = codec_and_reference(data, (16, 16))
    assert isinstance(expected, np.ndarray), expected
    np.testing.assert_array_equal(got, expected)


# Bounds (fixed bytes, bytes per input byte) on the tracemalloc peak of each
# decode in the fuzzes below. Measured on their cases, the peak stays under
# 16 KiB + 71 B per payload byte and 16 KiB + 22 B per stream byte; the case
# closest to its bound peaks at 1/1.5 of it.
PAYLOAD_PEAK = (16 << 10, 128)
STREAM_PEAK = (16 << 10, 48)


def peak_bound(data: bytes, bound: tuple[int, int]) -> int:
    fixed, per_byte = bound
    return fixed + per_byte * len(data)


def outcome_and_peak(fn, *args):
    tracemalloc.start()
    try:
        result = outcome(fn, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_hostile_dims_are_refused_before_any_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(FcmError):
            decode(bytes([10, 0xFF]), 10, (4096, 4096))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_counts_past_the_payload_are_refused_before_the_pairs_are_sized():
    """1024x1024 blocks that each claim 64 coefficients, then 3 bytes.

    The 2M pair symbols would need an 8 MB int32 array."""
    data = payload(split_bits([64] * 16384)) + b"\x01\x02\x03"
    got, peak = outcome_and_peak(decode, data, 10, (1024, 1024))
    assert type(got) is TruncatedError, got
    assert type(outcome(reference_decode_dct, data, 10, (1024, 1024))) is TruncatedError
    assert peak < peak_bound(data, PAYLOAD_PEAK) < 4 * 2**21


# Bound on the tracemalloc peak of a BLOCK_DCT encode, in bytes per frame
# element. A 512x512 16-bit noise frame at qp 0, a 1 MB payload, peaks at
# 10.8 B per element: 13.0 B with a whole-frame transform and slices of 2^14
# pairs, 21.6 B before slices. The bound leaves a 1.25x margin. Coded as one
# slice, the same frame peaks at 78 B per element.
ENCODE_PEAK_PER_ELEMENT = 13.5


def test_encode_peak_per_element():
    frame = make_frame(np.random.default_rng(5), (512, 512), 16, smooth=False)
    data, peak = outcome_and_peak(encode, frame, 0, 16)
    assert len(data) > 1_000_000
    per_element = peak / frame.size
    assert per_element < ENCODE_PEAK_PER_ELEMENT, per_element


# Bounds on the tracemalloc peak of a BLOCK_DCT decode, in bytes per frame
# element. Decoded in one piece, the 512x512 noise frame above peaked at 33.6
# B per element and a flat 1024x1024 frame, a pair per block, at 18.1. A slice
# of block rows at a time, bounded in pairs and in blocks, they peak at 12.1
# and 4.2. Read in place rather than from a padded copy of the 1 MB payload,
# the noise frame peaked at 8.2; in slices of 2^14 rather than 2^15 pairs, at
# 6.6, so its bound leaves a 1.29x margin.
DECODE_PEAK_CASES = {
    "noise": (make_frame(np.random.default_rng(5), (512, 512), 16, smooth=False), 0, 16, 8.5),
    "flat": (np.full((1024, 1024), 512, np.uint16), 22, 10, 6),
}


@pytest.mark.parametrize("frame,qp,bit_depth,bound", DECODE_PEAK_CASES.values(), ids=DECODE_PEAK_CASES)
def test_decode_peak_per_element(frame, qp, bit_depth, bound):
    data = encode(frame, qp, bit_depth)
    decoded, peak = outcome_and_peak(decode, data, bit_depth, frame.shape)
    assert isinstance(decoded, np.ndarray), decoded
    per_element = peak / frame.size
    assert per_element < bound, per_element


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
        blob = mutate(rng, reference_encode_dct(frame, qp))
        expected = outcome(reference_decode_dct, blob, bit_depth, dims)
        got, peak = outcome_and_peak(decode, blob, bit_depth, dims)
        assert peak < peak_bound(blob, PAYLOAD_PEAK), (i, peak)
        if isinstance(expected, np.ndarray):
            assert isinstance(got, np.ndarray), (i, got)
            np.testing.assert_array_equal(got, expected)
            decoded += 1
            continue
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
        got, peak = outcome_and_peak(fcm_decode, blob)
        assert peak < peak_bound(blob, STREAM_PEAK), (i, peak)
        if isinstance(expected, TensorGroup):
            assert isinstance(got, TensorGroup), (i, got)
            assert len(got) == len(expected)
            for a, b in zip(got.tensors, expected.tensors):
                np.testing.assert_array_equal(a.data, b.data)
            decoded += 1
        else:
            assert type(got) is type(expected), (i, got, expected)
            raised += 1
    assert decoded and raised
