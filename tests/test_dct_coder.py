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
from fcmcodec.codec import (
    _DCT_BLOCKS,
    _SLICE_BLOCKS,
    _SLICE_PAIRS,
    _BitWriter,
    _pair_symbols,
    _slices,
    _ue_lengths,
    _ue_values,
)
from fcmcodec.errors import DimensionOverflowError, FcmError, PayloadDecodeError, TruncatedError

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
        # The encoder transforms chunks of at most N = _DCT_BLOCKS blocks:
        # as many whole block rows as fit in N, or, where a row holds more
        # than N blocks, runs of N blocks within the row and the row's rest.
        # 2 rows of 600 blocks; one row of 563 blocks, from 5 rows of pixels;
        # 13 rows of 100 blocks; 8 rows of N / 8 blocks, exactly one chunk;
        # one row of N + 1 blocks, a chunk and one block; one block; one row
        # of N - 1 blocks; and N blocks in 2 rows, from 13 x (4N - 5) pixels,
        # padded at both edges.
        pytest.param(make_frame(np.random.default_rng(8), (16, 4800), 10, smooth=True), 22, 10, id="rows_wider_than_a_chunk"),
        pytest.param(make_frame(np.random.default_rng(9), (5, 4500), 16, smooth=True), 4, 16, id="one_block_row"),
        pytest.param(
            make_frame(np.random.default_rng(10), (104, 800), 12, smooth=True), 8, 12, id="blocks_not_a_multiple_of_the_chunk"
        ),
        pytest.param(make_frame(np.random.default_rng(11), (64, _DCT_BLOCKS), 10, smooth=True), 22, 10, id="one_chunk"),
        pytest.param(
            make_frame(np.random.default_rng(12), (8, 8 * _DCT_BLOCKS + 8), 16, smooth=False), 0, 16, id="a_chunk_and_a_block"
        ),
        pytest.param(make_frame(np.random.default_rng(15), (8, 8), 16, smooth=False), 0, 16, id="one_block"),
        pytest.param(
            make_frame(np.random.default_rng(16), (8, 8 * _DCT_BLOCKS - 8), 16, smooth=False), 0, 16, id="a_chunk_less_a_block"
        ),
        pytest.param(
            make_frame(np.random.default_rng(17), (13, 4 * _DCT_BLOCKS - 5), 16, smooth=True), 4, 16, id="one_padded_chunk"
        ),
    ],
)
def test_edge_frames_match_reference(frame, qp, bit_depth):
    assert_matches_reference(frame, qp, bit_depth)


def test_the_sliced_edge_frame_spans_three_slices():
    counts = read_split_ue(BitReader(reference_encode_dct(SEVERAL_SLICES, 0)[1:]), 24 * 24)
    assert len(_slices(np.array(counts)[:, None], _SLICE_BLOCKS)) >= 3


def test_encoder_slices_are_bounded_in_blocks(monkeypatch):
    """An all-zero frame with five textured blocks: 100 blocks, 95 of them
    empty, and fewer pairs than the pair budget. With a budget of 16 blocks
    the encoder codes 7 slices, one of them a run of empty blocks only."""
    monkeypatch.setattr(fcmcodec.codec, "_SLICE_PAIRS", 1024)
    monkeypatch.setattr(fcmcodec.codec, "_SLICE_BLOCKS", 16)
    rng = np.random.default_rng(13)
    frame = np.zeros((40, 160), np.uint16)  # 5 rows of 20 blocks
    for block in (3, 17, 18, 64, 99):
        r, c = divmod(block, 20)
        frame[8 * r : 8 * r + 8, 8 * c : 8 * c + 8] = rng.integers(0, 1024, (8, 8))
    sliced = []
    real = fcmcodec.codec._pair_symbols
    monkeypatch.setattr(fcmcodec.codec, "_pair_symbols", lambda levels: sliced.append(len(levels)) or real(levels))
    assert encode(frame, 22, 10) == reference_encode_dct(frame, 22)
    assert sliced == [16] * 6 + [4]


def test_a_frame_of_2_to_the_28_blocks_is_refused(monkeypatch):
    """Its count plane could pass 2^31 bits. The frame is a broadcast view of
    one sample, and the encoder proper is stubbed out, so nothing of its size
    is allocated."""
    monkeypatch.setattr(fcmcodec.codec, "_encode_dct", lambda *args: pytest.fail("the frame reached the encoder"))
    frame = np.broadcast_to(np.zeros((1, 1), np.uint16), (1 << 17, 1 << 17))
    with pytest.raises(DimensionOverflowError, match="268435456 blocks"):
        encode(frame, 22, 10)


# 16-bit qp-0 frames with the widest codewords a frame gives: blocks of
# 65535, whose DC level codes to 1664491 (20 suffix bits), next to 0/65535
# checkerboards, whose last zigzag coefficient is the largest AC level, and
# blocks lit at one corner. The widest pair of all, a run of 63 with a level
# code of 2^21 - 2, cannot come from a frame: a block whose levels are all
# zero but the last has a DC level of 0, so its mean is under 1/25.
WIDE_CODE_FRAME = np.block(
    [
        [np.full((8, 8), 65535), np.indices((8, 8)).sum(axis=0) % 2 * 65535, np.pad([[65535]], ((0, 7), (0, 7)))],
        [np.indices((8, 8)).sum(axis=0) % 2 * 65535, np.pad([[65535]], ((7, 0), (7, 0))), np.full((8, 8), 65535)],
    ]
).astype(np.uint16)


def test_the_widest_codes_of_a_frame_match_the_reference():
    data = reference_encode_dct(WIDE_CODE_FRAME, 0)
    assert max_prefix_zeros(data, 6) == 20
    assert_matches_reference(WIDE_CODE_FRAME, 0, 16)


def reference_pairs(levels) -> list[int]:
    """The run and level symbols of blocks of zigzag-ordered levels, pair by
    pair, by a loop over each block's nonzero positions."""
    pairs = []
    for block in levels:
        prev = -1
        for pos in np.flatnonzero(block):
            level = int(block[pos])
            pairs += [int(pos) - prev - 1, 2 * level - 1 if level > 0 else -2 * level]
            prev = int(pos)
    return pairs


def assert_pairs_match_the_reference(levels):
    run, code = _pair_symbols(levels)
    assert run.dtype == code.dtype == np.int32
    assert np.stack([run, code], axis=1).reshape(-1).tolist() == reference_pairs(levels)


@pytest.mark.parametrize("lead", range(32))
def test_the_widest_pairs_match_the_reference(lead):
    """Blocks whose only level is the last one, at +-(2^20 - 1): pairs of a
    run of 63 and a level code of 2^21 - 3 or 2^21 - 2, 28 prefix and 26
    suffix bits, after lead blocks whose one pair adds 3 prefix bits and 1
    suffix bit, so the wide fields start at every place in their words."""
    levels = np.zeros((lead + 4, 64), np.int32)
    levels[:lead, 0] = 1
    levels[lead:, 63] = [2**20 - 1, -(2**20 - 1), 2**20 - 1, -(2**20 - 1)]
    levels[lead + 2, :63] = 1 - 2 * (np.arange(63) % 2)  # and a full block
    assert_pairs_match_the_reference(levels)
    symbols = _pair_symbols(levels)
    counts = np.count_nonzero(levels, axis=1)
    pairs = reference_pairs(levels)
    assert max(pairs) == 2**21 - 2 and pairs.count(63) == 3
    out, suffixes = _BitWriter(), _BitWriter()
    out.write_ue(out, rows(counts))
    out.write_ue(suffixes, symbols)
    out.extend(suffixes)
    assert out.getvalue(b"\x00") == b"\x00" + reference_bits(counts, pairs)


def random_levels(rng, blocks: int, share: float) -> np.ndarray:
    """blocks blocks of int32 levels, each nonzero with probability share,
    of either sign and up to 2^20 - 1 in size."""
    levels = rng.integers(1, 1 << 20, (blocks, 64), dtype=np.int32)
    levels *= rng.choice(np.array([-1, 1], np.int32), (blocks, 64))
    levels[rng.random((blocks, 64)) >= share] = 0
    return levels


@pytest.mark.parametrize("share", [0.0, 0.02, 0.4, 0.98, 1.0])
@pytest.mark.parametrize("seed", range(3))
def test_pairs_match_the_reference_at_every_density(share, seed):
    rng = np.random.default_rng([seed, int(100 * share)])
    levels = random_levels(rng, 300, share)
    assert_pairs_match_the_reference(levels)
    # empty leading blocks: the first run counts from its own block's start
    levels[:7] = 0
    assert_pairs_match_the_reference(levels)
    assert_pairs_match_the_reference(levels[:7])  # an all-zero slice


# Bound on the tracemalloc peak of _pair_symbols per pair of a slice of 2^14
# pairs, its 8 bytes of symbols included. Gathered by index, with the int64
# positions freed once copied into the run row, the slices below peak at 16.05
# B per pair: the positions beside the symbols. Holding the positions while
# the runs are taken, with a take that buffers its output, they peaked at
# 20.06 B; with the boolean-mask gather, at 18.62 and 17.09 B. The bound
# leaves a 1.12x margin.
PAIR_SCRATCH_PER_PAIR = 18.0


@pytest.mark.parametrize("share", [0.4, 0.98])
def test_pair_scratch_per_pair(share):
    rng = np.random.default_rng(30)
    blocks = -(-_SLICE_PAIRS // int(64 * share))
    levels = random_levels(rng, blocks, 1.0)
    levels.reshape(-1)[rng.permutation(levels.size)[_SLICE_PAIRS:]] = 0
    symbols, peak = outcome_and_peak(_pair_symbols, levels)
    assert symbols.shape == (2, _SLICE_PAIRS)
    assert peak / _SLICE_PAIRS < PAIR_SCRATCH_PER_PAIR, peak / _SLICE_PAIRS


def test_the_slices_read_the_counts_the_writer_took(monkeypatch):
    """The bit writer overwrites the symbols it takes, so the encoder gives it
    a copy of the block counts, which _slices reads after it."""
    frame = make_frame(np.random.default_rng(3), (40, 64), 16, smooth=False)
    seen = []
    real = fcmcodec.codec._slices
    monkeypatch.setattr(fcmcodec.codec, "_slices", lambda counts, blocks: seen.append(counts.copy()) or real(counts, blocks))
    data = encode(frame, 0, 16)
    assert data == reference_encode_dct(frame, 0)
    [counts] = seen
    assert counts.reshape(-1).tolist() == read_split_ue(BitReader(data[1:]), 40)


# The decoder's slices hold whole block rows; with budgets of 1024 pairs and
# 16 blocks, 16-bit noise at qp 0 (about 63 pairs per block) spans 3 or more
# slices in 5 block rows of 8 blocks and overruns both budgets in one row of
# 20 blocks, and a flat frame (at most a pair per block) spans 3 slices of 3
# block rows of 5 blocks by the block budget alone. The encoder slices the
# same frames by the same rule in rows of one block.
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
    monkeypatch.setattr(fcmcodec.codec, "_SLICE_PAIRS", 1024)
    monkeypatch.setattr(fcmcodec.codec, "_SLICE_BLOCKS", 16)
    monkeypatch.setattr(fcmcodec.codec, "_DECODE_SLICE_BLOCKS", 16)
    data = reference_encode_dct(frame, 0)
    hb, wb = -(-frame.shape[0] // 8), -(-frame.shape[1] // 8)
    counts = np.array(read_split_ue(BitReader(data[1:]), hb * wb)).reshape(hb, wb)
    assert check(len(checked_slices(counts, 16)), counts.sum(axis=1))
    checked_slices(counts.reshape(-1, 1), 16)
    assert encode(frame, 0, 16) == data
    np.testing.assert_array_equal(decode(data, 16, frame.shape), reference_decode_dct(data, 16, frame.shape))


def checked_slices(counts, blocks):
    """The slices of the rows of pair counts, after checking that they tile
    the rows in order and that each holds at most _SLICE_PAIRS pairs plus
    those of its first row, and blocks blocks plus one row."""
    slices = _slices(counts, blocks)
    assert [s for s, _ in slices] == [0] + [e for _, e in slices[:-1]]
    assert slices[-1][1] == len(counts) and all(s < e for s, e in slices)
    pairs = counts.sum(axis=1)
    for s, e in slices:
        assert pairs[s:e].sum() <= fcmcodec.codec._SLICE_PAIRS + pairs[s]
        assert (e - s) * counts.shape[1] <= blocks + counts.shape[1]
    return slices


@given(
    counts=st.lists(st.lists(st.integers(0, 64), min_size=3, max_size=3), min_size=1, max_size=40),
    pair_budget=st.integers(1, 200),
    blocks=st.integers(1, 10),
)
@settings(max_examples=200, deadline=None)
def test_slices_tile_the_rows_within_their_budgets(counts, pair_budget, blocks):
    """Rows of three blocks, and each one's pairs alone as the encoder's rows
    of one block, against budgets that a row can overrun several times."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fcmcodec.codec, "_SLICE_PAIRS", pair_budget)
        counts = np.array(counts)
        checked_slices(counts, blocks)
        checked_slices(counts.reshape(-1, 1), blocks)


def ue_symbols(rng, n: int) -> np.ndarray:
    """n symbols whose suffixes are 0 to 20 bits wide, a third of them at
    either end of that range."""
    zeros = rng.choice([0, 20, int(rng.integers(0, 21))], size=n)
    return (1 << zeros) - 1 + rng.integers(0, 1 << zeros)


def pair_symbols(rng, n: int) -> np.ndarray:
    """n (run, level code) pairs of the kind the codec writes, one after the
    other: runs of 0 to 63, a third of them at either end of that range, and
    level codes from ue_symbols."""
    runs = rng.choice([0, 63, int(rng.integers(0, 64))], size=n)
    return np.stack([runs, ue_symbols(rng, n)], axis=1).reshape(-1)


def rows(*columns) -> np.ndarray:
    """The bit writer's symbols: one int32 row per column, which it overwrites."""
    return np.array(columns, dtype=np.int32)


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
    calls = [pair_symbols(rng, int(rng.integers(0, 30))) for _ in range(int(rng.integers(1, 9)))]
    out, suffixes = _BitWriter(), _BitWriter()
    out.write_ue(out, rows(head))
    for symbols in calls:
        out.write_ue(suffixes, rows(symbols[0::2], symbols[1::2]))
    out.extend(suffixes)
    assert out.getvalue(b"\x0a") == b"\x0a" + reference_bits(head, np.concatenate(calls))


@pytest.mark.parametrize("offset", range(64))
def test_bit_writer_at_every_offset(offset, monkeypatch):
    """offset one-bit codewords lead both writers, so over the 64 offsets the
    20-bit suffixes straddle 32- and 64-bit word boundaries at every bit, and
    extend starts at every offset in a 64-bit word. The pairs hold runs of 0
    to 63 and, first and last, the widest pair the codec writes, (63,
    2^21 - 2). A one-bit codeword has no suffix, so the suffix writer's lead
    reads as the prefixes of codewords after the pairs."""
    monkeypatch.setattr(fcmcodec.codec, "_EXTEND_WORDS", 1)
    widest = [2**21 - 2, 2**20 - 1, 0, 2**20 + 5, 2**21 - 2, 2**21 - 2]
    runs = [63, 0, 32, 63, 1, 62]
    pairs = np.stack([runs + runs[::-1], widest + widest[::-1]], axis=1).reshape(-1).tolist()
    lead = [0] * offset
    out, suffixes = _BitWriter(), _BitWriter()
    out.write_ue(out, rows(lead + widest))
    suffixes.write_ue(suffixes, rows(lead))
    out.write_ue(suffixes, rows(pairs[0::2], pairs[1::2]))
    out.extend(suffixes)
    assert out.getvalue(b"\x10") == b"\x10" + reference_bits(lead + widest, pairs + lead)


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


def read_values(data: bytes, n: int) -> list[int]:
    """The codec's values of the split-plane ue sequence of n codewords that
    starts the payload data, after its qp byte."""
    buf = np.frombuffer(data, dtype=np.uint8, offset=1)
    zeros, suffix, end = _ue_lengths(buf, 8 * len(buf), 0, n)
    values, after = _ue_values(buf, zeros, suffix)
    assert after == end
    return values.tolist()


def assert_values_match_reference(values):
    data = payload(split_bits(values))
    assert read_values(data, len(values)) == read_split_ue(BitReader(data[1:]), len(values)) == list(values)


# A block row of one block that holds two pairs whose levels have 24-bit
# suffixes, the longest accepted, behind lead blocks without pairs.
WIDEST_PAIRS = [0, 2**25 - 2, 0, 2**24 - 1]


@pytest.mark.parametrize("lead", range(8))
def test_value_read_at_every_bit_offset(lead):
    """z = 0 codewords (v + 1 = 1) and z = 24 codewords, whose suffixes span
    4 bytes; lead one-bit codewords in front start the suffix plane at every
    bit of a byte over the 8 cases."""
    values = [0] * lead + WIDEST_PAIRS + [0]
    assert (len(split_planes(values)[0]) - lead) % 8 == 5
    assert_values_match_reference(values)
    data = payload(split_bits([0] * lead + [2]) + split_bits(WIDEST_PAIRS))
    got, expected = codec_and_reference(data, (8, 8 * (lead + 1)), bit_depth=16)
    assert isinstance(expected, np.ndarray), expected
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("chunk", [1, 3, 4])
def test_value_read_across_chunk_boundaries(chunk, monkeypatch):
    """Sequences of a chunk less one, exactly one chunk, one more, and two
    chunks of codewords, and a frame whose 12 counts fill whole chunks."""
    monkeypatch.setattr(fcmcodec.codec, "_READ_CODEWORDS", chunk)
    rng = np.random.default_rng(chunk)
    for n in (chunk - 1, chunk, chunk + 1, 2 * chunk):
        zeros = rng.choice([0, 1, 7, 8, 23, 24], size=n)
        assert_values_match_reference(((1 << zeros) - 1 + rng.integers(0, 1 << zeros)).tolist())
    frame = make_frame(rng, (24, 32), 16, smooth=False)
    data = reference_encode_dct(frame, 0)
    np.testing.assert_array_equal(decode(data, 16, frame.shape), reference_decode_dct(data, 16, frame.shape))


@pytest.mark.parametrize("last", [2**25 - 2, 2**24 - 1, 1], ids=["all_ones", "all_zeros", "one_bit"])
def test_suffix_plane_ending_on_the_last_byte(last):
    """The last suffix ends on the payload's last bit, with no padding, so
    its 32-bit window reaches 3 bytes past the payload. One-bit codewords in
    front, one bit each, bring the end to a byte boundary."""
    values = [0, last]
    values = [0] * (-len(split_bits(values)) % 8) + values
    assert len(split_bits(values)) % 8 == 0
    assert_values_match_reference(values)
    counts, pairs = [0] * 7 + [1], [0, last]
    lead = -len(split_bits(counts) + split_bits(pairs)) % 8
    data = payload(split_bits([0] * lead + counts) + split_bits(pairs))
    assert 8 * (len(data) - 1) == len(split_bits([0] * lead + counts) + split_bits(pairs))
    got, expected = codec_and_reference(data, (8, 8 * (lead + len(counts))), bit_depth=16)
    assert isinstance(expected, np.ndarray), expected
    np.testing.assert_array_equal(got, expected)


def test_a_block_row_past_int32_positions_is_refused_before_any_allocation():
    """A row of 2^25 blocks has 2^31 coefficient positions, past the int32
    positions a slice uses. Its 2^25 one-bit count-0 codewords fit in 4 MB,
    so the bit check alone would let it through."""
    data = bytes([22]) + b"\xff" * (1 << 22)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionOverflowError, match="2\\^31"):
            decode(data, 10, (1, 8 << 25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # one block less passes the guard and fails on the bits it lacks
    with pytest.raises(TruncatedError):
        decode(data[:2], 10, (1, 8 * (2**25 - 1)))


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


# Bounds on the tracemalloc peak of a BLOCK_DCT encode, in bytes per frame
# element. A 512x512 16-bit noise frame at qp 0, a 1 MB payload, peaked at
# 10.1 B per element with slices of 2^14 pairs in 32-bit lanes: 10.8 B with
# slices of 2^13 pairs in 64-bit lanes, 13.0 B with a whole-frame transform,
# 21.6 B before slices. Coded as one slice, it peaked at 34 B per element (82
# B in 64-bit lanes). A smooth 256x384 16-bit frame at qp 4, shaped like the
# perfbench dense_dct16 frame, peaked at 12.0 B with the transform's float64
# copy, product and rounding scratch of 512 blocks alive beside the levels.
# With 256-block chunks, each product freed before the next, the writer's
# merges in uint32 lanes and each slice's symbols held once, the two peak at
# 9.6 and 9.0 B. The bounds leave 1.25x and 1.17x margins.
# Two smooth 10-bit frames at qp 22 check the transform's chunks. A 509x507
# frame is padded to 512x512: with the padded copy staged in the levels and
# freed before the transform, it peaks at 6.10 B per element, and at 7.12 B
# with the chunks read from the copy, which then lives through the loop. A
# 16x16000 frame has rows of 2000 blocks, which the transform takes in runs
# of _DCT_BLOCKS: 5.71 B staged in the levels, 5.70 B read from the frame,
# and 12.0 B with each whole row one chunk. Both bounds leave 1.23x over the
# staged figure.
ENCODE_PEAK_CASES = {
    "noise": (make_frame(np.random.default_rng(5), (512, 512), 16, smooth=False), 0, 1_000_000, 12.0),
    "dense": (make_frame(np.random.default_rng(14), (256, 384), 16, smooth=True), 4, 200_000, 10.5),
    "padded": (make_frame(np.random.default_rng(18), (509, 507), 10, smooth=True), 22, 100_000, 7.5),
    "wide_rows": (make_frame(np.random.default_rng(19), (16, 8 * 2000), 10, smooth=True), 22, 100_000, 7.0),
}


def test_encode_peak_per_element():
    for name, (frame, qp, payload_bytes, bound) in ENCODE_PEAK_CASES.items():
        data, peak = outcome_and_peak(encode, frame, qp, 16)
        assert len(data) > payload_bytes, name
        per_element = peak / frame.size
        assert per_element < bound, (name, per_element)


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
