import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmcodec import (
    TRANSFORMS,
    CodecId,
    EncoderConfig,
    FeatureTensor,
    GlobalStats,
    TensorGroup,
    UnitHeader,
    fcm_decode,
    fcm_encode,
)
from fcmcodec.bitstream import STREAM_MAGIC, STREAM_VERSION, parse_stream, serialize_stream
from fcmcodec.cli import main
from fcmcodec.errors import (
    DimensionOverflowError,
    DomainError,
    FcmError,
    FormatError,
    InvariantError,
    MagicMismatchError,
    PayloadDecodeError,
    TruncatedError,
    VersionError,
)

from helpers import one_tile_stream, patched, random_group, unit_bytes, with_payload_qp

# A 1x2x2 tensor as the version-1 writer coded it: a u16 unit count, a u16
# permutation length per unit, and neither a transform id nor a label.
V1_STREAM = bytes.fromhex(
    "46434d420101000100000000000000c03fbd1b8f3f0000c03fbd1b8f3f0a0000000000004040"
    "01000100020002000100000000161100000000789c636008655cc5f49f190006ba0205"
)

# A 1x2x2 tensor as the version-2 writer coded it with BLOCK_DCT: the unit
# fields of version 3, but each block's count and run-level codewords
# interleaved in one ue stream instead of split into planes.
V2_STREAM = bytes.fromhex(
    "46434d4202010100000000000000c03fbd1b8f3f0000c03fbd1b8f3f0a0000000000004040"
    "0100010002000200010000000116210000000a08400dfd01db03bc0e2806fc064b032c0ae4"
    "0157010e5021c17980bb06270c80"
)

# The 1x2x2 tensor [[0, 1], [2, 3]] as the version-3 writer coded it with
# RAW_LOSSLESS: besides today's fields, each unit carried the stats of the
# kept channels, the quantizer range and the tile grid with its channel
# count, and the payload a scheme byte before its deflate stream.
V3_STREAM = bytes.fromhex(
    "46434d4203010100000000000000c03fbd1b8f3f0000c03fbd1b8f3f0a000000000000404001"
    "0001000200020001000000001611000000007801636008655cc5f49f190006ba0205"
)
V3_DEFLATE = bytes.fromhex("7801636008655cc5f49f190006ba0205")

# The same tensor as the version-4 writer coded it: today's fields, and a qp
# byte after the codec id that RAW_LOSSLESS units carried unread.
V4_STREAM = bytes.fromhex(
    "46434d4204010100000000000000c03fbd1b8f3f0a0200020000000016100000007801636008655cc5f49f190006ba0205"
)

# The same tensor as the version-5 writer coded it: today's units, but a
# RAW_LOSSLESS payload of several deflate pieces joined them by full flushes
# where today's declares their lengths.
V5_STREAM = bytes.fromhex(
    "46434d4205010100000000000000c03fbd1b8f3f0a02000200000000100000007801636008655cc5f49f190006ba0205"
)


def make_header(n=8, k=2, rank=3, codec=0, label=""):
    return UnitHeader(
        original_channels=n,
        pruned_k=k,
        lcr_rank=rank,
        transform_stats=GlobalStats(0.5, 1.5),
        bit_depth=10,
        tile_h=4,
        tile_w=5,
        transform_id=0,
        label=label,
        codec=codec,
    )


@st.composite
def headers(draw):
    n = draw(st.integers(1, 300))
    k = draw(st.integers(0, n - 1))
    rank = draw(st.integers(0, math.comb(n, k) - 1))
    return UnitHeader(
        original_channels=n,
        pruned_k=k,
        lcr_rank=rank,
        transform_stats=GlobalStats(draw(st.floats(-100, 100, width=32)), draw(st.floats(0, 50, width=32))),
        bit_depth=draw(st.integers(8, 16)),
        tile_h=draw(st.integers(1, 64)),
        tile_w=draw(st.integers(1, 64)),
        transform_id=draw(st.integers(0, len(TRANSFORMS) - 1)),
        # at most 4 UTF-8 bytes per character, so within the u8 length
        label=draw(st.text(max_size=63)),
        codec=draw(st.sampled_from([int(c) for c in CodecId])),
    )


def parse_one(unit):
    """The (header, payload) of the one unit in unit, read by parse_stream."""
    (parsed,) = parse_stream(STREAM_MAGIC + bytes([STREAM_VERSION, 1]) + unit)
    return parsed


class TestUnitRoundtrip:
    @given(headers(), st.binary(max_size=200))
    @settings(max_examples=500, deadline=None)
    def test_roundtrip_bit_exact(self, header, payload):
        blob = unit_bytes(header, payload)
        back, back_payload = parse_one(blob)
        # The unit is read to its last byte and no further: one byte more is
        # the one byte left over.
        with pytest.raises(InvariantError, match="^1 trailing bytes after stream$"):
            parse_one(blob + b"\0")
        assert back == header
        assert back_payload == payload
        assert unit_bytes(back, back_payload) == blob

    def test_large_rank_roundtrip(self):
        rank = math.comb(256, 128) - 1
        header = make_header(n=256, k=128, rank=rank)
        back, _ = parse_one(unit_bytes(header, b""))
        assert back.lcr_rank == rank

    def test_empty_prune_set_zero_length_rank(self):
        header = make_header(k=0, rank=0)
        blob = unit_bytes(header, b"")
        # rank length prefix directly after N and k
        assert blob[4:6] == b"\x00\x00"
        back, _ = parse_one(blob)
        assert back.pruned_k == 0 and back.lcr_rank == 0


class TestStream:
    def test_multi_unit_order_preserved(self):
        units = [(make_header(rank=i), bytes([i]) * 3) for i in range(5)]
        back = parse_stream(serialize_stream(units))
        assert [h.lcr_rank for h, _ in back] == [0, 1, 2, 3, 4]
        assert [p for _, p in back] == [bytes([i]) * 3 for i in range(5)]

    def test_bad_magic(self):
        with pytest.raises(MagicMismatchError):
            parse_stream(b"XXXX\x01\x01\x00" + bytes(40))

    def test_bad_version(self):
        with pytest.raises(VersionError):
            parse_stream(b"FCMB\x09\x01\x00" + bytes(40))

    def test_version_1_rejected(self):
        with pytest.raises(VersionError, match="version 1"):
            parse_stream(V1_STREAM)

    def test_version_2_rejected(self):
        with pytest.raises(VersionError, match="version 2"):
            parse_stream(V2_STREAM)
        # rejected on the version byte alone, before any unit is parsed
        with pytest.raises(VersionError, match="version 2"):
            parse_stream(V2_STREAM[:6])

    def test_version_3_rejected(self, tmp_path):
        with pytest.raises(VersionError, match="version 3"):
            parse_stream(V3_STREAM)
        with pytest.raises(VersionError, match="version 4"):
            parse_stream(V4_STREAM)
        old = tmp_path / "v4.fcmb"
        old.write_bytes(V4_STREAM)
        assert main(["decode", "--input", str(old), "--output", str(tmp_path / "o.ftns")]) == 3
        # today's stream of the same tensor is 22 header bytes and the scheme
        # byte shorter than version 3's, and the qp byte shorter than version
        # 4's, and all three end in the same deflate stream
        t = FeatureTensor(np.arange(4, dtype=np.float32).reshape(1, 2, 2))
        stream = fcm_encode(TensorGroup((t,)), EncoderConfig())
        assert len(stream) == len(V3_STREAM) - 24 == len(V4_STREAM) - 1
        assert all(s.endswith(V3_DEFLATE) for s in (V3_STREAM, V4_STREAM, stream))

    def test_version_5_rejected(self, tmp_path):
        with pytest.raises(VersionError, match="version 5"):
            parse_stream(V5_STREAM)
        old = tmp_path / "v5.fcmb"
        old.write_bytes(V5_STREAM)
        assert main(["decode", "--input", str(old), "--output", str(tmp_path / "o.ftns")]) == 3
        # A one-piece payload kept its bytes: only the version byte differs.
        t = FeatureTensor(np.arange(4, dtype=np.float32).reshape(1, 2, 2))
        stream = fcm_encode(TensorGroup((t,)), EncoderConfig())
        assert stream == V5_STREAM[:4] + bytes([STREAM_VERSION]) + V5_STREAM[5:]

    def test_version_6_rejected(self):
        # Version 6 cut a RAW_LOSSLESS frame into raw deflate pieces inside
        # one zlib header and trailer, where today's pieces are zlib streams;
        # a one-piece payload kept its bytes.
        with pytest.raises(VersionError, match="version 6"):
            parse_stream(V5_STREAM[:4] + bytes([6]) + V5_STREAM[5:])

    @pytest.mark.parametrize("count", [0, 9])
    def test_unit_count_outside_1_to_8(self, count):
        unit = unit_bytes(make_header(), b"xy")
        blob = STREAM_MAGIC + bytes([STREAM_VERSION, count]) + unit * count
        with pytest.raises(InvariantError, match=f"declares {count} units"):
            parse_stream(blob)
        # rejected on the count alone, before any unit is parsed
        with pytest.raises(InvariantError, match=f"declares {count} units"):
            parse_stream(blob[:6])

    def test_serialize_rejects_nine_units(self):
        with pytest.raises(InvariantError):
            serialize_stream([(make_header(), b"")] * 9)

    def test_invalid_utf8_label(self):
        blob = serialize_stream([(make_header(label="abc"), b"")])
        assert blob.count(b"abc") == 1
        with pytest.raises(InvariantError):
            parse_stream(blob.replace(b"abc", b"\xff\xfe\xfd"))

    def test_label_not_utf8_encodable(self):
        with pytest.raises(DomainError, match="UTF-8"):
            make_header(label="p3\ud800")

    @pytest.mark.parametrize(
        "label",
        ["\u00e9" * 128, "p3\ud800", 5, None, b"p3"],
        ids=["256_bytes", "lone_surrogate", "int", "none", "bytes"],
    )
    def test_group_and_header_refuse_a_label_alike(self, label):
        # tensor.label_bytes is the one label rule; TensorGroup once said
        # "label too long" where UnitHeader said "label longer than 255 bytes".
        messages = []
        tensor = FeatureTensor(np.zeros((1, 1, 1)))
        for build in (lambda: TensorGroup((tensor,), (label,)), lambda: make_header(label=label)):
            with pytest.raises(DomainError) as exc:
                build()
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_label_of_255_utf8_bytes_kept(self):
        label = "\u00e9" * 127 + "a"
        blob = serialize_stream([(make_header(label=label), b"")])
        assert parse_stream(blob)[0][0].label == label

    @pytest.mark.parametrize("bit_depth", [7, 17, 10.5])
    def test_header_bit_depth_outside_the_sample_format(self, bit_depth):
        with pytest.raises(DomainError, match=rf"^bit depth must be in \[8, 16\], got {bit_depth}$"):
            dataclasses.replace(make_header(), bit_depth=bit_depth)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("tile_h", 2.5, r"^tile_h must be in \[1, 65535\], got 2.5$"),
            ("original_channels", 4.0, r"^original channel count must be in \[1, 65535\], got 4.0$"),
            ("original_channels", True, r"^original channel count must be in \[1, 65535\], got True$"),
            ("lcr_rank", 1.5, r"^rank must be an integer >= 0, got 1.5$"),
            ("transform_id", 0.5, r"^transform id must be in \[0, 1\], got 0.5$"),
        ],
    )
    def test_header_integer_field_that_is_not_an_integer_refused(self, field, value, message):
        # tile_h 2.5 made a 5.0-row layout and a bare struct.error in
        # serialize_stream; N 4.0 and transform id 0.5 a bare TypeError; N
        # True passed as 1, and rank 1.5 passed.
        with pytest.raises(DomainError, match=message):
            dataclasses.replace(make_header(), **{field: value})

    @pytest.mark.parametrize("stats", [(1e300, 1.0), (-1e300, 1.0), (0.0, 1e39), (0.0, 2.0**128)])
    def test_header_statistics_past_float32_refused(self, stats):
        # serialize_stream raised a bare OverflowError packing them as f32.
        message = r"round past the float32 range$"
        with pytest.raises(DomainError, match=message):
            dataclasses.replace(make_header(), transform_stats=GlobalStats(*stats))
        with pytest.raises(DomainError, match=message):
            serialize_stream([(dataclasses.replace(make_header(), transform_stats=GlobalStats(*stats)), b"xy")])

    def test_header_statistics_at_the_float32_limit_kept(self):
        top = float(np.finfo(np.float32).max)
        header = dataclasses.replace(make_header(), transform_stats=GlobalStats(-top, top))
        ((parsed, payload),) = parse_stream(serialize_stream([(header, b"xy")]))
        assert parsed == header and bytes(payload) == b"xy"

    def test_unknown_transform_id(self, rng):
        stream = fcm_encode(random_group(rng, count=2), EncoderConfig())
        with pytest.raises(FormatError, match=r"unit 1: transform id must be in \[0, 1\], got 255"):
            fcm_decode(patched(stream, 1, "transform_id", "<B", 255))

    @pytest.mark.parametrize("field,known", [("transform_id", len(TRANSFORMS)), ("codec", len(CodecId))])
    def test_every_unknown_id_refused(self, field, known):
        stream = serialize_stream([(make_header(label="p4"), b"xy")] * 3)
        name = field.split("_")[0]
        for unit in range(3):
            for value in range(known, 256):
                with pytest.raises(InvariantError, match=rf"^unit {unit}: {name} id must be in \[0, {known - 1}\], got {value}$"):
                    parse_stream(patched(stream, unit, field, "<B", value))

    @pytest.mark.parametrize(
        "field,fmt,value,message",
        [
            ("mu", "<f", math.nan, "finite"),
            ("sigma", "<f", -1.0, "non-negative"),
            ("sigma", "<f", math.inf, "finite"),
        ],
    )
    def test_header_field_out_of_range_refused(self, field, fmt, value, message):
        stream = serialize_stream([(make_header(label="p3"), b"xy")] * 2)
        with pytest.raises(InvariantError, match=f"unit 1: .*{message}"):
            parse_stream(patched(stream, 1, field, fmt, value))

    def test_raw_stream_does_not_depend_on_qp(self, rng):
        group = random_group(rng, count=2)
        assert fcm_encode(group, EncoderConfig(qp=0)) == fcm_encode(group, EncoderConfig(qp=63))

    def test_payload_qp_over_63_refused(self, rng):
        stream = fcm_encode(random_group(rng, count=2), EncoderConfig(codec=CodecId.BLOCK_DCT, qp=63))
        fcm_decode(stream)
        with pytest.raises(PayloadDecodeError, match=r"^unit 1: qp 64 in payload outside \[0, 63\]$"):
            fcm_decode(with_payload_qp(stream, 1, 64))

    def test_truncated_payload_len(self):
        blob = serialize_stream([(make_header(), b"abcdef")])
        with pytest.raises(TruncatedError):
            parse_stream(blob[:-3])

    def test_rank_invariant_checked(self):
        header = make_header(n=5, k=2, rank=9)
        blob = serialize_stream([(header, b"")])
        # bump the one-byte rank 9 -> 10 == C(5,2), now out of range;
        # rank byte sits after magic(4)+ver(1)+count(1)+N(2)+k(2)+rank_len(2)
        idx = 12
        assert blob[idx] == 9
        corrupted = blob[:idx] + b"\x0a" + blob[idx + 1 :]
        with pytest.raises(InvariantError):
            parse_stream(corrupted)

    def test_decoded_tensor_over_the_element_cap(self):
        # One kept 256x256 tile of 65535 channels: a 2^16-sample frame that
        # decodes to 65535 * 2^16 elements, about 17 GB of float32.
        with pytest.raises(DimensionOverflowError, match="decoded tensor 65535x256x256 exceeds"):
            parse_stream(one_tile_stream(65535, 256, "identity"))

    @pytest.mark.parametrize(
        "channels,transform,refused",
        [(32768, "identity", False), (32769, "identity", True), (8192, "meanpool2x", False), (16384, "meanpool2x", True)],
    )
    def test_the_decoded_cap_counts_channels_and_pooling(self, channels, transform, refused):
        """2^31 decoded elements, MAX_ELEMENTS, pass; one channel more, or
        the same channels repeated 2x2 by meanpool2x, do not."""
        stream = one_tile_stream(channels, 256, transform)
        if refused:
            with pytest.raises(DimensionOverflowError, match="decoded tensor"):
                parse_stream(stream)
        else:
            assert parse_stream(stream)[0][0].original_channels == channels

    def test_trailing_garbage(self):
        blob = serialize_stream([(make_header(), b"xy")])
        with pytest.raises(InvariantError):
            parse_stream(blob + b"\x00")

    def test_fuzz_never_crashes(self, rng):
        blob = bytearray(serialize_stream([(make_header(), b"payload")]))
        for _ in range(2000):
            mutated = bytearray(blob)
            for _ in range(int(rng.integers(1, 6))):
                mutated[int(rng.integers(0, len(mutated)))] = int(rng.integers(0, 256))
            try:
                parse_stream(bytes(mutated))
            except FcmError:
                pass
