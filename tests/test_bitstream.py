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
from fcmcodec.bitstream import STREAM_MAGIC, STREAM_VERSION, parse_stream, parse_unit, serialize_stream, serialize_unit
from fcmcodec.cli import main
from fcmcodec.errors import (
    DimensionOverflowError,
    FcmError,
    FormatError,
    InvariantError,
    MagicMismatchError,
    PayloadDecodeError,
    TruncatedError,
    VersionError,
)

from helpers import one_tile_stream, patched, random_group, with_payload_qp

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


class TestUnitRoundtrip:
    @given(headers(), st.binary(max_size=200))
    @settings(max_examples=500, deadline=None)
    def test_roundtrip_bit_exact(self, header, payload):
        blob = serialize_unit(header, payload)
        back, back_payload, consumed = parse_unit(blob)
        assert consumed == len(blob)
        assert back == header
        assert back_payload == payload
        assert serialize_unit(back, back_payload) == blob

    def test_large_rank_roundtrip(self):
        rank = math.comb(256, 128) - 1
        header = make_header(n=256, k=128, rank=rank)
        back, _, _ = parse_unit(serialize_unit(header, b""))
        assert back.lcr_rank == rank

    def test_empty_prune_set_zero_length_rank(self):
        header = make_header(k=0, rank=0)
        blob = serialize_unit(header, b"")
        # rank length prefix directly after N and k
        assert blob[4:6] == b"\x00\x00"
        back, _, _ = parse_unit(blob)
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

    @pytest.mark.parametrize("count", [0, 9])
    def test_unit_count_outside_1_to_8(self, count):
        unit = serialize_unit(make_header(), b"xy")
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
        with pytest.raises(InvariantError, match="UTF-8"):
            make_header(label="p3\ud800")

    def test_unknown_transform_id(self, rng):
        stream = fcm_encode(random_group(rng, count=2), EncoderConfig())
        with pytest.raises(FormatError, match="unit 1: unknown transform id 255"):
            fcm_decode(patched(stream, 1, "transform_id", "<B", 255))

    @pytest.mark.parametrize("field,known", [("transform_id", len(TRANSFORMS)), ("codec", len(CodecId))])
    def test_every_unknown_id_refused(self, field, known):
        stream = serialize_stream([(make_header(label="p4"), b"xy")] * 3)
        name = field.split("_")[0]
        for unit in range(3):
            for value in range(known, 256):
                with pytest.raises(InvariantError, match=f"^unit {unit}: unknown {name} id {value}$"):
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
