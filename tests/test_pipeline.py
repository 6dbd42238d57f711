import math
import tracemalloc
import warnings
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcmcodec.codec
import fcmcodec.lcr
import fcmcodec.pipeline
import fcmcodec.tensor
from fcmcodec import (
    TRANSFORMS,
    CodecId,
    EncoderConfig,
    FeatureTensor,
    TensorGroup,
    binomial,
    compute_global_stats,
    fcm_decode,
    fcm_encode,
)
from fcmcodec.bitstream import UnitHeader, parse_stream, serialize_stream
from fcmcodec.errors import (
    DimensionOverflowError,
    DomainError,
    FcmError,
    FormatError,
    InvariantError,
    PayloadDecodeError,
)
from fcmcodec.tensor import GlobalStats

from helpers import (
    CHANNEL_MISMATCHES,
    assert_matches_staged_reference,
    assert_refined,
    channel_mismatch_stream,
    depth_relabelled_stream,
    frame_pieces,
    one_tile_stream,
    patched,
    random_group,
    random_tensor,
    raw_deflate,
    raw_payload,
    record_refinements,
    reference_refinement,
    within_2_ulps,
)


def lossless_cfg(**kw):
    return EncoderConfig(codec=CodecId.RAW_LOSSLESS, **kw)


class TestEncode:
    def test_stream_parses(self, rng):
        group = random_group(rng, count=3)
        stream = fcm_encode(group, lossless_cfg())
        assert len(parse_stream(stream)) == 3

    def test_prune_header_matches_energy_ranking(self, rng):
        # channel energies 0 < 1 < 2 < 3 by construction
        data = np.stack(
            [np.full((4, 4), float(i), np.float32) for i in range(1, 5)]
        ) + rng.normal(0, 0.01, (4, 4, 4)).astype(np.float32)
        group = TensorGroup((FeatureTensor(data),))
        stream = fcm_encode(group, lossless_cfg(prune_ratio=0.5))
        (header, _), = parse_stream(stream)
        assert header.pruned_k == 2
        from fcmcodec import LcrCode, lcr_decode

        pruned = lcr_decode(LcrCode(header.pruned_k, header.lcr_rank), 4)
        assert pruned.indices == (0, 1)

    def test_empty_group_rejected(self):
        with pytest.raises(DomainError):
            TensorGroup(())

    def test_config_validation(self):
        with pytest.raises(DomainError):
            EncoderConfig(prune_ratio=1.0)
        with pytest.raises(DomainError):
            EncoderConfig(bit_depth=17)
        with pytest.raises(DomainError):
            EncoderConfig(transform="nope")

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"bit_depth": 10.5}, r"^bit depth must be in \[8, 16\], got 10.5$"),
            ({"qp": 22.5}, r"^qp must be in \[0, 63\], got 22.5$"),
            # ids fixed to the names these cases had while the message
            # read "unknown codec id", so the case names stay stable
            pytest.param(
                {"codec": 7}, r"^codec id must be in \[0, 1\], got 7$", id="kwargs2-^unknown codec id 7$"
            ),
            pytest.param(
                {"codec": 1.0}, r"^codec id must be in \[0, 1\], got 1.0$", id="kwargs3-^unknown codec id 1.0$"
            ),
            pytest.param(
                {"codec": True}, r"^codec id must be in \[0, 1\], got True$", id="kwargs4-^unknown codec id True$"
            ),
            ({"qp": True}, r"^qp must be in \[0, 63\], got True$"),
            ({"qp": False}, r"^qp must be in \[0, 63\], got False$"),
            ({"prune_ratio": "0.5"}, r"^prune_ratio must be in \[0, 1\), got '0.5'$"),
            ({"prune_ratio": None}, r"^prune_ratio must be in \[0, 1\), got None$"),
            ({"transform": ["identity"]}, r"^unknown transform \['identity'\]$"),
        ],
    )
    def test_config_refused_at_construction(self, kwargs, message):
        # Each of the first four was accepted here and failed only inside
        # fcm_encode, the first two with a bare TypeError. The bools passed
        # as the integers 1 and 0: codec True coded BLOCK_DCT, qp True qp 1.
        # The last three raised a bare TypeError here.
        with pytest.raises(DomainError, match=message):
            EncoderConfig(**kwargs)

    @pytest.mark.parametrize("codec", list(CodecId))
    def test_numpy_integer_config_codes_like_ints(self, rng, codec):
        group = random_group(rng, count=2)
        cfg = EncoderConfig(codec=codec, bit_depth=np.int64(12), qp=np.uint8(2))
        assert fcm_encode(group, cfg) == fcm_encode(group, EncoderConfig(codec=codec, bit_depth=12, qp=2))


class TestDecode:
    def test_shapes_and_order_preserved(self, rng):
        group = random_group(rng, count=4)
        decoded = fcm_decode(fcm_encode(group, lossless_cfg()))
        assert [t.shape for t in decoded.tensors] == [t.shape for t in group.tensors]

    def test_near_lossless_error_bound(self, rng):
        # the refinement stage drifts each element by an amount
        # proportional to the value range (rescale toward the transmitted
        # sigma) and to step/sqrt(elements) (mean residue); the 1e-6 slack
        # is absolute, so the bound needs large tensors of moderate range.
        # At prune 0 the quantizer spans the source's min and max.
        t = FeatureTensor((rng.random((128, 128, 128)) * 0.25).astype(np.float32))
        group = TensorGroup((t,))
        decoded = fcm_decode(fcm_encode(group, lossless_cfg(bit_depth=10)))
        bound = (float(t.data.max()) - float(t.data.min())) / (2 * 1023) + 1e-6
        err = np.max(np.abs(decoded.tensors[0].data.astype(np.float64) - t.data))
        assert err <= bound

    def test_transmitted_stats_restored(self, rng, monkeypatch):
        group = random_group(rng, count=2, mu=1.0)
        passes = record_refinements(monkeypatch)
        for codec in (CodecId.RAW_LOSSLESS, CodecId.BLOCK_DCT):
            stream = fcm_encode(group, EncoderConfig(codec=codec, qp=22, prune_ratio=0.25))
            passes.clear()
            fcm_decode(stream)
            assert_refined(passes, stream, mu_abs=1e-6)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(list(CodecId)),
        st.sampled_from((0.0, 0.5)),
        st.sampled_from(sorted(TRANSFORMS)),
    )
    @settings(max_examples=120, deadline=None)
    def test_one_refinement_matches_the_staged_reference(self, seed, codec, prune, transform):
        rng = np.random.default_rng(seed)
        shape = {"height": 2 * int(rng.integers(1, 9)), "width": 2 * int(rng.integers(1, 9))}
        group = random_group(rng, mu=float(rng.uniform(-2, 2)), sigma=float(rng.uniform(0.01, 4)), **shape)
        cfg = EncoderConfig(
            codec=codec, qp=int(rng.integers(0, 52)), bit_depth=int(rng.integers(8, 17)),
            prune_ratio=prune, transform=transform,
        )
        assert_matches_staged_reference(group, cfg)

    def test_decode_error_carries_unit_index(self, rng):
        group = random_group(rng, count=2)
        stream = bytearray(fcm_encode(group, lossless_cfg()))
        stream[-1] ^= 0xFF
        with pytest.raises(FcmError, match="unit 1"):
            fcm_decode(bytes(stream))

    def test_domain_error_from_stream_fields_is_malformed_input(self, rng):
        # Refining onto a finite f32 sigma of 3e38 overflows float32; the
        # stream chose that sigma, so the error is the stream's, and numpy
        # does not warn of the overflow.
        stream = patched(fcm_encode(random_group(rng, count=2), lossless_cfg()), 1, "sigma", "<f", 3e38)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvariantError, match="unit 1: tensor contains non-finite values") as info:
                fcm_decode(stream)
        assert not caught, [str(w.message) for w in caught]
        assert isinstance(info.value.__cause__, DomainError)


F32_MAX = float(np.finfo(np.float32).max)


def extreme_tensors() -> dict:
    """Tensors up to float32's range that fcm_encode accepts; refining onto
    their stats can round a sample past float32."""
    rng = np.random.default_rng(35)
    one_hot = np.zeros((8, 8, 8), np.float32)
    one_hot[3, 4, 5] = F32_MAX
    channel_0 = np.full((8, 8, 8), -F32_MAX, np.float32)
    channel_0[0] = F32_MAX
    return {
        "one-hot": one_hot,
        "negative-one-hot": -one_hot,
        "channel-0": channel_0,
        "checkerboard": np.where(np.indices((4, 8, 8)).sum(axis=0) % 2, F32_MAX, -F32_MAX).astype(np.float32),
        "uniform": rng.uniform(-F32_MAX, F32_MAX, (4, 8, 8)).astype(np.float32),
        "positive": rng.uniform(0, F32_MAX, (4, 8, 8)).astype(np.float32),
        "half-range": rng.uniform(-F32_MAX / 2, F32_MAX / 2, (4, 8, 8)).astype(np.float32),
        "1e38": rng.uniform(-1e38, 1e38, (4, 8, 8)).astype(np.float32),
        "1e37": rng.uniform(-1e37, 1e37, (4, 8, 8)).astype(np.float32),
    }


def float64_refinement(x, current, target):
    """The decoder's refinement before it mapped in float32: x * gain +
    offset in float64, rounded once to float32."""
    with np.errstate(over="ignore", invalid="ignore"):
        return FeatureTensor(reference_refinement(x, current, target))


def decode_outcome(stream: bytes):
    try:
        return fcm_decode(stream)
    except FcmError as exc:
        return exc


@pytest.mark.parametrize(
    "cfg",
    [
        lossless_cfg(bit_depth=16),
        lossless_cfg(),
        EncoderConfig(codec=CodecId.BLOCK_DCT, qp=22, prune_ratio=0.5),
        EncoderConfig(codec=CodecId.BLOCK_DCT, qp=4, bit_depth=16),
    ],
    ids=["raw-16", "raw-10", "dct-qp22-prune", "dct-qp4-16"],
)
def test_extreme_range_tensors_decode_as_with_the_float64_map(monkeypatch, cfg):
    """Each decodes, within 2 ulps, or is refused with the same error class,
    as with the float64 map; both happen for every configuration."""
    kinds = set()
    for name, data in extreme_tensors().items():
        stream = fcm_encode(TensorGroup((FeatureTensor(data),)), cfg)
        got = decode_outcome(stream)
        with monkeypatch.context() as patch:
            patch.setattr(fcmcodec.pipeline, "apply_refinement", float64_refinement)
            want = decode_outcome(stream)
        assert type(got) is type(want), (name, got, want)
        if isinstance(want, TensorGroup):
            assert within_2_ulps(got.tensors[0].data, want.tensors[0].data), name
        kinds.add(type(want))
    assert kinds == {TensorGroup, InvariantError}


def stream_declaring(codec: CodecId, frame_side: int, payload: bytes) -> bytes:
    """One unit of N = 1 whose tile, hence its frame, is frame_side^2."""
    header = UnitHeader(
        original_channels=1,
        pruned_k=0,
        lcr_rank=0,
        transform_stats=GlobalStats(0.0, 1.0),
        bit_depth=10,
        tile_h=frame_side,
        tile_w=frame_side,
        transform_id=0,
        label="",
        codec=int(codec),
    )
    return serialize_stream([(header, payload)])


# Deflate expands at most 1032x. CPython's zlib grows its output in blocks
# and then copies them into one bytes object, so the decoder may hold about
# 4x what the payload can expand to, plus a fixed overhead.
def raw_decode_peak_bound(stream: bytes) -> int:
    return (1 << 16) + 4 * 1032 * len(stream)


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        zlib.compress(bytes(64)),
        b"\xff\x13\x37",
        zlib.compress(bytes(1 << 20), 9)[:400],
        zlib.compress(bytes(1 << 20), 9),
        raw_payload([raw_deflate(bytes(1 << 20), 9)] * 64),
    ],
    ids=["no-deflate", "short", "garbage", "truncated", "max-expansion", "max-expansion-pieces"],
)
def test_hostile_raw_decode_allocates_by_input_size(payload):
    """A few payload bytes declaring a 4096x4096 frame (32 MiB of samples),
    which takes 64 deflate pieces of 512 KiB: the one-stream payloads are
    refused by their piece table, and in the last payload each piece expands
    past its size."""
    stream = stream_declaring(CodecId.RAW_LOSSLESS, 4096, payload)
    tracemalloc.start()
    try:
        with pytest.raises(FcmError):
            fcm_decode(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < raw_decode_peak_bound(stream)


def raw_decode_peak(samples: np.ndarray) -> tuple[int, int]:
    """(stream length, tracemalloc peak of fcm_decode) of a 1024x1024 RAW
    frame, its 4 pieces deflated at level 9."""
    frame = samples.reshape(1024, 1024)
    payload = raw_payload([raw_deflate(piece, 9) for piece in frame_pieces(frame)])
    stream = stream_declaring(CodecId.RAW_LOSSLESS, 1024, payload)
    tracemalloc.start()
    try:
        decoded = fcm_decode(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decoded.tensors[0].data.std() > 0
    return len(stream), peak


def test_large_valid_raw_decode_peak_per_element():
    """Each decoder stage's input is freed once the next stage returns, the
    inflated bytes are the frame, not copied into it, and the refinement
    writes into the dequantized buffer: 6.0 B per element."""
    _, peak = raw_decode_peak(np.arange(1 << 20) % 1024)
    assert peak < 7 * (1 << 20)


def test_decode_peak_does_not_grow_with_the_payload():
    """Parsing hands the decoder a view of the stream, not a copy of its payload."""
    small, small_peak = raw_decode_peak(np.arange(1 << 20) % 1024)
    large, large_peak = raw_decode_peak(np.random.default_rng(0).integers(0, 1024, 1 << 20))
    assert large - small > 1_300_000
    assert large_peak - small_peak < 500_000


@pytest.mark.parametrize(
    "cfg",
    [lossless_cfg(), EncoderConfig(prune_ratio=0.5, codec=CodecId.BLOCK_DCT, qp=22)],
    ids=["raw", "dct-pruned"],
)
def test_decode_peak_is_one_float32_buffer_and_a_half(cfg):
    """The decoder keeps one float32 buffer the size of the tensor. Beside
    it, it holds at most the 16-bit samples it dequantizes (half its size),
    or the kept half of the channels that restoring copies into it, so the
    peak is 1.5x the tensor's bytes plus scratch (2.17x when each stage
    made a fresh output)."""
    t = FeatureTensor(np.random.default_rng(5).standard_normal((256, 32, 48)).astype(np.float32))
    stream = fcm_encode(TensorGroup((t,)), cfg)
    tracemalloc.start()
    try:
        fcm_decode(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * t.data.nbytes


def test_a_unit_decode_evaluates_its_binomial_once(monkeypatch):
    """A unit's header check and its rank decode both need C(N, k), which
    takes 0.085 s at N = 65535 and k = 32767; math.comb runs once per unit."""
    rng = np.random.default_rng(9)
    group = TensorGroup(tuple(random_tensor(rng, channels=c, height=2, width=2) for c in (64, 48)))
    stream = fcm_encode(group, lossless_cfg(prune_ratio=0.5))
    binomial.cache_clear()
    calls = []

    def comb(n, r):
        calls.append((n, r))
        return math.comb(n, r)

    monkeypatch.setattr(fcmcodec.lcr, "math", SimpleNamespace(comb=comb))
    fcm_decode(stream)
    assert calls == [(64, 32), (48, 24)]


@pytest.mark.parametrize("codec", list(CodecId), ids=[c.name for c in CodecId])
@pytest.mark.parametrize("prune", [0.0, 0.5], ids=["unpruned", "pruned"])
def test_decode_measures_no_float_statistics(monkeypatch, prune, codec):
    """The decoder takes the statistics it refines from, and its fill, from
    exact integer moments of the kept samples. It makes no float64 pass over
    its float32 buffer to measure them: no pairwise sum, where a staged
    decoder makes 2 per unit (the refinement's mean and spread) and 3 per
    pruned unit (the fill mean too)."""
    rng = np.random.default_rng(11)
    group = TensorGroup(tuple(random_tensor(rng, channels=4, height=8, width=8) for _ in range(2)))
    stream = fcm_encode(group, EncoderConfig(prune_ratio=prune, codec=codec))
    calls = []
    pairwise_sum = fcmcodec.tensor._pairwise_sum

    def counted(data, mu):
        calls.append(data.shape)
        return pairwise_sum(data, mu)

    monkeypatch.setattr(fcmcodec.tensor, "_pairwise_sum", counted)
    decoded = fcm_decode(stream)
    assert calls == []
    assert len(decoded) == len(group)


def test_frame_past_the_element_cap_is_refused_before_decoding():
    """A 65535x65535 tile behind 8 MiB of 0xFF bytes, which a DCT decoder
    would read as 2^26 blocks and size float64 arrays for."""
    stream = stream_declaring(CodecId.BLOCK_DCT, 65535, b"\xff" * (1 << 23))
    tracemalloc.start()
    try:
        with pytest.raises(DimensionOverflowError, match="exceeds the element cap"):
            fcm_decode(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@pytest.mark.parametrize("channels,ratio,declared", CHANNEL_MISMATCHES)
def test_layout_channel_count_must_be_n_minus_k(channels, ratio, declared):
    # the grid follows from N - k, so the payload no longer fits the frame
    with pytest.raises(FormatError):
        fcm_decode(channel_mismatch_stream(channels, ratio, declared))


@pytest.mark.parametrize("codec", [CodecId.RAW_LOSSLESS])
def test_samples_past_the_header_bit_depth_are_malformed(codec):
    with pytest.raises(PayloadDecodeError, match="^unit 0: sample exceeds bit depth 8$"):
        fcm_decode(depth_relabelled_stream(codec))


def test_dct_frame_is_clipped_to_the_header_bit_depth(monkeypatch):
    frames = []
    decode = fcmcodec.pipeline.codec_decode

    def recorded(*args):
        frames.append(decode(*args))
        return frames[-1]

    monkeypatch.setattr(fcmcodec.pipeline, "codec_decode", recorded)
    fcm_decode(depth_relabelled_stream(CodecId.BLOCK_DCT))
    # a 16-bit frame decoded at the 8 bits its header now declares
    (frame,) = frames
    assert frame.max() == (1 << 8) - 1


class TestTransforms:
    def test_repeat_is_numpys_repeat_along_both_axes(self, rng):
        # A side of 1 would let a reshaped broadcast be a read-only view.
        for height, width in ((4, 5), (1, 5), (4, 1), (1, 1)):
            x = random_tensor(rng, channels=3, height=height, width=width).data
            out = fcmcodec.pipeline._repeat(x, 2)
            expected = np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)
            assert out.dtype == expected.dtype and out.tobytes() == expected.tobytes()
            # The refinement writes into it.
            assert out.flags.c_contiguous and out.flags.writeable
        assert fcmcodec.pipeline._repeat(x, 1) is x

    def test_repeat_makes_no_intermediate_array(self):
        """A 34-byte stream of 16384 channels of one 16x16 tile under
        meanpool2x decodes to 67 MB: the unit's buffer at a quarter of that,
        and its repeat. Two nested repeats made a 2x one in between, a peak
        of 1.76x the output."""
        stream = one_tile_stream(16384, 16, "meanpool2x")
        tracemalloc.start()
        try:
            (t,) = fcm_decode(stream).tensors
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stream) == 34 and t.shape == (16384, 32, 32)
        assert peak <= 1.3 * t.data.nbytes, peak

    def test_meanpool_roundtrip_shape(self, rng):
        t = random_tensor(rng, channels=4, height=8, width=12)
        group = TensorGroup((t,))
        cfg = lossless_cfg(transform="meanpool2x")
        decoded = fcm_decode(fcm_encode(group, cfg))
        assert decoded.tensors[0].shape == t.shape

    def test_meanpool_restores_stats(self, rng, monkeypatch):
        t = random_tensor(rng, channels=4, height=8, width=12, mu=2.0)
        stream = fcm_encode(TensorGroup((t,)), lossless_cfg(transform="meanpool2x"))
        passes = record_refinements(monkeypatch)
        fcm_decode(stream)
        assert_refined(passes, stream)

    def test_stream_names_its_transform_and_labels(self, rng):
        t = random_tensor(rng, channels=8, height=16, width=16)
        stream = fcm_encode(TensorGroup((t,), ("p3",)), lossless_cfg(transform="meanpool2x"))
        decoded = fcm_decode(stream)
        assert decoded.tensors[0].shape == (8, 16, 16)
        assert decoded.labels == ("p3",)

    def test_meanpool_rejects_odd_dims(self, rng):
        t = random_tensor(rng, channels=2, height=7, width=8)
        with pytest.raises(DomainError):
            fcm_encode(TensorGroup((t,)), lossless_cfg(transform="meanpool2x"))


class TestDeterminismAndRate:
    def test_byte_identical_across_workers(self, rng):
        group = random_group(rng, count=4)
        cfg = EncoderConfig(codec=CodecId.BLOCK_DCT, qp=22, prune_ratio=0.25)
        baseline = fcm_encode(group, cfg, workers=1)
        for workers in (2, 4, np.int64(2)):
            assert fcm_encode(group, cfg, workers=workers) == baseline

    @pytest.mark.parametrize("workers", ["2", 2.5, True, 0, -1])
    def test_workers_must_be_an_integer_of_at_least_1(self, rng, workers):
        # "2" raised a bare TypeError; 2.5 and True coded, and 0 coded serially.
        with pytest.raises(DomainError, match="^workers must be an integer >= 1, got "):
            fcm_encode(random_group(rng, count=2), lossless_cfg(), workers=workers)

    def test_byte_identical_across_workers_when_frames_deflate_in_pieces(self, rng):
        # The first unit's 512x640 frame takes 2 deflate pieces, so unit
        # threads submit pieces to the codec's shared pool at the same time.
        group = TensorGroup(
            (random_tensor(rng, 64, 64, 80), random_tensor(rng, 64, 48, 80), random_tensor(rng, 4, 8, 8))
        )
        cfg = lossless_cfg()
        baseline = fcm_encode(group, cfg, workers=1)
        lay = parse_stream(baseline)[0][0].layout
        assert 2 * lay.frame_height * lay.frame_width > fcmcodec.codec._RAW_PIECE
        for workers in (2, 4):
            assert fcm_encode(group, cfg, workers=workers) == baseline

    def test_pruning_reduces_stream_size(self, rng):
        group = random_group(rng, count=2, channels=8, height=16, width=16)
        sizes = [
            len(fcm_encode(group, lossless_cfg(prune_ratio=r))) for r in (0.0, 0.25, 0.5)
        ]
        assert sizes[0] > sizes[1] > sizes[2]
