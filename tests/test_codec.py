import math
import multiprocessing
import sys
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.fft import dctn as scipy_dctn
from scipy.fft import idctn as scipy_idctn
from scipy.ndimage import gaussian_filter

from fcmcodec import CodecId, codec, codec_decode, codec_encode, qstep
from fcmcodec.errors import DomainError, FcmError, PayloadDecodeError, TruncatedError
from fcmcodec.metrics import psnr

from bitref import dct_block_forward, dct_block_inverse, reference_encode_dct
from helpers import frame_pieces, piece_sizes, raw_deflate, raw_payload


def naive_dct2(block):
    """Direct O(N^4) orthonormal type-II DCT, the independent oracle."""
    n = 8
    out = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            s = 0.0
            for x in range(n):
                for y in range(n):
                    s += (
                        block[x, y]
                        * math.cos((2 * x + 1) * u * math.pi / (2 * n))
                        * math.cos((2 * y + 1) * v * math.pi / (2 * n))
                    )
            cu = math.sqrt(1 / n) if u == 0 else math.sqrt(2 / n)
            cv = math.sqrt(1 / n) if v == 0 else math.sqrt(2 / n)
            out[u, v] = cu * cv * s
    return out


def smooth_frame(rng, shape=(48, 64), bit_depth=10):
    noise = rng.normal(size=shape)
    img = gaussian_filter(noise, sigma=4)
    img = (img - img.min()) / (img.max() - img.min())
    return np.round(img * ((1 << bit_depth) - 1)).astype(np.uint16)


class TestDctBlocks:
    def test_matches_naive_oracle(self, rng):
        block = rng.normal(size=(8, 8))
        np.testing.assert_allclose(dct_block_forward(block), naive_dct2(block), atol=1e-9)

    def test_constant_block_dc_only(self):
        out = dct_block_forward(np.full((8, 8), 3.0))
        assert out[0, 0] == pytest.approx(24.0)  # 8 * c
        out[0, 0] = 0.0
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_zero_block(self):
        np.testing.assert_array_equal(dct_block_forward(np.zeros((8, 8))), np.zeros((8, 8)))

    def test_inverse_identity_and_parseval(self, rng):
        block = rng.normal(size=(8, 8))
        coeffs = dct_block_forward(block)
        np.testing.assert_allclose(dct_block_inverse(coeffs), block, atol=1e-9)
        assert np.sum(coeffs**2) == pytest.approx(np.sum(block**2), abs=1e-9)

    def test_wrong_shape(self):
        with pytest.raises(DomainError):
            dct_block_forward(np.zeros((4, 4)))


def extreme_16bit_blocks(rng):
    top = 65535.0
    return np.array(
        [
            np.full((8, 8), top),
            np.indices((8, 8)).sum(axis=0) % 2 * top,  # checkerboard
            np.indices((8, 8))[0] % 2 * top,  # stripes
            np.pad(np.full((1, 1), top), ((0, 7), (0, 7))),  # one corner
            rng.integers(0, 2, size=(8, 8)) * top,
        ]
    )


def assert_inverse_matches_scipy(coeffs):
    """codec.idctn of the zigzag-ordered (n, 8, 8) raster coefficient blocks
    is scipy's inverse DCT within 1e-9 of each block's largest magnitude."""
    expected = scipy_idctn(coeffs, type=2, norm="ortho", axes=(-2, -1)).reshape(-1, 64)
    got = codec.idctn(coeffs.reshape(-1, 64)[:, codec.ZIGZAG])
    scale = np.abs(coeffs).reshape(-1, 64).max(axis=1, keepdims=True)
    assert (np.abs(got - expected) <= 1e-9 * scale).all()


class TestInverseBasis:
    def test_random_blocks(self, rng):
        magnitude = 10.0 ** rng.uniform(-3, 7, size=(500, 1, 1))
        assert_inverse_matches_scipy(rng.normal(size=(500, 8, 8)) * magnitude)

    def test_extreme_16bit_blocks(self, rng):
        coeffs = list(scipy_dctn(extreme_16bit_blocks(rng), type=2, norm="ortho", axes=(-2, -1)))
        # The largest levels a 16-bit frame codes at qp 0, of either sign.
        coeffs.append(rng.choice([-1.0, 1.0], size=(8, 8)) * (2**20 - 1) * qstep(0))
        assert_inverse_matches_scipy(np.array(coeffs))


def assert_forward_matches_scipy(pixels):
    """codec.dctn of the (n, 8, 8) pixel blocks, flattened in raster order,
    is scipy's DCT in zigzag order within 1e-9 of each block's largest
    magnitude."""
    expected = scipy_dctn(pixels, type=2, norm="ortho", axes=(-2, -1)).reshape(-1, 64)[:, codec.ZIGZAG]
    got = codec.dctn(pixels.reshape(-1, 64))
    scale = np.abs(pixels).reshape(-1, 64).max(axis=1, keepdims=True)
    assert (np.abs(got - expected) <= 1e-9 * scale).all()


class TestForwardBasis:
    def test_random_blocks(self, rng):
        magnitude = 10.0 ** rng.uniform(-3, 7, size=(500, 1, 1))
        assert_forward_matches_scipy(rng.normal(size=(500, 8, 8)) * magnitude)

    def test_extreme_16bit_blocks(self, rng):
        assert_forward_matches_scipy(extreme_16bit_blocks(rng))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("z", [0, 10, 14, 39])
    def test_exact_ties_round_away_from_zero(self, rng, z, sign):
        # Every basis entry at these zigzag positions is +-1/8, so integer
        # blocks whose signed sum t is 8k + 4 have the coefficient k + 1/2
        # exactly, and the product lands a few ulps to either side.
        pattern = np.rint(8 * codec._BASIS[z])
        blocks = rng.integers(0, 4000, size=(2000, 64)).astype(np.float64)
        blocks[:, 0] += pattern[0] * ((4 - blocks @ pattern) % 8)
        t = sign * (blocks @ pattern)
        k = (t - 4) // 8
        levels = codec._round_half_away(codec.dctn(sign * blocks))
        np.testing.assert_array_equal(levels[:, z], np.where(t > 0, k + 1, k))


class TestLevelRule:
    K = np.array([0.0, 1.0, 2.0, 37.0, 1023.0, 2.0**20 - 1])

    @pytest.mark.parametrize("sign", [1, -1])
    def test_ties_and_the_band_below_them_round_away(self, sign):
        for below in (0.0, 2.0**-21, 2.0**-20):
            x = sign * (self.K + 0.5 - below)
            assert codec._round_half_away(x) is x
            np.testing.assert_array_equal(x, sign * (self.K + 1))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_values_past_the_band_round_toward_zero(self, sign):
        x = codec._round_half_away(sign * (self.K + 0.5 - 2.0**-18))
        np.testing.assert_array_equal(x, sign * self.K)

    @pytest.mark.parametrize("z", [0, 10, 14, 39])
    def test_the_encoder_agrees_with_scipy_at_ties(self, rng, z):
        # 10-bit blocks whose signed sum at zigzag position z is 8k + 4 tie
        # there at qp 4, where qstep is 1, and at qp 22 after a scale of 8.
        # The reference coder takes its coefficients from scipy's FFT.
        pattern = np.rint(8 * codec._BASIS[z]).astype(np.int64)
        for qp, scale in ((4, 1), (22, 8)):
            blocks = rng.integers(8, 120, size=(24, 64)) * scale
            blocks[:, 0] += pattern[0] * ((4 * scale - blocks @ pattern) % (8 * scale))
            frame = blocks.reshape(4, 6, 8, 8).transpose(0, 2, 1, 3).reshape(32, 48).astype(np.uint16)
            assert codec_encode(frame, CodecId.BLOCK_DCT, qp=qp, bit_depth=10) == reference_encode_dct(frame, qp)


def ramp_frame(rng, shape):
    """A ramp, so that deflate finds runs to code, with every fifth row noise."""
    frame = (np.arange(shape[0] * shape[1]).reshape(shape) // 7 % 1024).astype(np.uint16)
    frame[::5] = rng.integers(0, 1024, size=frame[::5].shape)
    return frame


class SpyPool:
    """A piece pool that keeps the jobs submitted to it."""

    def __init__(self, pool):
        self.pool = pool
        self.futures = []

    @property
    def jobs(self) -> int:
        return len(self.futures)

    def submit(self, *args):
        self.futures.append(self.pool.submit(*args))
        return self.futures[-1]


def spy_on_the_readers(monkeypatch) -> tuple[SpyPool, list]:
    """Keep the pool's jobs, and the size of each piece that _inflate reads,
    on the pool or on the calling thread."""
    pool = SpyPool(codec._PIECE_POOL)
    monkeypatch.setattr(codec, "_PIECE_POOL", pool)
    sizes, read = [], codec._inflate
    monkeypatch.setattr(codec, "_inflate", lambda data, n: sizes.append(n) or read(data, n))
    return pool, sizes


def decode_outcome(payload, shape):
    """The 16-bit frame that payload decodes to, or the class of the error."""
    try:
        return codec_decode(payload, CodecId.RAW_LOSSLESS, 16, shape)
    except FcmError as exc:
        return type(exc)


def split_payload(payload, k) -> list[bytes] | None:
    """The k pieces that the length table of payload declares, or None where
    the table does not fit it."""
    bounds = [4 * (k - 1)]
    for i in range(k - 1):
        bounds.append(bounds[-1] + int.from_bytes(payload[4 * i : 4 * i + 4], "little"))
    if bounds[-1] > len(payload):
        return None
    return [payload[a:b] for a, b in zip(bounds, [*bounds[1:], len(payload)])]


def per_piece_reference(payload, shape):
    """The 16-bit frame that a fresh zlib inflater per declared piece reads
    from a payload, or None where the layout is broken: a table that does
    not fit, or a piece that zlib refuses or that does not give exactly its
    size and end its stream there."""
    sizes = piece_sizes(shape)
    pieces = split_payload(payload, len(sizes))
    if pieces is None:
        return None
    out = []
    for piece, size in zip(pieces, sizes):
        d = zlib.decompressobj()
        try:
            out.append(d.decompress(piece, size + 1))
        except zlib.error:
            return None
        if len(out[-1]) != size or not d.eof or d.unused_data or d.unconsumed_tail:
            return None
    return np.frombuffer(b"".join(out), dtype="<u2").reshape(shape)


def multi_piece_mutations(rng, payload, k):
    """Payloads made from a payload of k pieces: a length in its table
    changed by a little or at random; each piece deflated again at zlib's
    levels 1 and 9 with its length declared; bits flipped in a piece; bits
    flipped in the last piece's Adler-32; truncations; bytes appended; and
    bits flipped anywhere."""

    def flipped(at):
        blob = bytearray(payload)
        blob[at] ^= 1 << int(rng.integers(0, 8))
        return bytes(blob)

    def relength(i, length):
        blob = bytearray(payload)
        blob[4 * i : 4 * i + 4] = (length % (1 << 32)).to_bytes(4, "little")
        return bytes(blob)

    table = 4 * (k - 1)
    for i in range(k - 1):
        length = int.from_bytes(payload[4 * i : 4 * i + 4], "little")
        for delta in (-5, -1, 1, 5):
            yield relength(i, length + delta)
        yield relength(i, int(rng.integers(0, 1 << 32)))
    pieces = split_payload(payload, k)
    for i in range(k):
        for level in (1, 9):
            yield raw_payload([*pieces[:i], zlib.compress(zlib.decompress(pieces[i]), level), *pieces[i + 1 :]])
    for _ in range(24):
        yield flipped(int(rng.integers(table, len(payload))))
    for _ in range(8):
        yield flipped(len(payload) - 1 - int(rng.integers(0, 4)))
    for _ in range(8):
        yield payload[: int(rng.integers(0, len(payload)))]
    yield payload[:-1]
    yield payload + rng.integers(0, 256, size=int(rng.integers(1, 8)), dtype=np.uint8).tobytes()
    for _ in range(16):
        yield flipped(int(rng.integers(0, len(payload))))


def piece_adler_flipped(payload, k, piece):
    """A payload of k pieces with a bit flipped in the Adler-32 that ends one
    of its zlib pieces."""
    pieces = [bytearray(p) for p in split_payload(payload, k)]
    pieces[piece][-1] ^= 1
    return raw_payload([bytes(p) for p in pieces])


# A frame of 2 pieces, of 262,144 and 262,146 bytes, and the cases of its
# payload that break the layout, with the error and message of the check
# that refuses each.
TWO_PIECE_SHAPE = (1, (1 << 18) + 1)
BROKEN_LAYOUTS = {
    "short": (PayloadDecodeError, "^lossless payload length mismatch$"),
    "long": (PayloadDecodeError, "^lossless payload length mismatch$"),
    "not_final": (PayloadDecodeError, "^lossless payload length mismatch$"),
    "byte_moved": (PayloadDecodeError, "^lossless payload length mismatch$"),
    "lengths_past_the_payload": (TruncatedError, "^lossless payload truncated at byte 4 "),
    "foreign_header": (PayloadDecodeError, "^corrupt lossless payload: .*incorrect header check$"),
    "foreign_stream": (TruncatedError, "^lossless payload truncated at byte 4 "),
}


def broken_layout(case: str, frame) -> bytes:
    raw = frame.astype("<u2").tobytes()
    cut = piece_sizes(frame.shape)[0]
    if case == "short":
        return raw_payload([raw_deflate(raw[: cut - 2]), raw_deflate(raw[cut - 2 :])])
    if case == "long":
        return raw_payload([raw_deflate(raw[: cut + 2]), raw_deflate(raw[cut + 2 :])])
    if case == "not_final":
        return raw_payload([raw_deflate(raw[:cut], end=zlib.Z_SYNC_FLUSH), raw_deflate(raw[cut:])])
    payload = codec_encode(frame, CodecId.RAW_LOSSLESS, qp=22, bit_depth=16)
    if case == "byte_moved":
        # Piece 0 declared a byte shorter: its last byte starts piece 1.
        length = int.from_bytes(payload[:4], "little")
        return (length - 1).to_bytes(4, "little") + payload[4:]
    if case == "lengths_past_the_payload":
        return (len(payload) - 3).to_bytes(4, "little") + payload[4:]
    if case == "foreign_header":
        pieces = split_payload(payload, 2)
        return raw_payload([pieces[0], b"\x1f\x8b" + pieces[1][2:]])  # gzip's magic on piece 1
    # One zlib stream of the whole frame, whose first 4 bytes declare a
    # piece 0 longer than the stream.
    return zlib.compress(raw)


class TestRawLossless:
    def test_roundtrip_bit_exact(self, rng):
        frame = rng.integers(0, 1024, size=(23, 31)).astype(np.uint16)
        payload = codec_encode(frame, CodecId.RAW_LOSSLESS, qp=10, bit_depth=10)
        np.testing.assert_array_equal(codec_decode(payload, CodecId.RAW_LOSSLESS, 10, frame.shape), frame)

    def test_small_frames_exhaustive_values(self):
        for v in (0, 1, 511, 1023):
            frame = np.full((1, 1), v, np.uint16)
            payload = codec_encode(frame, CodecId.RAW_LOSSLESS, qp=22, bit_depth=10)
            np.testing.assert_array_equal(codec_decode(payload, CodecId.RAW_LOSSLESS, 10, (1, 1)), frame)

    def test_truncated_payload(self, rng):
        frame = rng.integers(0, 1024, size=(8, 8)).astype(np.uint16)
        payload = codec_encode(frame, CodecId.RAW_LOSSLESS, qp=22, bit_depth=10)
        with pytest.raises((PayloadDecodeError, TruncatedError)):
            codec_decode(payload[: len(payload) // 2], CodecId.RAW_LOSSLESS, 10, frame.shape)

    def test_wrong_dims_rejected(self, rng):
        frame = rng.integers(0, 1024, size=(8, 8)).astype(np.uint16)
        payload = codec_encode(frame, CodecId.RAW_LOSSLESS, qp=22, bit_depth=10)
        with pytest.raises(PayloadDecodeError):
            codec_decode(payload, CodecId.RAW_LOSSLESS, 10, (8, 9))

    def test_a_frame_of_several_pieces_declares_their_lengths(self, rng):
        frame = ramp_frame(rng, (640, 1024))
        payload = codec_encode(frame, CodecId.RAW_LOSSLESS, qp=22, bit_depth=10)
        np.testing.assert_array_equal(codec_decode(payload, CodecId.RAW_LOSSLESS, 10, frame.shape), frame)
        # The lengths of pieces 0 and 1, then the pieces, each a whole zlib
        # stream of its share of the frame and nothing after the last.
        pieces = split_payload(payload, 3)
        assert payload == raw_payload(pieces)
        assert [zlib.decompress(piece) for piece in pieces] == frame_pieces(frame)

    @pytest.mark.parametrize(
        "samples", [codec._RAW_PIECE // 2, codec._RAW_PIECE // 2 + 1, 3 * codec._RAW_PIECE // 4, 5 * codec._RAW_PIECE // 4]
    )
    def test_the_bytes_depend_on_the_frame_alone(self, rng, monkeypatch, samples):
        frame = rng.integers(0, 1024, size=(1, samples)).astype(np.uint16)
        payload = codec_encode(frame, CodecId.RAW_LOSSLESS, qp=22, bit_depth=10)
        if frame.nbytes <= codec._RAW_PIECE:
            # One piece is exactly the one-call stream the goldens were made by.
            deflate = zlib.compressobj(6, zlib.DEFLATED, 15, 9, zlib.Z_RLE)
            assert payload == deflate.compress(frame.astype("<u2").tobytes()) + deflate.flush()
        # From 3 pieces on, a pool of one thread queues a piece behind another.
        with ThreadPoolExecutor(max_workers=1) as pool:
            monkeypatch.setattr(codec, "_PIECE_POOL", pool)
            assert codec_encode(frame, CodecId.RAW_LOSSLESS, qp=22, bit_depth=10) == payload

    @pytest.mark.parametrize("shape", [(512, 768), (640, 1024)], ids=["2_pieces", "3_pieces"])
    def test_a_frame_of_several_pieces_inflates_on_the_pool(self, rng, monkeypatch, shape):
        frame = ramp_frame(rng, shape)
        k = len(piece_sizes(shape))
        payload = codec_encode(frame, CodecId.RAW_LOSSLESS, qp=22, bit_depth=10)
        pool, sizes = spy_on_the_readers(monkeypatch)
        decoded = codec_decode(memoryview(payload), CodecId.RAW_LOSSLESS, 10, shape)
        assert (pool.jobs, sorted(sizes)) == (k - 1, sorted(piece_sizes(shape)))
        np.testing.assert_array_equal(decoded, frame)
        # A one-piece frame is read by the same reader on the calling thread,
        # and any zlib stream of one piece decodes: here zlib's default
        # header, 78 9c.
        small = frame[:8]
        foreign = zlib.compress(small.astype("<u2").tobytes())
        np.testing.assert_array_equal(codec_decode(foreign, CodecId.RAW_LOSSLESS, 10, small.shape), small)
        assert (pool.jobs, sizes[-1]) == (k - 1, small.nbytes)
        # From 3 pieces on, a pool of one thread queues a piece behind another.
        with ThreadPoolExecutor(max_workers=1) as one:
            monkeypatch.setattr(codec, "_PIECE_POOL", SpyPool(one))
            np.testing.assert_array_equal(codec_decode(payload, CodecId.RAW_LOSSLESS, 10, shape), frame)
            assert codec._PIECE_POOL.jobs == k - 1

    @pytest.mark.parametrize("size", [2, 16379], ids=["header", "table_less_a_byte"])
    def test_a_table_past_the_payload_is_refused_first(self, monkeypatch, size):
        # The unit header's shape sets k, here 4096: a table of 16,380 bytes
        # that this payload, a zlib header and zeros, cannot hold.
        shape = (1 << 15, 1 << 15)
        payload = (b"\x78\x01" + bytes(size))[:size]
        pool, sizes = spy_on_the_readers(monkeypatch)
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedError, match="^lossless payload truncated at byte 0 \\(need 16380 more\\)$"):
                codec_decode(payload, CodecId.RAW_LOSSLESS, 10, shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10, peak
        assert (pool.jobs, sizes) == (0, [])

    @pytest.mark.parametrize("case", BROKEN_LAYOUTS)
    def test_a_payload_that_breaks_the_layout_is_refused(self, rng, monkeypatch, case):
        frame = rng.integers(0, 1 << 16, size=TWO_PIECE_SHAPE).astype(np.uint16)
        payload = broken_layout(case, frame)
        assert per_piece_reference(payload, frame.shape) is None
        pool, sizes = spy_on_the_readers(monkeypatch)
        error, message = BROKEN_LAYOUTS[case]
        with pytest.raises(error, match=message):
            codec_decode(payload, CodecId.RAW_LOSSLESS, 16, frame.shape)
        # A table past the payload is refused before any piece is read, and
        # no job of a refused payload is left on the pool.
        if error is TruncatedError:
            assert (pool.jobs, sizes) == (0, [])
        assert all(job.done() for job in pool.futures)

    @pytest.mark.parametrize("piece", [0, 1], ids=["piece_0", "pool_piece"])
    def test_a_flipped_adler32_byte_is_refused(self, rng, monkeypatch, piece):
        # Each piece ends with the Adler-32 of its own bytes, which zlib
        # checks on the thread that inflates it.
        frame = ramp_frame(rng, (512, 768))
        payload = codec_encode(frame, CodecId.RAW_LOSSLESS, qp=22, bit_depth=10)
        pool, _ = spy_on_the_readers(monkeypatch)
        with pytest.raises(PayloadDecodeError, match="^corrupt lossless payload: .*incorrect data check$"):
            codec_decode(piece_adler_flipped(payload, 2, piece), CodecId.RAW_LOSSLESS, 10, frame.shape)
        assert pool.jobs == 1 and all(job.done() for job in pool.futures)

    def test_pieces_of_another_level_or_strategy_decode(self, rng):
        # zlib's default strategy at levels 1 and 9, where the encoder writes
        # level 6 under Z_RLE.
        frame = ramp_frame(rng, (512, 768))
        first, second = frame_pieces(frame)
        payload = raw_payload([raw_deflate(first, 1), raw_deflate(second, 9)])
        assert payload != codec_encode(frame, CodecId.RAW_LOSSLESS, qp=22, bit_depth=10)
        np.testing.assert_array_equal(codec_decode(payload, CodecId.RAW_LOSSLESS, 10, frame.shape), frame)

    @pytest.mark.parametrize("shape", [(512, 768), (640, 1024)], ids=["2_pieces", "3_pieces"])
    def test_mutated_payloads_read_as_the_per_piece_reference(self, shape):
        rng = np.random.default_rng(27)
        frame = ramp_frame(rng, shape)
        k = len(piece_sizes(shape))
        payload = codec_encode(frame, CodecId.RAW_LOSSLESS, qp=22, bit_depth=10)
        np.testing.assert_array_equal(per_piece_reference(payload, shape), frame)
        accepted = 0
        for case, mutated in enumerate(multi_piece_mutations(rng, payload, k)):
            want = per_piece_reference(mutated, shape)
            got = decode_outcome(mutated, shape)
            if want is None:
                assert isinstance(got, type) and issubclass(got, FcmError), (case, got)
            else:
                assert isinstance(got, np.ndarray), (case, got)
                np.testing.assert_array_equal(got, want)
                accepted += 1
        # The pieces deflated again at other levels pass every check.
        assert accepted >= 2 * k

    def test_threads_decoding_at_once_share_the_pool(self, rng):
        # More callers than cores, each waiting on its pieces in the one pool,
        # switching threads as often as the interpreter allows.
        frames = [ramp_frame(rng, (512, 768)) for _ in range(2)]
        payloads = [codec_encode(f, CodecId.RAW_LOSSLESS, qp=22, bit_depth=10) for f in frames]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as callers:
                jobs = [
                    callers.submit(codec_decode, payloads[i % 2], CodecId.RAW_LOSSLESS, 10, (512, 768)) for i in range(24)
                ]
                decoded = [job.result(timeout=60) for job in jobs]
        finally:
            sys.setswitchinterval(interval)
        for i, frame in enumerate(decoded):
            np.testing.assert_array_equal(frame, frames[i % 2])

    @pytest.mark.parametrize("samples", [100, 5 * codec._RAW_PIECE // 4])
    def test_bytes_after_the_stream_are_refused(self, rng, samples):
        frame = rng.integers(0, 1024, size=(1, samples)).astype(np.uint16)
        payload = codec_encode(frame, CodecId.RAW_LOSSLESS, qp=10, bit_depth=10)
        np.testing.assert_array_equal(codec_decode(payload, CodecId.RAW_LOSSLESS, 10, frame.shape), frame)
        with pytest.raises(PayloadDecodeError, match="^4 bytes past the end of the lossless payload$"):
            codec_decode(payload + b"junk", CodecId.RAW_LOSSLESS, 10, frame.shape)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
    # Python 3.12 on warns at every fork of a process with threads, and the
    # pool's idle threads are alive here by design.
    @pytest.mark.filterwarnings("ignore:.*use of fork\\(\\) may lead to deadlocks:DeprecationWarning")
    def test_a_forked_child_decodes_after_its_parent(self, rng):
        # The parent's pieces ran on pool threads, which a forked child does
        # not inherit; the child must still inflate a frame of several pieces.
        frame = ramp_frame(rng, (512, 768))
        payload = codec_encode(frame, CodecId.RAW_LOSSLESS, qp=22, bit_depth=10)

        def decodes() -> bool:
            return np.array_equal(codec_decode(payload, CodecId.RAW_LOSSLESS, 10, frame.shape), frame)

        assert decodes()
        child = multiprocessing.get_context("fork").Process(target=lambda: sys.exit(not decodes()))
        child.start()
        child.join(30)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
    # Python 3.12 on warns at every fork of a process with threads, and the
    # pool's idle threads are alive here by design.
    @pytest.mark.filterwarnings("ignore:.*use of fork\\(\\) may lead to deadlocks:DeprecationWarning")
    def test_a_forked_child_encodes_after_its_parent(self, rng):
        # The parent's pieces ran on pool threads, which a forked child does
        # not inherit; the child must still code a frame of several pieces.
        frame = rng.integers(0, 1024, size=(1, 5 * codec._RAW_PIECE // 4)).astype(np.uint16)
        payload = codec_encode(frame, CodecId.RAW_LOSSLESS, qp=22, bit_depth=10)
        child = multiprocessing.get_context("fork").Process(
            target=lambda: sys.exit(codec_encode(frame, CodecId.RAW_LOSSLESS, qp=22, bit_depth=10) != payload)
        )
        child.start()
        child.join(30)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


class TestBlockDct:
    def test_qstep_convention(self):
        assert qstep(4) == pytest.approx(1.0)
        assert qstep(10) == pytest.approx(2.0)
        assert qstep(16) == pytest.approx(4.0)

    def test_constant_frame_exact_at_low_qp(self):
        frame = np.full((16, 24), 700, np.uint16)
        payload = codec_encode(frame, CodecId.BLOCK_DCT, qp=0, bit_depth=10)
        np.testing.assert_array_equal(codec_decode(payload, CodecId.BLOCK_DCT, 10, frame.shape), frame)

    def test_rate_non_increasing_in_qp(self, rng):
        frames = [smooth_frame(rng) for _ in range(4)]
        qps = [4, 10, 22, 34, 40, 51]
        sizes = []
        for qp in qps:
            sizes.append(
                sum(len(codec_encode(f, CodecId.BLOCK_DCT, qp=qp, bit_depth=10)) for f in frames)
            )
        inversions = sum(1 for a, b in zip(sizes, sizes[1:]) if b > a)
        assert inversions <= 1, sizes

    def test_distortion_non_decreasing_in_qp(self, rng):
        frame = smooth_frame(rng)
        lo = codec_decode(codec_encode(frame, CodecId.BLOCK_DCT, qp=10, bit_depth=10), CodecId.BLOCK_DCT, 10, frame.shape)
        hi = codec_decode(codec_encode(frame, CodecId.BLOCK_DCT, qp=40, bit_depth=10), CodecId.BLOCK_DCT, 10, frame.shape)
        assert psnr(frame, lo, 1023) >= psnr(frame, hi, 1023)

    def test_non_multiple_of_8_dims(self, rng):
        frame = smooth_frame(rng, shape=(13, 21))
        payload = codec_encode(frame, CodecId.BLOCK_DCT, qp=4, bit_depth=10)
        out = codec_decode(payload, CodecId.BLOCK_DCT, 10, frame.shape)
        assert out.shape == frame.shape
        # qp=4 is the near-lossless floor (step 1)
        assert np.max(np.abs(out.astype(int) - frame.astype(int))) <= 4

    def test_truncated_payload(self, rng):
        frame = smooth_frame(rng, shape=(16, 16))
        payload = codec_encode(frame, CodecId.BLOCK_DCT, qp=22, bit_depth=10)
        with pytest.raises(FcmError):
            codec_decode(payload[:3], CodecId.BLOCK_DCT, 10, frame.shape)


class TestDispatch:
    def test_unknown_codec_encode(self):
        with pytest.raises(DomainError):
            codec_encode(np.zeros((4, 4), np.uint16), 99, qp=10, bit_depth=10)
        # 1.0 == True == BLOCK_DCT, but a codec id is an integer, not a bool
        with pytest.raises(DomainError, match=r"^codec id must be in \[0, 1\], got 1.0$"):
            codec_encode(np.zeros((4, 4), np.uint16), 1.0, qp=10, bit_depth=10)
        with pytest.raises(DomainError, match=r"^codec id must be in \[0, 1\], got True$"):
            codec_encode(np.zeros((4, 4), np.uint16), True, qp=10, bit_depth=10)
        with pytest.raises(DomainError, match=r"^codec id must be in \[0, 1\], got False$"):
            codec_encode(np.zeros((4, 4), np.uint16), False, qp=10, bit_depth=10)

    def test_unknown_codec_decode(self):
        # A codec id passed as an argument is a domain error; fcm_decode
        # refuses one read from a stream in UnitHeader, as an InvariantError.
        with pytest.raises(DomainError, match=r"^codec id must be in \[0, 1\], got 7$"):
            codec_decode(b"xx", 7, 10, (4, 4))
        with pytest.raises(DomainError, match=r"^codec id must be in \[0, 1\], got 1.0$"):
            codec_decode(b"xx", 1.0, 10, (4, 4))
        with pytest.raises(DomainError, match=r"^codec id must be in \[0, 1\], got True$"):
            codec_decode(b"xx", True, 10, (4, 4))

    @pytest.mark.parametrize("qp", [-1, 64])
    def test_qp_out_of_range(self, qp):
        with pytest.raises(DomainError, match="qp must be in"):
            codec_encode(np.zeros((4, 4), np.uint16), CodecId.BLOCK_DCT, qp=qp, bit_depth=10)

    @pytest.mark.parametrize("bit_depth", [7, 17])
    def test_decode_bit_depth_outside_8_to_16(self, bit_depth):
        # DCT pixels are clipped to the depth, which past 16 would wrap in uint16
        payload = codec_encode(np.zeros((4, 4), np.uint16), CodecId.BLOCK_DCT, qp=22, bit_depth=8)
        with pytest.raises(DomainError, match="bit depth must be in"):
            codec_decode(payload, CodecId.BLOCK_DCT, bit_depth, (4, 4))

    def test_samples_exceeding_bit_depth(self):
        with pytest.raises(DomainError):
            codec_encode(np.full((2, 2), 1024, np.uint16), CodecId.RAW_LOSSLESS, qp=22, bit_depth=10)

    @pytest.mark.parametrize("codec", list(CodecId))
    def test_decoded_samples_past_bit_depth(self, codec):
        # Samples coded at 16 bits, decoded as a unit that declares fewer: a
        # RAW sample past the depth is malformed, and DCT pixels are clipped
        # to it.
        frame = np.array([[1023, 1024], [0, 65535]], np.uint16)
        payload = codec_encode(frame, codec, qp=0, bit_depth=16)
        np.testing.assert_array_equal(codec_decode(payload, codec, 16, frame.shape), frame)
        for bit_depth in (8, 10):
            if codec == CodecId.RAW_LOSSLESS:
                with pytest.raises(PayloadDecodeError, match=f"exceeds bit depth {bit_depth}"):
                    codec_decode(payload, codec, bit_depth, frame.shape)
            else:
                clipped = np.minimum(frame, (1 << bit_depth) - 1)
                np.testing.assert_array_equal(codec_decode(payload, codec, bit_depth, frame.shape), clipped)
        edge = codec_encode(frame[:, :1], codec, qp=0, bit_depth=16)
        np.testing.assert_array_equal(codec_decode(edge, codec, 10, (2, 1)), frame[:, :1])


# Frames and bit depths codec_encode refuses. Before it checked them, each was
# coded: the 17-bit RAW sample decoded as 4464, the DCT -1 as 0, the float
# frame was rounded two ways, depth 300 raised a bare ValueError in the DCT
# coder, and depths 4 and 24 wrote payloads the DCT decoder refuses.
OUTSIDE_THE_DOMAIN = {
    "uint32_70000_at_depth_17": (np.full((2, 2), 70000, np.uint32), 17),
    "int32_minus_1": (np.array([[0, -1], [5, 7]], np.int32), 10),
    "float_frame": (np.full((2, 2), 3.4), 10),
    "depth_300": (np.zeros((2, 2), np.uint16), 300),
    "depth_4": (np.zeros((2, 2), np.uint16), 4),
    "depth_24": (np.zeros((2, 2), np.uint16), 24),
    "empty_frame": (np.zeros((0, 4), np.uint16), 10),
    "bool_frame": (np.ones((2, 2), bool), 10),
    "three_d_frame": (np.zeros((2, 2, 2), np.uint16), 10),
}


@pytest.mark.parametrize("codec", list(CodecId), ids=[c.name for c in CodecId])
@pytest.mark.parametrize("frame,bit_depth", OUTSIDE_THE_DOMAIN.values(), ids=OUTSIDE_THE_DOMAIN)
def test_encode_refuses_frames_outside_its_domain(codec, frame, bit_depth):
    with pytest.raises(DomainError):
        codec_encode(frame, codec, qp=22, bit_depth=bit_depth)


# Declared shapes codec_decode refuses before it reads the payload. The last
# two once raised a bare ValueError as they were unpacked into (h, w).
NOT_A_FRAME_SHAPE = {"no_rows": (0, 4), "no_columns": (4, 0), "negative": (-1, 4), "1-d": (16,), "3-d": (2, 2, 4)}


@pytest.mark.parametrize("codec", list(CodecId), ids=[c.name for c in CodecId])
@pytest.mark.parametrize("shape", NOT_A_FRAME_SHAPE.values(), ids=NOT_A_FRAME_SHAPE)
def test_decode_refuses_a_shape_that_is_not_a_non_empty_2d_frame(codec, shape):
    payload = codec_encode(np.zeros((4, 4), np.uint16), codec, qp=22, bit_depth=10)
    with pytest.raises(DomainError, match=r"^expected a non-empty 2-d frame, got shape \("):
        codec_decode(payload, codec, 10, shape)


# Declared dimensions that are not integers. They once ended in a bare
# TypeError from numpy's reshape, or a struct.error (RAW_LOSSLESS at (1.0, 1)).
NOT_INTEGER_DIMENSIONS = {"bools": (True, True), "float_rows": (1.0, 1), "float_columns": (1, 1.0)}


@pytest.mark.parametrize("codec", list(CodecId), ids=[c.name for c in CodecId])
@pytest.mark.parametrize("shape", NOT_INTEGER_DIMENSIONS.values(), ids=NOT_INTEGER_DIMENSIONS)
def test_decode_refuses_dimensions_that_are_not_integers(codec, shape):
    payload = codec_encode(np.zeros((1, 1), np.uint16), codec, qp=22, bit_depth=8)
    with pytest.raises(DomainError, match=r"^frame dimension must be an integer, got "):
        codec_decode(payload, codec, 8, shape)


@pytest.mark.parametrize("codec", list(CodecId), ids=[c.name for c in CodecId])
@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_decode_takes_numpy_integer_dimensions(codec, dtype):
    frame = np.arange(60, dtype=np.uint16).reshape(6, 10)
    payload = codec_encode(frame, codec, qp=0, bit_depth=8)
    out = codec_decode(payload, codec, 8, (dtype(6), dtype(10)))
    np.testing.assert_array_equal(out, codec_decode(payload, codec, 8, (6, 10)))
    assert out.shape == (6, 10)


@pytest.mark.parametrize("codec", list(CodecId), ids=[c.name for c in CodecId])
@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32, np.uint8])
def test_any_integer_dtype_within_depth_codes_like_uint16(codec, dtype):
    frame = np.array([[0, 1, 200], [255, 17, 3]], np.uint16)
    expected = codec_encode(frame, codec, qp=4, bit_depth=8)
    assert codec_encode(frame.astype(dtype), codec, qp=4, bit_depth=8) == expected


# A bit depth or qp that is not an integer is refused by the codec's one rule
# for it, under both codecs. Before, 10.0 and 22.5 reached the coders, which
# raised a bare TypeError, or in RAW_LOSSLESS's case took the qp unread; a
# bool qp was coded as qp 0 or 1.
NOT_INTEGERS = {
    "bit_depth_10.0": ({"bit_depth": 10.0}, r"^bit depth must be in \[8, 16\], got 10.0$"),
    "qp_22.5": ({"qp": 22.5}, r"^qp must be in \[0, 63\], got 22.5$"),
    "qp_True": ({"qp": True}, r"^qp must be in \[0, 63\], got True$"),
    "qp_False": ({"qp": False}, r"^qp must be in \[0, 63\], got False$"),
}


@pytest.mark.parametrize("codec", list(CodecId), ids=[c.name for c in CodecId])
@pytest.mark.parametrize("kwargs,message", NOT_INTEGERS.values(), ids=NOT_INTEGERS)
def test_encode_refuses_a_bit_depth_or_qp_that_is_not_an_integer(codec, kwargs, message):
    with pytest.raises(DomainError, match=message):
        codec_encode(np.zeros((4, 4), np.uint16), codec, **{"qp": 22, "bit_depth": 10, **kwargs})


@pytest.mark.parametrize("codec", list(CodecId), ids=[c.name for c in CodecId])
def test_decode_refuses_a_bit_depth_that_is_not_an_integer(codec):
    payload = codec_encode(np.zeros((4, 4), np.uint16), codec, qp=22, bit_depth=10)
    with pytest.raises(DomainError, match=r"^bit depth must be in \[8, 16\], got 10.0$"):
        codec_decode(payload, codec, 10.0, (4, 4))


@pytest.mark.parametrize("codec", list(CodecId), ids=[c.name for c in CodecId])
def test_numpy_integer_bit_depth_and_qp_code_like_ints(codec):
    # qp 2 as a uint8 once went into qstep as (qp - 4), which wraps in uint8.
    frame = np.array([[0, 1, 200], [4095, 17, 3]], np.uint16)
    expected = codec_encode(frame, codec, qp=2, bit_depth=12)
    payload = codec_encode(frame, codec, qp=np.uint8(2), bit_depth=np.int64(12))
    assert payload == expected
    decoded = codec_decode(payload, codec, np.uint8(12), frame.shape)
    np.testing.assert_array_equal(decoded, codec_decode(payload, codec, 12, frame.shape))
