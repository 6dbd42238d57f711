"""Pluggable inner frame codec with two built-ins.

RAW_LOSSLESS stores samples as little-endian u16 in one deflate stream
(scheme id 0) and decodes bit-exactly. The encoder uses zlib's run-length
strategy (Z_RLE), which on packed feature frames is both smaller and several
times faster than the default strategy; the decoder reads any deflate
stream, so streams from other strategies and levels decode too. BLOCK_DCT
is a lossy intra codec: 8x8 orthonormal DCT, uniform scalar quantization with
qstep(qp) = 2^((qp-4)/6) and zigzag scan. Each block is coded as its count of
nonzero coefficients followed by one (run, level) pair per coefficient, every
symbol an order-0 exp-Golomb (ue) codeword as in ITU-T H.264 9.1: v+1 in
binary behind bit_length(v+1) - 1 zero bits, MSB-first.

The ue coder is vectorized with numpy. The encoder gathers the symbols of a
slice of blocks at a time and ORs each codeword into big-endian 64-bit words
at its cumulative bit offset. The decoder reads the payload as one flat
sequence of ue codewords: a loop hops through it with a 16-bit window table
that covers every whole codeword in the window at once, and sizes a longer
codeword from its zero prefix in one step. numpy then reads every value at
its recorded offset, a walk over the block counts finds where each block
starts, and one scatter writes all coefficients. Decoding stays as lazy as a
sequential reader: a corrupt or truncated codeword raises only if some block
needs it.
"""

from __future__ import annotations

import zlib
from array import array
from enum import IntEnum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dctn, idctn

from .conversion import _round_half_away
from .errors import DomainError, FormatError, PayloadDecodeError, TruncatedError

BLOCK = 8
_COEFFS = BLOCK * BLOCK

# Longest accepted ue zero prefix; a longer one is corruption, not a
# 2^64-scale value.
_MAX_UE_PREFIX = 64

# Blocks per encoder slice. A block has at most 129 symbols, and the writer
# holds about 90 bytes per symbol, so a slice needs at most about 1.5 MB.
_SLICE_BLOCKS = 128

# Scan marks per chunk of the decoder's value read (each covers up to 16
# codewords).
_CHUNK_MARKS = 1 << 12

# deflate memLevel of RAW_LOSSLESS. With the run-length strategy it sets the
# block size: on the perfbench pyramid frames 9 codes 0.3% fewer bits than 8
# at the same speed. That strategy writes the same bytes at levels 1-9.
_RAW_MEM_LEVEL = 9


class CodecId(IntEnum):
    RAW_LOSSLESS = 0
    BLOCK_DCT = 1


def qstep(qp: int) -> float:
    """Quantization step; doubles every 6 qp, equal to 1 at qp=4."""
    return 2.0 ** ((qp - 4) / 6.0)


def _zigzag_order(n: int = BLOCK) -> np.ndarray:
    coords = sorted(
        ((r, c) for r in range(n) for c in range(n)),
        key=lambda rc: (rc[0] + rc[1], rc[1] if (rc[0] + rc[1]) % 2 else rc[0]),
    )
    flat = [r * n + c for r, c in coords]
    return np.asarray(flat, dtype=np.int64)


ZIGZAG = _zigzag_order()


def _to_blocks(frame: np.ndarray) -> np.ndarray:
    """Pad by edge replication to block multiples and split into 8x8 blocks."""
    h, w = frame.shape
    ph = (-h) % BLOCK
    pw = (-w) % BLOCK
    padded = np.pad(frame, ((0, ph), (0, pw)), mode="edge")
    hb, wb = padded.shape[0] // BLOCK, padded.shape[1] // BLOCK
    return padded.reshape(hb, BLOCK, wb, BLOCK).transpose(0, 2, 1, 3)


def _from_blocks(blocks: np.ndarray, h: int, w: int) -> np.ndarray:
    hb, wb = blocks.shape[:2]
    frame = blocks.transpose(0, 2, 1, 3).reshape(hb * BLOCK, wb * BLOCK)
    return frame[:h, :w]


def _encode_raw(frame: np.ndarray) -> bytes:
    deflate = zlib.compressobj(6, zlib.DEFLATED, 15, _RAW_MEM_LEVEL, zlib.Z_RLE)
    return bytes([0]) + deflate.compress(np.ascontiguousarray(frame, dtype="<u2")) + deflate.flush()


def _decode_raw(data: bytes, shape: tuple[int, int]) -> np.ndarray:
    if not data:
        raise TruncatedError("empty lossless payload")
    if data[0] != 0:
        raise PayloadDecodeError(f"unknown byte-compression scheme {data[0]}")
    expected = shape[0] * shape[1] * 2
    d = zlib.decompressobj()
    try:
        raw = d.decompress(data[1:], expected + 1)
    except zlib.error as exc:
        raise PayloadDecodeError(f"corrupt lossless payload: {exc}") from exc
    if len(raw) != expected or d.unconsumed_tail or not d.eof:
        raise PayloadDecodeError("lossless payload length mismatch")
    return np.frombuffer(raw, dtype="<u2").reshape(shape).astype(np.uint16)


def _window_tables() -> tuple[list[int], np.ndarray]:
    """Greedy ue parse of every 16-bit window, MSB first.

    Returns, per window: the bits taken by the whole codewords at its front
    (0 when the first codeword is longer than 16 bits), and a mask with bit k
    set where one of them starts k bits in. Built from the same tables for
    every shorter window, at index 2^n + x for the n-bit x.
    """
    taken = np.zeros(1 << 17, dtype=np.int32)
    mask = np.zeros_like(taken)
    for n in range(1, 17):
        x = np.arange(1 << n, dtype=np.int32)
        _, bit_length = np.frexp(x.astype(np.float32))
        size = 2 * (n - bit_length) + 1
        fits = (x != 0) & (size <= n)
        left = np.where(fits, n - size, 0)
        rest = (1 << left) + (x & ((1 << left) - 1))  # the window after it
        at = (1 << n) + x
        taken[at] = np.where(fits, size + taken[rest], 0)
        mask[at] = np.where(fits, 1 | (mask[rest] << size), 0)
    top = slice(1 << 16, None)
    return taken[top].tolist(), mask[top].astype(np.uint16)


_TAKEN, _MASK = _window_tables()
_OFFSETS = np.arange(16, dtype=np.uint16)


def _block_symbols(levels: np.ndarray) -> np.ndarray:
    """ue symbols of blocks of zigzag-ordered levels, in stream order."""
    rows, cols = np.nonzero(levels)
    counts = np.bincount(rows, minlength=len(levels))
    first = np.cumsum(counts) - counts  # index of each block's first pair
    prev = np.roll(cols, 1)
    prev[first[counts > 0]] = -1
    lev = levels[rows, cols].astype(np.int64)
    out = np.empty(len(levels) + 2 * len(rows), dtype=np.uint64)
    out[np.arange(len(levels)) + 2 * first] = counts
    run_at = rows + 2 * np.arange(len(rows)) + 1
    out[run_at] = cols - prev - 1
    out[run_at + 1] = 2 * np.abs(lev) - (lev > 0)
    return out


class _UeWriter:
    """ue codewords packed MSB-first into big-endian 64-bit words."""

    def __init__(self):
        self._buf = bytearray()
        self._last = 0  # the partly filled last word
        self._used = 0  # bits of it in use

    def write(self, symbols: np.ndarray) -> None:
        v = symbols + np.uint64(1)
        _, nbits = np.frexp(v.astype(np.float64))  # bit_length(v)
        # A codeword is nbits - 1 zeros then the nbits of v, so only v is
        # placed: it ends where the codeword ends.
        ends = np.cumsum(2 * nbits - 1, dtype=np.int64) + self._used
        total = int(ends[-1])
        start = ends - nbits
        word = start >> 6
        shift = 64 - (start & 63) - nbits  # negative: v runs into the next word
        fits = shift >= 0
        amount = np.abs(shift).astype(np.uint64)
        part = np.where(fits, v << amount, v >> amount)
        words = np.zeros((total >> 6) + 1, dtype=np.uint64)
        words[0] = self._last
        heads = np.flatnonzero(np.diff(word, prepend=-1))
        words[word[heads]] |= np.bitwise_or.reduceat(part, heads)
        spill = ~fits
        words[word[spill] + 1] |= v[spill] << (np.uint64(64) - amount[spill])
        full = total >> 6
        self._buf += words[:full].astype(">u8").tobytes()
        self._last = int(words[full])
        self._used = total & 63

    def getvalue(self) -> bytes:
        return bytes(self._buf) + self._last.to_bytes(8, "big")[: (self._used + 7) >> 3]


def _encode_dct(frame: np.ndarray, qp: int, bit_depth: int) -> bytes:
    coeffs = dctn(_to_blocks(frame.astype(np.float64)), type=2, norm="ortho", axes=(-2, -1))
    coeffs /= qstep(qp)
    levels = _round_half_away(coeffs).reshape(-1, _COEFFS)
    writer = _UeWriter()
    for s in range(0, len(levels), _SLICE_BLOCKS):
        writer.write(_block_symbols(levels[s : s + _SLICE_BLOCKS][:, ZIGZAG].astype(np.int32)))
    return bytes([bit_depth]) + writer.getvalue()


def _ue_read(body: bytes, pos: int, nbits: int) -> tuple[int, int]:
    """(length, value) of the codeword at bit pos, in O(1) big-int steps.

    Raises what a bit-serial reader would: PayloadDecodeError once more than
    _MAX_UE_PREFIX zeros are seen, TruncatedError when the bits run out first.
    """
    avail = min(nbits - pos, 2 * _MAX_UE_PREFIX + 1)
    chunk = body[pos >> 3 : (pos >> 3) + 18]
    x = (int.from_bytes(chunk, "big") >> (8 * len(chunk) - (pos & 7) - avail)) & ((1 << avail) - 1)
    zeros = avail - x.bit_length()
    if zeros > _MAX_UE_PREFIX:
        raise PayloadDecodeError("exp-Golomb prefix too long")
    size = 2 * zeros + 1
    if size > avail:
        raise TruncatedError("bitstream exhausted")
    return size, (x >> (avail - size)) - 1


def _be_words(body: bytes, dtype: str) -> np.ndarray:
    """The big-endian word starting at each byte of body, zero past its end."""
    size = np.dtype(dtype).itemsize
    padded = np.frombuffer(body + bytes(size - 1), dtype=np.uint8)
    return sliding_window_view(padded, size).view(dtype)[:, 0]


def _ue_scan(body: bytes) -> tuple[np.ndarray, FormatError]:
    """Bit offsets of the leading ue codewords of body, and the error past them.

    An entry 2*pos marks a 16-bit window at pos whose whole codewords _MASK
    lists; 2*pos + 1 marks one codeword at pos. The error is what a bit-serial
    reader raises at the first codeword after the marked ones.
    """
    nbits = 8 * len(body)
    windows = memoryview(_be_words(body, ">u4").astype(np.uint32))
    taken = _TAKEN
    marks = array("q")
    mark = marks.append
    pos = 0
    last = nbits - 16
    while True:
        while pos <= last:
            word = windows[pos >> 3]
            step = taken[(word >> (16 - (pos & 7))) & 0xFFFF]
            if step:
                mark(pos << 1)
                pos += step
                continue
            # A longer codeword whose 1 bit lies in the same 32-bit word.
            rest = word & (0xFFFFFFFF >> (pos & 7))
            step = 2 * (32 - (pos & 7) - rest.bit_length()) + 1
            if not rest or pos + step > nbits:
                break
            mark(pos << 1 | 1)
            pos += step
        if pos == nbits:
            return np.frombuffer(marks, dtype=np.int64), TruncatedError("bitstream exhausted")
        try:
            size, _ = _ue_read(body, pos, nbits)
        except FormatError as exc:
            # Without its traceback the error pins no frame of this decode.
            return np.frombuffer(marks, dtype=np.int64), exc.with_traceback(None)
        mark(pos << 1 | 1)
        pos += size


def _ue_values(body: bytes) -> tuple[np.ndarray, FormatError]:
    """Values of the leading ue codewords of body, and the error past them.

    The values are int32, or an object array of exact ints if a corrupt
    payload holds a value past int32.
    """
    marks, err = _ue_scan(body)
    nbits = 8 * len(body)
    be64 = _be_words(body, ">u8")

    def window(pos):  # 64 bits from each pos, the first at the top
        return be64[pos >> 3].astype(np.uint64) << (pos & 7).astype(np.uint64)

    chunks = [np.empty(0, dtype=np.int32)]
    for s in range(0, len(marks), _CHUNK_MARKS):
        part = marks[s : s + _CHUNK_MARKS]
        pos = part >> 1
        heads = _MASK[(window(pos) >> np.uint64(48)).astype(np.intp)]
        masks = np.where(part & 1, np.uint16(1), heads)
        rows, offsets = np.nonzero((masks[:, None] >> _OFFSETS) & 1)
        starts = pos[rows] + offsets
        x = window(starts)
        _, top = np.frexp((x >> np.uint64(32)).astype(np.float64))
        zeros = 32 - top
        # Up to 28 zeros the codeword lies inside the 57 bits x surely holds.
        short = zeros <= 28
        values = ((x >> np.where(short, 63 - 2 * zeros, 0).astype(np.uint64)) - np.uint64(1)).astype(np.int32)
        longer = np.flatnonzero(~short)
        if len(longer):
            exact = [_ue_read(body, int(starts[i]), nbits)[1] for i in longer]
            if max(exact) > np.iinfo(np.int32).max:
                values = values.astype(object)
            values[longer] = exact
        chunks.append(values)
    return np.concatenate(chunks), err


def _raise_in_block(symbols: list[int], err: FormatError):
    """Raise what a sequential reader raises in the block whose count is symbols[0].

    symbols ends where decoding stopped; err is what reading past it raises.
    """
    nsym = len(symbols)
    if nsym == 0:
        raise err
    count = symbols[0]
    if count > _COEFFS:
        raise PayloadDecodeError(f"block coefficient count {count} > 64")
    pos = -1
    for k in range(1, 1 + 2 * count, 2):
        if k >= nsym:
            raise err
        pos += symbols[k] + 1
        if pos >= _COEFFS:
            raise PayloadDecodeError("coefficient position past end of block")
        if k + 1 >= nsym:
            raise err
        if symbols[k + 1] == 0:
            raise PayloadDecodeError("zero level in run-level pair")
    raise err


def _scatter_blocks(symbols: np.ndarray, err: FormatError, nblocks: int, step: float) -> np.ndarray:
    """Dequantized coefficients of nblocks blocks, (nblocks, 64) in raster order.

    Frees symbols once the pairs are out, if the caller holds no reference.
    """
    seq = memoryview(symbols) if symbols.dtype == np.int32 else symbols
    nsym = len(symbols)
    counts = []
    j = 0
    for _ in range(nblocks):
        if j >= nsym:
            break
        count = seq[j]
        if count > _COEFFS or j + 2 * count >= nsym:
            break
        counts.append(count)
        j += 1 + 2 * count
    # The block the walk stopped in fails; keep the symbols it can reach.
    stop = symbols[j : j + 2 * _COEFFS + 1].tolist() if len(counts) < nblocks else None

    counts = np.asarray(counts, dtype=np.int64)
    is_pair = np.ones(j, dtype=bool)
    is_pair[np.cumsum(2 * counts + 1) - (2 * counts + 1)] = False
    pairs = symbols[:j][is_pair]
    del seq, symbols, is_pair
    runs, levels = pairs[0::2], pairs[1::2]

    # Zigzag position of each coefficient in its block. Clipping runs at 64
    # bounds the sums and leaves a position past the end still past it.
    steps = np.minimum(runs, _COEFFS) + 1
    pos = np.cumsum(steps, dtype=np.int64)
    del steps
    block = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts  # each block's first pair
    base = np.zeros(len(counts), dtype=np.int64)
    base[first > 0] = pos[first[first > 0] - 1]
    pos -= base[block]
    pos -= 1
    bad = (pos >= _COEFFS) | (levels == 0)
    if bad.any():
        k = int(bad.argmax())
        if pos[k] >= _COEFFS:
            raise PayloadDecodeError("coefficient position past end of block")
        raise PayloadDecodeError("zero level in run-level pair")
    if stop is not None:
        _raise_in_block(stop, err)

    # m -> (m + 1) / 2 for odd m, -m / 2 for even m
    signed = (levels + 1) >> 1
    np.negative(signed, out=signed, where=(levels & 1) == 0)
    del pairs, runs, levels
    values = signed.astype(np.float64)
    values *= step
    del signed
    index = ZIGZAG[pos]
    del pos
    index += block * _COEFFS
    coeffs = np.zeros((nblocks, _COEFFS))
    coeffs.reshape(-1)[index] = values
    return coeffs


def _decode_dct(data: bytes, qp: int, shape: tuple[int, int]) -> np.ndarray:
    if not data:
        raise TruncatedError("empty transform payload")
    bit_depth = data[0]
    if not 8 <= bit_depth <= 16:
        raise PayloadDecodeError(f"bad bit depth {bit_depth} in payload")
    h, w = shape
    hb = -(-h // BLOCK)
    wb = -(-w // BLOCK)
    body = data[1:]
    # Every block costs at least one bit: refuse before sizing anything.
    if hb * wb > 8 * len(body):
        raise TruncatedError(f"{hb * wb} blocks cannot fit in {8 * len(body)} payload bits")
    coeffs = _scatter_blocks(*_ue_values(body), hb * wb, qstep(qp))
    pixels = idctn(coeffs.reshape(hb, wb, BLOCK, BLOCK), type=2, norm="ortho", axes=(-2, -1))
    del coeffs
    # floor(x + 0.5) rounds half away from zero wherever clip keeps the value.
    frame = _from_blocks(pixels, h, w)
    frame += 0.5
    np.floor(frame, out=frame)
    np.clip(frame, 0, (1 << bit_depth) - 1, out=frame)
    return frame.astype(np.uint16)


def codec_encode(frame: np.ndarray, codec: CodecId, qp: int = 22, bit_depth: int = 10) -> bytes:
    """Compress one integer frame."""
    frame = np.asarray(frame)
    if frame.ndim != 2:
        raise DomainError("expected a 2-d integer frame")
    if not 0 <= qp <= 63:
        raise DomainError(f"qp must be in [0, 63], got {qp}")
    if frame.max(initial=0) >= (1 << bit_depth):
        raise DomainError(f"samples exceed declared bit depth {bit_depth}")
    if codec == CodecId.RAW_LOSSLESS:
        return _encode_raw(frame)
    if codec == CodecId.BLOCK_DCT:
        return _encode_dct(frame, qp, bit_depth)
    raise DomainError(f"no codec registered for id {codec}")


def codec_decode(data: bytes, codec: int, qp: int, bit_depth: int, shape: tuple[int, int]) -> np.ndarray:
    """Decompress to exactly shape with samples below 2^bit_depth, or raise a
    classified error."""
    h, w = shape
    if h < 1 or w < 1:
        raise DomainError("expected dimensions must be positive")
    if not 0 <= qp <= 63:
        raise DomainError(f"qp must be in [0, 63], got {qp}")
    if codec == CodecId.RAW_LOSSLESS:
        frame = _decode_raw(data, (h, w))
    elif codec == CodecId.BLOCK_DCT:
        frame = _decode_dct(data, qp, (h, w))
    else:
        raise PayloadDecodeError(f"no codec registered for id {codec}")
    # A RAW sample, or a DCT payload whose depth byte is wider than the unit's.
    if frame.max() >= (1 << bit_depth):
        raise PayloadDecodeError(f"decoded sample exceeds bit depth {bit_depth}")
    return frame
