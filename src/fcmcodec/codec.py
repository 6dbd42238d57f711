"""The inner frame codecs: RAW_LOSSLESS and BLOCK_DCT.

RAW_LOSSLESS stores samples as little-endian u16 in one deflate stream, which
is the whole payload, and decodes bit-exactly. The encoder uses zlib's
run-length strategy (Z_RLE), which on packed feature frames is both smaller
and several times faster than the default strategy; the decoder reads any
deflate stream, so streams from other strategies and levels decode too.

BLOCK_DCT is a lossy intra codec: 8x8 orthonormal DCT, uniform scalar
quantization with qstep(qp) = 2^((qp-4)/6) and zigzag scan. A block is
described by its count of nonzero coefficients and one (run, level) pair per
coefficient. Every symbol v is an order-0 exp-Golomb (ue) codeword as in
ITU-T H.264 9.1: z = bit_length(v+1) - 1 zero bits, then v+1 in z+1 bits.

The payload is the qp byte (0-63), then two ue sequences: the counts of all
blocks in raster order, then the 2 * sum(counts) run and level symbols of all
blocks in the same order. Each sequence is split into two planes, MSB-first:
its prefix plane holds, per codeword, the z zeros and the leading 1 of v+1;
its suffix plane, right after it, holds the low z bits of each v+1. The four
planes are bit-contiguous and zero bits pad the last byte. The codewords are
those of one plain ue stream, so the payload is exactly as long.

A decoder refuses:
- a qp byte over 63 (PayloadDecodeError);
- a prefix of more than 24 zeros (PayloadDecodeError), so every value fits
  int32; valid 16-bit levels at qp 0 need at most 20;
- fewer payload bits than blocks, or than the pair symbols the counts
  declare (TruncatedError), before it sizes any array by that number;
- a payload that ends inside a codeword (TruncatedError);
- a count over 64, a coefficient position past the block or a zero level
  (PayloadDecodeError);
- a whole byte past the last codeword, or a nonzero padding bit
  (PayloadDecodeError).

Decoding needs no loop per codeword or per block. unpackbits and flatnonzero
find every prefix's 1, hence every codeword's length; a cumsum gives every
suffix's bit offset; a 32-bit gather reads every value; a cumsum over the
counts places the pairs in their blocks, and one scatter writes the
coefficients at their zigzag positions. The inverse DCT is one product with
a fixed 64x64 matrix, as the H.26x standards define it: row z of the basis
kron(D, D)[ZIGZAG], for the 8-point DCT-II matrix D, is the block of the unit
coefficient at zigzag position z. The decoder first scans every prefix into
one byte per codeword and runs every truncation and padding check, then
decodes a slice of block rows at a time: it reads the slice's values,
scatters them and writes the slice's inverse DCT into the frame. The prefix
scan and the value read run in bounded chunks, and a slice holds a bounded
number of pairs and of blocks, so beyond the frame and a byte per codeword,
the scratch memory does not grow with the payload or the frame. The pixels
are clipped to the bit depth the caller passes, the unit header's.

The forward DCT is one product with the same basis: raster blocks times its
transpose are their coefficients, already in zigzag order. The encoder
transforms a chunk of 512 blocks at a time, whole block rows or part of one
row wider than that, in two reused float64 buffers, and rounds each chunk's
coefficients over qstep into one int32 array of levels: half away from zero,
where a value at most 2^-20 below k + 1/2 counts as k + 1/2. The band is
for exact ties. At zigzag positions 0, 10, 14 and 39 every basis entry is
+-1/8, so where qstep is a power of two an integer block often lands on
k + 1/2 exactly, and the product's rounding error, which depends on the
order BLAS sums in, puts it a few ulps to either side. With the band every
such tie rounds away from zero, on any BLAS kernel and under scipy's FFT
alike. The encoder then codes the pairs of a slice of blocks at a time; a
slice ends at about 2^13 pairs. frexp splits each symbol's v + 1 into its
codeword width and its suffix. One cumsum of the widths gives every prefix's
end, and every suffix's end is that less the count of codewords so far.
packbits writes the prefixes' 1 bits. Every suffix, scaled to its place in a
51-bit window that starts at its 32-bit word, is summed per word by
np.bincount in float64: the fields are disjoint, so the sum is their OR, and
exact. codec_encode admits samples below 2^16 only, so no suffix is wider
than 20 bits and a window holds each one. The pair suffixes wait in a second
writer until the last slice.
"""

from __future__ import annotations

import zlib
from enum import IntEnum

import numpy as np

from .errors import DomainError, PayloadDecodeError, TruncatedError
from .tensor import _CHUNK

BLOCK = 8
_COEFFS = BLOCK * BLOCK

# A level at most this far below k + 1/2 rounds as k + 1/2 does; see above.
_TIE = 2.0**-20

# Longest accepted ue zero prefix, so every value fits int32.
_MAX_UE_PREFIX = 24

# Pairs per encoder slice. Writing a pair holds about 75 bytes of scratch, so
# a slice needs about 0.6 MB. A slice also costs about 0.1 ms of numpy call
# overhead: at 2^13 rather than 2^14 pairs the perfbench dense_dct16 frames
# encoded about 6% slower in-process.
_SLICE_PAIRS = 1 << 13

# Words per chunk when one bit writer takes another's bits.
_EXTEND_WORDS = 1 << 14

# Payload bytes per chunk of the decoder's prefix scan, and codewords per
# chunk of its value read: their scratch stays under about 0.6 MB.
_SCAN_BYTES = 1 << 13
_READ_CODEWORDS = 1 << 14

# Pairs and blocks per decoder slice, of whole block rows. A slice holds about
# 32 bytes of scratch per pair and 1 KB per block. At 2^15 pairs the perfbench
# dense_dct16 frames decoded no faster and peaked 0.2 MB higher; the block
# bound binds on sparse frames only.
_DECODE_SLICE_PAIRS = 1 << 14
_DECODE_SLICE_BLOCKS = 1 << 11

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


def _inverse_basis() -> np.ndarray:
    """Row z is the 8x8 block, in raster order, of the unit coefficient at
    zigzag position z under the orthonormal 2-D DCT: kron(D, D)[ZIGZAG] for
    the 8-point DCT-II matrix D."""
    k = np.arange(BLOCK)
    d = np.cos(np.pi / (2 * BLOCK) * np.outer(k, 2 * k + 1)) * np.sqrt(2 / BLOCK)
    d[0] = np.sqrt(1 / BLOCK)
    return np.kron(d, d)[ZIGZAG]


_BASIS = _inverse_basis()
_FORWARD = np.ascontiguousarray(_BASIS.T)


def dctn(blocks: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The zigzag-ordered coefficients, (n, 64), of the orthonormal DCT of
    8x8 blocks in raster order, (n, 64): one product with the basis's
    transpose, written to out if given."""
    return np.matmul(blocks, _FORWARD, out=out)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    """Round the float array x to the codec's levels in place; returns x.

    Half away from zero, where a value at most _TIE below k + 1/2 counts as
    k + 1/2. 1/2 + _TIE is exact in float32.
    """
    x += np.copysign(0.5 + _TIE, x, dtype=np.float32)
    np.trunc(x, out=x)
    return x


def idctn(coeffs: np.ndarray) -> np.ndarray:
    """The 8x8 blocks, (n, 64) in raster order, of the orthonormal inverse DCT
    of blocks of zigzag-ordered coefficients, (n, 64): one product with the
    basis."""
    return coeffs @ _BASIS


def _to_blocks(frame: np.ndarray) -> np.ndarray:
    """Pad by edge replication to block multiples and split into 8x8 blocks."""
    h, w = frame.shape
    ph = (-h) % BLOCK
    pw = (-w) % BLOCK
    if ph or pw:
        frame = np.pad(frame, ((0, ph), (0, pw)), mode="edge")
    hb, wb = frame.shape[0] // BLOCK, frame.shape[1] // BLOCK
    return frame.reshape(hb, BLOCK, wb, BLOCK).transpose(0, 2, 1, 3)


def _from_blocks(blocks: np.ndarray, h: int, w: int) -> np.ndarray:
    hb, wb = blocks.shape[:2]
    frame = blocks.transpose(0, 2, 1, 3).reshape(hb * BLOCK, wb * BLOCK)
    return frame[:h, :w]


def _encode_raw(frame: np.ndarray) -> bytes:
    deflate = zlib.compressobj(6, zlib.DEFLATED, 15, _RAW_MEM_LEVEL, zlib.Z_RLE)
    return deflate.compress(np.ascontiguousarray(frame, dtype="<u2")) + deflate.flush()


def _decode_raw(data: bytes, shape: tuple[int, int]) -> np.ndarray:
    if not data:
        raise TruncatedError("empty lossless payload")
    expected = shape[0] * shape[1] * 2
    d = zlib.decompressobj()
    try:
        raw = d.decompress(data, expected + 1)
    except zlib.error as exc:
        raise PayloadDecodeError(f"corrupt lossless payload: {exc}") from exc
    if len(raw) != expected or d.unconsumed_tail or not d.eof:
        raise PayloadDecodeError("lossless payload length mismatch")
    return np.frombuffer(raw, dtype="<u2").reshape(shape)


def _pair_symbols(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The run and the level symbols of the (run, level) pairs of blocks of
    zigzag-ordered int32 levels, pair by pair in stream order."""
    at = np.flatnonzero(levels)
    level = levels.reshape(-1)[at]
    # A block's first run counts from its start, at & 63 positions in.
    run = np.empty_like(at)
    run[:1] = at[:1]
    np.subtract(at[1:], at[:-1], out=run[1:])
    run[1:] -= 1
    at &= _COEFFS - 1
    np.minimum(run, at, out=run)
    # 2|l| - 1 for l > 0, 2|l| for l < 0
    code = np.abs(level)
    code += code
    code -= level > 0
    return run, code


class _BitWriter:
    """Bits packed MSB-first into big-endian 32-bit words."""

    def __init__(self):
        self._buf = bytearray()
        self._last = 0  # the partly filled last word
        self._used = 0  # bits of it in use

    def _append(self, words: np.ndarray, total: int) -> None:
        """Take words, which hold total bits from the start of the last word
        on; the last word's bits are OR-ed into words[0]."""
        words[0] |= self._last
        full = total >> 5
        self._buf += words[:full].astype(">u4").tobytes()
        self._last = int(words[full])
        self._used = total & 31

    def _write_fields(self, fields: list[tuple[np.ndarray, np.ndarray]], total: int) -> None:
        """Append total bits, counted from the start of the last word, that
        hold disjoint bit fields of at most 20 bits. Each pair of arrays
        gives fields by their start bits and their values over 2^(w + 1) for
        a w-bit field; both arrays are overwritten.

        A field that starts at bit k of word j lies within the 51 bits from
        word j on, its window; scaled by 2^(52 - k), its value sits at its
        place there. bincount sums the windows of each word in float64: the
        fields are disjoint, so the sum is their OR and is exact. A window's
        top 32 bits are its word, the other 19 start the next word.
        """
        windows = np.zeros((total >> 5) + 1)
        for start, value in fields:
            shift = (start & 31).astype(np.int32)  # ldexp is slow on int64
            np.negative(shift, out=shift)
            np.ldexp(value, shift, out=value)
            start >>= 5
            windows += np.bincount(start, value, minlength=len(windows))
        windows = np.ldexp(windows, 52).astype(np.uint64)
        words = windows >> 19
        words[1:] |= (windows[:-1] & 0x7FFFF) << 13
        self._append(words, total)

    def write_ue(self, suffixes: "_BitWriter", *columns: np.ndarray) -> None:
        """Append the ue codewords of the symbols of the columns, row by row:
        their prefixes here and their suffixes to suffixes. Every symbol is a
        non-negative int below 2^21 - 1."""
        rows = len(columns[0])
        if not rows:
            return
        # v + 1 = mant * 2^width: width is z + 1, and the suffix, the low z
        # bits of v + 1, over 2^(z + 1) is mant - 1/2.
        coded = [np.frexp(c + 1.0) for c in columns]
        row = coded[0][1]
        for _, width in coded[1:]:
            row = row + width
        end = np.cumsum(row, dtype=np.int64)  # of each row's prefixes
        bits = int(end[-1])
        # A codeword has one prefix bit more than suffix bits, so a row's
        # suffixes end k bits per row before its prefixes.
        k = len(coded)
        suffix_end = np.arange(k, k * (rows + 1), k, dtype=np.int64)
        np.subtract(end, suffix_end, out=suffix_end)

        total = self._used + bits
        ones = np.zeros(((total >> 5) + 1) << 5, dtype=np.uint8)
        end += self._used - 1
        for _, width in reversed(coded):
            ones[end] = 1
            end -= width
        del end
        self._append(np.packbits(ones).view(">u4").astype(np.uint64), total)
        del ones

        suffix_end += suffixes._used
        fields = []
        for mant, width in reversed(coded):
            start = suffix_end - width
            start += 1
            mant -= 0.5
            fields.append((start, mant))
            suffix_end = start
        suffixes._write_fields(fields, suffixes._used + bits - k * rows)

    def _shift_in(self, words: np.ndarray, bits: int) -> None:
        """Append the first bits bits of the 32-bit words."""
        words = words.astype(np.uint64)
        shifted = np.zeros(len(words) + 1, dtype=np.uint64)
        shifted[:-1] = words >> self._used
        shifted[1:] |= (words << (32 - self._used)) & 0xFFFFFFFF
        self._append(shifted, self._used + bits)

    def extend(self, other: "_BitWriter") -> None:
        """Append every bit other holds, a bounded chunk of words at a time."""
        words = np.frombuffer(other._buf, dtype=">u4")
        for s in range(0, len(words), _EXTEND_WORDS):
            chunk = words[s : s + _EXTEND_WORDS]
            self._shift_in(chunk, 32 * len(chunk))
        self._shift_in(np.array([other._last]), other._used)

    def getvalue(self, head: bytes) -> bytes:
        """head, then every bit written, padded with zero bits to a byte."""
        return b"".join((head, self._buf, self._last.to_bytes(4, "big")[: (self._used + 7) >> 3]))


def _cuts(counts: np.ndarray, budget: int) -> np.ndarray:
    """Where the slices of a run of items end, given a count per item. A slice
    ends at the last item that keeps the count up to it within the next
    multiple of budget, so it holds at most budget plus its first item's
    count."""
    ends = np.cumsum(counts)
    return np.searchsorted(ends, np.arange(budget, int(ends[-1]), budget), side="right")


def _slices(n: int, *cuts: np.ndarray) -> list[tuple[int, int]]:
    """The (first, end) ranges of the non-empty slices of n items that end at
    every one of the cuts."""
    edges = np.unique(np.concatenate([[0], *cuts, [n]])).tolist()
    return list(zip(edges[:-1], edges[1:]))


def _row_slices(counts: np.ndarray) -> list[tuple[int, int]]:
    """The decoder's slices of whole block rows, given the blocks' pair counts
    as (rows, blocks per row). Each holds at most _DECODE_SLICE_PAIRS pairs
    and _DECODE_SLICE_BLOCKS blocks, plus those of one row."""
    rows, per_row = counts.shape
    by_pairs = _cuts(counts.sum(axis=1), _DECODE_SLICE_PAIRS)
    return _slices(rows, by_pairs, _cuts(np.full(rows, per_row), _DECODE_SLICE_BLOCKS))


def _encode_dct(frame: np.ndarray, qp: int) -> bytes:
    blocks = _to_blocks(frame)
    hb, wb = blocks.shape[:2]
    step = qstep(qp)
    # A chunk is whole block rows, or part of one row wider than the chunk.
    per_chunk = _CHUNK // _COEFFS
    rows, cols = max(1, per_chunk // wb), min(wb, per_chunk)
    raster = np.empty((min(rows, hb) * cols, _COEFFS))
    zigzag = np.empty_like(raster)
    levels = np.empty((hb * wb, _COEFFS), dtype=np.int32)
    s = 0
    for r in range(0, hb, rows):
        for c in range(0, wb, cols):
            part = blocks[r : r + rows, c : c + cols]
            n = part.shape[0] * part.shape[1]
            raster[:n].reshape(part.shape)[...] = part
            coeffs = dctn(raster[:n], zigzag[:n])
            coeffs /= step
            # _round_half_away, with the int32 cast as its trunc.
            coeffs += np.copysign(0.5 + _TIE, coeffs, dtype=np.float32)
            levels[s : s + n] = coeffs
            s += n
    del raster, zigzag, coeffs
    counts = np.count_nonzero(levels, axis=1)
    out, suffixes = _BitWriter(), _BitWriter()
    out.write_ue(out, counts)
    for s, e in _slices(len(counts), _cuts(counts, _SLICE_PAIRS)):
        out.write_ue(suffixes, *_pair_symbols(levels[s:e]))
    del levels
    out.extend(suffixes)
    del suffixes
    return out.getvalue(bytes([qp]))


def _ue_lengths(buf: np.ndarray, nbits: int, start: int, n: int) -> tuple[np.ndarray, int, int]:
    """The prefix zero counts of the n codewords of the split-plane ue
    sequence at bit start of buf, which holds nbits bits, as uint8; the bit
    its suffix plane starts at; and the bit after it. n is at most
    nbits - start, so the counts take no more bytes than the payload has bits."""
    zeros = np.empty(n, dtype=np.uint8)
    done = 0
    last = start - 1  # the bit of the latest prefix's 1
    byte = start >> 3
    while done < n:
        if 8 * byte >= nbits:
            if nbits - 1 - last > _MAX_UE_PREFIX:
                raise PayloadDecodeError("exp-Golomb prefix too long")
            raise TruncatedError("bitstream exhausted")
        bits = np.unpackbits(buf[byte : min(byte + _SCAN_BYTES, nbits >> 3)])
        bits[: max(start - 8 * byte, 0)] = 0
        ones = np.flatnonzero(bits.view(bool))[: n - done]
        ones += 8 * byte
        chunk = np.diff(ones, prepend=last)
        chunk -= 1
        if chunk.max(initial=0) > _MAX_UE_PREFIX:
            raise PayloadDecodeError("exp-Golomb prefix too long")
        if len(ones):
            last = int(ones[-1])
        zeros[done : done + len(ones)] = chunk
        done += len(ones)
        byte += _SCAN_BYTES
    end = last + 1 + int(zeros.sum(dtype=np.int64))
    if end > nbits:
        raise TruncatedError("bitstream exhausted")
    return zeros, last + 1, end


def _words(payload: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The big-endian 32-bit words at byte offsets 0 .. len(payload) of the
    uint8 payload followed by zero bytes, as two arrays: those that lie
    inside it, read in place, then the rest, from a padded copy of its last
    3 bytes."""
    inside = max(len(payload) - 3, 0)
    tail = np.zeros(len(payload) - inside + 4, dtype=np.uint8)
    tail[: len(payload) - inside] = payload[inside:]
    return (
        np.ndarray((inside,), dtype=">u4", buffer=payload, strides=(1,)),
        np.ndarray((len(tail) - 3,), dtype=">u4", buffer=tail, strides=(1,)),
    )


def _ue_values(words: tuple[np.ndarray, np.ndarray], zeros: np.ndarray, start: int) -> tuple[np.ndarray, int]:
    """The int32 values of the codewords whose prefix zero counts are zeros
    and whose suffixes start at bit start of the payload whose _words are
    words, and the bit after the last suffix."""
    inside, tail = words
    values = np.empty(len(zeros), dtype=np.int32)
    for s in range(0, len(zeros), _READ_CODEWORDS):
        z = zeros[s : s + _READ_CODEWORDS].astype(np.int64)
        at = np.cumsum(z)
        at += start - z
        start += int(z.sum())
        # Each suffix's byte, then its word; the bytes rise, so only the last
        # ones reach the tail.
        x = at >> 3
        cut = int(np.searchsorted(x, len(inside)))
        x[:cut] = inside[x[:cut]]
        x[cut:] = tail[x[cut:] - len(inside)]
        x <<= at & 7
        x &= 0xFFFFFFFF
        x >>= 32 - z
        x -= 1
        x += 1 << z
        values[s : s + _READ_CODEWORDS] = x
    return values, start


def _scatter_blocks(counts: np.ndarray, pairs: np.ndarray, step: float) -> np.ndarray:
    """Dequantized coefficients of the blocks, (len(counts), 64) in zigzag
    order. Overwrites pairs."""
    runs, levels = pairs[0::2], pairs[1::2]
    full = np.flatnonzero(counts)  # the blocks that hold pairs
    if not len(full):
        return np.zeros((len(counts), _COEFFS))
    first = np.cumsum(counts)[full] - counts[full]  # their first pairs
    # at = 64 * block + zigzag position: a cumsum of run + 1 that each block
    # restarts at 64 * block - 1, by a jump at its first pair.
    at = runs.astype(np.int64)
    at += 1
    sums = np.add.reduceat(at, first)
    start = 64 * full - 1
    start -= np.cumsum(sums) - sums
    at[first] += np.diff(start, prepend=0)
    np.cumsum(at, out=at)
    # Positions rise within a block, so its last pair holds its largest.
    if (at[first + counts[full] - 1] >= 64 * full + 64).any():
        raise PayloadDecodeError("coefficient position past end of block")
    if not levels.all():
        raise PayloadDecodeError("zero level in run-level pair")
    # m -> (m + 1) / 2 for odd m, -m / 2 for even m: x ^ -1 - -1 is -x
    mask = levels & 1
    mask -= 1
    levels += 1
    levels >>= 1
    levels ^= mask
    levels -= mask
    del mask
    coeffs = np.zeros((len(counts), _COEFFS))
    coeffs.reshape(-1)[at] = levels
    coeffs *= step
    return coeffs


def dct_qp(data: bytes) -> int:
    """The qp of a BLOCK_DCT payload, its leading byte."""
    if not data:
        raise TruncatedError("empty transform payload")
    if data[0] > 63:
        raise PayloadDecodeError(f"qp {data[0]} in payload outside [0, 63]")
    return data[0]


def _decode_dct(data: bytes, bit_depth: int, shape: tuple[int, int]) -> np.ndarray:
    step = qstep(dct_qp(data))
    h, w = shape
    hb = -(-h // BLOCK)
    wb = -(-w // BLOCK)
    nbits = 8 * (len(data) - 1)
    # Every codeword costs at least one bit: refuse before sizing anything.
    if hb * wb > nbits:
        raise TruncatedError(f"{hb * wb} blocks cannot fit in {nbits} payload bits")
    payload = np.frombuffer(data, dtype=np.uint8, offset=1)
    words = _words(payload)
    zeros, suffix, end = _ue_lengths(payload, nbits, 0, hb * wb)
    counts, _ = _ue_values(words, zeros, suffix)
    if counts.max() > _COEFFS:
        raise PayloadDecodeError(f"block coefficient count {counts.max()} > 64")
    npairs = 2 * int(counts.sum())
    if npairs > nbits - end:
        raise TruncatedError(f"{npairs} run-level symbols cannot fit in {nbits - end} payload bits")
    zeros, suffix, end = _ue_lengths(payload, nbits, end, npairs)
    if nbits - end >= 8:
        raise PayloadDecodeError("a whole byte past the last codeword")
    if end < nbits and payload[end >> 3] & (0xFF >> (end & 7)):
        raise PayloadDecodeError("nonzero padding bit")
    # Every symbol has been read and checked; decode a slice of block rows at
    # a time, so the pair and coefficient scratch stays within the slice.
    frame = np.empty(shape, dtype=np.uint16)
    row_counts = counts.reshape(hb, wb)
    first = 0  # the slice's first pair symbol
    for r0, r1 in _row_slices(row_counts):
        blocks = row_counts[r0:r1].reshape(-1)
        last = first + 2 * int(blocks.sum())
        pairs, suffix = _ue_values(words, zeros[first:last], suffix)
        first = last
        coeffs = _scatter_blocks(blocks, pairs, step)
        del pairs
        pixels = idctn(coeffs).reshape(r1 - r0, wb, BLOCK, BLOCK)
        del coeffs
        # floor(x + 0.5) rounds half away from zero wherever clip keeps the value.
        rows = _from_blocks(pixels, min(h, BLOCK * r1) - BLOCK * r0, w)
        rows += 0.5
        np.floor(rows, out=rows)
        np.clip(rows, 0, (1 << bit_depth) - 1, out=rows)
        frame[BLOCK * r0 : BLOCK * r1] = rows
        del pixels, rows
    return frame


def codec_encode(frame: np.ndarray, codec: CodecId, qp: int = 22, bit_depth: int = 10) -> bytes:
    """Compress one non-empty 2-d integer frame of samples in [0, 2^bit_depth)."""
    frame = np.asarray(frame)
    if frame.ndim != 2 or frame.dtype.kind not in "iu":
        raise DomainError(f"expected a 2-d integer frame, got {frame.ndim}-d {frame.dtype}")
    if frame.size == 0:
        raise DomainError("frame dimensions must be positive")
    if not 0 <= qp <= 63:
        raise DomainError(f"qp must be in [0, 63], got {qp}")
    if not 8 <= bit_depth <= 16:
        raise DomainError(f"bit depth must be in [8, 16], got {bit_depth}")
    if (frame.dtype.kind == "i" and frame.min() < 0) or frame.max() >= (1 << bit_depth):
        raise DomainError(f"samples outside [0, 2^{bit_depth})")
    if codec == CodecId.RAW_LOSSLESS:
        return _encode_raw(frame)
    if codec == CodecId.BLOCK_DCT:
        return _encode_dct(frame, qp)
    raise DomainError(f"no codec registered for id {codec}")


def codec_decode(data: bytes, codec: int, bit_depth: int, shape: tuple[int, int]) -> np.ndarray:
    """Decompress to exactly shape with samples below 2^bit_depth, or raise a
    classified error."""
    h, w = shape
    if h < 1 or w < 1:
        raise DomainError("expected dimensions must be positive")
    if not 8 <= bit_depth <= 16:
        raise DomainError(f"bit depth must be in [8, 16], got {bit_depth}")
    if codec == CodecId.BLOCK_DCT:
        return _decode_dct(data, bit_depth, (h, w))
    if codec != CodecId.RAW_LOSSLESS:
        raise PayloadDecodeError(f"no codec registered for id {codec}")
    frame = _decode_raw(data, (h, w))
    if frame.max() >= (1 << bit_depth):
        raise PayloadDecodeError(f"decoded sample exceeds bit depth {bit_depth}")
    return frame
