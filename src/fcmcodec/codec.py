"""The inner frame codecs, and the owner of the codec ids, the sample format
and the qp range.

RAW_LOSSLESS stores samples as little-endian u16, deflated, and decodes
bit-exactly. The encoder uses zlib's run-length strategy (Z_RLE), which on
packed feature frames is both smaller and several times faster than the
default strategy. A frame of n bytes is written as k = ceil(n / 2^19) pieces
of near-equal size, cut at sample boundaries; k depends on n alone, so the
bytes do not depend on the host. Each piece is a whole zlib stream of its
own, with its header and the Adler-32 of its bytes; pieces 1..k-1 are
deflated on a pool of one thread per core while the calling thread deflates
piece 0. The payload is the byte lengths of pieces 0..k-2 (u32
little-endian each), then the k pieces. As an HEVC slice header declares
where each tile's substream starts, the lengths declare where each piece
starts, so no decoder searches for it. A one-piece payload has no lengths,
so it is exactly zlib's one-call stream.

The decoder reads every payload one way: pieces 1..k-1 on the pool while
the calling thread reads piece 0, each with a zlib inflater of its own, so
any zlib stream decodes as a piece, from any strategy or level. Every
piece's start and end are declared, and each piece must give exactly the
size the cut rule gives it and end its stream there, so there is one
reading of the payload: no two readers can split it differently. It refuses
a payload too short for its lengths, or whose lengths run past it
(TruncatedError), before anything is sized by k, which the unit header's
shape sets: a few bytes of header can declare thousands of pieces. It
refuses (PayloadDecodeError) a piece that raises in zlib, such as one whose
header or Adler-32 is wrong, that ends before its size or runs past it, or
that has bytes after its stream.

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
- a block row of 2^25 or more blocks, 2^31 coefficients
  (DimensionOverflowError), before it reads the payload;
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

Both coders take the pairs a slice of blocks at a time, by one rule. Given
the blocks' pair counts as rows of blocks, a slice is a run of whole rows
that ends at the last row keeping the pairs up to it within the next multiple
of 2^14, and the blocks within the next multiple of a block budget; so it
holds at most 2^14 pairs and the budget's blocks, plus those of its first
row. The encoder's rows are single blocks and its budget 2^12; the decoder's
rows are block rows and its budget 2^11, as its scratch per block is about
16 times the encoder's.

Decoding needs no loop per codeword or per block. unpackbits and flatnonzero
find every prefix's 1, hence every codeword's length. The value read takes
2^14 codewords at a time: it copies the bytes of their suffixes, and 4 zero
bytes, into a segment of its own, turns that into the native uint32 window
that starts at each of its bytes with one astype, and reads each value from
its suffix's window with uint32 shifts at bit offsets counted from the
chunk's first byte. A cumsum over the counts places the pairs in their
blocks, and one scatter writes each level times qstep at its zigzag position.
Those positions are int32, counted from the first block of a slice. A
decoder slice holds one row or fewer than 2^12 blocks, so its positions fit
while a row has fewer than 2^25 blocks. Through FCMB a frame is at most
256 x 65535 samples wide, a row of 2^21 blocks and 2^27 positions; but
codec_decode takes any shape, so it refuses a row of 2^25 blocks or more.
The inverse DCT is one product with a fixed 64x64 matrix, as the H.26x
standards define it: row z of the basis kron(D, D)[ZIGZAG], for the 8-point
DCT-II matrix D, is the block of the unit coefficient at zigzag position z.
The decoder first scans every prefix into one byte per codeword and runs
every truncation and padding check, then decodes a slice at a time: it
reads the slice's values, scatters them and writes the slice's inverse DCT
into the frame. The prefix scan and the value read run in bounded chunks,
and a slice holds a bounded number of pairs and of blocks, so beyond the
frame and a byte per codeword, the scratch memory does not grow with the
payload or the frame. The pixels are clipped to the bit depth the caller
passes, the unit header's.

The forward DCT is one product with the same basis: raster blocks times its
transpose are their coefficients, already in zigzag order. The encoder fills
one reused float64 buffer of at most 256 blocks straight from the frame's
blocks, a view of the frame: a chunk is as many whole block rows as fit, or
a run of 256 blocks of a row wider than that. Where a side is not a multiple
of 8 the padded copy is first staged in the int32 array that will hold the
levels, and freed, and the chunks are read from there. Each chunk's
coefficients over qstep get the codec's one level rule, _round_half_away's:
the spent buffer takes +-(1/2 + 2^-20), signed as each coefficient, the
coefficients add it, and the int32 cast into the levels truncates toward
zero. Each product is freed before the next chunk's is made, and the buffer
before the pairs are coded.
The level rule is half away from zero, where a value at most 2^-20 below
k + 1/2 counts as k + 1/2. The band is for exact ties.
At zigzag positions 0, 10, 14 and 39 every basis entry is +-1/8, so where
qstep is a power of two an integer block often lands on k + 1/2 exactly, and
the product's rounding error, which depends on the order BLAS sums in, puts
it a few ulps to either side. With the band
every such tie rounds away from zero, on any BLAS kernel and under scipy's
FFT alike. The encoder then codes the pairs a slice at a time, and a slice's
coefficient and bit positions are int32. Its run and level symbols are the
two rows of one int32 array. They are gathered by index, not by a boolean
mask: a masked gather branches on every coefficient, and on levels about 40%
nonzero it mispredicts often enough to take most of the slice's time. The
int64 positions of the slice's nonzero levels index them with take, in the
mode that checks no bounds and so writes straight into the level row; they
are copied once into the run row and freed, and the runs come from that
int32 row alone: each is the gap to the pair before, capped at the pair's
position in its block. Beside the levels, the gather peaks at 16 bytes per
pair, the symbols and the positions, or at a mask byte per coefficient and
the positions while numpy finds them. The writer takes the symbols over:
each v + 1, exact in float32, is written over its symbol, and the exponent
field gives the codeword's z, and the fraction field, moved to the top of a
32-bit word, holds its suffix and then zeros. A pair is one field in each
plane, at most 28 bits wide (see _BitWriter.write_ue): its two prefixes, and
its two suffixes one after the other. Its prefixes take 2 bits more than its
suffixes, so one int32 cumsum of the pairs' suffix widths places every field
in its word. Each field is shifted to its place; only the last field of a
word can spill into the next. A word is the sum of the parts of its fields
that lie in it, since the fields are disjoint, and a uint32 cumsum over the
fields gives every word as the difference of two running sums, exact modulo
2^32 though the sums wrap. Once the suffix fields are merged, the symbols'
last row holds the prefix fields. The counts go to the writer as an int32
copy, since the slices are cut from them after. The pair suffixes wait in a
second writer until the last slice; the first then takes them a bounded
chunk of words at a time, shifted to its bit offset in uint32 lanes. A
writer turns its words big-endian in place and appends their bytes.
A frame of 2^28 blocks or more is refused (DimensionOverflowError), so the
count plane's bit positions fit int32 too.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor, wait
from enum import IntEnum

import numpy as np

from .errors import (
    ByteReader,
    DimensionOverflowError,
    DomainError,
    FcmError,
    PayloadDecodeError,
    TruncatedError,
    integer_in,
)

BLOCK = 8
_COEFFS = BLOCK * BLOCK
_MAX_QP = 63

# A level at most this far below k + 1/2 rounds as k + 1/2 does; see above.
_TIE = 2.0**-20

# Longest accepted ue zero prefix, so every value fits int32.
_MAX_UE_PREFIX = 24

# Pairs per slice of either coder, and blocks per encoder slice (see
# _slices). An encoder slice holds about 20 bytes of scratch per pair, its 8
# bytes of pair symbols included, so 2^14 pairs take 0.33 MB (tracemalloc),
# and a mask byte per coefficient while it finds the pairs: 2^12 blocks of
# one pair each take 0.33 MB. A slice also costs about 0.15 ms of numpy call
# overhead: at 2^13 rather than 2^14 pairs the perfbench dense_dct16 frames
# encoded 15-25% slower in-process. The block bound binds where runs of
# empty blocks make a slice sparse; it also keeps the slice's coefficient
# positions, 64 per block, far inside int32.
_SLICE_PAIRS = 1 << 14
_SLICE_BLOCKS = 1 << 12

# Blocks per chunk of the forward transform, at most: whole block rows, or
# runs of a row wider than this. The chunk's float64 copy and its product
# take 128 KB each, 0.26 MB beside the levels (tracemalloc). At 512 blocks
# the chunk's copy, its product and the last chunk's product, 0.79 MB, set
# the encoder's peak. At 256 the codec encoded perfbench-shaped frames about
# 1.5% slower in-process, less than perfbench's run-to-run spread.
_DCT_BLOCKS = 1 << 8

# Words per chunk when one bit writer takes another's bits. Measured with
# tracemalloc, taking 1 MB at an odd bit offset holds 0.17 MB of scratch
# beside the two writers: the chunk's shifted words and one uint32 temporary.
_EXTEND_WORDS = 1 << 14

# Payload bytes per chunk of the decoder's prefix scan, and codewords per
# chunk of its value read. Measured with tracemalloc, a chunk's scratch peaks
# at 0.79 MB in a scan where every bit is a prefix's 1, and at 0.64 MB in a
# read of 24-bit suffixes.
_SCAN_BYTES = 1 << 13
_READ_CODEWORDS = 1 << 14

# Blocks per decoder slice (see _slices). A decoder slice holds about 21
# bytes of scratch per pair, its 8 bytes of pair symbols included, and 1 KB
# per block (tracemalloc), about 16 times an encoder slice's; the block bound
# binds on sparse frames only. At 2^15 pairs the perfbench dense_dct16 frames
# decoded no faster and peaked 0.2 MB higher.
_DECODE_SLICE_BLOCKS = 1 << 11

# deflate memLevel of RAW_LOSSLESS. With the run-length strategy it sets the
# block size: on the perfbench pyramid frames 9 codes 0.3% fewer bits than 8
# at the same speed. That strategy writes the same bytes at levels 1-9.
_RAW_MEM_LEVEL = 9

# Frame bytes per RAW_LOSSLESS deflate piece, at most (see _encode_raw). The
# perfbench pyramids' P3 frame (786,432 B) takes 2 pieces at 2^19, 3 at 2^18
# and 6 at 2^17. On a 2-core host fcm_encode took 3.8 ms per pyramid_lossless
# group in-process at 2^19 and at 2^17, 4.2 ms at 2^18 (3 pieces on 2
# cores) and 5.1 ms in one piece; the streams grew by 0.011%, 0.037% and
# 0.087%. At 2^19 the P3 frame's encode peaks at 1.09 MB in tracemalloc,
# against 0.93 MB in one piece, below quantize_frame's 2.62 MB.
_RAW_PIECE = 1 << 19


def _new_piece_pool() -> None:
    """Give the process a pool for pieces 1..k-1 of a frame. Its threads
    call zlib alone and wait on nothing, so callers on threads of their own,
    such as fcm_encode's unit workers, share it without deadlock. A pool per
    frame started a thread per frame: on a 2-core host that held
    pyramid_lossless encode_mbps to 153 MB/s against 168 with this pool."""
    global _PIECE_POOL
    _PIECE_POOL = ThreadPoolExecutor(max_workers=os.cpu_count() or 1)


_new_piece_pool()
if hasattr(os, "register_at_fork"):
    # A forked child has none of its parent's threads, so the parent's pool
    # would queue the child's pieces for ever.
    os.register_at_fork(after_in_child=_new_piece_pool)


class CodecId(IntEnum):
    RAW_LOSSLESS = 0
    BLOCK_DCT = 1


def codec_id(value) -> CodecId:
    """value as a CodecId; DomainError unless it is an integer naming one."""
    return CodecId(integer_in(value, "codec id", 0, len(CodecId) - 1))


def sample_max(bit_depth) -> int:
    """2^bit_depth - 1; DomainError unless bit_depth is an integer in [8, 16]."""
    return (1 << integer_in(bit_depth, "bit depth", 8, 16)) - 1


def _check_frame_shape(shape: tuple[int, ...], error: type[FcmError]) -> tuple[int, int]:
    """shape as a pair of ints; raises error unless it is that of a non-empty
    2-d frame, and DomainError for a dimension that is not an integer."""
    dims = tuple(integer_in(dim, "frame dimension") for dim in shape)
    if len(dims) != 2 or min(dims) < 1:
        raise error(f"expected a non-empty 2-d frame, got shape {shape}")
    return dims


def _check_samples(samples: np.ndarray, bit_depth, error: type[FcmError]) -> None:
    """Raise error unless samples, of any shape, are integers, not bools, in
    [0, 2^bit_depth). The min of unsigned samples is not scanned."""
    if samples.dtype.kind not in "iu":
        raise error(f"expected integer samples, got {samples.dtype}")
    if samples.dtype.kind == "i" and samples.min(initial=0) < 0:
        raise error("negative sample")
    if samples.max(initial=0) > sample_max(bit_depth):
        raise error(f"sample exceeds bit depth {bit_depth}")


def check_qp(qp) -> int:
    """qp as an int; DomainError unless it is an integer in [0, 63]."""
    return integer_in(qp, "qp", 0, _MAX_QP)


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


def dctn(blocks: np.ndarray) -> np.ndarray:
    """The zigzag-ordered coefficients, (n, 64), of the orthonormal DCT of
    8x8 blocks in raster order, (n, 64): one product with the basis's
    transpose."""
    return blocks @ _FORWARD


def _round_half_away(x: np.ndarray) -> np.ndarray:
    """Round the float array x to the codec's levels in place; returns x.

    Half away from zero, where a value at most _TIE below k + 1/2 counts as
    k + 1/2. 1/2 + _TIE is exact in float32. This is the rule's reference
    form, which perfbench and the tests use; _encode_dct applies the same
    rule inline, adding the offset in float64 and truncating by its int32
    cast.
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


def _deflate(data) -> bytes:
    deflate = zlib.compressobj(6, zlib.DEFLATED, zlib.MAX_WBITS, _RAW_MEM_LEVEL, zlib.Z_RLE)
    return deflate.compress(data) + deflate.flush()


def _piece_count(nbytes: int) -> int:
    """k, the number of deflate pieces of a frame of nbytes bytes."""
    return -(-nbytes // _RAW_PIECE)


def _piece_cuts(samples: int, k: int) -> list[int]:
    """The k + 1 sample offsets that cut a frame of samples samples into its
    k pieces of near-equal size."""
    return [i * samples // k for i in range(k + 1)]


def _encode_raw(frame: np.ndarray) -> bytes:
    samples = np.ascontiguousarray(frame, dtype="<u2").reshape(-1)
    k = _piece_count(samples.nbytes)
    cuts = _piece_cuts(samples.size, k)
    pieces = [samples[a:b] for a, b in zip(cuts, cuts[1:])]
    rest = [_PIECE_POOL.submit(_deflate, piece) for piece in pieces[1:]]
    deflated = [_deflate(pieces[0]), *(piece.result() for piece in rest)]
    return b"".join([struct.pack(f"<{k - 1}I", *map(len, deflated[:-1])), *deflated])


def _inflate(data, n: int) -> bytes:
    """The n bytes that one zlib inflater reads from data in one call;
    raises PayloadDecodeError unless its stream ends exactly there, with no
    byte after it."""
    d = zlib.decompressobj()
    try:
        raw = d.decompress(data, n + 1)
    except zlib.error as exc:
        raise PayloadDecodeError(f"corrupt lossless payload: {exc}") from exc
    if len(raw) != n or d.unconsumed_tail or not d.eof:
        raise PayloadDecodeError("lossless payload length mismatch")
    if d.unused_data:
        raise PayloadDecodeError(f"{len(d.unused_data)} bytes past the end of the lossless payload")
    return raw


def _decode_raw(data: bytes, shape: tuple[int, int]) -> np.ndarray:
    """The frame of a payload of k pieces (see above), pieces 1..k-1
    inflated on the pool while this thread inflates piece 0."""
    if not data:
        raise TruncatedError("empty lossless payload")
    n = shape[0] * shape[1] * 2
    k = _piece_count(n)
    r = ByteReader(data, "lossless payload")
    pieces = [r.take(length) for length in r.unpack(f"<{k - 1}I")]
    pieces.append(r.view[r.pos :])
    cuts = _piece_cuts(n // 2, k)
    sizes = [2 * (b - a) for a, b in zip(cuts, cuts[1:])]
    rest = [_PIECE_POOL.submit(_inflate, piece, size) for piece, size in zip(pieces[1:], sizes[1:])]
    try:
        first = _inflate(pieces[0], sizes[0])
    finally:
        wait(rest)  # so no job of a refused payload holds the pool after it
    raw = b"".join([first, *(piece.result() for piece in rest)])
    return np.frombuffer(raw, dtype="<u2").reshape(shape)


def _pair_symbols(levels: np.ndarray) -> np.ndarray:
    """The int32 run and level symbols of the (run, level) pairs of blocks of
    zigzag-ordered int32 levels, as the two rows of one array, pair by pair
    in stream order. 64 * len(levels) must be below 2^31."""
    flat = levels.reshape(-1)
    at = (flat != 0).nonzero()[0]
    pairs = np.empty((2, len(at)), dtype=np.int32)
    run, code = pairs
    # Every index is in range, and a take that checks none writes out unbuffered.
    np.take(flat, at, out=code, mode="wrap")
    # The positions in int32, so no ufunc below casts a full-size copy.
    np.copyto(run, at, casting="unsafe")
    del at
    # A run is the gap to the pair before, and a block's first counts from
    # the block's start, its position & 63.
    gap = np.subtract(run[1:], run[:-1])
    gap -= 1
    run &= _COEFFS - 1
    np.minimum(run[1:], gap, out=run[1:])
    del gap
    # 2|l| - 1 for l > 0, 2|l| for l < 0
    positive = code > 0
    np.abs(code, out=code)
    code += code
    code -= positive
    return pairs


def _plane_words(fields: np.ndarray, place: np.ndarray) -> np.ndarray:
    """The 32-bit words of a bit plane, then a spare word.

    fields (uint32) are the plane's fields in order, each moved to the top of
    a word, and place (uint8) the bit of its word each starts at. The first
    starts in word 0 and each is under 32 bits wide, so every word up to the
    last field's holds a field's start. Overwrites fields.

    A field is the last to start in its word where the next one starts at a
    lower place; only that one can spill into the next word. A word is the
    sum of the parts of its fields that lie in it, the difference of two
    running sums: exact modulo 2^32, so the sums may wrap."""
    last = np.empty(len(place), dtype=bool)
    np.less(place[1:], place[:-1], out=last[:-1])
    last[-1] = True
    last = last.nonzero()[0]
    spill = fields[last] << (31 - place[last])
    spill <<= 1
    fields >>= place
    np.add.accumulate(fields, out=fields)
    upto = fields[last]
    words = np.empty(len(last) + 1, dtype=np.uint32)
    words[0] = upto[0]
    np.subtract(upto[1:], upto[:-1], out=words[1:-1])
    words[-1] = 0
    words[1:] |= spill
    return words


class _BitWriter:
    """Bits packed MSB-first into big-endian 32-bit words."""

    def __init__(self):
        self._buf = bytearray()
        self._last = 0  # the partly filled last word
        self._used = 0  # bits of it in use

    def _append(self, words: np.ndarray, total: int) -> None:
        """Take words, native uint32 that hold total bits from the start of
        the last word on; the last word's bits are OR-ed into words[0].
        Overwrites words."""
        words[0] |= self._last
        full = total >> 5
        self._last = int(words[full])
        self._used = total & 31
        whole = words[:full]
        if sys.byteorder == "little":
            whole.byteswap(inplace=True)
        self._buf += whole.data

    def write_ue(self, suffixes: "_BitWriter", symbols: np.ndarray) -> None:
        """Append the ue codewords of symbols, a C-contiguous int32 (k, rows)
        array, a row of k codewords at a time: symbols[:, 0], then
        symbols[:, 1], and so on. Their prefixes go here and their suffixes
        to suffixes, fewer than 2^31 bits to each. Overwrites symbols. A
        row's prefixes make one field, so they must take at most 31 bits;
        the codec's rows do. A count is at most 64, and
        since codec_encode admits samples below 2^16 and qstep is at least
        2^(-4/6), a run is at most 63 and a level code below 2^21 - 1, so a
        pair's prefixes take at most 7 + 21 = 28 bits."""
        k, rows = symbols.shape
        if not rows:
            return
        # v + 1 in float32, exact below 2^24, is 2^z plus its suffix, the low
        # z bits: its exponent field is 127 + z and its fraction field the
        # suffix followed by 23 - z zeros. Each is written over its symbol.
        symbols += 1
        flat = symbols.reshape(-1)
        flat.view(np.float32)[...] = flat
        fields = symbols.view(np.uint32)
        zeros = np.empty((k, rows), dtype=np.uint8)
        np.right_shift(fields, 23, out=zeros, casting="unsafe")
        zeros -= 127

        # Where each field starts in its word. A row's suffixes start after
        # the suffix bits before it, its prefixes k bits per row later.
        width = np.add.reduce(zeros, dtype=np.uint8)
        start = np.empty(rows, dtype=np.int32)
        start[0] = 0
        np.add.accumulate(width[:-1], dtype=np.int32, out=start[1:])
        suffix_bits = int(start[-1]) + int(width[-1])
        del width
        prefix_end = self._used + suffix_bits + k * rows
        # When suffixes is this writer, the suffixes follow the prefixes.
        used = suffixes._used if suffixes is not self else prefix_end & 31
        suffix_place = np.empty(rows, dtype=np.uint8)
        np.add(start, used, out=suffix_place, casting="unsafe")
        suffix_place &= 31
        start += np.arange(self._used, self._used + k * rows, k, dtype=np.int32)
        prefix_place = np.empty(rows, dtype=np.uint8)
        np.bitwise_and(start, 31, out=prefix_place, casting="unsafe")
        del start

        # A row's suffix field is its codewords' suffixes one after another;
        # a fraction field moved to the top holds its suffix, then zeros.
        fields <<= 9
        shift = zeros[0]
        for c in range(1, k):
            fields[c] >>= shift
            fields[0] |= fields[c]
            shift = shift + zeros[c]
        suffix_words = _plane_words(fields[0], suffix_place)
        del suffix_place

        # A row's prefix field is each codeword's z zeros and a 1, built in
        # the symbols' last row, which the suffix fields no longer need.
        ones = fields[-1]
        ones[...] = 0
        del fields
        shift = np.zeros(rows, dtype=np.uint8)
        for z in zeros:
            shift += z
            ones |= np.right_shift(np.uint32(1 << 31), shift)
            shift += 1
        del zeros, shift
        self._append(_plane_words(ones, prefix_place), prefix_end)
        suffixes._append(suffix_words, used + suffix_bits)

    def _shift_in(self, words: np.ndarray, bits: int) -> None:
        """Append the first bits bits of the 32-bit words."""
        shifted = np.empty(len(words) + 1, dtype=np.uint32)
        np.right_shift(words, self._used, out=shifted[:-1])
        shifted[-1] = 0
        if self._used:
            shifted[1:] |= np.left_shift(words, 32 - self._used, dtype=np.uint32)
        self._append(shifted, self._used + bits)

    def extend(self, other: "_BitWriter") -> None:
        """Append every bit other holds, a bounded chunk of words at a time."""
        words = np.frombuffer(other._buf, dtype=">u4")
        for s in range(0, len(words), _EXTEND_WORDS):
            chunk = words[s : s + _EXTEND_WORDS]
            self._shift_in(chunk, 32 * len(chunk))
        self._shift_in(np.array([other._last], dtype=np.uint32), other._used)

    def getvalue(self, head: bytes) -> bytes:
        """head, then every bit written, padded with zero bits to a byte."""
        return b"".join((head, self._buf, self._last.to_bytes(4, "big")[: (self._used + 7) >> 3]))


def _slices(counts: np.ndarray, blocks: int) -> list[tuple[int, int]]:
    """The (first, end) row ranges of the slices that the rule above cuts
    from rows of blocks, given their pair counts as (rows, blocks per row)
    and the block budget, blocks."""
    rows, per_row = counts.shape
    ends = np.cumsum(counts.sum(axis=1))
    by_pairs = np.searchsorted(ends, np.arange(_SLICE_PAIRS, int(ends[-1]), _SLICE_PAIRS), side="right")
    by_blocks = np.arange(blocks, rows * per_row, blocks) // per_row
    edges = sorted({0, rows, *by_pairs.tolist(), *by_blocks.tolist()})
    return list(zip(edges[:-1], edges[1:]))


def _encode_dct(frame: np.ndarray, qp: int) -> bytes:
    blocks = _to_blocks(frame)
    hb, wb = blocks.shape[:2]
    step = qstep(qp)
    levels = np.empty((hb * wb, _COEFFS), dtype=np.int32)
    if frame.shape[0] % BLOCK or frame.shape[1] % BLOCK:
        # blocks is a padded copy: staged in the levels, it is freed before
        # the transform, which reads each chunk's rows before it writes them.
        levels.reshape(blocks.shape)[...] = blocks
        blocks = levels.reshape(blocks.shape)
    # A chunk is whole block rows of at most _DCT_BLOCKS blocks, or a run of
    # one row wider than that: either way, consecutive rows of the levels.
    rows = max(1, _DCT_BLOCKS // wb)
    run = min(wb, _DCT_BLOCKS)
    buf = np.empty((min(hb, rows) * run, _COEFFS))
    for r in range(0, hb, rows):
        for c in range(0, wb, run):
            chunk = blocks[r : r + rows, c : c + run]
            x = buf[: chunk.shape[0] * chunk.shape[1]]
            x.reshape(chunk.shape)[...] = chunk
            coeffs = dctn(x)
            coeffs /= step
            # _round_half_away's rule: add +-(1/2 + _TIE), signed as each
            # coefficient and built in the spent copy; the int32 cast then
            # truncates toward zero.
            np.copysign(0.5 + _TIE, coeffs, out=x)
            coeffs += x
            first = r * wb + c
            levels[first : first + len(x)] = coeffs
            del coeffs  # before the next chunk's product
    del blocks, buf, x, chunk
    counts = np.count_nonzero(levels, axis=1)
    out, suffixes = _BitWriter(), _BitWriter()
    out.write_ue(out, counts.astype(np.int32)[None])  # a copy: _slices reads counts
    for s, e in _slices(counts[:, None], _SLICE_BLOCKS):
        out.write_ue(suffixes, _pair_symbols(levels[s:e]))
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
    # The gaps between the 1s of a chunk, which lie under 2^16 bits apart.
    gaps = np.empty(min(n, 8 * _SCAN_BYTES), dtype=np.uint16)
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
        ones = np.flatnonzero(bits.view(bool))[: n - done]  # from bit 8 * byte
        chunk = gaps[: len(ones)]
        np.subtract(ones[1:], ones[:-1], out=chunk[1:], casting="unsafe")
        if len(ones):
            # The gap from the latest 1 before the chunk, capped where it is
            # too long anyway.
            chunk[0] = min(8 * byte + int(ones[0]) - last, 0xFFFF)
            last = 8 * byte + int(ones[-1])
        chunk -= 1
        if chunk.max(initial=0) > _MAX_UE_PREFIX:
            raise PayloadDecodeError("exp-Golomb prefix too long")
        zeros[done : done + len(ones)] = chunk
        done += len(ones)
        byte += _SCAN_BYTES
        del bits, ones  # before the next chunk's
    end = last + 1 + int(zeros.sum(dtype=np.int64))
    if end > nbits:
        raise TruncatedError("bitstream exhausted")
    return zeros, last + 1, end


def _ue_values(payload: np.ndarray, zeros: np.ndarray, start: int) -> tuple[np.ndarray, int]:
    """The int32 values of the codewords whose prefix zero counts are zeros
    and whose suffixes start at bit start of the uint8 payload, and the bit
    after the last suffix."""
    values = np.empty(len(zeros), dtype=np.int32)
    for s in range(0, len(zeros), _READ_CODEWORDS):
        z = zeros[s : s + _READ_CODEWORDS].astype(np.uint32)
        # Each suffix's bit, counted from the chunk's first byte.
        at = np.cumsum(z, dtype=np.uint32)
        end = start + int(at[-1])
        at -= z
        at += start & 7
        # The chunk's bytes and 4 zero bytes, as the native 32-bit window
        # that starts at each byte.
        span = payload[start >> 3 : (end + 7) >> 3]
        segment = np.zeros(len(span) + 4, dtype=np.uint8)
        segment[: len(span)] = span
        windows = np.ndarray((len(span) + 1,), dtype=">u4", buffer=segment, strides=(1,)).astype(np.uint32)
        # numpy indexes in intp: one cast is faster than the gather's own.
        x = windows[(at >> 3).astype(np.intp)]
        at &= 7
        x <<= at
        # x holds the suffix from its top bit on. Put the leading 1 of v + 1
        # in front of it and shift v + 1 down: no shift count reaches 32.
        x >>= 1
        x |= np.uint32(1 << 31)
        np.subtract(31, z, out=z)
        x >>= z
        np.subtract(x, np.uint32(1), out=values[s : s + _READ_CODEWORDS].view(np.uint32))
        start = end
    return values, start


def _scatter_blocks(counts: np.ndarray, pairs: np.ndarray, step: float) -> np.ndarray:
    """Dequantized coefficients of the blocks, (len(counts), 64) in zigzag
    order, from their int32 pair counts and pair symbols. Overwrites pairs.
    64 * len(counts) must be below 2^31."""
    runs, levels = pairs[0::2], pairs[1::2]
    full = np.flatnonzero(counts)  # the blocks that hold pairs
    if not len(full):
        return np.zeros((len(counts), _COEFFS))
    # A run over 63 ends past its block; refusing it first keeps every sum
    # below 64 * (len(counts) + 1).
    at = runs + np.int32(1)
    if at.max() > _COEFFS:
        raise PayloadDecodeError("coefficient position past end of block")
    first = np.cumsum(counts, dtype=np.int32)[full]
    first -= counts[full]  # the blocks' first pairs
    # A block's run + 1 sum is the position after its last pair.
    sums = np.add.reduceat(at, first, dtype=np.int32)
    if sums.max() > _COEFFS:
        raise PayloadDecodeError("coefficient position past end of block")
    # at = 64 * block + zigzag position: a cumsum of run + 1 that each block
    # restarts at 64 * block - 1, by a jump at its first pair.
    start = full.astype(np.int32)
    start *= _COEFFS
    start -= 1
    start -= np.cumsum(sums, dtype=np.int32) - sums
    at[first] += np.diff(start, prepend=np.int32(0))
    # m -> (m + 1) / 2 for odd m, -m / 2 for even m: x ^ -1 - -1 is -x. Only
    # m = 0 gives 0.
    level = levels & 1
    mask = level - np.int32(1)
    level += levels
    level >>= 1
    level ^= mask
    level -= mask
    del mask
    if not level.all():
        raise PayloadDecodeError("zero level in run-level pair")
    # Every symbol is read: the 8 bytes of each pair take its coefficient.
    value = pairs.view(np.float64)
    np.multiply(level, step, out=value)
    del level
    # The positions come out in intp, the index type numpy scatters with.
    at = np.cumsum(at, dtype=np.intp)
    coeffs = np.zeros((len(counts), _COEFFS))
    coeffs.reshape(-1)[at] = value
    return coeffs


def dct_qp(data: bytes) -> int:
    """The qp of a BLOCK_DCT payload, its leading byte."""
    if not data:
        raise TruncatedError("empty transform payload")
    if data[0] > _MAX_QP:
        raise PayloadDecodeError(f"qp {data[0]} in payload outside [0, {_MAX_QP}]")
    return data[0]


def _decode_dct(data: bytes, bit_depth: int, shape: tuple[int, int]) -> np.ndarray:
    step = qstep(dct_qp(data))
    top = sample_max(bit_depth)
    h, w = shape
    hb = -(-h // BLOCK)
    wb = -(-w // BLOCK)
    # A slice of block rows addresses its coefficients in int32.
    if _COEFFS * wb >= 1 << 31:
        raise DimensionOverflowError(f"a row of {wb} blocks has 2^31 or more coefficients")
    nbits = 8 * (len(data) - 1)
    # Every codeword costs at least one bit: refuse before sizing anything.
    if hb * wb > nbits:
        raise TruncatedError(f"{hb * wb} blocks cannot fit in {nbits} payload bits")
    payload = np.frombuffer(data, dtype=np.uint8, offset=1)
    zeros, suffix, end = _ue_lengths(payload, nbits, 0, hb * wb)
    counts, _ = _ue_values(payload, zeros, suffix)
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
    for r0, r1 in _slices(row_counts, _DECODE_SLICE_BLOCKS):
        blocks = row_counts[r0:r1].reshape(-1)
        last = first + 2 * int(blocks.sum())
        pairs, suffix = _ue_values(payload, zeros[first:last], suffix)
        first = last
        coeffs = _scatter_blocks(blocks, pairs, step)
        del pairs
        pixels = idctn(coeffs).reshape(r1 - r0, wb, BLOCK, BLOCK)
        del coeffs
        # x + 0.5 clipped to [0, top], where the uint16 cast's truncation is
        # the floor: floor(x + 0.5), which rounds half away from zero
        # wherever clip keeps the value. The pad samples of edge blocks are
        # rounded too, and dropped by the cast into the frame.
        pixels += 0.5
        np.clip(pixels, 0, top, out=pixels)
        _cast_blocks(pixels, frame[BLOCK * r0 : BLOCK * r1])
        del pixels
    return frame


def _cast_blocks(blocks: np.ndarray, rows: np.ndarray) -> None:
    """Cast the (m, n, 8, 8) blocks into rows, the frame rows they cover,
    through block views of rows, which hold at most 8m rows and 8n columns.

    The blocks of the last row and column are cropped to the frame, so rows
    splits into at most four parts of blocks of one size each.
    """
    h, w = rows.shape
    for r0, r1 in ((0, h // BLOCK), (h // BLOCK, len(blocks))):
        for c0, c1 in ((0, w // BLOCK), (w // BLOCK, blocks.shape[1])):
            part = rows[BLOCK * r0 : BLOCK * r1, BLOCK * c0 : BLOCK * c1]
            if part.size:
                bh, bw = part.shape[0] // (r1 - r0), part.shape[1] // (c1 - c0)
                view = part.reshape(r1 - r0, bh, c1 - c0, bw).transpose(0, 2, 1, 3)
                view[...] = blocks[r0:r1, c0:c1, :bh, :bw]


def codec_encode(frame: np.ndarray, codec: CodecId, qp: int, bit_depth: int) -> bytes:
    """Compress one non-empty 2-d integer frame of samples in [0, 2^bit_depth)."""
    frame = np.asarray(frame)
    _check_frame_shape(frame.shape, DomainError)
    qp = check_qp(qp)
    codec = codec_id(codec)
    blocks = -(-frame.shape[0] // BLOCK) * -(-frame.shape[1] // BLOCK)
    if codec == CodecId.BLOCK_DCT and blocks >= 1 << 28:
        raise DimensionOverflowError(f"a frame of {blocks} blocks, 2^28 or more, is too large for BLOCK_DCT")
    _check_samples(frame, bit_depth, DomainError)
    if codec == CodecId.RAW_LOSSLESS:
        return _encode_raw(frame)
    return _encode_dct(frame, qp)


def codec_decode(data: bytes, codec: int, bit_depth: int, shape: tuple[int, int]) -> np.ndarray:
    """Decompress to exactly shape with samples below 2^bit_depth, or raise a
    classified error."""
    shape = _check_frame_shape(shape, DomainError)
    sample_max(bit_depth)
    if codec_id(codec) == CodecId.BLOCK_DCT:
        return _decode_dct(data, bit_depth, shape)
    frame = _decode_raw(data, shape)
    _check_samples(frame, bit_depth, PayloadDecodeError)
    return frame
