"""The inner frame codecs, and the owner of the codec ids, the sample format
and the qp range.

RAW_LOSSLESS stores samples as little-endian u16 in one zlib stream, which
is the whole payload, and decodes bit-exactly. The encoder uses zlib's
run-length strategy (Z_RLE), which on packed feature frames is both smaller
and several times faster than the default strategy; the decoder reads any
zlib stream, so streams from other strategies and levels decode too. A frame
of n bytes is written as k = ceil(n / 2^19) pieces of near-equal size, cut at
sample boundaries; k depends on n alone, so the bytes do not depend on the
host. Each piece is deflated raw, pieces 1..k-1 on a pool of one thread per
core while the calling thread deflates piece 0; each ends in a full flush
and the last in the final block. They are joined into one stream: zlib's
header, the pieces, and the Adler-32 of the whole frame. A full flush aligns
the pieces to bytes and no piece refers back into another, so any inflater
reads the stream unchanged. zlib's own wrapper adds only that header and
trailer, so one piece is exactly zlib's one-call stream.

The decoder reads a frame of k >= 2 pieces the same way: pieces 1..k-1
inflate on the pool while the calling thread inflates piece 0. It returns
that result only where its checks prove it to be what one zlib inflater
reads serially; on any failed check it reads the payload serially, so every
zlib stream still decodes, and as before. The serial reading refuses
(PayloadDecodeError) a stream that raises in zlib, that ends before the
frame's n bytes or runs past them, or that has bytes after its trailer. The
checks:
- the payload starts with _ZLIB_HEADER, whose 32 KB window is the raw
  inflaters' (other headers, such as zlib's default 78 9c, read serially);
- it holds exactly k - 1 markers 00 00 ff ff. Piece 0 starts at byte 2,
  piece i just after marker i, and the last runs to the payload's end;
- each piece, in a fresh raw inflater, gives exactly the size the
  encoder's cut rule gives it, with no input left over and no zlib.error;
- the last piece ends the final block with exactly 4 bytes left, which are
  the Adler-32 of the whole frame;
- every other piece does not end the stream, and two copies of its
  inflater accept the probes F = 01 00 00 ff ff, an empty final stored
  block, and L = 58 empty non-final stored blocks 00 00 00 ff ff, then F.
  A copy accepts a probe when decompress(probe, 1) writes nothing, ends the
  stream, leaves nothing unused and raises nothing.

Why that is the serial reading. After the header a serial inflater is where
a fresh raw one starts: in zlib's inflate mode TYPE, no bits held. Say it is
there at the start of piece i. A fresh inflater then reads the piece as the
serial one does, except that a back-reference past the piece's start, which
the serial one reads from its window, raises zlib.error ("invalid distance
too far back"). So both write the same bytes and rest in the same state at
the piece's end. The piece's inflater ran out of input with room left to
write, so it rests in a mode that waits for input: not MATCH or LIT, which
wait for room; not CHECK, LENGTH or DONE, as the stream has not ended; not
BAD, MEM or SYNC; a raw inflater never enters HEAD, FLAGS, TIME, OS, EXLEN,
EXTRA, NAME, COMMENT, HCRC, DICTID or DICT. Read first bit first, F is a 1,
23 zeros and 16 ones.
(a) F is accepted only in TYPE with no bits held, or inside the header of a
    final dynamic block (TABLE, LENLENS, CODELENS). In every other state:
    - TYPE (TYPEDO) waits with 1 or 2 bits held. With 1, F makes an empty
      fixed block, after which the stream ends with 3 bytes of F unused, or
      the block was not final (see the last case). With 2, the block type is
      3, which raises, or 2, whose code-length code read from F is one code
      of 7 bits, incomplete, which raises.
    - STORED, 0-3 bytes of LEN and NLEN held: they are not complements,
      which raises, or LEN > 0 and F's next byte is written.
    - COPY_ or COPY: F's first byte is written.
    - Huffman data (LEN_, LEN, LENEXT, DIST, DISTEXT): the pending symbol
      needs a bit of F. Any but end-of-block writes, raises or runs out.
      End-of-block takes at most 15 bits of F; after a final block the
      stream ends with 3 or 4 bytes of F unused (a non-final one: see the
      last case).
    - TABLE, LENLENS or CODELENS of a non-final block: the header raises,
      runs out, or completes and reads Huffman data as above.
    - A non-final block ends at bit p of F: for p < 22 the next block is
      stored and empty or longer than F, so F runs out before the stream
      ends; at 22 it is dynamic with 288 literal/length codes, which
      raises; at 23 to 37 its type is 3, which raises; from 38 on, F runs
      out.
(b) L is not accepted inside the header of a final dynamic block. What is
    left of the header takes at most 14 + 57 + 316 * 7 bits (no code
    length takes more than 7 bits, counting a repeat's extra bits over the
    lengths it repeats), and its data raises, writes, or ends at the
    end-of-block code within 15 more: 2298 bits, under 288 bytes, so bytes
    of L's 295 are left unused.
So the serial inflater is in TYPE with no bits held at the start of piece
i + 1 too, and by induction at every split. It then ends the final block
where the last piece does, reads the same 4 bytes as its Adler-32, and has
written the same n bytes. Each probe alone is not enough: a fake marker in
the code lengths of a final dynamic block can pass F, and one in a
non-final block can pass L, where the empty stored blocks that follow put
the reader back on a boundary (tests/test_codec.py builds both).

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
transpose are their coefficients, already in zigzag order. The encoder stages
the blocks, in raster order, in the int32 array that will hold their levels,
and walks it with tensor._float64_chunks, a float64 copy of 256 blocks at a
time in one reused buffer: each chunk's coefficients over qstep, rounded by
_round_half_away, the codec's one level rule, overwrite the chunk's own rows,
and its product is freed before the next chunk's is made. Beside the levels
the walk holds 0.33 MB: the copy, the product and the rounding's float32
scratch. That rule is half away from zero, where a value at most 2^-20 below
k + 1/2 counts as k + 1/2. The band is for exact ties. At zigzag positions 0, 10, 14 and 39 every basis
entry is +-1/8, so where qstep is a power of two an integer block often
lands on k + 1/2 exactly, and the product's rounding error, which depends on
the order BLAS sums in, puts it a few ulps to either side. With the band
every such tie rounds away from zero, on any BLAS kernel and under scipy's
FFT alike. The encoder then codes the pairs a slice at a time, and a slice's
coefficient and bit positions are int32. Its run and level symbols are the
two rows of one int32 array, which the writer takes over: each v + 1, exact
in float32, is written over its symbol, and the exponent field gives the
codeword's z, and the fraction field, moved to the top of a 32-bit word,
holds its suffix and then zeros. A pair is one field in each plane, at most
28 bits wide (see _BitWriter.write_ue): its two prefixes, and its two
suffixes one after the other. Its prefixes take 2 bits more than its
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
import re
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from enum import IntEnum

import numpy as np

from .errors import DimensionOverflowError, DomainError, PayloadDecodeError, TruncatedError
from .tensor import _float64_chunks

BLOCK = 8
_COEFFS = BLOCK * BLOCK
_MAX_QP = 63

# A level at most this far below k + 1/2 rounds as k + 1/2 does; see above.
_TIE = 2.0**-20

# Longest accepted ue zero prefix, so every value fits int32.
_MAX_UE_PREFIX = 24

# Pairs per slice of either coder, and blocks per encoder slice (see
# _slices). An encoder slice holds about 20 bytes of scratch per pair, its 8
# bytes of pair symbols included, so 2^14 pairs take 0.33 MB (tracemalloc;
# 27 bytes and 0.44 MB when the writer cast the symbols into a second array),
# and a mask byte per coefficient while it finds the pairs: 2^12 blocks of
# one pair each take 0.33 MB. A slice also costs about 0.15 ms of numpy call
# overhead: at 2^13 rather than 2^14 pairs the perfbench dense_dct16 frames
# encoded 15-25% slower in-process. The block bound binds where runs of
# empty blocks make a slice sparse; it also keeps the slice's coefficient
# positions, 64 per block, far inside int32.
_SLICE_PAIRS = 1 << 14
_SLICE_BLOCKS = 1 << 12

# Blocks per chunk of the forward transform, 128 KB of float64. At 512
# blocks the chunk's copy, its product and the last chunk's product, 0.79 MB,
# set the encoder's peak. At 256 the codec encoded perfbench-shaped frames
# about 1.5% slower in-process, less than perfbench's run-to-run spread.
_DCT_BLOCKS = 1 << 8

# Words per chunk when one bit writer takes another's bits. Measured with
# tracemalloc, taking 1 MB at an odd bit offset holds 0.17 MB of scratch
# beside the two writers: the chunk's shifted words and one uint32 temporary
# (0.53 MB in uint64 lanes, with a big-endian copy and its bytes).
_EXTEND_WORDS = 1 << 14

# Symbols per run of the writer's in-place float32 cast: numpy copies an input
# that overlaps its output, so each run costs a 16 KB copy.
_CAST_SYMBOLS = 1 << 12

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

# The zlib header of a 32 KB window under Z_RLE, which zlib marks as level 0.
_ZLIB_HEADER = b"\x78\x01"

# The empty non-final stored block that a full flush ends a piece with, from
# its LEN field on.
_FLUSH_MARKER = re.compile(b"\x00\x00\xff\xff")

# The two probes of a piece's boundary (see above): F, an empty final stored
# block, and L, 58 empty non-final ones before F, 295 bytes.
_PROBE_FINAL = b"\x01\x00\x00\xff\xff"
_PROBES = (_PROBE_FINAL, b"\x00\x00\x00\xff\xff" * 58 + _PROBE_FINAL)


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


def _is_integer(value) -> bool:
    """Whether value is a Python or numpy integer other than a bool, which
    would pass as 0 or 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def codec_id(value) -> CodecId:
    """value as a CodecId; raises DomainError unless it is an integer, not a
    bool, that names one."""
    if not (_is_integer(value) and value in list(CodecId)):
        raise DomainError(f"unknown codec id {value}")
    return CodecId(value)


def sample_max(bit_depth) -> int:
    """2^bit_depth - 1; raises DomainError unless bit_depth is an integer, not
    a bool, in [8, 16]."""
    if not (_is_integer(bit_depth) and 8 <= bit_depth <= 16):
        raise DomainError(f"bit depth must be in [8, 16], got {bit_depth}")
    return (1 << int(bit_depth)) - 1


def check_qp(qp) -> int:
    """qp as an int; raises DomainError unless it is an integer, not a bool,
    in [0, 63]."""
    if not (_is_integer(qp) and 0 <= qp <= _MAX_QP):
        raise DomainError(f"qp must be in [0, {_MAX_QP}], got {qp}")
    return int(qp)


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


def _deflate(data, end: int) -> bytes:
    deflate = zlib.compressobj(6, zlib.DEFLATED, -15, _RAW_MEM_LEVEL, zlib.Z_RLE)
    return deflate.compress(data) + deflate.flush(end)


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
    ends = [zlib.Z_FULL_FLUSH] * (k - 1) + [zlib.Z_FINISH]
    pieces = [samples[a:b] for a, b in zip(cuts, cuts[1:])]
    rest = [_PIECE_POOL.submit(_deflate, piece, end) for piece, end in zip(pieces[1:], ends[1:])]
    first = _deflate(pieces[0], ends[0])
    trailer = zlib.adler32(samples).to_bytes(4, "big")
    return b"".join([_ZLIB_HEADER, first, *(piece.result() for piece in rest), trailer])


def _inflate_piece(piece, size: int, last: bool) -> bytes | None:
    """The size bytes a fresh raw inflater reads from piece, or None unless
    it reads exactly those and then rests where the proof above needs: the
    last piece at the end of the final block with 4 bytes left, any other at
    the boundary that both probes accept."""
    d = zlib.decompressobj(-15)
    try:
        out = d.decompress(piece, size + 1)
        if len(out) != size or d.unconsumed_tail or d.eof != last:
            return None
        if last:
            return out if len(d.unused_data) == 4 else None
        for probe in _PROBES:
            tail = d.copy()
            if tail.decompress(probe, 1) or not tail.eof or tail.unused_data:
                return None
    except zlib.error:
        return None
    return out


def _inflate_pieces(data, n: int) -> bytes | None:
    """The n bytes of a payload that the encoder wrote as k >= 2 pieces,
    inflated piece by piece, pieces 1..k-1 on the pool; None unless every
    check proves them to be the serial reading (see above)."""
    k = _piece_count(n)
    if k < 2 or data[:2] != _ZLIB_HEADER:
        return None
    # Where each piece starts: after the header, then after each marker. A
    # hostile shape can make k huge, so nothing is sized by k before the
    # marker count, bounded by the payload's length, equals k - 1.
    starts = [2]
    for marker in _FLUSH_MARKER.finditer(data, 2):
        if len(starts) == k:
            return None
        starts.append(marker.end())
    if len(starts) != k:
        return None
    cuts = _piece_cuts(n // 2, k)
    sizes = [2 * (b - a) for a, b in zip(cuts, cuts[1:])]
    pieces = [data[a:b] for a, b in zip(starts, [*starts[1:], len(data)])]
    rest = [_PIECE_POOL.submit(_inflate_piece, pieces[i], sizes[i], i == k - 1) for i in range(1, k)]
    out = [_inflate_piece(pieces[0], sizes[0], False), *(piece.result() for piece in rest)]
    if None in out:
        return None
    frame = b"".join(out)
    if zlib.adler32(frame).to_bytes(4, "big") != data[-4:]:
        return None
    return frame


def _inflate_serial(data, n: int) -> bytes:
    """The n bytes of the zlib stream data, read by one inflater in one call;
    raises PayloadDecodeError unless the stream ends exactly there."""
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
    if not data:
        raise TruncatedError("empty lossless payload")
    n = shape[0] * shape[1] * 2
    raw = _inflate_pieces(data, n)
    if raw is None:
        raw = _inflate_serial(data, n)
    return np.frombuffer(raw, dtype="<u2").reshape(shape)


def _pair_symbols(levels: np.ndarray) -> np.ndarray:
    """The int32 run and level symbols of the (run, level) pairs of blocks of
    zigzag-ordered int32 levels, as the two rows of one array, pair by pair
    in stream order. 64 * len(levels) must be below 2^31."""
    flat = levels.reshape(-1)
    nonzero = flat != 0
    at = nonzero.nonzero()[0].astype(np.int32)
    pairs = np.empty((2, len(at)), dtype=np.int32)
    run, code = pairs
    code[...] = flat[nonzero]
    del nonzero
    # A block's first run counts from its start, at & 63 positions in.
    run[:1] = at[:1]
    np.subtract(at[1:], at[:-1], out=run[1:])
    run[1:] -= 1
    at &= _COEFFS - 1
    np.minimum(run, at, out=run)
    del at
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
        # suffix followed by 23 - z zeros. Each is written over its symbol, a
        # run of _CAST_SYMBOLS at a time.
        symbols += 1
        flat = symbols.reshape(-1)
        code = flat.view(np.float32)
        for s in range(0, len(flat), _CAST_SYMBOLS):
            code[s : s + _CAST_SYMBOLS] = flat[s : s + _CAST_SYMBOLS]
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
    step = qstep(qp)
    levels = np.empty((blocks.shape[0] * blocks.shape[1], _COEFFS), dtype=np.int32)
    levels.reshape(blocks.shape)[...] = blocks
    del blocks  # a padded copy of the frame, unless its sides are multiples of 8
    for x, rows in _float64_chunks(levels, levels, _DCT_BLOCKS * _COEFFS):
        coeffs = dctn(x)
        coeffs /= step
        rows[...] = _round_half_away(coeffs)
        del coeffs  # before the next chunk's product
    del x, rows
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
        # floor(x + 0.5) rounds half away from zero wherever clip keeps the value.
        rows = _from_blocks(pixels, min(h, BLOCK * r1) - BLOCK * r0, w)
        rows += 0.5
        np.floor(rows, out=rows)
        np.clip(rows, 0, sample_max(bit_depth), out=rows)
        frame[BLOCK * r0 : BLOCK * r1] = rows
        del pixels, rows
    return frame


def codec_encode(frame: np.ndarray, codec: CodecId, qp: int, bit_depth: int) -> bytes:
    """Compress one non-empty 2-d integer frame of samples in [0, 2^bit_depth)."""
    frame = np.asarray(frame)
    if frame.ndim != 2 or frame.dtype.kind not in "iu":
        raise DomainError(f"expected a 2-d integer frame, got {frame.ndim}-d {frame.dtype}")
    if frame.size == 0:
        raise DomainError("frame dimensions must be positive")
    qp = check_qp(qp)
    codec = codec_id(codec)
    top = sample_max(bit_depth)
    blocks = -(-frame.shape[0] // BLOCK) * -(-frame.shape[1] // BLOCK)
    if codec == CodecId.BLOCK_DCT and blocks >= 1 << 28:
        raise DimensionOverflowError(f"a frame of {blocks} blocks, 2^28 or more, is too large for BLOCK_DCT")
    if (frame.dtype.kind == "i" and frame.min() < 0) or frame.max() > top:
        raise DomainError(f"samples outside [0, 2^{bit_depth})")
    if codec == CodecId.RAW_LOSSLESS:
        return _encode_raw(frame)
    return _encode_dct(frame, qp)


def codec_decode(data: bytes, codec: int, bit_depth: int, shape: tuple[int, int]) -> np.ndarray:
    """Decompress to exactly shape with samples below 2^bit_depth, or raise a
    classified error."""
    h, w = shape
    if h < 1 or w < 1:
        raise DomainError("expected dimensions must be positive")
    top = sample_max(bit_depth)
    if codec_id(codec) == CodecId.BLOCK_DCT:
        return _decode_dct(data, bit_depth, (h, w))
    frame = _decode_raw(data, (h, w))
    if frame.max() > top:
        raise PayloadDecodeError(f"decoded sample exceeds bit depth {bit_depth}")
    return frame
