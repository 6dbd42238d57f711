"""Reference oracle for the BLOCK_DCT entropy coder: bit-serial ue I/O.

MSB-first within each byte. A value v is written as the binary form of v+1
preceded by bit_length(v+1) - 1 zero bits. The reference DCT coder below
reads and writes one bit at a time, in the split-plane layout the codec
module's docstring describes: a sequence's prefixes (z zeros and a 1) first,
then its suffixes (the low z bits of each v+1). The tests require the
codec's bytes and decoded frames, or its error class, to equal its. The
reference encoder's levels come from scipy's `dctn` of the whole frame,
rounded by the codec's own level rule, `codec._round_half_away`, and its
decoder's pixels from the codec's own inverse, `codec.idctn`. So it checks the
entropy layer, the encoder's chunking and its forward product against an
independent transform, not the float rounding of either product.
`dct_block_forward` and `dct_block_inverse` transform one 8x8 block with
scipy, an independent check of the transform convention.
"""

from __future__ import annotations

import numpy as np

from scipy.fft import dctn, idctn

from fcmcodec import codec
from fcmcodec.codec import BLOCK, ZIGZAG, _to_blocks, qstep
from fcmcodec.errors import DomainError, PayloadDecodeError, TruncatedError

# Longest zero prefix of a BLOCK_DCT codeword, so every value fits int32.
MAX_DCT_PREFIX = 24


class BitWriter:
    def __init__(self):
        self._buf = bytearray()
        self._acc = 0
        self._nbits = 0

    def write_bits(self, value: int, nbits: int) -> None:
        if value < 0 or (nbits < 64 and value >> nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        for shift in range(nbits - 1, -1, -1):
            self._acc = (self._acc << 1) | ((value >> shift) & 1)
            self._nbits += 1
            if self._nbits == 8:
                self._buf.append(self._acc)
                self._acc = 0
                self._nbits = 0

    def getvalue(self) -> bytes:
        out = bytearray(self._buf)
        if self._nbits:
            out.append(self._acc << (8 - self._nbits))
        return bytes(out)


class BitReader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0  # bit position

    def bits_left(self) -> int:
        return len(self._data) * 8 - self._pos

    def read_bits(self, nbits: int) -> int:
        if nbits > self.bits_left():
            raise TruncatedError("bitstream exhausted")
        out = 0
        pos = self._pos
        data = self._data
        for _ in range(nbits):
            out = (out << 1) | ((data[pos >> 3] >> (7 - (pos & 7))) & 1)
            pos += 1
        self._pos = pos
        return out


def write_split_ue(writer: BitWriter, values) -> None:
    """One split-plane ue sequence: every prefix, then every suffix."""
    shifted = [int(v) + 1 for v in values]
    for v in shifted:
        writer.write_bits(1, v.bit_length())
    for v in shifted:
        writer.write_bits(v ^ (1 << (v.bit_length() - 1)), v.bit_length() - 1)


def read_split_ue(reader: BitReader, n: int) -> list[int]:
    """The n values of one split-plane ue sequence."""
    zeros = []
    for _ in range(n):
        z = 0
        while reader.read_bits(1) == 0:
            z += 1
            if z > MAX_DCT_PREFIX:
                raise PayloadDecodeError("exp-Golomb prefix too long")
        zeros.append(z)
    return [((1 << z) | reader.read_bits(z)) - 1 for z in zeros]


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5))


def _signed_to_ue(level: int) -> int:
    # 1 -> 1, -1 -> 2, 2 -> 3, -2 -> 4, ...
    return 2 * level - 1 if level > 0 else -2 * level


def _ue_to_signed(m: int) -> int:
    return (m + 1) // 2 if m % 2 else -(m // 2)


def dct_block_forward(block: np.ndarray) -> np.ndarray:
    """Orthonormal type-II DCT of one 8x8 block."""
    block = np.asarray(block, dtype=np.float64)
    if block.shape != (BLOCK, BLOCK):
        raise DomainError(f"expected an 8x8 block, got {block.shape}")
    return dctn(block, type=2, norm="ortho")


def dct_block_inverse(block: np.ndarray) -> np.ndarray:
    block = np.asarray(block, dtype=np.float64)
    if block.shape != (BLOCK, BLOCK):
        raise DomainError(f"expected an 8x8 block, got {block.shape}")
    return idctn(block, type=2, norm="ortho")


def reference_encode_dct(frame: np.ndarray, qp: int) -> bytes:
    """BLOCK_DCT payload of frame, one ue symbol and one bit at a time."""
    blocks = _to_blocks(np.asarray(frame).astype(np.float64))
    coeffs = dctn(blocks, type=2, norm="ortho", axes=(-2, -1))
    q = codec._round_half_away(coeffs / qstep(qp)).astype(np.int64)
    counts, pairs = [], []
    for row in q.reshape(-1, BLOCK * BLOCK)[:, ZIGZAG]:
        nz = np.nonzero(row)[0]
        counts.append(len(nz))
        prev = -1
        for pos in nz:
            pairs += [int(pos) - prev - 1, _signed_to_ue(int(row[pos]))]
            prev = int(pos)
    writer = BitWriter()
    write_split_ue(writer, counts)
    write_split_ue(writer, pairs)
    return bytes([qp]) + writer.getvalue()


def reference_decode_dct(data: bytes, bit_depth: int, shape: tuple[int, int]) -> np.ndarray:
    """Decode a BLOCK_DCT payload one bit at a time, clipped to bit_depth.

    Refuses as truncated a payload with fewer bits than it must hold
    codewords: one per block, then two per declared coefficient. Sizes the
    coefficient array only after every block has been read, so a payload
    declaring huge dims fails on its bits, not on an allocation.
    """
    if not data:
        raise TruncatedError("empty transform payload")
    qp = data[0]
    if qp > 63:
        raise PayloadDecodeError(f"qp {qp} in payload outside [0, 63]")
    h, w = shape
    hb = -(-h // BLOCK)
    wb = -(-w // BLOCK)
    step = qstep(qp)
    reader = BitReader(data[1:])
    if hb * wb > reader.bits_left():
        raise TruncatedError("fewer payload bits than blocks")
    counts = read_split_ue(reader, hb * wb)
    for count in counts:
        if count > BLOCK * BLOCK:
            raise PayloadDecodeError(f"block coefficient count {count} > 64")
    if 2 * sum(counts) > reader.bits_left():
        raise TruncatedError("fewer payload bits than run-level symbols")
    symbols = iter(read_split_ue(reader, 2 * sum(counts)))
    coefficients = []
    for b, count in enumerate(counts):
        pos = -1
        for _ in range(count):
            pos += next(symbols) + 1
            if pos >= BLOCK * BLOCK:
                raise PayloadDecodeError("coefficient position past end of block")
            m = next(symbols)
            if m == 0:
                raise PayloadDecodeError("zero level in run-level pair")
            coefficients.append((b, pos, _ue_to_signed(m) * step))
    if reader.bits_left() >= 8:
        raise PayloadDecodeError("a whole byte past the last codeword")
    if reader.read_bits(reader.bits_left()):
        raise PayloadDecodeError("nonzero padding bit")
    flat = np.zeros((hb * wb, BLOCK * BLOCK), dtype=np.float64)  # zigzag order
    for b, index, value in coefficients:
        flat[b, index] = value
    pixels = codec.idctn(flat).reshape(hb, wb, BLOCK, BLOCK)
    frame = pixels.transpose(0, 2, 1, 3).reshape(hb * BLOCK, wb * BLOCK)[:h, :w]
    frame = np.clip(_round_half_away(frame), 0, (1 << bit_depth) - 1)
    return frame.astype(np.uint16)
