"""Feature tensors, global statistics, refinement, and the FTNS container.

A feature tensor is a C x H x W grid of finite float32 values (channel-major).
Global statistics are the mean and the population standard deviation over all
elements; refinement is the affine map that forces a tensor's statistics onto
a transmitted target pair.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ByteReader, DimensionOverflowError, DomainError, MagicMismatchError, VersionError, is_real

TENSOR_MAGIC = b"FTNS"
TENSOR_FORMAT_VERSION = 1

# Hard cap on C*H*W for a single tensor read from disk, and on the packed
# frame of an FCMB unit.
MAX_ELEMENTS = 1 << 31
# Most tensors one group, FTNS file or FCMB stream may hold.
MAX_TENSORS = 8

# Elements per float64 scratch chunk of the elementwise stages and of every
# float64 sum, all walked by _float64_chunks: 256 KB, small next to any
# tensor worth coding and large enough that a numpy call's fixed cost is lost
# in its work.
_CHUNK = 1 << 15

_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class GlobalStats:
    """Mean and population standard deviation of a tensor: finite real
    numbers, not bools, and sigma non-negative."""

    mu: float
    sigma: float

    def __post_init__(self):
        # Compared, as math.isfinite raises OverflowError for an int past float range.
        if not all(is_real(v) and -math.inf < v < math.inf for v in (self.mu, self.sigma)):
            raise DomainError(f"statistics must be finite real numbers, got {self.mu!r}, {self.sigma!r}")
        if self.sigma < 0:
            raise DomainError("sigma must be non-negative")


@dataclass(frozen=True)
class FeatureTensor:
    """Immutable C x H x W float32 tensor with all-finite values.

    The input must hold integers or floats. A C-contiguous float32 input
    array is kept, not copied, and made read-only; any other input is
    converted to a new one. On a little-endian host, a tensor read from an
    FTNS file views the file's bytes.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        # A bool would pass as 0 or 1, a complex lose its imaginary part, and
        # a string be parsed as a number.
        if arr.dtype.kind not in "iuf":
            raise DomainError(f"expected integer or float values, got {arr.dtype}")
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        if arr.ndim != 3:
            raise DomainError(f"expected a 3-d array, got {arr.ndim}-d")
        if min(arr.shape) < 1:
            raise DomainError(f"all dimensions must be >= 1, got {arr.shape}")
        # NaN propagates through min and max, and an infinity is one of them.
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise DomainError("tensor contains non-finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


def label_bytes(label: str) -> bytes:
    """A tensor label's UTF-8 bytes, as FTNS and FCMB carry them; DomainError
    for a label that is not a str or takes more than 255 bytes."""
    if not isinstance(label, str):
        raise DomainError(f"label must be a str, got {label!r}")
    try:
        data = label.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DomainError(f"label not encodable as UTF-8: {label!r}") from exc
    if len(data) > 255:
        raise DomainError(f"label longer than 255 bytes: {label!r}")
    return data


@dataclass(frozen=True)
class TensorGroup:
    """Ordered group of 1-8 tensors, e.g. the levels of a feature pyramid."""

    tensors: tuple[FeatureTensor, ...]
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        tensors = tuple(self.tensors)
        if not 1 <= len(tensors) <= MAX_TENSORS:
            raise DomainError(f"group must hold 1-{MAX_TENSORS} tensors, got {len(tensors)}")
        labels = tuple(self.labels) if self.labels else ("",) * len(tensors)
        if len(labels) != len(tensors):
            raise DomainError("one label per tensor required")
        for label in labels:
            label_bytes(label)
        object.__setattr__(self, "tensors", tensors)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.tensors)


def _float64_chunks(src: np.ndarray, out: np.ndarray):
    """Walk the 2-d src in chunks of whole rows, about _CHUNK elements each.

    Yields a float64 copy of each chunk, in one reused buffer, and the same
    rows of out, which has src's number of rows. A row wider than _CHUNK is a
    chunk of its own. out may be src: each chunk is copied before its rows
    are yielded.
    """
    rows = max(1, _CHUNK // src.shape[1])
    buf = np.empty((min(rows, len(src)), src.shape[1]))
    for s in range(0, len(src), rows):
        x = buf[: min(rows, len(src) - s)]
        x[...] = src[s : s + rows]
        yield x, out[s : s + rows]


def _float64_sum(data: np.ndarray, mu: float | None) -> float:
    """The float64 sum of the elements of data, or, with mu not None, of
    their squared deviations (x - mu)**2, walking data a _CHUNK of elements
    at a time: numpy sums each chunk, and the chunks' sums add up in order."""
    flat = data.reshape(-1, 1)
    total = 0.0
    for x, _ in _float64_chunks(flat, flat):
        if mu is not None:
            x -= mu
            x *= x
        total += float(x.sum())
    return total


def compute_global_stats(t: FeatureTensor) -> GlobalStats:
    """Mean and population (biased) standard deviation over all elements.

    Accumulates in float64 regardless of tensor size, a _CHUNK of elements at
    a time (_float64_sum): the mean of the elements, then the square root of
    the mean of their squared deviations from it. Up to _CHUNK elements both
    have the bits of numpy's whole-array float64 expressions. Beyond that,
    numpy documents no summation order, only that np.sum rounds no worse
    than adding each element in turn, and the chunks' sums add up in order.
    So each of the n elements' terms passes through at most d = _CHUNK +
    ceil(n / _CHUNK) roundings, and each sum is within d * 2^-53 / (1 - d *
    2^-53) of the sum of its terms' magnitudes, as for any summation tree of
    that depth.
    """
    n = t.data.size
    mu = _float64_sum(t.data, None) / n
    return GlobalStats(mu, math.sqrt(_float64_sum(t.data, mu) / n))


def apply_refinement(x: np.ndarray, current: GlobalStats, target: GlobalStats) -> FeatureTensor:
    """Affinely remap the C x H x W float32 array x, whose global statistics
    are current, so they become target, and return it as a tensor.

    current is not measured here: the caller states it. The map is
    (x - current.mu) * gain + target.mu, with gain = target.sigma /
    current.sigma, written into x itself, which then becomes the read-only
    data of the returned tensor: the caller hands over a buffer it owns. With
    current.sigma 0 the normalized term is taken as 0, so the output is the
    constant target.mu. Otherwise current.mu, and the distance of each sample
    from it, must be below 2^126, as on a decoder's buffer on [0, 1]; any
    other x is refused with DomainError.

    The map runs in float32, in place, in three steps: x - m, times gain,
    plus target.mu + (m - current.mu) * gain, where m is current.mu rounded
    to float32, and the gain and the addend are each rounded to float32
    once. The addend takes back m's rounding, which (x - m) * gain +
    target.mu would scale by the gain. On buffers on [0, 1], as a decoder's
    are, the output stayed within 2 float32 ulps of the float64 map, an ulp
    being float32's epsilon times the largest magnitude, where x * gain +
    offset, whose rounded offset cancels much of the product, reached 2.4 and
    (x - m) * gain + target.mu 2.06. A buffer whose spread is small next to
    its magnitude keeps fewer of the spread's bits in float32 than in
    float64.

    The gain and the addend are scaled by 2^-e, for the smallest e >= 0 that
    brings the gain and a float64 bound on the output below 2^126, a quarter
    of float32's range, so no step overflows. At e = 0 nothing is scaled; e
    > 0 only where the output nears float32's range. There a sample more than
    one float32 ulp past float32's max, scaled by 2^-e, is refused with
    DomainError, and the rest are clamped to that max and multiplied by 2^e,
    exactly. So a sample that the header's float32 statistics round past
    float32's max by at most an ulp becomes that max.

    At e > 0 a scaled step whose result lies below 2^-126, float32's least
    normal, rounds to a multiple of 2^-149. Over the gain's, the addend's,
    the product's and the sum's roundings, that moves a sample by at most
    (|x - m| + 3) * 2^(e - 150) once scaled back. As e > 0 puts the gain or
    the bound at 2^(125 + e) or more, that is far below 2 ulps of the largest
    output: under 2^-148 of the bound, or, where the gain sets e and so is
    no subnormal once scaled, under 2^-124 of the least gap between the
    outputs of two distinct samples, 2^-149 * gain.
    """
    if not (x.dtype == np.float32 and x.ndim == 3 and x.size and x.flags.c_contiguous and x.flags.writeable):
        raise DomainError("refinement needs a writable, non-empty, C-contiguous 3-d float32 array")
    if current.sigma == 0.0:
        x.fill(target.mu)
        return FeatureTensor(x)
    # m and x - m are not scaled, so they must stay below 2^126 themselves.
    spread = max(float(x.max()) - current.mu, current.mu - float(x.min()))
    if not (abs(current.mu) < 2.0**126 and spread < 2.0**126):
        raise DomainError("refinement needs the stated mean, and the samples' distance from it, below 2^126")
    gain = target.sigma / current.sigma
    # The output, whose addend moves it by at most 2^-24 |current.mu| gain.
    reach = (spread + 2.0**-24 * abs(current.mu)) * gain + abs(target.mu)
    # Below 2^379, e stays at most 253, where float32's max times 2^-e is a
    # float32 normal, so the clamp below is exact. Past it, a buffer whose
    # stated statistics are its own maps past float32's range. Compared so
    # that an inf gain, or the nan of an inf gain times a 0 spread, fails
    # too.
    if not (gain < 2.0**379 and reach < 2.0**379):
        raise DomainError("refinement maps a sample past the float32 range")
    e = max(0, math.frexp(gain)[1] - 126, math.frexp(reach)[1] - 126)
    m = np.float32(current.mu)
    x -= m
    x *= np.float32(math.ldexp(gain, -e))
    x += np.float32(math.ldexp(target.mu + (float(m) - current.mu) * gain, -e))
    if e:
        # float32's max plus one ulp is 2^128.
        if max(-float(x.min()), float(x.max())) > math.ldexp(1.0, 128 - e):
            raise DomainError("refinement maps a sample past the float32 range")
        limit = np.float32(math.ldexp(_F32_MAX, -e))
        np.clip(x, -limit, limit, out=x)
        np.ldexp(x, e, out=x)
    return FeatureTensor(x)


def write_tensor_file(path, group: TensorGroup) -> None:
    """Write a group to the FTNS container (bit-exact round-trip with read).

    Each tensor's array goes to the file as it is, not copied."""
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC + struct.pack("<BB", TENSOR_FORMAT_VERSION, len(group)))
        for tensor, label in zip(group.tensors, group.labels):
            lbl = label_bytes(label)
            fh.write(struct.pack("<B", len(lbl)) + lbl + struct.pack("<III", *tensor.shape))
            fh.write(tensor.data.astype("<f4", copy=False))


def read_tensor_file(path) -> TensorGroup:
    """Read an FTNS container written by write_tensor_file."""
    with open(path, "rb") as fh:
        data = fh.read()
    return _parse_tensor_bytes(data)


def _parse_tensor_bytes(data: bytes) -> TensorGroup:
    r = ByteReader(data, "tensor file")
    if r.take(4) != TENSOR_MAGIC:
        raise MagicMismatchError("not an FTNS tensor file (bad magic)")
    version, count = r.unpack("<BB")
    if version != TENSOR_FORMAT_VERSION:
        raise VersionError(f"unsupported tensor format version {version}")

    tensors = []
    labels = []
    for _ in range(count):
        (lbl_len,) = r.unpack("<B")
        labels.append(r.text(lbl_len))
        c, h, w = r.unpack("<III")
        # Checked before the reshape: with one zero dimension the element cap
        # passes, and numpy sizes the other two against intp and overflows.
        if min(c, h, w) < 1:
            raise DimensionOverflowError(f"zero dimension in tensor header ({c}x{h}x{w})")
        if c * h * w > MAX_ELEMENTS:
            raise DimensionOverflowError(f"tensor {c}x{h}x{w} exceeds element cap")
        arr = np.frombuffer(r.take(c * h * w * 4), dtype="<f4").reshape(c, h, w)
        tensors.append(r.build(FeatureTensor, arr))
    r.end()
    return r.build(TensorGroup, tuple(tensors), tuple(labels))
