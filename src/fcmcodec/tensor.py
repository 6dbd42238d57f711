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

from .errors import ByteReader, DimensionOverflowError, DomainError, MagicMismatchError, VersionError

TENSOR_MAGIC = b"FTNS"
TENSOR_FORMAT_VERSION = 1

# Hard cap on C*H*W for a single tensor read from disk, and on the packed
# frame of an FCMB unit.
MAX_ELEMENTS = 1 << 31
# Most tensors one group, FTNS file or FCMB stream may hold.
MAX_TENSORS = 8

# Elements per float64 scratch chunk of the elementwise stages: 256 KB, small
# next to any tensor worth coding and large enough that a numpy call's fixed
# cost is lost in its work.
_CHUNK = 1 << 15


@dataclass(frozen=True)
class GlobalStats:
    """Mean and population standard deviation of a tensor."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.sigma)):
            raise DomainError("statistics must be finite")
        if self.sigma < 0:
            raise DomainError("sigma must be non-negative")


@dataclass(frozen=True)
class FeatureTensor:
    """Immutable C x H x W float32 tensor with all-finite values.

    A C-contiguous float32 input array is kept, not copied, and made
    read-only; any other input is converted to a new one. On a little-endian
    host, a tensor read from an FTNS file views the file's bytes.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
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
        for lbl in labels:
            try:
                size = len(lbl.encode("utf-8"))
            except UnicodeEncodeError as exc:
                raise DomainError(f"label not encodable as UTF-8: {lbl!r}") from exc
            if size > 255:
                raise DomainError(f"label too long: {lbl!r}")
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


def _pairwise_sum(data: np.ndarray, mu: float | None) -> float:
    """The float64 sum of the elements of data, or, with mu not None, of
    their squared deviations (x - mu)**2, holding at most _CHUNK float64
    values at a time.

    It has the bits of data.astype(np.float64).sum(), and of the sum of the
    squared deviations computed on that copy. numpy sums a contiguous array
    pairwise: while a part holds more than 128 elements, it splits it after
    its first n // 2 elements, rounded down to a multiple of 8, and adds the
    two halves' sums. Splitting the same way down to parts of at most _CHUNK
    elements, and letting numpy sum each part, builds the same tree.
    """
    flat = data.reshape(-1)
    return _pairwise_part(flat, mu, np.empty(min(len(flat), _CHUNK)))


def _pairwise_part(part: np.ndarray, mu: float | None, buf: np.ndarray) -> float:
    """_pairwise_sum of the 1-d part, with buf as the leaves' float64 scratch."""
    n = len(part)
    if n > _CHUNK:
        half = n // 2
        half -= half % 8
        return _pairwise_part(part[:half], mu, buf) + _pairwise_part(part[half:], mu, buf)
    x = buf[:n]
    x[...] = part
    if mu is not None:
        x -= mu
        x *= x
    return float(np.add.reduce(x))


def _mean(data: np.ndarray) -> float:
    """data.astype(np.float64).mean(), bit for bit, without the copy."""
    return _pairwise_sum(data, None) / data.size


def _stats(data: np.ndarray) -> GlobalStats:
    """compute_global_stats of the elements of the non-empty array data."""
    mu = _mean(data)
    sigma = math.sqrt(_pairwise_sum(data, mu) / data.size)
    return GlobalStats(mu, sigma)


def compute_global_stats(t: FeatureTensor) -> GlobalStats:
    """Mean and population (biased) standard deviation over all elements.

    Accumulates in float64 regardless of tensor size, a _CHUNK of elements at
    a time, and has the bits of the mean of a whole-tensor float64 copy and
    of the square root of the mean of its squared deviations from that mean.
    """
    return _stats(t.data)


def apply_refinement(x: np.ndarray, target: GlobalStats) -> FeatureTensor:
    """Affinely remap the C x H x W float32 array x so its global statistics
    become (target.mu, target.sigma), and return it as a tensor.

    The map is written into x itself, which then becomes the read-only data
    of the returned tensor: the caller hands over a buffer it owns. With a
    zero-spread input the normalized term is taken as 0, so the output is the
    constant target.mu.
    """
    if not (x.dtype == np.float32 and x.ndim == 3 and x.size and x.flags.c_contiguous and x.flags.writeable):
        raise DomainError("refinement needs a writable, non-empty, C-contiguous 3-d float32 array")
    current = _stats(x)
    if current.sigma == 0.0:
        x.fill(target.mu)
        return FeatureTensor(x)
    # target.sigma * (x - mu) / sigma + target.mu, one IEEE step at a time,
    # a float64 chunk of rows at a time; each chunk is copied out of x before
    # its rows are written back.
    # A hostile target.sigma can take a sample past float32 in the cast back
    # (the float64 steps cannot overflow on finite float32 input). The sample
    # becomes inf, which FeatureTensor refuses, so numpy need not warn.
    rows = x.reshape(-1, x.shape[-1])
    with np.errstate(over="ignore"):
        for chunk, out in _float64_chunks(rows, rows):
            chunk -= current.mu
            chunk *= target.sigma
            chunk /= current.sigma
            chunk += target.mu
            out[...] = chunk
    return FeatureTensor(x)


def write_tensor_file(path, group: TensorGroup) -> None:
    """Write a group to the FTNS container (bit-exact round-trip with read).

    Each tensor's array goes to the file as it is, not copied."""
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC + struct.pack("<BB", TENSOR_FORMAT_VERSION, len(group)))
        for tensor, label in zip(group.tensors, group.labels):
            lbl = label.encode("utf-8")
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
