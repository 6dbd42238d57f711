"""Exception hierarchy shared across the codec, and the reader that every
container parser reads untrusted bytes through.

FormatError covers anything wrong with bytes we were handed (bad magic,
truncation, corrupt payloads); DomainError covers valid bytes used wrongly
(mismatched shapes, out-of-range parameters). The CLI maps these to distinct
exit codes.

`ByteReader` keeps every container's three rules: input that ends inside a
field is truncated; input left after the last field breaks an invariant; and
so does a value that its type refuses, since every field came from the bytes
(`text` for UTF-8 fields, `build` for value types).

`integer_in` is the one rule for an integer field of any value type: a
Python or numpy integer, not a bool, in a declared range. `is_real` is the
one test of a real-valued field's type: a real number, not a bool.
"""

import struct
from numbers import Real

import numpy as np


class FcmError(Exception):
    """Base class for all codec errors."""


class FormatError(FcmError):
    """Malformed or corrupt serialized data."""


class MagicMismatchError(FormatError):
    pass


class VersionError(FormatError):
    pass


class TruncatedError(FormatError):
    pass


class DimensionOverflowError(FormatError):
    pass


class InvariantError(FormatError):
    """Structurally parseable data that violates a declared invariant."""


class PayloadDecodeError(FormatError):
    """Inner-codec payload cannot be decoded."""


class DomainError(FcmError):
    """Operation invoked outside its declared domain."""


class RankRangeError(DomainError):
    """Combination rank outside [0, C(N, k))."""


def integer_in(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """value as an int; raises DomainError unless it is a Python or numpy
    integer, not a bool (which would pass as 0 or 1), in [lo, hi], at least
    lo when hi is None, or any integer when both are None."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if (lo is None or lo <= value) and (hi is None or value <= hi):
            return int(value)
    if hi is not None:
        bounds = f"in [{lo}, {hi}]"
    else:
        bounds = "an integer" if lo is None else f"an integer >= {lo}"
    raise DomainError(f"{what} must be {bounds}, got {value}")


def is_real(value) -> bool:
    """Whether value is a real number, Python's or numpy's, and not a bool,
    which would pass as 0 or 1."""
    return isinstance(value, Real) and not isinstance(value, bool)


class ByteReader:
    """Bounded reads of one container's bytes, named by what; each read is a
    view of data, not a copy."""

    def __init__(self, data, what: str):
        self.view = memoryview(data)
        self.what = what
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.view):
            raise TruncatedError(f"{self.what} truncated at byte {self.pos} (need {n} more)")
        self.pos += n
        return self.view[self.pos - n : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        """The next n bytes, decoded as UTF-8."""
        at = self.pos
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise InvariantError(f"malformed UTF-8 in {self.what} at byte {at + exc.start}: {exc.reason}") from exc

    def build(self, cls, *args, **kwargs):
        """cls(*args, **kwargs), built from fields just read; a value that
        cls refuses breaks an invariant of the container."""
        try:
            return cls(*args, **kwargs)
        except DomainError as exc:
            raise InvariantError(str(exc)) from exc

    def end(self) -> None:
        if self.pos < len(self.view):
            raise InvariantError(f"{len(self.view) - self.pos} trailing bytes after {self.what}")
