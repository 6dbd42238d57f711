"""Exception hierarchy shared across the codec, and the reader that every
container parser reads untrusted bytes through.

FormatError covers anything wrong with bytes we were handed (bad magic,
truncation, corrupt payloads); DomainError covers valid bytes used wrongly
(mismatched shapes, out-of-range parameters). The CLI maps these to distinct
exit codes.

`ByteReader` keeps every container's two rules: input that ends inside a field
is truncated, and input left after the last field breaks an invariant.
"""

import struct


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


class ByteReader:
    """Bounded reads of one container's bytes, named by what; each read is a
    view of data, not a copy."""

    def __init__(self, data, what: str, pos: int = 0):
        self.view = memoryview(data)
        self.what = what
        self.pos = pos

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.view):
            raise TruncatedError(f"{self.what} truncated at byte {self.pos} (need {n} more)")
        self.pos += n
        return self.view[self.pos - n : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def end(self) -> None:
        if self.pos < len(self.view):
            raise InvariantError(f"{len(self.view) - self.pos} trailing bytes after {self.what}")
