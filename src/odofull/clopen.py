"""Clopen subsets of the binary Cantor space, as unions of cylinders.

A depth-``d`` cylinder fixes the first ``d`` binary coordinates of a
sequence.  Prefixes are encoded little-endian (coordinate ``i`` contributes
``2**i``), which turns the odometer -- add one and carry to the right --
into the successor map ``s -> s + 1 mod 2**d`` on depth-``d`` prefixes.
All set dynamics then reduce to modular arithmetic on prefix integers.

A clopen set is stored as a packed bitmask over the ``2**d`` prefixes at
its minimal representing depth, so boolean operations, popcounts and
translations are whole-integer operations on Python's big integers.
Other modules read a mask one prefix at a time only as the 0/1 flags of
:meth:`ClopenSet._flags` or the members of :meth:`ClopenSet._members`, and
build one only with :func:`pack`, each in time linear in ``2**d``.
"""

from __future__ import annotations

import os
from itertools import compress

from .dyadic import Dyadic
from .errors import DepthCapError

DEFAULT_DEPTH_CAP = 24
DEPTH_CAP_ENV = "ERGO_DEPTH_CAP"


def depth_cap() -> int:
    """Largest allowed table depth; override with ``ERGO_DEPTH_CAP``."""
    raw = os.environ.get(DEPTH_CAP_ENV)
    if raw is None:
        return DEFAULT_DEPTH_CAP
    try:
        return int(raw)
    except ValueError:
        raise DepthCapError(f"bad {DEPTH_CAP_ENV} value: {raw!r}") from None


def check_depth(depth: int) -> None:
    if isinstance(depth, bool) or not isinstance(depth, int):
        raise TypeError(f"depth must be an integer, got {depth!r}")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    cap = depth_cap()
    if depth > cap:
        raise DepthCapError(f"depth {depth} exceeds cap {cap}")


_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def unpack(bits: int, size: int) -> bytes:
    """The low ``size`` bits of ``bits`` as 0/1 flags, flag ``s`` for bit ``s``.

    Base-2 formatting is linear in ``size`` and exempt from the int/str
    digit limit.  A mask with bits at or above ``size`` is rejected.
    """
    if bits < 0 or bits >> size:
        raise ValueError(f"bitmask does not fit in {size} bits")
    return format(bits, "b").zfill(size).encode()[::-1].translate(_TO_FLAGS)


def pack(flags) -> int:
    """Inverse of :func:`unpack`: bit ``s`` is set when ``flags[s]`` is 1.

    ``flags`` is any sequence or iterable of 0/1 values, ``bool`` included.
    """
    return int(bytes(flags).translate(_TO_DIGITS)[::-1], 2)


class ClopenSet:
    """A finite union of cylinder sets, canonical at minimal depth.

    ``bits`` has bit ``s`` set exactly when the depth-``depth`` cylinder
    with prefix ``s`` belongs to the set.  Masks from a caller enter
    through the constructor, which checks the depth cap and the mask's
    type and range.  Masks that operations build from valid operands, at a depth no
    deeper than theirs, enter through :meth:`_trusted` and skip both
    checks.  Either way the set is reduced to the least depth at which it
    is a union of cylinders, so equal sets always compare equal regardless
    of how they were built.
    """

    __slots__ = ("depth", "bits")

    def __init__(self, depth: int, bits: int):
        check_depth(depth)
        if type(bits) is not int:  # bool included
            raise TypeError(f"bits must be an integer, got {bits!r}")
        if bits < 0 or bits >> (1 << depth):
            raise ValueError("bit table does not fit the given depth")
        self._reduce(depth, bits)

    @classmethod
    def _trusted(cls, depth: int, bits: int) -> "ClopenSet":
        """Set of a mask that needs no check, reduced to minimal depth.

        The caller guarantees that ``bits`` is a nonnegative mask of at
        most ``2**depth`` bits and that ``depth`` is within the cap: an
        operand's checked depth or one the caller has checked itself.
        """
        self = object.__new__(cls)
        self._reduce(depth, bits)
        return self

    def _reduce(self, depth: int, bits: int) -> None:
        while depth > 0:
            half = 1 << (depth - 1)
            low = bits & ((1 << half) - 1)
            if bits >> half != low:
                break
            bits = low
            depth -= 1
        self.depth = depth
        self.bits = bits

    @classmethod
    def from_prefixes(cls, depth: int, prefixes) -> "ClopenSet":
        """Union of the depth-``depth`` cylinders with the given ``int`` prefixes."""
        check_depth(depth)
        size = 1 << depth
        flags = bytearray(size)
        for s in prefixes:
            if type(s) is not int:  # bool included
                raise TypeError(f"prefix must be an integer, got {s!r}")
            if not 0 <= s < size:
                raise ValueError(f"prefix {s} out of range at depth {depth}")
            flags[s] = 1
        return cls._trusted(depth, pack(flags))

    @classmethod
    def empty(cls) -> "ClopenSet":
        return cls._trusted(0, 0)

    @classmethod
    def full(cls) -> "ClopenSet":
        return cls._trusted(0, 1)

    # -- basic queries ----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    @property
    def is_full(self) -> bool:
        return self.depth == 0 and self.bits == 1

    def cylinder_count(self) -> int:
        """Number of member cylinders at the canonical depth."""
        return self.bits.bit_count()

    def measure(self) -> Dyadic:
        """Mass under the odometer-invariant measure (``2**-d`` per cylinder)."""
        return Dyadic(self.bits.bit_count(), self.depth)

    def prefixes(self) -> tuple[int, ...]:
        """Member prefixes at the canonical depth, ascending."""
        return tuple(self._members(self.depth))

    def _bits_at(self, depth: int) -> int:
        """Membership bitmask refined to an operand's checked ``depth >= self.depth``.

        Refining one level appends a free coordinate, which duplicates the
        mask into the upper half of the prefix range.
        """
        bits = self.bits
        size = 1 << self.depth
        for _ in range(depth - self.depth):
            bits |= bits << size
            size <<= 1
        return bits

    def _flags(self, depth: int) -> bytes:
        """0/1 membership flags by prefix at an operand's checked ``depth >= self.depth``."""
        return unpack(self._bits_at(depth), 1 << depth)

    def _members(self, depth: int) -> list[int]:
        """Member prefixes, ascending, at an operand's checked ``depth >= self.depth``."""
        return list(compress(range(1 << depth), self._flags(depth)))

    # -- boolean algebra ---------------------------------------------------

    def _common(self, other: "ClopenSet") -> tuple[int, int, int]:
        depth = max(self.depth, other.depth)
        return depth, self._bits_at(depth), other._bits_at(depth)

    def __or__(self, other: "ClopenSet") -> "ClopenSet":
        depth, a, b = self._common(other)
        return ClopenSet._trusted(depth, a | b)

    def __and__(self, other: "ClopenSet") -> "ClopenSet":
        depth, a, b = self._common(other)
        return ClopenSet._trusted(depth, a & b)

    def __sub__(self, other: "ClopenSet") -> "ClopenSet":
        depth, a, b = self._common(other)
        return ClopenSet._trusted(depth, a & ~b)

    def __invert__(self) -> "ClopenSet":
        full = (1 << (1 << self.depth)) - 1
        return ClopenSet._trusted(self.depth, self.bits ^ full)

    def __eq__(self, other):
        if not isinstance(other, ClopenSet):
            return NotImplemented
        return self.depth == other.depth and self.bits == other.bits

    def __hash__(self):
        return hash((self.depth, self.bits))

    def __repr__(self):
        return f"ClopenSet(depth={self.depth}, prefixes={list(self.prefixes())})"

    # -- odometer action ---------------------------------------------------

    def translate(self, steps: int) -> "ClopenSet":
        """Image under ``steps`` odometer applications.

        The odometer carries through any fixed prefix, so the image of the
        cylinder with prefix ``s`` is the cylinder with prefix
        ``(s + steps) mod 2**d``: a cyclic rotation of the bitmask.
        """
        if type(steps) is not int:  # bool included
            raise TypeError(f"steps must be an integer, got {steps!r}")
        size = 1 << self.depth
        k = steps % size
        if k == 0:
            return self
        full = (1 << size) - 1
        bits = ((self.bits << k) | (self.bits >> (size - k))) & full
        return ClopenSet._trusted(self.depth, bits)

