"""Exact dyadic rationals ``num / 2**exp2``.

Every measure and every metric value in this package is a dyadic rational,
so a dedicated exact type lets all computations avoid floats entirely.
"""

from __future__ import annotations

import operator


def _comparison(op):
    """An order method: ``op`` on the aligned numerators."""

    def compare(self, other):
        aligned = self._aligned(other)
        if aligned is None:
            return NotImplemented
        return op(aligned[0], aligned[1])

    return compare


class Dyadic:
    """An exact dyadic rational ``num / 2**exp2``.

    Instances are canonical (``num`` odd or zero, and zero is ``0 / 2**0``),
    immutable, hashable, totally ordered, and closed under ``+``, ``-``,
    ``*`` and ``abs`` without any rounding.  Plain ``int`` operands mix in
    freely.

    >>> Dyadic(6, 3)
    Dyadic(3, 2)
    >>> Dyadic(1, 2) + Dyadic(1, 2)
    Dyadic(1, 1)
    >>> str(Dyadic(3, 2))
    '3/2^2'
    >>> Dyadic(3, 2) * 4 == 3
    True
    """

    __slots__ = ("num", "exp2")

    def __init__(self, num: int, exp2: int = 0):
        if not (type(num) is type(exp2) is int) and (
            bool in (type(num), type(exp2)) or not (isinstance(num, int) and isinstance(exp2, int))
        ):
            raise TypeError(f"Dyadic needs integers, got {num!r} / 2^{exp2!r}")
        if exp2 < 0:
            raise ValueError("exp2 must be nonnegative")
        if num == 0:
            exp2 = 0
        elif exp2 > 0 and num % 2 == 0:
            shift = min(((num & -num).bit_length() - 1), exp2)
            num >>= shift
            exp2 -= shift
        self.num = num
        self.exp2 = exp2

    # -- conversions ----------------------------------------------------

    def as_integer_ratio(self) -> tuple[int, int]:
        return self.num, 1 << self.exp2

    def __float__(self) -> float:
        return self.num / (1 << self.exp2)

    def __bool__(self) -> bool:
        return self.num != 0

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp2})"

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp2}"

    @classmethod
    def from_string(cls, text: str) -> "Dyadic":
        """Parse ``"p/2^k"`` (or a bare integer string)."""
        text = text.strip()
        if "/" in text:
            num_part, _, den_part = text.partition("/")
            if not den_part.startswith("2^"):
                raise ValueError(f"not a dyadic literal: {text!r}")
            return cls(int(num_part), int(den_part[2:]))
        return cls(int(text))

    # -- arithmetic -----------------------------------------------------

    def _aligned(self, other) -> tuple[int, int, int] | None:
        """``(a, b, exp2)``, both operands over ``2**exp2``; ``None`` for other types."""
        if isinstance(other, Dyadic):
            exp2 = max(self.exp2, other.exp2)
            return self.num << (exp2 - self.exp2), other.num << (exp2 - other.exp2), exp2
        if isinstance(other, int):
            return self.num, other << self.exp2, self.exp2
        return None

    def __add__(self, other):
        aligned = self._aligned(other)
        if aligned is None:
            return NotImplemented
        return Dyadic(aligned[0] + aligned[1], aligned[2])

    __radd__ = __add__

    def __sub__(self, other):
        aligned = self._aligned(other)
        if aligned is None:
            return NotImplemented
        return Dyadic(aligned[0] - aligned[1], aligned[2])

    def __rsub__(self, other):
        aligned = self._aligned(other)
        if aligned is None:
            return NotImplemented
        return Dyadic(aligned[1] - aligned[0], aligned[2])

    def __mul__(self, other):
        if isinstance(other, Dyadic):
            return Dyadic(self.num * other.num, self.exp2 + other.exp2)
        if isinstance(other, int):
            return Dyadic(self.num * other, self.exp2)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp2)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.num), self.exp2)

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        # the form is canonical, so equal values have equal fields
        if isinstance(other, Dyadic):
            return self.num == other.num and self.exp2 == other.exp2
        if isinstance(other, int):
            return self.exp2 == 0 and self.num == other
        return NotImplemented

    def __hash__(self):
        # integers hash like the equal int
        return hash(self.num) if self.exp2 == 0 else hash((self.num, self.exp2))

    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)
