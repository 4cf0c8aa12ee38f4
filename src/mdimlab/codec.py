"""Self-delimiting binary encodings for integers, dyadic rationals, and points.

The wire format is frozen.  Changing any layout rule below invalidates every
pinned regression constant downstream, so changes must be accompanied by a new
machine version tag.

Layout
------
* ``encode_int(z)``   = Elias gamma code of ``zigzag(z) + 1`` where
  ``zigzag(z) = 2z`` for ``z >= 0`` and ``-2z - 1`` for ``z < 0``.
  ``encode_int(0) == "1"``; the length law is
  ``len(encode_int(z)) == 2*floor(log2(zigzag(z) + 1)) + 1``.
* ``encode_point(p)`` = ``encode_int(n)`` then ``encode_int(R)`` then the
  ``n`` coordinate numerators at the common exponent ``R = max(exp_i)``,
  each via ``encode_int``.
* ``pair(a, b)``      = ``encode_int(len(a))`` then ``a`` then ``b``.

All decoders consume an unambiguous prefix; trailing bits are ignored and
returned to the caller via the new position.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class MalformedPairError(ValueError):
    """A bit string does not parse as a self-delimiting pair."""


def zigzag(z: int) -> int:
    return 2 * z if z >= 0 else -2 * z - 1

def unzigzag(u: int) -> int:
    return u // 2 if u % 2 == 0 else -(u // 2) - 1


def gamma_encode(n: int) -> str:
    """Elias gamma code of a positive integer: bitlen-1 zeros, then binary."""
    if n < 1:
        raise ValueError(f"gamma code needs n >= 1, got {n}")
    body = bin(n)[2:]
    return "0" * (len(body) - 1) + body

def gamma_decode(bits: str, pos: int = 0) -> tuple[int, int]:
    """Decode one gamma code starting at ``pos``; return (value, new position)."""
    zeros = 0
    i = pos
    n = len(bits)
    while i < n and bits[i] == "0":
        zeros += 1
        i += 1
    end = i + zeros + 1
    if i >= n or end > n:
        raise ValueError("truncated gamma code")
    return int(bits[i:end], 2), end


def encode_int(z: int) -> str:
    return gamma_encode(zigzag(z) + 1)

def decode_int(bits: str, pos: int = 0) -> tuple[int, int]:
    u, newpos = gamma_decode(bits, pos)
    return unzigzag(u - 1), newpos


@dataclass(frozen=True, order=False)
class DyadicRational:
    """Exact rational m / 2**r, canonicalized so r >= 0 and (m odd or r == 0)."""

    num: int
    exp: int = 0

    def __post_init__(self) -> None:
        num, exp = self.num, self.exp
        if exp > 0:
            if num & 1:
                return
            # strip every trailing zero in one shift; zero becomes 0 / 2**0
            shift = min(exp, (num & -num).bit_length() - 1) if num else exp
            num >>= shift
            exp -= shift
        elif exp < 0:
            num <<= -exp
            exp = 0
        else:
            return
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "DyadicRational":
        d = f.denominator
        e = d.bit_length() - 1
        if (1 << e) != d:
            raise ValueError(f"{f} is not dyadic")
        return cls(f.numerator, e)

    def to_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def floor_shift(self, r: int) -> int:
        """Exact floor(self * 2**r).  Works for negative values too."""
        s = r - self.exp
        return self.num << s if s >= 0 else self.num >> -s

    def __add__(self, other: "DyadicRational") -> "DyadicRational":
        e = max(self.exp, other.exp)
        return DyadicRational(
            (self.num << (e - self.exp)) + (other.num << (e - other.exp)), e
        )

    def __sub__(self, other: "DyadicRational") -> "DyadicRational":
        return self + (-other)

    def __neg__(self) -> "DyadicRational":
        return DyadicRational(-self.num, self.exp)

    def __mul__(self, other: "DyadicRational") -> "DyadicRational":
        return DyadicRational(self.num * other.num, self.exp + other.exp)

    def _cmp_key(self, other: "DyadicRational") -> tuple[int, int]:
        e = max(self.exp, other.exp)
        return self.num << (e - self.exp), other.num << (e - other.exp)

    def __lt__(self, other: "DyadicRational") -> bool:
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other: "DyadicRational") -> bool:
        a, b = self._cmp_key(other)
        return a <= b

    def __gt__(self, other: "DyadicRational") -> bool:
        return other < self

    def __ge__(self, other: "DyadicRational") -> bool:
        return other <= self

    def __repr__(self) -> str:
        return f"{self.num}/2^{self.exp}" if self.exp else str(self.num)


DYADIC_ZERO = DyadicRational(0)


@dataclass(frozen=True)
class RationalPoint:
    """A point of Q^n with exact dyadic coordinates, n >= 1."""

    coords: tuple[DyadicRational, ...]

    def __post_init__(self) -> None:
        if len(self.coords) < 1:
            raise ValueError("points need dimension >= 1")

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @classmethod
    def of(cls, *values: DyadicRational | int) -> "RationalPoint":
        return cls(
            tuple(
                v if isinstance(v, DyadicRational) else DyadicRational(v)
                for v in values
            )
        )


def distance_sq(p: RationalPoint, q: RationalPoint) -> Fraction:
    """Exact squared distance, summed in integers at the common exponent."""
    if p.dimension != q.dimension:
        raise ValueError("dimension mismatch")
    pairs = tuple(zip(p.coords, q.coords))
    e = max(max(a.exp, b.exp) for a, b in pairs)
    total = 0
    for a, b in pairs:
        d = (a.num << (e - a.exp)) - (b.num << (e - b.exp))
        total += d * d
    return Fraction(total, 1 << (2 * e))


def encode_point(p: RationalPoint) -> str:
    R = max(c.exp for c in p.coords)
    parts = [encode_int(p.dimension), encode_int(R)]
    parts.extend(encode_int(c.num << (R - c.exp)) for c in p.coords)
    return "".join(parts)

def decode_point(bits: str, pos: int = 0) -> tuple[RationalPoint, int]:
    n, pos = decode_int(bits, pos)
    if n < 1:
        raise ValueError(f"point dimension must be >= 1, got {n}")
    R, pos = decode_int(bits, pos)
    if R < 0:
        raise ValueError(f"common exponent must be >= 0, got {R}")
    coords = []
    for _ in range(n):
        m, pos = decode_int(bits, pos)
        coords.append(DyadicRational(m, R))
    return RationalPoint(tuple(coords)), pos

def try_decode_exact_point(bits: str) -> RationalPoint | None:
    """Decode ``bits`` as one canonical point encoding consuming every bit.

    Returns None for anything else: parse errors, trailing bits, or a
    non-canonical common exponent.  This is the membership test used when
    machine outputs are interpreted as points.
    """
    try:
        p, pos = decode_point(bits)
    except ValueError:
        return None
    if pos != len(bits) or encode_point(p) != bits:
        return None
    return p


def pair(a: str, b: str) -> str:
    return encode_int(len(a)) + a + b

def unpair(bits: str) -> tuple[str, str]:
    try:
        alen, pos = decode_int(bits, 0)
    except ValueError as err:
        raise MalformedPairError(str(err)) from None
    if alen < 0 or pos + alen > len(bits):
        raise MalformedPairError(f"declared first length {alen} overruns input")
    return bits[pos : pos + alen], bits[pos + alen :]
