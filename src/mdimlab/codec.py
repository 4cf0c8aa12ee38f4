"""Self-delimiting binary encodings for integers, dyadic rationals, and points.

The wire format is frozen.  Changing any layout rule below moves pinned
regression constants downstream, so a format change re-pins every constant it
moves.

Layout
------
* ``encode_int(z)``   = Elias gamma code of ``zigzag(z) + 1`` where
  ``zigzag(z) = 2z`` for ``z >= 0`` and ``-2z - 1`` for ``z < 0``.
  ``encode_int(0) == "1"``; the length law is
  ``len(encode_int(z)) == 2*floor(log2(zigzag(z) + 1)) + 1``.
* ``encode_point(p)`` = ``encode_int(n)`` then ``encode_int(R)`` then the
  ``n`` coordinate numerators at the common exponent ``R = max(exp_i)``,
  each via ``encode_int``.

All decoders consume an unambiguous prefix; trailing bits are ignored and
returned to the caller via the new position.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction


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


@dataclass(frozen=True, slots=True)
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

    def __repr__(self) -> str:
        return f"{self.num}/2^{self.exp}" if self.exp else str(self.num)


DYADIC_ZERO = DyadicRational(0)


@dataclass(frozen=True, slots=True)
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


def ceil_half_log2(n: int) -> int:
    """Smallest l >= 0 with 4**l >= n: the extra depth at which each of n
    coordinates is queried so that the point stays within 2**-r."""
    if n < 1:
        raise ValueError("need n >= 1")
    return ((n - 1).bit_length() + 1) // 2


def distance_sq_parts(p: RationalPoint, q: RationalPoint) -> tuple[int, int]:
    """(t, e) with |p - q|**2 == t / 4**e, e the common exponent."""
    pc, qc = p.coords, q.coords
    if len(pc) != len(qc):
        raise ValueError("dimension mismatch")
    e = 0  # canonical exponents are >= 0
    for a in pc + qc:
        if a.exp > e:
            e = a.exp
    total = 0
    for a, b in zip(pc, qc):
        d = (a.num << (e - a.exp)) - (b.num << (e - b.exp))
        total += d * d
    return total, e


def distance_sq(p: RationalPoint, q: RationalPoint) -> Fraction:
    """Exact squared distance, summed in integers at the common exponent."""
    t, e = distance_sq_parts(p, q)
    return Fraction(t, 1 << (2 * e))


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


class _ReadKeys(Mapping):
    """A read-only view of a mapping that records every key looked up,
    by ``[]``, ``get`` or ``in``."""

    def __init__(self, data: Mapping):
        self._data = data
        self.read: dict = {}

    def __getitem__(self, key):
        self.read[key] = None
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)


@contextmanager
def json_object(name: str, data):
    """A view of the config object ``data`` that records the keys read
    through it; leaving the block refuses any key left unread, so the keys
    a builder reads are the one list of the keys it accepts."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{name} must be an object, not {data!r}")
    view = _ReadKeys(data)
    yield view
    for key in data:
        if key not in view.read:
            raise ValueError(f"unknown {name} key {key!r}; accepted: "
                             f"{', '.join(map(str, view.read)) or 'none'}")


def json_fraction(name: str, value) -> Fraction:
    """``value`` as a Fraction if it is a JSON integer or a string such as
    ``"3/8"``; a JSON float would be read as its binary double, so it is
    refused with booleans and everything else.  Exponent notation is
    refused before ``Fraction`` expands it: ``"1e-10000000"`` would build a
    33-million-bit denominator, while integer and decimal strings are
    bounded by the 4,300-digit limit on integer conversion."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{name} must be an integer or a string, not {value!r}")
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"{name} must not use exponent notation, not {value!r}")
    return Fraction(value)


def json_int(name: str, value) -> int:
    """``value`` if it is a JSON integer; integer config fields refuse the
    floats, booleans and strings that ``int()`` would quietly coerce."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


def json_list(name: str, value) -> list | tuple:
    """``value`` if it is a JSON array; list fields refuse the strings and
    objects that iterating would quietly read one element at a time."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, not {value!r}")
    return value


# most coordinates a config may name, as a generator's dimension or a function's
# arity; a kprofile run at 64 coordinates takes about 3 s on a 2-CPU host
DIMENSION_CAP = 64


def json_dimension(name: str, value) -> int:
    """``value`` if it is a JSON integer at most ``DIMENSION_CAP``."""
    n = json_int(name, value)
    if n > DIMENSION_CAP:
        raise ValueError(f"{name} = {n} is over the dimension cap "
                         f"DIMENSION_CAP = {DIMENSION_CAP}")
    return n
