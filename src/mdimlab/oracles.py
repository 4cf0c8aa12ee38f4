"""Precision-indexed point oracles.

An oracle stands for an ideal point of some dimension n and answers
``query(r)`` with a rational point within Euclidean distance 2**-r of it.
Sequence-backed oracles derive their point from infinite binary expansions,
one per coordinate, truncated deep enough that the per-coordinate error
keeps the Euclidean bound.  Each expansion is a ``BitStream``, which
caches a prefix and asks its source for a block of bits at a time.

Randomness is pinned: pseudo-random streams are SHA-256 in counter mode
over a seed label, so every run of every process sees identical bits.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .codec import (
    DyadicRational,
    RationalPoint,
    ceil_half_log2,
    json_dimension,
    json_fraction,
    json_int,
    json_list,
    json_object,
)


class PointOracle(ABC):
    """Interface all point oracles implement."""

    @property
    @abstractmethod
    def dimension(self) -> int: ...

    @abstractmethod
    def query(self, r: int) -> RationalPoint:
        """A rational point within 2**-r of the ideal point. r >= 0."""


class BitStream:
    """Lazily materialized infinite bit sequence with a cached prefix.

    The prefix is kept as a ``bytearray`` of ASCII ``0``/``1``, so reading a
    bit, a prefix or a slice costs time in what it returns, not in what came
    before.  Source contract: ``block(i)`` returns, as a ``str`` of
    ``0``/``1``, the bits from index i to the end of the block that holds i.
    It must answer any index in any order, so a source keeps no state
    between calls; the stream asks at its buffer length and writes the whole
    run at that offset.  Two threads that extend one stream at once may both
    fetch a block, but both write the same bits to the same place, so no
    lock is needed.  A result that is not a non-empty string of ``0``/``1``
    raises ``ValueError``; the check is one bytes pass over the block.
    """

    def __init__(self, block: Callable[[int], str]):
        self._block = block
        self._buf = bytearray()

    def _extend(self, k: int) -> None:
        buf = self._buf
        while len(buf) < k:
            start = len(buf)
            bits = self._block(start)
            # a character other than 0/1 survives the delete, and one
            # outside ASCII is first replaced by "?"
            data = bits.encode("ascii", "replace") if isinstance(bits, str) else b""
            if not data or data.translate(None, b"01"):
                raise ValueError(f"bit source produced {bits!r}")
            buf[start:start + len(data)] = data

    def read(self, start: int, stop: int) -> str:
        """Bits [start, stop) of the stream."""
        if len(self._buf) < stop:
            self._extend(stop)
        return self._buf[start:stop].decode()

    def prefix(self, k: int) -> str:
        return self.read(0, k)

    def bit(self, i: int) -> int:
        if i >= len(self._buf):
            self._extend(i + 1)
        return self._buf[i] - 48


# SHA-256 digests a hash stream's source returns per call, and their bits
HASH_DIGESTS = 32
HASH_BLOCK = 256 * HASH_DIGESTS


def hash_stream(seed: int, lane: int = 0) -> BitStream:
    """Pinned pseudo-random bits: SHA-256 of (seed, lane, counter).

    The stream is the digests of counters 0, 1, 2, ... joined in order.
    A block is ``HASH_DIGESTS`` consecutive digests, converted to bits in
    one pass.
    """
    tag = f"mdimlab:{seed}:{lane}|".encode()

    def block(i: int) -> str:
        b, phase = divmod(i, HASH_BLOCK)
        first = b * HASH_DIGESTS
        words = b"".join([hashlib.sha256(tag + c.to_bytes(8, "big")).digest()
                          for c in range(first, first + HASH_DIGESTS)])
        return format(int.from_bytes(words, "big"), f"0{HASH_BLOCK}b")[phase:]

    return BitStream(block)


DILUTION_PERIOD = 2048


def diluted_stream(
    seed: int, rho: Fraction, lane: int = 0, period: int = DILUTION_PERIOD
) -> BitStream:
    """Fresh random bits at asymptotic density rho, zeros elsewhere.

    Positions are split into fixed-length periods.  Each period opens with
    a run of fresh bits, drawn in order from the seeded random stream, and
    pads the rest with zeros.  Period q gets floor((q+1)*rho*period) -
    floor(q*rho*period) fresh bits, so the density of fresh positions in
    any prefix converges to rho.  A period is one block of the stream, and
    it reads only its own fresh bits of the random stream.
    """
    if not 0 <= rho <= 1:
        raise ValueError("density must satisfy 0 <= rho <= 1")
    if period <= 0:
        raise ValueError("period must be positive")
    base = hash_stream(seed, lane)
    scaled = Fraction(rho) * period
    num, den = scaled.numerator, scaled.denominator

    def block(j: int) -> str:
        q, phase = divmod(j, period)
        start, stop = q * num // den, (q + 1) * num // den
        return base.read(start, stop).ljust(period, "0")[phase:]

    return BitStream(block)


def rational_stream(value: Fraction) -> BitStream:
    """Binary expansion of a rational p/q in [0, 1), by long division.

    With rem = p * 2**i mod q, the n quotient digits from index i on are
    floor(rem * 2**n / q); a block is 256 digits.
    """
    if not 0 <= value < 1:
        raise ValueError("value must lie in [0, 1)")
    value = Fraction(value)
    p, q = value.numerator, value.denominator

    def block(i: int) -> str:
        rem = p * pow(2, i, q) % q
        n = 256 - i % 256
        return format((rem << n) // q, f"0{n}b")

    return BitStream(block)


class StreamOracle(PointOracle):
    """Point whose coordinates are given by binary expansions in [0, 1)."""

    def __init__(self, streams: Sequence[BitStream]):
        if not streams:
            raise ValueError("need at least one coordinate stream")
        self._streams = tuple(streams)

    @property
    def dimension(self) -> int:
        return len(self._streams)

    def query(self, r: int) -> RationalPoint:
        if r < 0:
            raise ValueError("precision must be nonnegative")
        depth = r + ceil_half_log2(self.dimension)
        coords = []
        for stream in self._streams:
            text = stream.prefix(depth)
            coords.append(DyadicRational(int(text, 2) if text else 0, depth))
        return RationalPoint(tuple(coords))


@dataclass(frozen=True)
class ConstantOracle(PointOracle):
    """Oracle for a point we can write down exactly."""

    point: RationalPoint

    @property
    def dimension(self) -> int:
        return self.point.dimension

    def query(self, r: int) -> RationalPoint:
        if r < 0:
            raise ValueError("precision must be nonnegative")
        return self.point


class ProductOracle(PointOracle):
    """Concatenation of component oracles into one higher-dimensional point.

    Components are queried finely enough that the combined Euclidean error
    still fits the 2**-r contract.
    """

    def __init__(self, *factors: PointOracle):
        if not factors:
            raise ValueError("need at least one factor")
        self._factors = factors
        self._extra = ceil_half_log2(len(factors))

    @property
    def dimension(self) -> int:
        return sum(f.dimension for f in self._factors)

    def query(self, r: int) -> RationalPoint:
        if r < 0:
            raise ValueError("precision must be nonnegative")
        parts = [f.query(r + self._extra) for f in self._factors]
        coords: tuple[DyadicRational, ...] = ()
        for p in parts:
            coords += p.coords
        return RationalPoint(coords)


def make_oracle(spec: Mapping) -> PointOracle:
    """Build an oracle from a plain-data description, as found in configs.

    Kinds: ``random`` (seed, n), ``diluted`` (seed, rho, n), ``rational``
    (values, a list of fractions in [0, 1)), ``constant`` (coords, a list
    of dyadic fractions), ``product`` (factors, a list of specs).  A key
    the kind does not read is refused, and so is a dimension over
    ``DIMENSION_CAP``, before the coordinates are built; a product stops
    at the first factor that takes its total over.
    """
    with json_object("generator", spec) as spec:
        kind = spec.get("kind")
        if kind == "random":
            seed = json_int("seed", spec["seed"])
            lanes = range(json_dimension("n", spec.get("n", 1)))
            return StreamOracle([hash_stream(seed, lane) for lane in lanes])
        if kind == "diluted":
            seed = json_int("seed", spec["seed"])
            rho = json_fraction("rho", spec["rho"])
            lanes = range(json_dimension("n", spec.get("n", 1)))
            return StreamOracle([diluted_stream(seed, rho, lane)
                                 for lane in lanes])
        if kind == "rational":
            values = json_list("values", spec["values"])
            json_dimension("rational dimension", len(values))
            # every value is read before any stream checks its range
            values = [json_fraction(f"values[{i}]", v)
                      for i, v in enumerate(values)]
            return StreamOracle([rational_stream(v) for v in values])
        if kind == "constant":
            coords = json_list("coords", spec["coords"])
            json_dimension("constant dimension", len(coords))
            coords = tuple(
                DyadicRational.from_fraction(json_fraction(f"coords[{i}]", v))
                for i, v in enumerate(coords)
            )
            return ConstantOracle(RationalPoint(coords))
        if kind == "product":
            factors, total = [], 0
            for f in json_list("factors", spec["factors"]):
                factors.append(make_oracle(f))
                total = json_dimension("product dimension", total + factors[-1].dimension)
            return ProductOracle(*factors)
        raise ValueError(f"unknown oracle kind: {kind!r}")
