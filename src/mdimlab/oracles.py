"""Precision-indexed point oracles.

An oracle stands for an ideal point of some dimension n and answers
``query(r)`` with a rational point within Euclidean distance 2**-r of it.
Sequence-backed oracles derive their point from infinite binary expansions,
one per coordinate, truncated deep enough that the per-coordinate error
keeps the Euclidean bound.

Randomness is pinned: pseudo-random streams are SHA-256 in counter mode
over a seed label, so every run of every process sees identical bits.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .codec import DyadicRational, RationalPoint
from .geometry import ceil_half_log2


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
    bit or a prefix costs time in what it returns, not in what came before.
    Call contract: the stream asks ``bit_at`` for each index once and in
    order, always at the current buffer length.  Sources may carry state
    from one index to the next on that basis, but must still answer any
    other index correctly.  A value other than 0 or 1 raises ``ValueError``.
    """

    def __init__(self, bit_at: Callable[[int], int]):
        self._bit_at = bit_at
        self._buf = bytearray()

    def _extend(self, k: int) -> None:
        buf = self._buf
        bit_at = self._bit_at
        for i in range(len(buf), k):
            bit = bit_at(i)
            if bit not in (0, 1):
                raise ValueError(f"bit source produced {bit!r}")
            buf.append(48 + bit)

    def prefix(self, k: int) -> str:
        if len(self._buf) < k:
            self._extend(k)
        return self._buf[:k].decode()

    def bit(self, i: int) -> int:
        if i >= len(self._buf):
            self._extend(i + 1)
        return self._buf[i] - 48


def hash_stream(seed: int, lane: int = 0) -> BitStream:
    """Pinned pseudo-random bits: SHA-256 of (seed, lane, block counter)."""
    tag = f"mdimlab:{seed}:{lane}".encode()
    blocks: dict[int, int] = {}

    def bit_at(i: int) -> int:
        block, offset = divmod(i, 256)
        word = blocks.get(block)
        if word is None:
            digest = hashlib.sha256(tag + b"|" + block.to_bytes(8, "big")).digest()
            word = int.from_bytes(digest, "big")
            blocks[block] = word
        return (word >> (255 - offset)) & 1

    return BitStream(bit_at)


DILUTION_PERIOD = 2048


def diluted_stream(
    seed: int, rho: Fraction, lane: int = 0, period: int = DILUTION_PERIOD
) -> BitStream:
    """Fresh random bits at asymptotic density rho, zeros elsewhere.

    Positions are split into fixed-length periods.  Each period opens with
    a run of fresh bits, drawn in order from the seeded random stream, and
    pads the rest with zeros.  Period q gets floor((q+1)*rho*period) -
    floor(q*rho*period) fresh bits, so the density of fresh positions in
    any prefix converges to rho.
    """
    if not 0 <= rho <= 1:
        raise ValueError("density must satisfy 0 <= rho <= 1")
    if period <= 0:
        raise ValueError("period must be positive")
    base = hash_stream(seed, lane)
    scaled = Fraction(rho) * period
    num, den = scaled.numerator, scaled.denominator

    def bit_at(j: int) -> int:
        q, phase = divmod(j, period)
        start = q * num // den
        if phase >= (q + 1) * num // den - start:
            return 0
        return base.bit(start + phase)

    return BitStream(bit_at)


def rational_stream(value: Fraction) -> BitStream:
    """Binary expansion of a rational p/q in [0, 1), by long division.

    Bit i is the quotient digit of 2 * (p * 2**i mod q) by q.  The remainder
    is carried from one index to the next; an index out of order gets its
    remainder recomputed with a modular power.
    """
    if not 0 <= value < 1:
        raise ValueError("value must lie in [0, 1)")
    value = Fraction(value)
    p, q = value.numerator, value.denominator
    at, rem = 0, p

    def bit_at(i: int) -> int:
        nonlocal at, rem
        if i != at:
            rem = p * pow(2, i, q) % q
        rem *= 2
        bit = 1 if rem >= q else 0
        rem -= bit * q
        at = i + 1
        return bit

    return BitStream(bit_at)


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


def random_oracle(seed: int, n: int = 1) -> StreamOracle:
    return StreamOracle([hash_stream(seed, lane) for lane in range(n)])


def diluted_oracle(seed: int, rho: Fraction, n: int = 1) -> StreamOracle:
    return StreamOracle([diluted_stream(seed, rho, lane) for lane in range(n)])


def rational_oracle(values: Sequence[Fraction]) -> StreamOracle:
    return StreamOracle([rational_stream(v) for v in values])


def make_oracle(spec: Mapping) -> PointOracle:
    """Build an oracle from a plain-data description, as found in configs.

    Kinds: ``random`` (seed, n), ``diluted`` (seed, rho, n), ``rational``
    (values, a list of fractions in [0, 1)), ``constant`` (coords, a list
    of dyadic fractions), ``product`` (factors, a list of specs).
    """
    kind = spec.get("kind")
    if kind == "random":
        return random_oracle(int(spec["seed"]), int(spec.get("n", 1)))
    if kind == "diluted":
        return diluted_oracle(
            int(spec["seed"]), Fraction(spec["rho"]), int(spec.get("n", 1))
        )
    if kind == "rational":
        return rational_oracle([Fraction(v) for v in spec["values"]])
    if kind == "constant":
        coords = tuple(
            DyadicRational.from_fraction(Fraction(v)) for v in spec["coords"]
        )
        return ConstantOracle(RationalPoint(coords))
    if kind == "product":
        return ProductOracle(*(make_oracle(f) for f in spec["factors"]))
    raise ValueError(f"unknown oracle kind: {kind!r}")
