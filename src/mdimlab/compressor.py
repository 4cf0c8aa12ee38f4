"""Streaming LZ78 compressor with exact bit accounting.

The parse splits the input into phrases, each extending a previously seen
phrase by one literal bit. Emitting the i-th phrase (0-based) costs
``i.bit_length() + 1`` bits: enough to name any of the i + 1 dictionary
entries, the empty phrase included, plus the literal bit. A final partial
phrase, one cut off mid-extension, is charged like a completed one. The
empty string costs zero bits.

The phrase dictionary is a binary trie held in two flat lists of ints,
one per literal bit: entry ``n`` of the ``0`` list is the node reached from
node ``n`` by a ``0``, or 0 for no child (the root, node 0, is never a
child). Node i + 1 is the i-th phrase, so the lists grow by one entry per
phrase and the parse loop touches nothing but local ints and lists.

Costs are reproducible integers, so profiles taken at different times or
processes agree bit for bit.
"""

from __future__ import annotations


# ASCII '0'/'1' to the byte values 0/1, so a bit indexes the child lists
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _token_cost(index: int) -> int:
    return index.bit_length() + 1


class Lz78Parser:
    """Incremental parser holding a running compressed-size total."""

    __slots__ = ("_zero", "_one", "_node", "_closed_cost", "_tokens", "_length")

    def __init__(self) -> None:
        self._zero = [0]
        self._one = [0]
        self._node = 0
        self._closed_cost = 0
        self._tokens = 0
        self._length = 0

    def push(self, bit: str) -> None:
        if bit != "0" and bit != "1":
            raise ValueError(f"bit must be '0' or '1', got {bit!r}")
        self.feed(bit)

    def feed(self, bits: str) -> "Lz78Parser":
        """Parse ``bits`` on from the current state.

        The whole string is checked first, so a bad character raises
        before any state changes.
        """
        if bits.count("0") + bits.count("1") != len(bits):
            bad = next(c for c in bits if c != "0" and c != "1")
            raise ValueError(f"bit must be '0' or '1', got {bad!r}")
        zero, one = self._zero, self._one
        children_by_bit = (zero, one)
        node = self._node
        cost = self._closed_cost
        tokens = self._tokens
        for bit in bits.encode().translate(_BIT_VALUES):
            children = children_by_bit[bit]
            child = children[node]
            if child:
                node = child
            else:
                cost += tokens.bit_length() + 1
                tokens += 1
                children[node] = tokens
                zero.append(0)
                one.append(0)
                node = 0
        self._node = node
        self._closed_cost = cost
        self._tokens = tokens
        self._length += len(bits)
        return self

    @property
    def length(self) -> int:
        """Number of input bits consumed so far."""
        return self._length

    @property
    def cost(self) -> int:
        """Compressed size in bits of everything consumed so far."""
        if self._node != 0:
            return self._closed_cost + _token_cost(self._tokens)
        return self._closed_cost

    @property
    def phrase_count(self) -> int:
        """Completed phrases plus the in-progress one, if any."""
        return self._tokens + (1 if self._node != 0 else 0)


def lz78_cost(bits: str) -> int:
    """Compressed size in bits of the whole string."""
    return Lz78Parser().feed(bits).cost


def lz78_phrases(bits: str) -> list[str]:
    """The parse as a list of phrases; the last one may be partial."""
    phrases = []
    current = ""
    seen = {""}
    for bit in bits:
        current += bit
        if current not in seen:
            seen.add(current)
            phrases.append(current)
            current = ""
    if current:
        phrases.append(current)
    return phrases


def conditional_cost(target: str, context: str) -> int:
    """Bits needed for ``target`` given a parse warmed up on ``context``."""
    parser = Lz78Parser().feed(context)
    base = parser.cost
    return parser.feed(target).cost - base
