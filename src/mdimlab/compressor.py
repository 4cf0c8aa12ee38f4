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

``Lz78Parser.copy()`` forks a parse: the copy and the original go on from
the same state independently, so two strings that share a prefix can be
costed with one parse of the prefix.  ``freeze()`` makes a parse that is
kept for later forks read-only and compact: its child lists become 4-byte
``array('I')``s (a list holds an 8-byte pointer per entry, and an int
object per phrase).  A frozen parse refuses ``feed``; its copies are
backed by lists again, since the parse loop runs slower on arrays.

The cost is a function of the phrase count alone.  The first T phrases
cost C(T) = T + sum of ``i.bit_length()`` over i < T, which in closed form
is (w + 1)·T − 2^w + 1 with w = (T − 1).bit_length() for T ≥ 1
(``_cost_of``), and a partial phrase counts as one more phrase.  So the parse keeps no running
cost: ``cost`` is C of the phrase count.

``feed`` takes an optional cost ceiling, so a caller after the cheapest of
several strings can stop parsing one that cannot win.  C grows with T, so
the cost never decreases as bits are fed, and once the closed cost reaches
the ceiling, the whole string's cost does too.  The parse stops at the
first phrase close that brings the closed cost to the ceiling, so the
ceiling is a phrase count: on entry ``feed`` works out the least count
above the current one whose C reaches it (``_stop``), and each new
phrase only compares its number with that count.

``feed`` checks its input in one pass: it translates the string through a
table that sends ``0`` and ``1`` to the byte values 0 and 1 and every other
character to 2, then looks for a 2.  It then skips whole phrases along long
runs of one bit.  The dictionary is prefix-closed, so the phrases made only
of zeros form one chain 0, 00, ..., 0^D.  A phrase that starts at the root
inside a zero run with at least D + 1 bits left is 0^(D+1): the zero child
of the chain's tip, added at O(1) cost with no step per bit.  Runs of ones
work the same way.  Runs of at least ``RUN_MIN`` bits are found with
``bytes.find``; a run entered mid-phrase is walked bit by bit until that
phrase closes, and the bits left after the last whole phrase of a run end
at the chain node of that length.  The parse, the costs and the ceiling
stops are exactly those of the bit-by-bit loop.

Costs are reproducible integers, so profiles taken at different times or
processes agree bit for bit.
"""

from __future__ import annotations

import math
from operator import length_hint


# ASCII '0'/'1' to the byte values 0/1, so a bit indexes the child lists;
# every other byte to 2, which marks a bad character
_BIT_VALUES = bytes(0 if c == 48 else 1 if c == 49 else 2 for c in range(256))

# the shortest run of one bit that ``feed`` skips phrase by phrase
RUN_MIN = 64
_RUNS = (bytes(RUN_MIN), b"\x01" * RUN_MIN)


def _cost_of(phrases: int) -> int:
    """Bits to emit ``phrases`` phrases, phrase i costing
    ``i.bit_length() + 1``.

    The first 2^w phrases cost w·2^w + 1 bits in all, and each further
    one, up to the 2^(w + 1)-th, costs w + 2.
    """
    if not phrases:
        return 0
    width = (phrases - 1).bit_length()
    return (width + 1) * phrases - (1 << width) + 1


def _stop(phrases: int, ceiling: float) -> int:
    """The least phrase count above ``phrases`` whose cost reaches
    ``ceiling``; -1 if none does."""
    count = phrases + 1
    if _cost_of(count) >= ceiling:
        return count
    if not ceiling < math.inf:  # infinite or NaN: no cost reaches it
        return -1
    need = math.ceil(ceiling)  # costs are integers
    # counts in (2^(w - 1), 2^w] cost (w + 1)·count − 2^w + 1: find the
    # first band whose last count reaches ``need``, then the count in it
    width = (count - 1).bit_length()
    while _cost_of(1 << width) < need:
        width += 1
    return -((1 - (1 << width) - need) // (width + 1))


class Lz78Parser:
    """Incremental parser; its cost is a function of its phrase count."""

    __slots__ = ("_zero", "_one", "_node", "_tokens", "_length")

    def __init__(self) -> None:
        self._zero = [0]
        self._one = [0]
        self._node = 0
        self._tokens = 0
        self._length = 0

    def copy(self) -> "Lz78Parser":
        """An independent, unfrozen parser in this one's state."""
        twin = Lz78Parser.__new__(Lz78Parser)
        twin._zero = list(self._zero)
        twin._one = list(self._one)
        twin._node = self._node
        twin._tokens = self._tokens
        twin._length = self._length
        return twin

    def freeze(self) -> "Lz78Parser":
        """Hold the trie in 4-byte arrays and refuse ``feed`` from now on."""
        # imported here: the extension module adds about 0.15 MB of resident
        # memory, which a run that never freezes a parse need not load
        from array import array

        self._zero = array("I", self._zero)
        self._one = array("I", self._one)
        return self

    def feed(self, bits: str, ceiling: float = math.inf) -> "Lz78Parser":
        """Parse ``bits`` on from the current state.

        The whole string is checked first, in one translate pass, so a bad
        character raises before any state changes.  A frozen parser raises
        too: feed a copy.  Runs of at least ``RUN_MIN`` equal bits are
        parsed a phrase at a time rather than a bit at a time, with the
        same result.

        With a ``ceiling``, the parse stops at the first phrase close that
        brings the cost to the ceiling or above: the phrase count worked
        out on entry, since the cost is a function of that count.  The
        parser then holds the exact parse of the bits consumed so far, and
        ``length`` counts only those.  Since ``cost`` never decreases as
        bits are fed, the parse of the whole string would cost at least
        the ceiling too.
        """
        if not isinstance(self._zero, list):
            raise ValueError("a frozen parse is not fed; feed a copy")
        data = bits.encode("ascii", "replace").translate(_BIT_VALUES)
        if 2 in data:
            bad = next(c for c in bits if c != "0" and c != "1")
            raise ValueError(f"bit must be '0' or '1', got {bad!r}")
        zero, one = self._zero, self._one
        children_by_bit = (zero, one)
        node = self._node
        tokens = self._tokens
        stop = _stop(tokens, ceiling)
        pos, end = 0, len(data)
        # where the next run of each bit starts, end if none; -1 until found
        run_at = [-1, -1]
        # the nodes of the phrases 0, 00, ... and 1, 11, ..., root first
        chains = ([0], [0])
        while True:
            for bit in (0, 1):
                if run_at[bit] < pos:
                    at = data.find(_RUNS[bit], pos)
                    run_at[bit] = end if at < 0 else at
            bit = 0 if run_at[0] < run_at[1] else 1
            start = run_at[bit]
            unread = iter(data[pos:start])
            for b in unread:
                children = children_by_bit[b]
                child = children[node]
                if child:
                    node = child
                else:
                    tokens += 1
                    children[node] = tokens
                    zero.append(0)
                    one.append(0)
                    node = 0
                    if tokens == stop:
                        break
            else:
                pos = start
                if pos == end:
                    break
                run_end = data.find(1 - bit, pos)
                if run_end < 0:
                    run_end = end
                children = children_by_bit[bit]
                chain = chains[bit]
                tip = children[chain[-1]]
                while tip:
                    chain.append(tip)
                    tip = children[tip]
                # a phrase open where the run starts goes on bit by bit; one
                # that starts at the root is the chain's next link if it fits
                while pos < run_end:
                    if not node:
                        depth = len(chain) - 1
                        if run_end - pos <= depth:
                            node = chain[run_end - pos]
                            pos = run_end
                            continue
                        node = chain[depth]
                        pos += depth
                    pos += 1
                    child = children[node]
                    if child:
                        node = child
                        continue
                    tokens += 1
                    children[node] = tokens
                    zero.append(0)
                    one.append(0)
                    if node == chain[-1]:
                        chain.append(tokens)
                    node = 0
                    if tokens == stop:
                        break
                else:
                    continue
                break  # stopped at the ceiling inside the run
            # stopped at the ceiling in the bit loop
            pos = start - length_hint(unread)
            break
        self._node = node
        self._tokens = tokens
        self._length += pos
        return self

    @property
    def length(self) -> int:
        """Number of input bits consumed so far."""
        return self._length

    @property
    def cost(self) -> int:
        """Compressed size in bits of everything consumed so far."""
        return _cost_of(self.phrase_count)

    @property
    def phrase_count(self) -> int:
        """Completed phrases plus the in-progress one, if any."""
        return self._tokens + (1 if self._node != 0 else 0)


def lz78_cost(bits: str) -> int:
    """Compressed size in bits of the whole string."""
    return Lz78Parser().feed(bits).cost


def conditional_cost(target: str, context: str) -> int:
    """Bits needed for ``target`` given a parse warmed up on ``context``."""
    parser = Lz78Parser().feed(context)
    base = parser.cost
    return parser.feed(target).cost - base
