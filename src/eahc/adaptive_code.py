"""Per-context code tables and their homomorphic string extension.

A table of order n assigns every symbol a codeword in every stored
context (a context is the string of up to n preceding symbols, including
the empty context for the first position).  `CodeTable` refuses a
context whose codewords do not form a prefix code, so the extension of
every table to whole strings is injective and `decode_with_table`
inverts `extend`.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .bitstream import BitString, BitWriter
from .errors import (
    CorruptStreamError,
    TableIncompleteError,
    TrailingGarbageError,
    TruncationError,
)


class Alphabet:
    """An ordered set of distinct byte values with a symbol<->index map."""

    __slots__ = ("_symbols", "_index")

    def __init__(self, symbols: Iterable[int]):
        syms = tuple(symbols)
        if not 1 <= len(syms) <= 256:
            raise ValueError(
                f"alphabet must hold between 1 and 256 symbols, got {len(syms)}"
            )
        if any(not 0 <= s <= 255 for s in syms):
            raise ValueError("symbols must be byte values")
        if len(set(syms)) != len(syms):
            raise ValueError("alphabet symbols must be distinct")
        self._symbols = syms
        self._index = {s: i for i, s in enumerate(syms)}

    @classmethod
    def from_bytes(cls, data: bytes) -> "Alphabet":
        """The distinct bytes of `data` in ascending value order."""
        return cls(sorted(set(data)))

    def index(self, symbol: int) -> int:
        return self._index[symbol]

    def symbol(self, index: int) -> int:
        return self._symbols[index]

    def to_bytes(self) -> bytes:
        return bytes(self._symbols)

    def __len__(self) -> int:
        return len(self._symbols)

    def __iter__(self):
        return iter(self._symbols)

    def __contains__(self, symbol: int) -> bool:
        return symbol in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash(self._symbols)

    def __repr__(self) -> str:
        return f"Alphabet({list(self._symbols)!r})"


class CodeTable:
    """Codewords per (symbol, context) for contexts up to length `order`.

    `contexts` maps each stored context (a bytes key; b"" is the empty
    context) to a full symbol -> BitString map whose codewords form a
    prefix code, so no two are equal.  Each context's decoder, its key ->
    symbol map and longest codeword length, is built here too, so tables
    are immutable after construction and safe to share.  A codeword's key
    is its bits behind a leading marker bit.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        order: int,
        contexts: Mapping[bytes, Mapping[int, BitString]],
    ):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        frozen: dict[bytes, dict[int, BitString]] = {}
        decoders: dict[bytes, tuple[dict[int, int], int]] = {}
        for ctx, column in contexts.items():
            ctx = bytes(ctx)
            if len(ctx) > order:
                raise ValueError(f"context {ctx!r} longer than order {order}")
            if any(s not in alphabet for s in ctx):
                raise ValueError(f"context {ctx!r} uses symbols outside the alphabet")
            if set(column) != set(alphabet):
                raise ValueError(
                    f"context {ctx!r} must map every alphabet symbol to a codeword"
                )
            if any(len(code) == 0 for code in column.values()):
                raise ValueError("codewords must be nonempty")
            words = sorted(code.to01() for code in column.values())
            if any(b.startswith(a) for a, b in zip(words, words[1:])):
                raise ValueError(f"context {ctx!r} codewords must form a prefix code")
            frozen[ctx] = dict(column)
            decoders[ctx] = (
                {code.uint() | 1 << len(code): sym for sym, code in column.items()},
                max(len(code) for code in column.values()),
            )
        self._contexts = frozen
        self._decoders = decoders

    def __contains__(self, ctx: bytes) -> bool:
        return ctx in self._contexts


def _context_at(word: bytes, t: int, order: int) -> bytes:
    # the min(t, order) symbols preceding position t
    return word[max(0, t - order) : t]


def extend(table: CodeTable, word: bytes) -> BitString:
    """Encode a string symbol by symbol under its running context.

    Position t uses the codeword of word[t] in the context of the
    previous min(t, order) symbols; the empty string encodes to the
    empty BitString.
    """
    out = BitWriter()
    for t, sym in enumerate(word):
        ctx = _context_at(word, t, table.order)
        if (column := table._contexts.get(ctx)) is None:
            raise TableIncompleteError(f"no column for context {ctx!r}")
        if (code := column.get(sym)) is None:
            raise TableIncompleteError(
                f"no codeword for symbol {sym} in context {ctx!r}"
            )
        out.write_bits(code)
    return out.getvalue()


def decode_with_table(table: CodeTable, bits: BitString, count: int) -> bytes:
    """Invert `extend`: recover exactly `count` symbols from `bits`.

    Raises CorruptStreamError when the bits do not match any codeword of
    the current context, TruncationError when they run out mid-codeword,
    and TrailingGarbageError when bits remain after `count` symbols.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    data = bits.to_bytes()
    nbits = len(bits)
    pos = 0
    out = bytearray()
    try:  # only the decoder lookup can raise KeyError: it is the context check
        for _ in range(count):
            ctx = bytes(_context_at(out, len(out), table.order))
            decoder, max_len = table._decoders[ctx]
            key = 1  # the marker bit, then the codeword read so far, bit by bit
            while (sym := decoder.get(key)) is None:
                if key >> max_len:
                    raise CorruptStreamError(f"undecodable codeword in context {ctx!r}")
                if pos >= nbits:
                    raise TruncationError("codeword stream ended early")
                key = key << 1 | (data[pos >> 3] >> (7 - (pos & 7))) & 1
                pos += 1
            out.append(sym)
    except KeyError:
        raise TableIncompleteError(f"no column for context {ctx!r}") from None
    if pos != nbits:
        raise TrailingGarbageError(f"{nbits - pos} bits left after {count} symbols")
    return bytes(out)
