"""Order-n context-modeled Huffman codec and its container format.

The context model is one dict, context index -> {successor symbol index
-> count}, as `_successor_counts` reads it off the input: the windows of
n symbols that occur, and how often each symbol follows each of them.
This module owns the context index, a window's symbol indices read as a
base-m number (`_context_index`), and its inverse (`_window`).  The model
is the transition graph of the paper; `graph.build_graph` and
`graph.assign_codewords` are views of it and of `_successor_codes`, the
Huffman code of one context, and ask this module for both numberings.

`_build_codes` derives every context's code from the model in one place,
in the form each side keeps: the encoder maps a successor to its (value,
length) codeword; the decoder looks codewords up in a table over the
next L bits of the stream, L being the context's longest codeword, whose
entry v holds the (symbol, length) of the codeword that prefixes v.  A
context whose codewords exceed TABLE_BITS is walked bit by bit through a
(value, length) dict instead, by `adaptive_code._walk_codeword`.  Every
lone-successor context of a symbol shares one entry, and the builder also
counts the codeword stream's length in bits.

Format v1 codes the model as bitmaps and fixed-width counts, five bit
components in all:

    prefix        the first min(h, n) symbol indices, verbatim
    context_map   one bit per possible context (m**n bits): occurs or not
    successor_map per (symbol, occurring context): does it follow there?
    freq_table    fixed-width occurrence counts for every marked pair
    stream        the per-context codewords for positions n+1 .. h

For order 1 a context followed by itself is recorded on the diagonal of
successor_map (symbol index == context index), mirroring the aux-vertex
routing of the transition graph.  `_write_model` is the v1 writer of the
three model components and `_read_model` its one reader: it is the only
code that scans the maps, and it reads each component through a
`read(bit_count, component_name)` callable, so `deserialize` runs it over
the container's bits and `decode` over the payload's own fields.  The
decoder never sees the input.

`deserialize` must build the decoder tables anyway, since the stream's
length is only known from the codes; it hands them to `decode` inside
the payload, so `decompress` builds them once.  Reading the model and
building the tables is most of what decompressing costs on model-heavy
input: 0.12 of 0.16 s on the benchmark's `random-bytes` workload and 0.96
of 1.14 s on `many-small` (seed 1, one pass, 2-vCPU x86-64, CPython 3.11).

Container wire format (all integers little-endian):

    [4B] magic "EAH1"
    [1B] version (1)
    [1B] order n
    [1B] alphabet size minus 1
    [mB] alphabet bytes in index order
    [8B] original length h
    [1B] freq_table field width (0 when h <= n)
    [..] payload bits prefix|context_map|successor_map|freq_table|stream,
         packed MSB-first, final byte zero-padded

The context map is m**n bits, the one part of a container that can grow
far past its input.  `_successor_counts` refuses a model with more than
MAX_CONTEXT_BITS possible contexts before it counts anything, so
`encode`, `compress`, `leahn_length` and `graph.build_graph` share that
budget.  `deserialize` needs none: `BitReader.read_bits` checks that the
container holds a component's bits before it copies them.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .adaptive_code import Alphabet, _walk_codeword
from .bitstream import BitReader, BitString, BitWriter
from .errors import (
    CorruptHeaderError,
    CorruptStreamError,
    TrailingGarbageError,
    TruncationError,
)
from .huffman import code_pairs

MAGIC = b"EAH1"
VERSION = 1
TABLE_BITS = 12  # longest codeword a decoder lookup table is built for
MAX_CONTEXT_BITS = 1 << 24  # largest m**n a model may span: 256**3, a 2 MiB map


@dataclass(frozen=True)
class Header:
    order: int
    alphabet: Alphabet
    length: int  # original symbol count h


@dataclass(frozen=True)
class EahPayload:
    prefix: BitString
    context_map: BitString
    successor_map: BitString
    freq_table: BitString
    stream: BitString
    freq_width: int  # bit width of each freq_table entry
    # (header, decoder tables) attached by deserialize for decode to reuse
    _tables: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def components(self) -> tuple[BitString, BitString, BitString, BitString, BitString]:
        return (
            self.prefix,
            self.context_map,
            self.successor_map,
            self.freq_table,
            self.stream,
        )

    def total_bits(self) -> int:
        return sum(len(c) for c in self.components())


def _successor_codes(
    order: int, context_index: int, pairs: list[tuple[int, int]]
) -> list[tuple[int, int, int, int]]:
    """Huffman codewords of one context as (symbol index, frequency, value,
    length), in the order the code is built in.

    pairs: (symbol index, frequency), symbol index ascending; for order 1
    the diagonal entry is the repeat successor and codes last.
    """
    if order == 1:
        pairs = [p for p in pairs if p[0] != context_index] + [
            p for p in pairs if p[0] == context_index
        ]
    codes = code_pairs([f for _, f in pairs])
    return [(i, f, value, length) for (i, f), (value, length) in zip(pairs, codes)]


def _index_table(alphabet: Alphabet) -> bytes:
    """Byte -> symbol index, for indexing or `bytes.translate`."""
    return bytes.maketrans(alphabet.to_bytes(), bytes(range(len(alphabet))))


def _context_index(indices: Iterable[int], m: int) -> int:
    """A window's symbol indices read as a base-m number, most significant
    first.  The loops of `_successor_counts`, `encode` and `decode` roll it
    forward inline, j = (j % m**(n-1)) * m + i, as each symbol enters."""
    j = 0
    for i in indices:
        j = j * m + i
    return j


def _window(j: int, m: int, n: int) -> list[int]:
    """The n symbol indices of context index j; inverts `_context_index`."""
    return [j // m ** (n - 1 - k) % m for k in range(n)]


def _successor_counts(
    word: bytes, order: int, alphabet: Alphabet
) -> dict[int, dict[int, int]]:
    """The context model of `word`: context index -> {successor symbol
    index -> count}; empty when len(word) <= order.

    Raises ValueError when m**n exceeds MAX_CONTEXT_BITS.
    """
    m = len(alphabet)
    n = order
    if m**n > MAX_CONTEXT_BITS:
        raise ValueError(
            f"order {n} over {m} symbols spans {m}**{n} contexts, "
            f"over the limit of {MAX_CONTEXT_BITS}"
        )
    idx = _index_table(alphabet)
    counts: dict[int, dict[int, int]] = {}
    j = _context_index(word[:n].translate(idx), m)
    tail = m ** (n - 1)
    for p in range(len(word) - n):
        i = idx[word[p + n]]
        row = counts.get(j)
        if row is None:
            row = counts[j] = {}
        row[i] = row.get(i, 0) + 1
        j = (j % tail) * m + i
    return counts


def _encoder_entry(
    codes: list[tuple[int, int, int, int]]
) -> dict[int, tuple[int, int]]:
    """{successor symbol index -> (value, length)}."""
    return {i: (value, length) for i, _, value, length in codes}


def _decoder_entry(codes: list[tuple[int, int, int, int]]) -> tuple[int, list | dict]:
    """(L, table) as described in the module docstring."""
    longest = max(length for _, _, _, length in codes)
    if longest > TABLE_BITS:
        return longest, {(value, length): i for i, _, value, length in codes}
    table: list = [None] * (1 << longest)
    for i, _, value, length in codes:
        span = 1 << (longest - length)
        start = value * span
        table[start : start + span] = [(i, length)] * span
    return longest, table


# the entry of a lone successor depends only on its symbol index (its
# codeword is "0" whatever its count), so each is built once per process
_LONE = {
    entry: [entry([(i, 1, 0, 1)]) for i in range(256)]
    for entry in (_encoder_entry, _decoder_entry)
}


def _build_codes(
    order: int, counts: dict[int, dict[int, int]], entry: Callable
) -> tuple[dict, int]:
    """Each context's code, made by `entry` from its `_successor_codes`.

    Returns the entries by context index and the codeword stream's length
    in bits.  Every lone-successor context of a symbol shares one entry.
    """
    codes = {}
    lone = _LONE[entry]
    stream_bits = 0
    for j, row in counts.items():
        if len(row) == 1:
            ((i, f),) = row.items()
            code = lone[i]
            stream_bits += f
        else:
            pairs = _successor_codes(order, j, sorted(row.items()))
            code = entry(pairs)
            stream_bits += sum(f * length for _, f, _, length in pairs)
        codes[j] = code
    return codes, stream_bits


_BIT_OFFSETS = [
    tuple(k for k in range(8) if byte & (0x80 >> k)) for byte in range(256)
]


def _scan_set_bits(bits: BitString) -> list[int]:
    """Ascending positions of set bits; fast on sparse bitmaps."""
    data = bits.to_bytes()
    out = []
    append = out.append
    offsets = _BIT_OFFSETS
    for match in re.finditer(rb"[^\x00]", data):
        p = match.start()
        base = p * 8
        for k in offsets[data[p]]:
            append(base + k)
    return out


def _bitmap(positions: Iterable[int], nbits: int) -> BitString:
    """`nbits` bits, set at `positions`; inverts `_scan_set_bits`."""
    buf = bytearray((nbits + 7) // 8)
    for pos in positions:
        buf[pos >> 3] |= 0x80 >> (pos & 7)
    return BitString(bytes(buf), nbits)


def _write_model(
    header: Header, counts: dict[int, dict[int, int]]
) -> tuple[BitString, BitString, BitString, int]:
    """The v1 writer: context_map, successor_map, freq_table and the
    frequency field width, laid out as `_read_model` reads them."""
    m = len(header.alphabet)
    set_js = sorted(counts)
    s = len(set_js)
    # (successor_map position, count) of every marked pair, in map order
    marked = sorted(
        (i * s + r, f) for r, j in enumerate(set_js) for i, f in counts[j].items()
    )
    freq_width = max((f for _, f in marked), default=0).bit_length()
    freq_table = BitWriter()
    for _, f in marked:
        freq_table.write_uint(f, freq_width)
    return (
        _bitmap(set_js, m**header.order),
        _bitmap((pos for pos, _ in marked), m * s),
        freq_table.getvalue(),
        freq_width,
    )


def _read_model(
    header: Header, freq_width: int, read: Callable[[int, str], BitString], head: bytes
) -> dict[int, dict[int, int]]:
    """The v1 reader: the context model from context_map, successor_map
    and freq_table, each taken by `read(bit_count, component_name)`.

    Raises CorruptHeaderError unless the components are exactly what
    `_write_model` makes of some model of h - n positions, and every
    alphabet symbol is in `head` (prefix indices) or a marked successor.
    """
    m = len(header.alphabet)
    n = header.order
    set_js = _scan_set_bits(read(m**n, "context_map"))
    s = len(set_js)
    marked = _scan_set_bits(read(m * s, "successor_map"))
    if (freq_width > 0) != bool(marked):
        raise CorruptHeaderError(
            f"frequency field width {freq_width} for {len(marked)} marked successors"
        )
    fields = read(freq_width * len(marked), "freq_table").to01()
    freqs = (
        [int(fields[k : k + freq_width], 2) for k in range(0, len(fields), freq_width)]
        if marked
        else []
    )
    if 0 in freqs:
        raise CorruptHeaderError("marked successor with zero frequency")
    widest = max(freqs, default=0).bit_length()
    if widest != freq_width:
        raise CorruptHeaderError(
            f"frequency field width {freq_width}, expected {widest}"
        )
    if sum(freqs) != max(header.length - n, 0):
        raise CorruptHeaderError(
            f"frequencies sum to {sum(freqs)}, expected {max(header.length - n, 0)}"
        )
    unused = m - len({pos // s for pos in marked}.union(head))
    if unused:
        raise CorruptHeaderError(f"{unused} alphabet symbols never occur")
    # ascending positions are symbol-major, so each row fills in symbol order
    rows: list[dict[int, int]] = [{} for _ in range(s)]
    for pos, f in zip(marked, freqs):
        rows[pos % s][pos // s] = f
    if not all(rows):
        j = set_js[rows.index({})]
        raise CorruptHeaderError(f"context index {j} has no marked successor")
    return dict(zip(set_js, rows))


def _read_prefix(header: Header, read: Callable[[int, str], BitString]) -> bytearray:
    """The symbol indices of the verbatim first symbols."""
    m = len(header.alphabet)
    sym_width = (m - 1).bit_length()
    count = min(header.length, header.order)
    reader = BitReader(read(count * sym_width, "prefix"))
    out = bytearray()
    for _ in range(count):
        i = reader.read_uint(sym_width)
        if i >= m:
            raise CorruptHeaderError(f"symbol index {i} outside alphabet of size {m}")
        out.append(i)
    return out


def _field_reader(payload: EahPayload) -> Callable[[int, str], BitString]:
    """`read` over a payload's own fields, each length-checked."""

    def read(count: int, name: str) -> BitString:
        bits = getattr(payload, name)
        if len(bits) != count:
            raise CorruptHeaderError(f"{name} holds {len(bits)} bits, expected {count}")
        return bits

    return read


def encode(word: bytes, order: int) -> tuple[EahPayload, Header]:
    """Encode a byte string at the given order.

    The alphabet is the set of distinct bytes of `word` in ascending
    value order.  Raises ValueError for empty input, for an order outside
    1..255, or for one whose m**n contexts exceed MAX_CONTEXT_BITS.
    """
    if not 1 <= order <= 255:  # the container stores it in one byte
        raise ValueError(f"order must be between 1 and 255, got {order}")
    word = bytes(word)
    if not word:
        raise ValueError("cannot encode an empty string")
    alphabet = Alphabet.from_bytes(word)
    m = len(alphabet)
    n = order
    h = len(word)
    header = Header(n, alphabet, h)
    counts = _successor_counts(word, n, alphabet)
    context_map, successor_map, freq_table, freq_width = _write_model(header, counts)
    codes, _ = _build_codes(n, counts, _encoder_entry)

    sym_width = (m - 1).bit_length()
    idx = _index_table(alphabet)
    head = word[:n].translate(idx)
    prefix = BitWriter()
    for i in head:
        prefix.write_uint(i, sym_width)
    j = _context_index(head, m)
    stream = BitWriter()
    tail = m ** (n - 1)
    for p in range(n, h):
        i = idx[word[p]]
        value, width = codes[j][i]
        stream.write_uint(value, width)
        j = (j % tail) * m + i

    payload = EahPayload(
        prefix.getvalue(),
        context_map,
        successor_map,
        freq_table,
        stream.getvalue(),
        freq_width,
    )
    return payload, header


def decode(payload: EahPayload, header: Header) -> bytes:
    """Reconstruct the original bytes from a payload and its header."""
    m = len(header.alphabet)
    n = header.order
    h = header.length
    read = _field_reader(payload)
    out = _read_prefix(header, read)
    cached = payload._tables
    if cached is not None and cached[0] is header:
        tables = cached[1]
    else:
        tables, _ = _build_codes(
            n, _read_model(header, payload.freq_width, read, out), _decoder_entry
        )
    symbols = bytes.maketrans(bytes(range(m)), header.alphabet.to_bytes())

    j = _context_index(out, m)
    nbits = len(payload.stream)
    # two zero bytes let every 3-byte peek at pos <= nbits read in full
    data = payload.stream.to_bytes() + b"\x00\x00"
    pos = 0
    tail = m ** (n - 1)
    tables_get = tables.get
    from_bytes = int.from_bytes
    append = out.append
    for _ in range(h - n):
        context = tables_get(j)
        if context is None:
            raise CorruptStreamError(f"no code table for context index {j}")
        longest, table = context
        if longest <= TABLE_BITS:
            p = pos >> 3
            entry = table[
                (from_bytes(data[p : p + 3], "big") >> (24 - longest - (pos & 7)))
                & ((1 << longest) - 1)
            ]
            if entry is None:
                if pos + longest > nbits:
                    raise TruncationError("codeword stream ended early")
                raise CorruptStreamError(f"undecodable codeword in context {j}")
            i, length = entry
            pos += length
        else:
            i, pos = _walk_codeword(table, longest, data, pos, nbits, j)
        if pos > nbits:
            raise TruncationError("codeword stream ended early")
        append(i)
        j = (j % tail) * m + i
    if pos != nbits:
        raise TrailingGarbageError(f"{nbits - pos} bits left after the last symbol")
    return bytes(out).translate(symbols)


def leahn_length(word: bytes, order: int) -> int:
    """Total encoded size in bits: the sum of the five component lengths."""
    payload, _ = encode(word, order)
    return payload.total_bits()


def serialize(payload: EahPayload, header: Header) -> bytes:
    """Pack a payload and header into the bit-exact container format.

    Raises ValueError for a header field the container cannot hold.
    """
    if not 1 <= header.order <= 255:
        raise ValueError(f"order must be between 1 and 255, got {header.order}")
    if not 0 <= header.length < 1 << 64:
        raise ValueError(f"length must fit in 64 bits, got {header.length}")
    if not 0 <= payload.freq_width <= 255:
        raise ValueError(f"freq_width must be between 0 and 255, got {payload.freq_width}")
    alphabet = header.alphabet.to_bytes()
    out = bytearray()
    out += MAGIC
    out += struct.pack("<BBB", VERSION, header.order, len(alphabet) - 1)
    out += alphabet
    out += struct.pack("<Q", header.length)
    out += struct.pack("<B", payload.freq_width)
    bits = BitWriter()
    for component in payload.components():
        bits.write_bits(component)
    out += bits.getvalue().to_bytes()
    return bytes(out)


def deserialize(blob: bytes) -> tuple[EahPayload, Header]:
    """Parse a container back into its payload and header.

    The component boundaries are recovered from the bits themselves: the
    context map fixes the successor map's size, which fixes the frequency
    table's, and the codes built from the model fix the stream's.  Those
    decoder tables travel with the payload, so `decode` of the same
    payload and header does not build them again.
    """
    if len(blob) < 7:
        raise TruncationError("container shorter than its fixed header")
    if blob[:4] != MAGIC:
        raise CorruptHeaderError(f"bad magic {blob[:4]!r}")
    version, order, m_minus_1 = struct.unpack_from("<BBB", blob, 4)
    if version != VERSION:
        raise CorruptHeaderError(f"unsupported version {version}")
    if order < 1:
        raise CorruptHeaderError("order must be >= 1")
    m = m_minus_1 + 1
    end = 7 + m + 9
    if len(blob) < end:
        raise TruncationError("container truncated inside the header")
    symbols = blob[7 : 7 + m]
    if list(symbols) != sorted(set(symbols)):  # encode writes them ascending
        raise CorruptHeaderError("alphabet bytes are not strictly ascending")
    alphabet = Alphabet(symbols)
    (h,) = struct.unpack_from("<Q", blob, 7 + m)
    freq_width = blob[7 + m + 8]
    header = Header(order, alphabet, h)

    reader = BitReader(blob[end:])
    components: dict[str, BitString] = {}

    def read(count: int, name: str) -> BitString:
        try:
            bits = components[name] = reader.read_bits(count)
        except TruncationError:
            raise TruncationError(f"container truncated inside the {name}") from None
        return bits

    head = _read_prefix(header, read)
    tables, stream_bits = _build_codes(
        order, _read_model(header, freq_width, read, head), _decoder_entry
    )
    read(stream_bits, "stream")
    if reader.remaining() >= 8 or reader.read_uint(reader.remaining()):
        raise TrailingGarbageError("container continues past the payload")

    payload = EahPayload(freq_width=freq_width, **components)
    object.__setattr__(payload, "_tables", (header, tables))
    return payload, header


def compress(word: bytes, order: int) -> bytes:
    """Encode `word` and pack it into a container."""
    payload, header = encode(word, order)
    return serialize(payload, header)


def decompress(blob: bytes) -> bytes:
    """Unpack a container and reconstruct the original bytes."""
    payload, header = deserialize(blob)
    return decode(payload, header)
