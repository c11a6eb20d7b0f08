"""Order-n context-modeled Huffman codec and its container format.

The encoder makes two passes: the first counts, for every length-n
context window, how often each symbol follows it; the second builds a
Huffman code per context over those counts and emits one codeword per
input position.  Five bit components are produced:

    prefix        the first min(h, n) symbol indices, verbatim
    context_map   one bit per possible context (m**n bits): occurs or not
    successor_map per (symbol, occurring context): does it follow there?
    freq_table    fixed-width occurrence counts for every marked pair
    stream        the per-context codewords for positions n+1 .. h

For order 1 a context followed by itself is recorded on the diagonal of
successor_map (symbol index == context index), mirroring the aux-vertex
routing of the transition graph.  The decoder rebuilds the identical
codes from the bitmaps and counts alone; it never sees the input.
`_successor_counts` and `_successor_codes` are the one context model:
`graph.build_graph` and `graph.assign_codewords` read the transition
graph and its codewords off them.

Each side keeps only the map it needs.  The encoder maps a context's
successor to its (value, length) codeword.  The decoder turns each
context's code into a lookup table over the next L bits of the stream,
where L is the context's longest codeword: entry v holds the (symbol,
length) of the codeword that prefixes v.  A context whose codewords
exceed TABLE_BITS is walked bit by bit through a (value, length) dict
instead, by `adaptive_code._walk_codeword`, and every lone-successor
context of a symbol shares one two-entry table.  `deserialize` builds
these tables once while it finds the stream's length and hands them to
`decode` inside the payload, so a container's codes are rebuilt once
per `decompress`.

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

Note the context map is m**n bits: keep the order small for large
alphabets (the command-line tool caps it via EAHC_MAX_ORDER).
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field

from .adaptive_code import Alphabet, _walk_codeword
from .bitstream import EMPTY, BitReader, BitString, BitWriter
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


def _index_table(alphabet: Alphabet) -> list[int]:
    table = [0] * 256
    for i, s in enumerate(alphabet):
        table[s] = i
    return table


def _successor_counts(
    word: bytes, order: int, alphabet: Alphabet
) -> dict[int, dict[int, int]]:
    """Map context index -> {successor symbol index -> count}."""
    idx = _index_table(alphabet)
    m = len(alphabet)
    n = order
    counts: dict[int, dict[int, int]] = {}
    j = 0
    for t in range(n):
        j = j * m + idx[word[t]]
    tail = m ** (n - 1)
    for p in range(len(word) - n):
        i = idx[word[p + n]]
        row = counts.get(j)
        if row is None:
            row = counts[j] = {}
        row[i] = row.get(i, 0) + 1
        j = (j % tail) * m + i
    return counts


def _encode_maps(
    order: int, counts: dict[int, dict[int, int]]
) -> dict[int, dict[int, tuple[int, int]]]:
    """Map context index -> {successor symbol index -> (value, length)}."""
    maps: dict[int, dict[int, tuple[int, int]]] = {}
    solo: dict[int, dict[int, tuple[int, int]]] = {}  # shared per lone successor
    for j, row in counts.items():
        if len(row) == 1:
            (i,) = row
            code = solo.get(i)
            if code is None:
                code = solo[i] = {i: (0, 1)}
            maps[j] = code
        else:
            maps[j] = {
                i: (value, length)
                for i, _, value, length in _successor_codes(order, j, sorted(row.items()))
            }
    return maps


def _set_bit(buf: bytearray, pos: int) -> None:
    buf[pos >> 3] |= 0x80 >> (pos & 7)


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


def encode(word: bytes, order: int) -> tuple[EahPayload, Header]:
    """Encode a byte string at the given order.

    The alphabet is the set of distinct bytes of `word` in ascending
    value order.  Raises ValueError for empty input or order < 1.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    word = bytes(word)
    if not word:
        raise ValueError("cannot encode an empty string")
    alphabet = Alphabet.from_bytes(word)
    m = len(alphabet)
    n = order
    h = len(word)
    header = Header(n, alphabet, h)
    sym_width = (m - 1).bit_length()

    prefix = BitWriter()
    idx = _index_table(alphabet)
    for t in range(min(h, n)):
        prefix.write_uint(idx[word[t]], sym_width)

    num_contexts = m**n
    context_buf = bytearray((num_contexts + 7) // 8)
    if h <= n:
        return (
            EahPayload(
                prefix.getvalue(),
                BitString(bytes(context_buf), num_contexts),
                EMPTY,
                EMPTY,
                EMPTY,
                0,
            ),
            header,
        )

    counts = _successor_counts(word, n, alphabet)
    codes = _encode_maps(n, counts)
    set_js = sorted(counts)
    for j in set_js:
        _set_bit(context_buf, j)
    rank = {j: r for r, j in enumerate(set_js)}

    marked = sorted(
        (i, j, f) for j, row in counts.items() for i, f in row.items()
    )
    succ_buf = bytearray((m * len(set_js) + 7) // 8)
    for i, j, _ in marked:
        _set_bit(succ_buf, i * len(set_js) + rank[j])

    freq_width = max(f for _, _, f in marked).bit_length()
    freq_table = BitWriter()
    for _, _, f in marked:
        freq_table.write_uint(f, freq_width)

    stream = BitWriter()
    j = 0
    for t in range(n):
        j = j * m + idx[word[t]]
    tail = m ** (n - 1)
    for p in range(n, h):
        i = idx[word[p]]
        value, width = codes[j][i]
        stream.write_uint(value, width)
        j = (j % tail) * m + i

    payload = EahPayload(
        prefix.getvalue(),
        BitString(bytes(context_buf), num_contexts),
        BitString(bytes(succ_buf), m * len(set_js)),
        freq_table.getvalue(),
        stream.getvalue(),
        freq_width,
    )
    return payload, header


def _codes_from_maps(
    header: Header,
    payload: EahPayload,
    set_js: list[int] | None = None,
    marked_positions: list[int] | None = None,
) -> tuple[dict[int, tuple], int]:
    """Rebuild every context's decoder table from the bitmaps and counts.

    Returns the tables by context index, each (L, table) as described in
    the module docstring, and the codeword stream's length in bits.
    Callers that already scanned the bitmaps may pass the set-bit
    positions to avoid a second pass.
    """
    m = len(header.alphabet)
    n = header.order
    h = header.length
    if len(payload.context_map) != m**n:
        raise CorruptHeaderError(
            f"context map holds {len(payload.context_map)} bits, expected {m**n}"
        )
    if set_js is None:
        set_js = _scan_set_bits(payload.context_map)
    if h <= n:
        if set_js:
            raise CorruptHeaderError("context map set although the input fits the prefix")
        return {}, 0
    if not set_js:
        raise CorruptHeaderError("no context is marked but symbols follow the prefix")
    s = len(set_js)
    if len(payload.successor_map) != m * s:
        raise CorruptHeaderError(
            f"successor map holds {len(payload.successor_map)} bits, expected {m * s}"
        )
    if marked_positions is None:
        marked_positions = _scan_set_bits(payload.successor_map)
    if not marked_positions:
        raise CorruptHeaderError("no successor is marked")
    width = payload.freq_width
    if width < 1:
        raise CorruptHeaderError("frequency field width must be positive")
    if len(payload.freq_table) != width * len(marked_positions):
        raise CorruptHeaderError(
            f"frequency table holds {len(payload.freq_table)} bits, expected "
            f"{width * len(marked_positions)}"
        )

    fields = payload.freq_table.to01()
    freqs = [int(fields[k : k + width], 2) for k in range(0, len(fields), width)]
    if min(freqs) < 1:
        raise CorruptHeaderError("marked successor with zero frequency")
    if sum(freqs) != h - n:
        raise CorruptHeaderError(
            f"frequencies sum to {sum(freqs)}, expected {h - n}"
        )
    # ascending positions are symbol-major, so each rank's list is ascending
    by_rank: list[list[tuple[int, int]]] = [[] for _ in range(s)]
    for pos, f in zip(marked_positions, freqs):
        by_rank[pos % s].append((pos // s, f))

    tables: dict[int, tuple] = {}
    solo: dict[int, tuple] = {}  # shared per lone successor
    stream_bits = 0
    for j, pairs in zip(set_js, by_rank):
        if not pairs:
            continue  # decode reports the context if the stream reaches it
        if len(pairs) == 1:
            i, f = pairs[0]
            entry = solo.get(i)
            if entry is None:
                entry = solo[i] = (1, [(i, 1), None])
            tables[j] = entry
            stream_bits += f
            continue
        codes = _successor_codes(n, j, pairs)
        longest = max(length for _, _, _, length in codes)
        stream_bits += sum(f * length for _, f, _, length in codes)
        if longest <= TABLE_BITS:
            table: list | dict = [None] * (1 << longest)
            for i, _, value, length in codes:
                span = 1 << (longest - length)
                start = value * span
                table[start : start + span] = [(i, length)] * span
        else:
            table = {(value, length): i for i, _, value, length in codes}
        tables[j] = (longest, table)
    return tables, stream_bits


def _read_prefix(header: Header, prefix: BitString) -> tuple[bytearray, int]:
    """Recover the verbatim first symbols; returns their indices and the
    context index."""
    m = len(header.alphabet)
    sym_width = (m - 1).bit_length()
    count = min(header.length, header.order)
    if len(prefix) != count * sym_width:
        raise CorruptHeaderError(
            f"prefix holds {len(prefix)} bits, expected {count * sym_width}"
        )
    reader = BitReader(prefix)
    out = bytearray()
    j = 0
    for _ in range(count):
        i = reader.read_uint(sym_width)
        if i >= m:
            raise CorruptHeaderError(f"symbol index {i} outside alphabet of size {m}")
        out.append(i)
        j = j * m + i
    return out, j


def decode(payload: EahPayload, header: Header) -> bytes:
    """Reconstruct the original bytes from a payload and its header."""
    m = len(header.alphabet)
    n = header.order
    h = header.length
    out, j = _read_prefix(header, payload.prefix)
    cached = payload._tables
    if cached is not None and cached[0] is header:
        tables = cached[1]
    else:
        tables, _ = _codes_from_maps(header, payload)
    symbols = header.alphabet.to_bytes()
    symbols += bytes(256 - len(symbols))  # translate table: index -> byte
    if h <= n:
        if len(payload.stream):
            raise TrailingGarbageError("codeword stream present although unused")
        return bytes(out).translate(symbols)

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
    """Pack a payload and header into the bit-exact container format."""
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
    table's, and the rebuilt code tables fix the stream's.  Those tables
    travel with the payload, so `decode` of the same payload and header
    does not build them again.
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
    try:
        alphabet = Alphabet(blob[7 : 7 + m])
    except ValueError as exc:
        raise CorruptHeaderError(str(exc)) from None
    (h,) = struct.unpack_from("<Q", blob, 7 + m)
    freq_width = blob[7 + m + 8]
    header = Header(order, alphabet, h)

    reader = BitReader(blob[end:])
    sym_width = (m - 1).bit_length()
    try:
        prefix = reader.read_bits(min(h, order) * sym_width)
        context_map = reader.read_bits(m**order)
        set_js = _scan_set_bits(context_map)
        successor_map = reader.read_bits(m * len(set_js))
        marked_positions = _scan_set_bits(successor_map)
        freq_table = reader.read_bits(freq_width * len(marked_positions))
    except TruncationError:
        raise TruncationError("container truncated inside the payload") from None

    partial = EahPayload(
        prefix, context_map, successor_map, freq_table, EMPTY, freq_width
    )
    tables, stream_bits = _codes_from_maps(header, partial, set_js, marked_positions)
    try:
        stream = reader.read_bits(stream_bits)
    except TruncationError:
        raise TruncationError("container truncated inside the codeword stream") from None
    if reader.remaining() >= 8 or reader.read_uint(reader.remaining()):
        raise TrailingGarbageError("container continues past the payload")

    payload = EahPayload(
        prefix, context_map, successor_map, freq_table, stream, freq_width
    )
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
