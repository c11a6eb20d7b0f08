"""Order-n context-modeled Huffman codec and its container format.

The context model is one dict, context index -> {successor symbol index
-> count}, as `_successor_counts` reads it off the input: the windows of
n symbols that occur, and how often each symbol follows each of them.
This module owns the context index, a window's symbol indices read as a
base-m number (`_context_index`), and its inverse (`_window`).  The model
is the transition graph of the paper; `graph.build_graph` and
`graph.assign_codewords` are views of it and of `_successor_codes`, the
Huffman code of one context, and ask this module for both numberings.

Only the decoder keeps tables, one per distinct count tuple in code order,
which fixes the code: `_ranked_table` makes (L, ranks, lengths, cost): one
length per codeword, L the longest, and cost Σ f·length.  `ranks` comes
from the codewords' starts, each value left-justified to L bits, sorted
with its rank; the lone code's "0" adds a sentinel start at slot 1 ranked
1, past `lengths`.  A Huffman code of two or more codewords is complete,
so the codeword at a slot is the last one starting at or before it.  Up to
TABLE_BITS, `ranks` is 2**L bytes, each start's rank repeated up to the
next start; past it, (starts, by_start) for `bisect_right`.  A context's
entry adds `syms`, its successors in code order; lone successors share
`_LONE`.  `decode` loads _REFILL stream bits at a time into one int while
fewer than L are unread, and peeks the next L bits as the slot.  Past the
stream the int reads zeros; `_build_codes` bounds the h - n steps, and one
test after them finds a truncation.

The encoder runs no Python code per input symbol.  `_pair_keys` yields
the key j*m + i (context index, successor index) of every position from
a chain of C-level `map`s; `_successor_counts` counts those keys with a
`Counter`, and `encode` maps them through one flat dict, key -> codeword
as '0'/'1' text, built from `_successor_codes` (a lone successor's
codeword is "0", with no Huffman call).  It joins the codewords in
bounded chunks of _CHUNK and turns each chunk into bits at once.

Format v1 codes the model as bitmaps and fixed-width counts, five bit
components in all:

    prefix        the first min(h, n) symbol indices, verbatim
    context_map   one bit per possible context (m**n bits): occurs or not
    successor_map per (symbol, occurring context): does it follow there?
    freq_table    fixed-width occurrence counts for every marked pair
    stream        the per-context codewords for positions n+1 .. h

For order 1 a context followed by itself is recorded on the diagonal of
successor_map (symbol index == context index), mirroring the aux-vertex
routing of the transition graph.  `_write_v1` writes the four components
before the stream and `_read_v1` is their one reader, the only code that
scans the maps.  It reads through a `read(bit_count, component_name)`
callable, so `deserialize` runs it over the container's bits and `decode`
over the payload's own fields.  The decoder never sees the input.

`deserialize` must build the decoder tables anyway, since the stream's
length is only known from the codes; it hands them and the prefix indices
to `decode` inside the payload, so `decompress` reads each component and
builds the tables once.  `_read_v1` hands the rows over one at a time in
reading order, so each is freed as its entry is built.  Reading the model
and building the tables is most of the decompress CPU on model-heavy input.

Container wire format (little-endian; `struct` layouts `_LEAD`, `_TAIL`):

    _LEAD  [4B] magic "EAH1"
           [1B] version (1)
           [1B] order n
           [1B] alphabet size minus 1
           [mB] alphabet bytes in index order
    _TAIL  [8B] original length h
           [1B] freq_table field width (0 when h <= n)
           [..] payload bits prefix|context_map|successor_map|freq_table|
                stream, packed MSB-first, final byte zero-padded

`serialize` writes the header and the five components through one
`BitWriter` and returns its buffer, copied once; `deserialize` reads them
in place, through one `BitReader` past the header.

The context map is m**n bits, the one part of a container that can grow
far past its input.  `_successor_counts` refuses a model with more than
MAX_CONTEXT_BITS possible contexts before it counts anything, so
`encode`, `compress`, `leahn_length` and `graph.build_graph` share that
budget.  `deserialize` takes none: it refuses a header that claims more
codewords than the container has bits, `BitReader.read_bits` checks that
the container holds a component's bits before it copies them, and
`_build_codes` stops once its codewords need more stream bits than remain.
A valid container still pays one dict per marked context.
"""

from __future__ import annotations

import re
import struct
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice, pairwise, repeat
from operator import add, mul
from typing import Callable, Iterable, Iterator

from .adaptive_code import Alphabet
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
_LEAD = struct.Struct("<4s3B")  # magic, version, order, m - 1; then the alphabet
_TAIL = struct.Struct("<QB")  # h, freq_table field width
TABLE_BITS = 12  # longest codeword a decoder lookup table is built for
_REFILL = 48  # stream bits `decode` loads at once: a whole number of bytes
MAX_CONTEXT_BITS = 1 << 24  # largest m**n a model may span: 256**3, a 2 MiB map
_CHUNK = 8192  # codewords `encode` joins into one '0'/'1' string


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
    # (header, prefix indices, decoder tables) that deserialize read, for decode
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


def _code_order(order: int, context_index: int, pairs: Iterable) -> tuple[tuple, tuple]:
    """One context's successor symbol indices in code order, and their
    counts.  pairs: (symbol index, frequency), symbol index ascending; at
    order 1 the diagonal entry is the repeat successor and codes last."""
    if order == 1:  # a stable sort moves the diagonal entry alone
        pairs = sorted(pairs, key=lambda p: p[0] == context_index)
    syms, freqs = zip(*pairs)
    return syms, freqs


def _successor_codes(order: int, context_index: int, pairs: list) -> list[tuple]:
    """Huffman codewords of one context as (symbol index, value, length), in
    code order; `pairs` as `_code_order` takes them."""
    syms, freqs = _code_order(order, context_index, pairs)
    return [(i, value, length) for i, (value, length) in zip(syms, code_pairs(freqs))]


def _index_table(alphabet: Alphabet) -> bytes:
    """Byte -> symbol index, for indexing or `bytes.translate`."""
    return bytes.maketrans(alphabet.to_bytes(), bytes(range(len(alphabet))))


def _context_index(indices: Iterable[int], m: int) -> int:
    """A window's symbol indices read as a base-m number, most significant
    first.  `decode` rolls it forward inline, j = (j % m**(n-1)) * m + i,
    as each symbol enters; `_pair_keys` reads it off whole windows."""
    j = 0
    for i in indices:
        j = j * m + i
    return j


def _window(j: int, m: int, n: int) -> list[int]:
    """The n symbol indices of context index j; inverts `_context_index`."""
    return [j // m ** (n - 1 - k) % m for k in range(n)]


def _pair_keys(t: bytes, m: int, n: int) -> Iterator[int]:
    """j*m + i at every position of `t`, the input's symbol indices, that
    has n symbols after it: j is the context index of the n-symbol window
    there and i the index of the symbol after it, so the key is that
    window of n + 1 read as a base-m number.

    No Python code runs per symbol: the keys come out of a chain of
    C-level `map`s.  Runs of w digits are first packed into bytes,
    P_2w[p] = P_w[p] * m**w + P_w[p + w], while m**(2w) <= 256; the chain
    then adds, from the widest run on, the widest packed run that still
    fits in n + 1: the binary decomposition of n + 1, widest first, so it
    stays a few levels deep at every order the budget allows.
    """
    width = n + 1
    widest = 1
    while 2 * widest <= width and m ** (2 * widest) <= 256:
        widest *= 2
    packed = {1: t}
    w = 1
    while w < widest:
        p = packed[w]
        packed[2 * w] = bytes(map(add, map(mul, p, repeat(m**w)), memoryview(p)[w:]))
        w *= 2
    keys: Iterator[int] = iter(packed[widest])
    done = widest
    while done < width:
        w = max(v for v in packed if done + v <= width)
        keys = map(add, map(mul, keys, repeat(m**w)), memoryview(packed[w])[done:])
        done += w
    return keys


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
    counts: dict[int, dict[int, int]] = {}
    keys = _pair_keys(word.translate(_index_table(alphabet)), m, n)
    for key, f in Counter(keys).items():
        j, i = divmod(key, m)
        counts.setdefault(j, {})[i] = f
    return counts


def _ranked_table(freqs: tuple[int, ...]) -> tuple[int, bytes | tuple, bytes, int]:
    """(L, ranks, lengths, cost) of the code over `freqs`, as the module
    docstring describes: a slot no codeword prefixes ranks past `lengths`."""
    codes = code_pairs(freqs)
    lengths = bytes(length for _, length in codes)
    longest = max(lengths)
    cost = sum(map(mul, freqs, lengths))
    starts = sorted(
        (value << (longest - length), r) for r, (value, length) in enumerate(codes)
    )
    if len(codes) == 1:  # "0" leaves slot 1 unprefixed
        starts.append((1, 1))
    if longest > TABLE_BITS:
        return longest, tuple(zip(*starts)), lengths, cost
    starts.append((1 << longest, 0))  # the end of the slots
    ranks = b"".join(bytes((r,)) * (b - a) for (a, r), (b, _) in pairwise(starts))
    return longest, ranks, lengths, cost


# a lone successor's codeword is "0" whatever its count, so its entry
# depends only on its symbol index
_LONE = [_ranked_table((1,))[:3] + (bytes((i,)),) for i in range(256)]


def _build_codes(
    order: int, rows: Iterable[tuple[int, dict[int, int]]], available: int
) -> tuple[dict, int]:
    """Decoder entries by context index, as the module docstring describes,
    and the stream's length in bits, from `_read_v1`'s (context index, row)
    pairs, rows in symbol order.  Raises TruncationError once the codewords
    priced so far need more than the `available` stream bits."""
    codes = {}
    shared: dict[tuple[int, ...], tuple] = {}
    stream_bits = 0
    for j, row in rows:
        if len(row) == 1:
            ((i, f),) = row.items()
            code = _LONE[i]
            stream_bits += f
        else:
            syms, freqs = _code_order(order, j, row.items())
            if freqs not in shared:
                shared[freqs] = _ranked_table(freqs)
            longest, ranks, lengths, cost = shared[freqs]
            code = (longest, ranks, lengths, bytes(syms))
            stream_bits += cost
        codes[j] = code
        if stream_bits > available:
            raise TruncationError(f"stream needs more than the {available} bits left")
    return codes, stream_bits


_BIT_OFFSETS = [
    tuple(k for k in range(8) if byte & (0x80 >> k)) for byte in range(256)
]


_SCAN_CHUNK = 8192  # bytes of a map `_scan_set_bits` masks at once
_NONZERO = bytes(1) + b"\x01" * 255  # byte -> 1 when any of its bits is set
_find_ones = re.compile(rb"\x01").finditer


def _scan_set_bits(bits: BitString) -> array:
    """Ascending positions of set bits, 4 bytes apiece while they fit in
    32 bits.

    Each _SCAN_CHUNK-byte slice of the map is translated to a 0/1 mask in
    which the nonzero bytes are found by searching for the literal byte 1:
    `re` skips to a literal at memchr speed, but would test a class of
    nonzero bytes one byte at a time.  Scratch memory is bounded by two
    slices, the slice and its mask, not by a second copy of the map.
    """
    data = bits.to_bytes()
    out = array("I" if len(bits) <= 1 << 32 else "Q")
    append = out.append
    offsets = _BIT_OFFSETS
    for start in range(0, len(data), _SCAN_CHUNK):
        chunk = data[start : start + _SCAN_CHUNK]
        for match in _find_ones(chunk.translate(_NONZERO)):
            p = match.start()
            base = (start + p) * 8
            for k in offsets[chunk[p]]:
                append(base + k)
    return out


def _bitmap(positions: Iterable[int], nbits: int) -> BitString:
    """`nbits` bits, set at `positions`; inverts `_scan_set_bits`."""
    buf = bytearray((nbits + 7) // 8)
    for pos in positions:
        buf[pos >> 3] |= 0x80 >> (pos & 7)
    return BitString(bytes(buf), nbits)


def _write_v1(
    header: Header, head: bytes, counts: dict[int, dict[int, int]]
) -> tuple[BitString, BitString, BitString, BitString, int]:
    """The v1 writer: the prefix of `head`'s symbol indices, context_map,
    successor_map, freq_table and the frequency field width, laid out as
    `_read_v1` reads them, each count looked up by its map position."""
    m = len(header.alphabet)
    w = (m - 1).bit_length()
    set_js = sorted(counts)
    s = len(set_js)
    # successor_map positions of the marked pairs, i * s + r, in map order
    marked = sorted(i * s + r for r, j in enumerate(set_js) for i in counts[j])
    widest = max((f for row in counts.values() for f in row.values()), default=0)
    freq_width = widest.bit_length()
    freq_table = BitWriter()
    for pos in marked:
        freq_table.write_uint(counts[set_js[pos % s]][pos // s], freq_width)
    return (
        # w-bit fields, most significant first: the indices as a base-2**w number
        BitString.from_int(_context_index(head, 1 << w), len(head) * w),
        _bitmap(set_js, m**header.order),
        _bitmap(marked, m * s),
        freq_table.getvalue(),
        freq_width,
    )


def _read_v1(
    header: Header, freq_width: int, read: Callable[[int, str], BitString]
) -> tuple[bytes, Iterator[tuple[int, dict[int, int]]]]:
    """The v1 reader: the prefix's symbol indices and, used up once, the
    model's (context index, row) pairs, context index descending, each row
    in symbol order; each component taken by `read(bit_count, component_name)`.

    Raises CorruptHeaderError unless the components are exactly what
    `_write_v1` makes of some input of h symbols, in which every alphabet
    symbol occurs in the prefix or as a marked successor.
    """
    m = len(header.alphabet)
    n = header.order
    w = (m - 1).bit_length()
    count = min(header.length, n)
    head = bytes(_window(read(count * w, "prefix").uint(), 1 << w, count))
    if head and max(head) >= m:
        raise CorruptHeaderError(f"symbol index {max(head)} outside alphabet of size {m}")
    set_js = _scan_set_bits(read(m**n, "context_map"))
    s = len(set_js)
    marked = _scan_set_bits(read(m * s, "successor_map"))
    fields = read(freq_width * len(marked), "freq_table").to01()
    step = freq_width or 1  # at width 0 there are no fields: `fields` is empty
    freqs = [int(fields[k : k + step], 2) for k in range(0, len(fields), step)]
    if 0 in freqs:
        raise CorruptHeaderError("marked successor with zero frequency")
    widest = max(freqs, default=0).bit_length()
    if widest != freq_width:
        raise CorruptHeaderError(f"frequency field width {freq_width}, expected {widest}")
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
    return head, ((j, rows.pop()) for j in reversed(set_js))


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
    idx = _index_table(alphabet)
    prefix, context_map, successor_map, freq_table, freq_width = _write_v1(
        header, word[:n].translate(idx), counts
    )

    # one flat map j*m + i -> codeword as '0'/'1' text, each text shared
    # by every pair with the same (value, length)
    codewords: dict[int, str] = {}
    texts: dict[tuple[int, int], str] = {}
    while counts:  # each row popped, so the model is gone before the stream
        j, row = counts.popitem()
        if len(row) == 1:
            codewords[j * m + next(iter(row))] = "0"
            continue
        for i, value, length in _successor_codes(n, j, sorted(row.items())):
            text = texts.get((value, length))
            if text is None:
                text = texts[value, length] = format(value, f"0{length}b")
            codewords[j * m + i] = text

    words = map(codewords.__getitem__, _pair_keys(word.translate(idx), m, n))
    stream = BitWriter()
    while chunk := "".join(islice(words, _CHUNK)):
        stream.write_uint(int(chunk, 2), len(chunk))

    payload = EahPayload(
        prefix,
        context_map,
        successor_map,
        freq_table,
        stream.getvalue(),
        freq_width,
    )
    return payload, header


def decode(payload: EahPayload, header: Header) -> bytes:
    """Reconstruct the original bytes from a payload and its header.

    Raises CorruptHeaderError for an order outside 1..255 or an alphabet
    out of ascending order, which no container can hold, before it reads
    any component.
    """
    m = len(header.alphabet)
    n = header.order
    h = header.length
    alphabet = header.alphabet.to_bytes()
    if not 1 <= n <= 255:
        raise CorruptHeaderError(f"order must be between 1 and 255, got {n}")
    if list(alphabet) != sorted(alphabet):  # its bytes are distinct
        raise CorruptHeaderError("alphabet bytes are not strictly ascending")
    cached = payload._tables
    if cached is not None and cached[0] is header:
        _, head, tables = cached
    else:
        head, rows = _read_v1(header, payload.freq_width, _field_reader(payload))
        tables, _ = _build_codes(n, rows, len(payload.stream))
    symbols = bytes.maketrans(bytes(range(m)), alphabet)

    out = bytearray(head)
    j = _context_index(head, m)
    nbits = len(payload.stream)
    data = payload.stream.to_bytes()
    acc = nacc = p = 0  # acc's low nacc bits are unread; p is the next byte
    load = _REFILL // 8
    tail = m ** (n - 1)
    append = out.append
    try:  # only tables[j] and lengths[r] can raise: each lookup is its check
        for _ in range(h - n):
            longest, ranks, lengths, syms = tables[j]
            while nacc < longest:  # past the stream, a load reads zeros
                acc = (acc & ((1 << nacc) - 1)) << _REFILL
                acc |= int.from_bytes(data[p : p + load].ljust(load, b"\0"), "big")
                p, nacc = p + load, nacc + _REFILL
            slot = (acc >> (nacc - longest)) & ((1 << longest) - 1)
            if longest <= TABLE_BITS:
                r = ranks[slot]
            else:
                starts, by_start = ranks
                r = by_start[bisect_right(starts, slot) - 1]
            nacc -= lengths[r]
            i = syms[r]
            append(i)
            j = (j % tail) * m + i
    except (KeyError, IndexError) as e:  # past the stream, the test below raises
        if 8 * p - nacc <= nbits:  # no row for j, or a slot no codeword prefixes
            if isinstance(e, KeyError):
                raise CorruptStreamError(f"no code table for context index {j}") from None
            raise CorruptStreamError(f"undecodable codeword in context {j}") from None
    if (pos := 8 * p - nacc) > nbits:
        raise TruncationError("codeword stream ended early")
    if pos != nbits:
        raise TrailingGarbageError(f"{nbits - pos} bits left after the last symbol")
    out[:] = out.translate(symbols)  # in place: the output is held twice
    return bytes(out)


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
    if list(alphabet) != sorted(alphabet):
        raise ValueError(f"alphabet must be in ascending byte order, got {alphabet!r}")
    fixed = _LEAD.pack(MAGIC, VERSION, header.order, len(alphabet) - 1)
    fixed += alphabet + _TAIL.pack(header.length, payload.freq_width)
    bits = BitWriter()
    for component in (BitString(fixed, 8 * len(fixed)), *payload.components()):
        bits.write_bits(component)
    return bits.getvalue().to_bytes()


def deserialize(blob: bytes) -> tuple[EahPayload, Header]:
    """Parse a container back into its payload and header.

    The component boundaries are recovered from the bits themselves: the
    context map fixes the successor map's size, which fixes the frequency
    table's, and the codes built from the model fix the stream's.  The
    prefix indices and those decoder tables travel with the payload, so
    `decode` of the same payload and header reads no component again.
    """
    if len(blob) < _LEAD.size:
        raise TruncationError("container shorter than its fixed header")
    magic, version, order, m_minus_1 = _LEAD.unpack_from(blob)
    if magic != MAGIC:
        raise CorruptHeaderError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CorruptHeaderError(f"unsupported version {version}")
    if order < 1:
        raise CorruptHeaderError("order must be >= 1")
    tail = _LEAD.size + m_minus_1 + 1  # _TAIL's offset, past the alphabet
    end = tail + _TAIL.size
    if len(blob) < end:
        raise TruncationError("container truncated inside the header")
    symbols = blob[_LEAD.size : tail]
    if list(symbols) != sorted(set(symbols)):  # encode writes them ascending
        raise CorruptHeaderError("alphabet bytes are not strictly ascending")
    alphabet = Alphabet(symbols)
    h, freq_width = _TAIL.unpack_from(blob, tail)
    header = Header(order, alphabet, h)
    if h - order > 8 * (len(blob) - end):  # a codeword takes a bit at least
        raise TruncationError(f"container too short for {h - order} codewords")

    reader = BitReader(blob)
    reader.read_uint(8 * end)  # past the header, parsed above
    components: dict[str, BitString] = {}

    def read(count: int, name: str) -> BitString:
        try:
            bits = components[name] = reader.read_bits(count)
        except TruncationError:
            raise TruncationError(f"container truncated inside the {name}") from None
        return bits

    head, rows = _read_v1(header, freq_width, read)
    tables, stream_bits = _build_codes(order, rows, reader.remaining())
    read(stream_bits, "stream")
    if reader.remaining() >= 8 or reader.read_uint(reader.remaining()):
        raise TrailingGarbageError("container continues past the payload")

    payload = EahPayload(freq_width=freq_width, **components)
    object.__setattr__(payload, "_tables", (header, head, tables))
    return payload, header


def compress(word: bytes, order: int) -> bytes:
    """Encode `word` and pack it into a container."""
    payload, header = encode(word, order)
    return serialize(payload, header)


def decompress(blob: bytes) -> bytes:
    """Unpack a container and reconstruct the original bytes."""
    payload, header = deserialize(blob)
    return decode(payload, header)
