"""Order-n context-modeled Huffman codec and its container format.

The context model is one flat map, pair key j*m + i -> count, as
`_successor_counts` counts it off the input: j is the context index of a
window of n symbols that occurs, i the index of a symbol that follows it,
and the count how often it does.  The key is that window of n + 1 read as
a base-m number.  This module owns the context index, a window's symbol
indices read as a base-m number (`_context_index`), and its inverse
(`_window`); `_by_context` puts the map in context-major order, its keys
sorted and each context's run of successors in them.  The model is the
edge list of the paper's transition graph; `graph.build_graph` and
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
`_LONE`, and only a run of two or more is sliced, for `_code_order`.
`_decode_stream`, the one stream loop, loads _REFILL stream bits at a
time into one int while fewer than L are unread, and peeks the next L
bits as the slot.  Past the stream the int reads zeros;
`_build_codes` bounds the h - n steps, and one test after them finds a
truncation.

The encoder runs no Python code per input symbol.  `_key_runs` packs
the input's symbol indices into runs of digits once, and `_pair_keys`
chains C-level `map`s over those runs into the pair key of every
position, twice: `_successor_counts` counts the keys with a `Counter`,
and the stream maps them through that same object.  In between,
`_write_v1` writes the model from its context-major order, and `encode`
turns the `Counter` into the codeword map in place, each count replaced
by its pair's codeword as '0'/'1' text: "0" for a lone successor, and
for a run of two or more one `dict.update` from `code_pairs` over the
run's keys and counts in `_code_order`, with no Python per successor.
It joins the codewords in bounded chunks of _CHUNK and turns each chunk
into bits at once.

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
scans the maps.  It asks a `read(bit_count, component_name)` callable
where each component lies, as (data, first bit, bit count), and scans
the maps there: `_unpack` runs it over the container's bits in place and
`decode` over the payload's own fields.  The decoder never sees the input.

Only the codes fix the stream's length, so `_unpack` walks the container
with one cursor, builds the decoder tables and says where each component
lies.  `decompress` hands the prefix indices and the tables to
`_decode_stream`, which reads the stream in place, so `decompress` reads
each component and builds the tables once, and copies none of them.
`deserialize` drops the tables, then copies each component out into a
plain payload, so a `decode` of that payload reads the model again.
`_read_v1` counting-sorts the marked pairs by context into flat arrays,
with no object per context.  Reading the model and building the tables
is most of the decompress CPU on model-heavy input.

Container wire format (little-endian; `struct` layouts `_LEAD`, `_TAIL`):

    _LEAD  [4B] magic "EAH1"
           [1B] version (1)
           [1B] order n, 1..255
           [1B] alphabet size minus 1
           [mB] alphabet bytes in index order, ascending
    _TAIL  [8B] original length h
           [1B] freq_table field width (0 when h <= n)
           [..] payload bits prefix|context_map|successor_map|freq_table|
                stream, packed MSB-first, final byte zero-padded

`Header` and `EahPayload` refuse a field these bytes cannot hold with
ValueError, so the one writer, `_pack`, checks nothing.  It writes the
header and the five components through one `BitWriter`, dropping each
from its list once it is written, and returns the buffer, copied once.
`compress` keeps no payload, so each component of `encode`'s is freed as
it is written; `serialize` hands `_pack` a fresh list of its payload's.
`_unpack` re-raises that ValueError as CorruptHeaderError.

The context map is m**n bits, the one part of a container that can grow
far past its input.  `_key_runs` refuses a model with more than
MAX_CONTEXT_BITS possible contexts before it packs anything, so
`encode`, `compress`, `leahn_length` and `graph.build_graph` share that
budget.  Reading a container takes none: `_unpack` refuses a header that
claims more codewords than the container has bits, checks that the
container holds a component's bits before `_read_v1` reads them, and
`_build_codes` stops once its codewords need more stream bits than remain.
A valid container pays one dict entry per marked context twice: in the
reader's run lengths, and in the decoder tables.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, islice, pairwise, repeat
from operator import add, floordiv, mod, mul
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
_REFILL = 48  # stream bits `_decode_stream` loads at once: a whole number of bytes
MAX_CONTEXT_BITS = 1 << 24  # largest m**n a model may span: 256**3, a 2 MiB map
_CHUNK = 8192  # codewords `encode` joins into one '0'/'1' string


@dataclass(frozen=True)
class Header:
    """Fields a container's header can hold, or ValueError: an order of
    1..255, an alphabet in ascending byte order, a length below 2**64."""

    order: int
    alphabet: Alphabet
    length: int  # original symbol count h

    def __post_init__(self) -> None:
        if not 1 <= self.order <= 255:
            raise ValueError(f"order must be between 1 and 255, got {self.order}")
        if list(self.alphabet) != sorted(self.alphabet):  # its bytes are distinct
            raise ValueError("alphabet bytes are not strictly ascending")
        if not 0 <= self.length < 1 << 64:
            raise ValueError(f"length must fit in 64 bits, got {self.length}")


@dataclass(frozen=True)
class EahPayload:
    """The five components, which `decode` checks against a header, and a
    freq_table field width the container's byte can hold, or ValueError."""

    prefix: BitString
    context_map: BitString
    successor_map: BitString
    freq_table: BitString
    stream: BitString
    freq_width: int  # bit width of each freq_table entry

    def __post_init__(self) -> None:
        if not 0 <= self.freq_width <= 255:
            raise ValueError(f"freq_width must be between 0 and 255, got {self.freq_width}")

    def components(self) -> tuple[BitString, BitString, BitString, BitString, BitString]:
        return self.prefix, self.context_map, self.successor_map, self.freq_table, self.stream

    def total_bits(self) -> int:
        return sum(len(c) for c in self.components())


def _code_order(order: int, diagonal: int, syms: Iterable, freqs: Iterable) -> tuple:
    """One context's successors and their counts, two parallel sequences in
    symbol order, as two tuples in code order: at order 1 the repeat
    successor `diagonal` codes last."""
    syms, freqs = tuple(syms), tuple(freqs)
    if order == 1 and diagonal in syms:
        k = syms.index(diagonal)
        syms = syms[:k] + syms[k + 1 :] + syms[k : k + 1]
        freqs = freqs[:k] + freqs[k + 1 :] + freqs[k : k + 1]
    return syms, freqs


def _successor_codes(order: int, diagonal: int, syms: Iterable, freqs: Iterable) -> list:
    """Huffman codewords of one context as (symbol index, value, length), in
    code order; the arguments as `_code_order` takes them."""
    syms, freqs = _code_order(order, diagonal, syms, freqs)
    return [(i, value, length) for i, (value, length) in zip(syms, code_pairs(freqs))]


def _index_table(alphabet: Alphabet) -> bytes:
    """Byte -> symbol index, for indexing or `bytes.translate`."""
    return bytes.maketrans(alphabet.to_bytes(), bytes(range(len(alphabet))))


def _context_index(indices: Iterable[int], m: int) -> int:
    """A window's symbol indices read as a base-m number, most significant
    first.  `_decode_stream` rolls it forward, j = (j % m**(n-1)) * m + i,
    as each symbol enters; `_pair_keys` reads it off whole windows."""
    j = 0
    for i in indices:
        j = j * m + i
    return j


def _window(j: int, m: int, n: int) -> list[int]:
    """The n symbol indices of context index j; inverts `_context_index`."""
    return [j // m ** (n - 1 - k) % m for k in range(n)]


_Runs = list[tuple[int, memoryview]]  # (m**w, packed run) per link of the key chain


def _key_runs(t: bytes, m: int, n: int) -> _Runs:
    """The packed runs `_pair_keys` chains over `t`, the input's symbol
    indices, in chain order: (m**w, the run of w digits per byte, from
    where its digits sit in a key).  Only the widths the chain reads are
    kept.  Raises ValueError when m**n exceeds MAX_CONTEXT_BITS.

    Runs of w digits are packed into bytes, P_2w[p] = P_w[p] * m**w +
    P_w[p + w], while m**(2w) <= 256.  The chain takes the widest run while
    it fits in n + 1 digits, then the binary decomposition of the rest,
    widest first, so it stays a few levels deep at every order the budget
    allows.  At m > 16 nothing is packed: every run is a view of `t`.
    """
    if m**n > MAX_CONTEXT_BITS:
        raise ValueError(
            f"order {n} over {m} symbols spans {m}**{n} contexts, "
            f"over the limit of {MAX_CONTEXT_BITS}"
        )
    width = n + 1
    widest = 1
    while 2 * widest <= width and m ** (2 * widest) <= 256:
        widest *= 2
    rest = width % widest
    chained = [widest] * (width // widest)
    chained += [1 << k for k in reversed(range(rest.bit_length())) if rest >> k & 1]
    packed = {}
    p, w = t, 1
    while True:
        if w in chained:
            packed[w] = p
        if w == widest:
            break
        p = bytes(map(add, map(mul, p, repeat(m**w)), memoryview(p)[w:]))
        w *= 2
    runs, done = [], 0
    for w in chained:
        runs.append((m**w, memoryview(packed[w])[done:]))
        done += w
    return runs


def _pair_keys(t: bytes, m: int, n: int, runs: _Runs | None = None) -> Iterator[int]:
    """j*m + i at every position of `t`, the input's symbol indices, that
    has n symbols after it: j is the context index of the n-symbol window
    there and i the index of the symbol after it, so the key is that
    window of n + 1 read as a base-m number.

    No Python code runs per symbol: the keys come out of a chain of
    C-level `map`s over `runs`, `_key_runs(t, m, n)` unless a caller that
    chains them twice passes them.
    """
    (_, first), *links = runs or _key_runs(t, m, n)
    keys: Iterator[int] = iter(first)
    for scale, run in links:
        keys = map(add, map(mul, keys, repeat(scale)), run)
    return keys


def _successor_counts(t: bytes, m: int, n: int, runs: _Runs | None = None) -> Counter[int]:
    """The context model of `t`, the input's symbol indices: the count of
    every pair key j*m + i that `_pair_keys` yields, in a `Counter`; empty
    when len(t) <= n.  Raises ValueError when m**n exceeds
    MAX_CONTEXT_BITS."""
    return Counter(_pair_keys(t, m, n, runs))


def _by_context(counts: dict[int, int], m: int) -> tuple[list[int], Counter[int]]:
    """The model's keys in context-major order, the model's own key objects,
    and each context's run of successors in them: context index -> run
    length, context index ascending."""
    keys = sorted(counts)
    return keys, Counter(map(floordiv, keys, repeat(m)))


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


def _build_codes(order: int, model: tuple, available: int) -> tuple[dict, int]:
    """Decoder entries by context index, as the module docstring describes,
    and the stream's length in bits, from `_read_v1`'s model.  Raises
    TruncationError once the codewords priced so far need more than the
    `available` stream bits."""
    set_js, ends, syms, counts = model
    codes = {}
    shared: dict[tuple[int, ...], tuple] = {}
    stream_bits = start = 0
    for j, end in zip(set_js, ends):
        if end - start == 1:
            code = _LONE[syms[start]]
            stream_bits += counts[start]
        else:
            run, freqs = _code_order(order, j, syms[start:end], counts[start:end])
            if freqs not in shared:
                shared[freqs] = _ranked_table(freqs)
            longest, ranks, lengths, cost = shared[freqs]
            code = (longest, ranks, lengths, bytes(run))
            stream_bits += cost
        codes[j] = code
        start = end
        if stream_bits > available:
            raise TruncationError(f"stream needs more than the {available} bits left")
    return codes, stream_bits


_BIT_OFFSETS = [
    tuple(k for k in range(8) if byte & (0x80 >> k)) for byte in range(256)
]


_SCAN_CHUNK = 8192  # bytes of a map `_scan_set_bits` masks at once
_NONZERO = bytes(1) + b"\x01" * 255  # byte -> 1 when any of its bits is set


def _scan_set_bits(data: bytes, start: int, nbits: int) -> array:
    """Ascending positions, counted from `start`, of the set bits among
    bits start .. start + nbits - 1 of `data`, 4 bytes apiece while they
    fit in 32 bits.  The map is read in place, as a span of a container.

    Each _SCAN_CHUNK-byte slice of the map is copied, its first byte's bits
    before the span and its last byte's bits past it cleared, and
    translated to a 0/1 mask in which `bytes.find` skips to each nonzero
    byte at memchr speed.  (`re.finditer` is as fast, but each call leaves
    a fresh "search" string in the interpreter's attribute cache.)
    Scratch memory is bounded by two slices, the slice and its mask.
    """
    out = array("I" if nbits <= 1 << 32 else "Q")
    append = out.append
    offsets = _BIT_OFFSETS
    end = start + nbits
    first, stop = start >> 3, (end + 7) >> 3
    view = memoryview(data)
    for lo in range(first, stop, _SCAN_CHUNK):
        chunk = bytearray(view[lo : min(lo + _SCAN_CHUNK, stop)])
        if lo == first:
            chunk[0] &= 0xFF >> (start & 7)
        if lo + len(chunk) == stop:
            chunk[-1] &= 0xFF << (-end % 8) & 0xFF
        find = chunk.translate(_NONZERO).find
        p = find(1)
        while p >= 0:
            base = (lo + p) * 8 - start
            for k in offsets[chunk[p]]:
                append(base + k)
            p = find(1, p + 1)
    return out


def _bitmap(positions: Iterable[int], nbits: int) -> BitString:
    """`nbits` bits, set at `positions`; inverts `_scan_set_bits`."""
    buf = bytearray((nbits + 7) // 8)
    for pos in positions:
        buf[pos >> 3] |= 0x80 >> (pos & 7)
    return BitString(bytes(buf), nbits)


def _write_v1(
    header: Header, head: bytes, counts: dict[int, int], keys: list[int], sizes: dict[int, int]
) -> tuple[BitString, BitString, BitString, BitString, int]:
    """The v1 writer: the prefix of `head`'s symbol indices, context_map,
    successor_map, freq_table and the frequency field width, laid out as
    `_read_v1` reads them, from the flat model `counts` and its
    context-major order `keys, sizes = _by_context(counts, m)`."""
    m = len(header.alphabet)
    w = (m - 1).bit_length()
    s = len(sizes)
    # successor_map positions i * s + r, in context order: `_bitmap` needs
    # no sorted input
    ranks = chain.from_iterable(map(repeat, range(s), sizes.values()))
    marked = map(add, map(mul, map(mod, keys, repeat(m)), repeat(s)), ranks)
    # w-bit fields, most significant first: the indices as a base-2**w number
    prefix = BitString.from_int(_context_index(head, 1 << w), len(head) * w)
    context_map = _bitmap(sizes, m**header.order)
    successor_map = _bitmap(marked, m * s)
    freq_width = max(counts.values(), default=0).bit_length()
    freq_table = BitWriter()
    # the fields in map order, symbol-major: a stable sort of the
    # context-major keys by symbol
    for f in map(counts.__getitem__, sorted(keys, key=m.__rmod__)):
        freq_table.write_uint(f, freq_width)
    return prefix, context_map, successor_map, freq_table.getvalue(), freq_width


def _uint(data: bytes, start: int, nbits: int) -> int:
    """Bits start .. start + nbits - 1 of `data`, big-endian, as an int."""
    end = start + nbits
    value = int.from_bytes(data[start >> 3 : (end + 7) >> 3], "big") >> (-end % 8)
    return value & ((1 << nbits) - 1)


_Span = tuple[bytes, int, int]  # (data, first bit, bit count) of one component


def _read_v1(
    header: Header, freq_width: int, read: Callable[[int, str], _Span]
) -> tuple[bytes, tuple[array, array, bytearray, array]]:
    """The v1 reader: the prefix's symbol indices and the model: the context
    indices, ascending, each context's run end, and the runs' successor
    symbol indices and counts, each run in symbol order.
    `read(bit_count, component_name)` says where each component lies, and
    the maps are scanned there, in place.

    Raises CorruptHeaderError unless the components are exactly what
    `_write_v1` makes of some input of h symbols, in which every alphabet
    symbol occurs in the prefix or as a marked successor.
    """
    m = len(header.alphabet)
    n = header.order
    w = (m - 1).bit_length()
    count = min(header.length, n)
    head = bytes(_window(_uint(*read(count * w, "prefix")), 1 << w, count))
    if head and max(head) >= m:
        raise CorruptHeaderError(f"symbol index {max(head)} outside alphabet of size {m}")
    set_js = _scan_set_bits(*read(m**n, "context_map"))
    s = len(set_js)
    marked = _scan_set_bits(*read(m * s, "successor_map"))
    nbits = freq_width * len(marked)
    value = _uint(*read(nbits, "freq_table"))
    fields = format(value, f"0{nbits}b") if nbits else ""
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
    unused = m - len(set(map(floordiv, marked, repeat(s))).union(head))
    if unused:
        raise CorruptHeaderError(f"{unused} alphabet symbols never occur")
    # context rank -> run length of the positions with a field (none at width 0)
    runs = Counter(map(mod, islice(marked, len(freqs)), repeat(s)))
    if len(runs) < s:
        j = set_js[next(r for r in range(s) if r not in runs)]
        raise CorruptHeaderError(f"context index {j} has no marked successor")
    # a counting sort by context rank: ends[r] is the next free slot of run
    # r, and its end once the pass is over; ascending positions are
    # symbol-major, so each run fills in symbol order
    ends = array(marked.typecode, accumulate(map(runs.__getitem__, range(s - 1)), initial=0))
    # each count in the least unsigned item of freq_width bits, at most 64 by the sum check
    syms = bytearray(len(marked))
    counts = array("BHIIQQQQ"[(freq_width - 1) >> 3], [0]) * len(marked)
    for pos, f in zip(marked, freqs):
        r = pos % s
        k = ends[r]
        ends[r] = k + 1
        syms[k] = pos // s
        counts[k] = f
    return head, (set_js, ends, syms, counts)


def _field_reader(payload: EahPayload) -> Callable[[int, str], _Span]:
    """`read` over a payload's own fields, each length-checked."""

    def read(count: int, name: str) -> _Span:
        bits = getattr(payload, name)
        if len(bits) != count:
            raise CorruptHeaderError(f"{name} holds {len(bits)} bits, expected {count}")
        return bits.to_bytes(), 0, count

    return read


class _Texts(dict):
    """(value, length) -> that codeword as '0'/'1' text, each made once."""

    def __missing__(self, code: tuple[int, int]) -> str:
        text = self[code] = format(code[0], f"0{code[1]}b")
        return text


def encode(word: bytes, order: int) -> tuple[EahPayload, Header]:
    """Encode a byte string at the given order.

    The alphabet is the set of distinct bytes of `word` in ascending
    value order.  Raises ValueError for empty input (`Alphabet.from_bytes`),
    for an order outside 1..255 (`Header`), or for one whose m**n contexts
    exceed MAX_CONTEXT_BITS.
    """
    word = bytes(word)
    alphabet = Alphabet.from_bytes(word)
    m = len(alphabet)
    n = order
    h = len(word)
    header = Header(n, alphabet, h)
    t = word.translate(_index_table(alphabet))
    runs = _key_runs(t, m, n)  # packed once, chained for the counts and the stream
    counts = _successor_counts(t, m, n, runs)
    keys, sizes = _by_context(counts, m)
    prefix, context_map, successor_map, freq_table, freq_width = _write_v1(
        header, t[:n], counts, keys, sizes
    )

    # the model becomes the codeword map in place, key -> codeword as
    # '0'/'1' text, each text shared by every pair with the same (value, length)
    codewords: dict = counts
    texts = _Texts()
    start = 0
    for j, k in sizes.items():
        if k == 1:
            codewords[keys[start]] = "0"
        else:  # the repeat pair key at order 1 is j*m + j
            run = keys[start : start + k]
            run, freqs = _code_order(n, j * m + j, run, map(counts.__getitem__, run))
            # `dict.update`: a Counter's own `update` adds
            dict.update(codewords, zip(run, map(texts.__getitem__, code_pairs(freqs))))
        start += k

    words = map(codewords.__getitem__, _pair_keys(t, m, n, runs))
    stream = BitWriter()
    while chunk := "".join(islice(words, _CHUNK)):
        stream.write_uint(int(chunk, 2), len(chunk))

    components = prefix, context_map, successor_map, freq_table, stream.getvalue()
    return EahPayload(*components, freq_width), header


def _decode_stream(
    header: Header, head: bytes, tables: dict, data: bytes, start: int, nbits: int
) -> bytes:
    """The h - n symbols after the prefix `head`, decoded through `tables`
    from the stream at bits start .. start + nbits - 1 of `data`, whose
    bits past the stream must read as zeros; then the whole input."""
    m = len(header.alphabet)
    n = header.order
    symbols = bytes.maketrans(bytes(range(m)), header.alphabet.to_bytes())

    out = bytearray(head)
    j = _context_index(head, m)
    end = start + nbits
    load = _REFILL // 8
    # acc's low nacc bits are unread, and p is the next byte to load; the
    # first load starts at the stream's byte, past its bits before `start`
    p = start >> 3
    acc = int.from_bytes(data[p : p + load].ljust(load, b"\0"), "big")
    p, nacc = p + load, _REFILL - (start & 7)
    tail = m ** (n - 1)
    append = out.append
    try:  # only tables[j] and lengths[r] can raise: each lookup is its check
        for _ in range(header.length - n):
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
        if 8 * p - nacc <= end:  # no row for j, or a slot no codeword prefixes
            if isinstance(e, KeyError):
                raise CorruptStreamError(f"no code table for context index {j}") from None
            raise CorruptStreamError(f"undecodable codeword in context {j}") from None
    if (pos := 8 * p - nacc) > end:
        raise TruncationError("codeword stream ended early")
    if pos != end:
        raise TrailingGarbageError(f"{end - pos} bits left after the last symbol")
    out[:] = out.translate(symbols)  # in place: the output is held twice
    return bytes(out)


def decode(payload: EahPayload, header: Header) -> bytes:
    """Reconstruct the original bytes from a payload and its header.

    `Header` holds its fields to what a container can; this reads the
    payload's own components, checks them against the header and raises a
    CodecError at the first fault.
    """
    head, rows = _read_v1(header, payload.freq_width, _field_reader(payload))
    tables, _ = _build_codes(header.order, rows, len(payload.stream))
    stream = payload.stream
    return _decode_stream(header, head, tables, stream.to_bytes(), 0, len(stream))


def leahn_length(word: bytes, order: int) -> int:
    """Total encoded size in bits: the sum of the five component lengths."""
    payload, _ = encode(word, order)
    return payload.total_bits()


def _pack(header: Header, freq_width: int, components: list[BitString]) -> bytes:
    """The container of `header` and the five components, in order, each
    dropped from `components` once it is written."""
    alphabet = header.alphabet.to_bytes()
    fixed = _LEAD.pack(MAGIC, VERSION, header.order, len(alphabet) - 1)
    fixed += alphabet + _TAIL.pack(header.length, freq_width)
    bits = BitWriter()
    bits.write_bits(BitString(fixed, 8 * len(fixed)))
    while components:
        bits.write_bits(components.pop(0))
    return bits.getvalue().to_bytes()


def serialize(payload: EahPayload, header: Header) -> bytes:
    """Pack a payload and header into the bit-exact container format.

    It checks nothing: `Header` and `EahPayload` refuse, when they are
    built, every field the container's bytes cannot hold.
    """
    return _pack(header, payload.freq_width, [*payload.components()])


def _unpack(blob: bytes) -> tuple[Header, int, bytes, dict, dict[str, tuple[int, int]]]:
    """Check a container and build its decoder tables: (header, freq_width,
    prefix indices, tables, spans), where spans maps each component's name,
    in order, to its first bit in `blob` and its bit count.

    The component boundaries are recovered from the bits themselves: the
    context map fixes the successor map's size, which fixes the frequency
    table's, and the codes built from the model fix the stream's.
    """
    if len(blob) < _LEAD.size:
        raise TruncationError("container shorter than its fixed header")
    magic, version, order, m_minus_1 = _LEAD.unpack_from(blob)
    if magic != MAGIC:
        raise CorruptHeaderError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CorruptHeaderError(f"unsupported version {version}")
    tail = _LEAD.size + m_minus_1 + 1  # _TAIL's offset, past the alphabet
    end = tail + _TAIL.size
    if len(blob) < end:
        raise TruncationError("container truncated inside the header")
    h, freq_width = _TAIL.unpack_from(blob, tail)
    try:  # an order of 0, or an alphabet encode never writes
        header = Header(order, Alphabet(blob[_LEAD.size : tail]), h)
    except ValueError as e:
        raise CorruptHeaderError(str(e)) from None
    if h - order > 8 * (len(blob) - end):  # a codeword takes a bit at least
        raise TruncationError(f"container too short for {h - order} codewords")

    size = 8 * len(blob)
    spans: dict[str, tuple[int, int]] = {}
    pos = 8 * end  # one cursor, past the header

    def read(count: int, name: str) -> _Span:
        nonlocal pos
        if count > size - pos:
            raise TruncationError(f"container truncated inside the {name}")
        spans[name] = pos, count
        pos += count
        return blob, pos - count, count

    head, rows = _read_v1(header, freq_width, read)
    tables, stream_bits = _build_codes(order, rows, size - pos)
    read(stream_bits, "stream")
    if size - pos >= 8 or blob[-1] & ((1 << (size - pos)) - 1):
        raise TrailingGarbageError("container continues past the payload")
    return header, freq_width, head, tables, spans


def deserialize(blob: bytes) -> tuple[EahPayload, Header]:
    """Parse a container back into its payload and header, each component
    copied out of `blob`.  It builds the decoder tables, since only the
    codes fix the stream's length, and drops them: `decode` of the payload
    reads the model again."""
    header, freq_width, _, tables, spans = _unpack(blob)
    del tables  # before the copies
    reader = BitReader(blob)
    reader.read_uint(spans["prefix"][0])  # past the header
    components = {name: reader.read_bits(count) for name, (_, count) in spans.items()}
    return EahPayload(freq_width=freq_width, **components), header


def compress(word: bytes, order: int) -> bytes:
    """Encode `word` and pack it into a container."""
    payload, header = encode(word, order)
    width, components = payload.freq_width, [*payload.components()]
    del payload  # so `_pack` frees each component once it is written
    return _pack(header, width, components)


def decompress(blob: bytes) -> bytes:
    """Unpack a container and reconstruct the original bytes, reading the
    model and the stream in place in `blob`."""
    blob = bytes(blob)  # the stream loop pads its loads with `bytes.ljust`
    header, _, head, tables, spans = _unpack(blob)
    return _decode_stream(header, head, tables, blob, *spans["stream"])
