"""Reference computations the benchmark checks eahc's outputs against.

Nothing here imports eahc.  Each check is either a property of the
method (round trip, entropy bounds, Huffman optimality) or a computation
made apart from the codec: a position scan of the input, a heapq
Huffman cost, a parse of the container from the published wire format,
and a parse of the DOT text.  Every check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import heapq
import math
import re
import struct
from collections import Counter
from dataclasses import dataclass
from functools import cached_property


def optimal_cost(freqs) -> int:
    """Minimum sum(f * codeword length) over prefix codes, by heapq.

    A lone successor still costs one bit per occurrence.
    """
    heap = list(freqs)
    if len(heap) == 1:
        return heap[0]
    heapq.heapify(heap)
    cost = 0
    while len(heap) > 1:
        merged = heapq.heappop(heap) + heapq.heappop(heap)
        cost += merged
        heapq.heappush(heap, merged)
    return cost


def huffman_cost(data: bytes) -> int:
    """Bits of one whole-string Huffman code over the symbol counts."""
    return optimal_cost(Counter(data).values())


@dataclass
class Model:
    """What an order-n position scan of one input says the container holds.

    `rows` maps each context index (the window read as a base-m number,
    first symbol most significant) to {successor index: count}.
    """

    data: bytes
    order: int
    alphabet: bytes
    rows: dict[int, dict[int, int]]
    windows: Counter  # (window bytes, successor byte) -> count

    @classmethod
    def scan(cls, data: bytes, order: int) -> "Model":
        n = order
        alphabet = bytes(sorted(set(data)))
        idx = {b: i for i, b in enumerate(alphabet)}
        m = len(alphabet)
        grams = Counter(data[p : p + n + 1] for p in range(len(data) - n))
        windows: Counter = Counter()
        rows: dict[int, dict[int, int]] = {}
        for gram, f in grams.items():
            j = 0
            for b in gram[:n]:
                j = j * m + idx[b]
            rows.setdefault(j, {})[idx[gram[n]]] = f
            windows[(gram[:n], gram[n])] = f
        return cls(data, n, alphabet, rows, windows)

    @property
    def m(self) -> int:
        return len(self.alphabet)

    @property
    def symbol_width(self) -> int:
        return (self.m - 1).bit_length()

    @property
    def marked_pairs(self) -> int:
        return sum(len(row) for row in self.rows.values())

    @property
    def freq_width(self) -> int:
        return max((f for row in self.rows.values() for f in row.values()), default=0).bit_length()

    @cached_property
    def sizes(self) -> dict[str, int]:
        """Bit length of each payload component."""
        return {
            "prefix": min(len(self.data), self.order) * self.symbol_width,
            "context_map": self.m**self.order,
            "successor_map": self.m * len(self.rows),
            "freq_table": self.freq_width * self.marked_pairs,
            "stream": sum(optimal_cost(row.values()) for row in self.rows.values()),
        }

    def payload_bits(self) -> int:
        return sum(self.sizes.values())

    def entropy_bits(self) -> float:
        """(h - n) times the empirical order-n conditional entropy H_n."""
        total = 0.0
        for row in self.rows.values():
            size = sum(row.values())
            total += sum(f * math.log2(size / f) for f in row.values())
        return total


def _bitmap(nbits: int, positions) -> int:
    """The MSB-first bitmap with the given bits set, as an integer."""
    buf = bytearray((nbits + 7) // 8)
    for p in positions:
        buf[p >> 3] |= 0x80 >> (p & 7)
    return int.from_bytes(buf, "big") >> (-nbits % 8)


def check_container(model: Model, blob: bytes) -> list[str]:
    """Parse a container by the wire format and compare it with the scan.

    Checks the header, the container length 16 + m + ceil(bits/8), the
    prefix, context map, successor map and frequency table bit for bit,
    the stream length against the heapq Huffman cost, the entropy bounds
    H_n*(h-n) <= stream <= (H_n+1)*(h-n) and zero padding.
    """
    problems = []
    n, m, h = model.order, model.m, len(model.data)
    sizes = model.sizes
    total = sum(sizes.values())
    header = (
        b"EAH1"
        + struct.pack("<BBB", 1, n, m - 1)
        + model.alphabet
        + struct.pack("<QB", h, model.freq_width)
    )
    if len(blob) != 16 + m + (total + 7) // 8:
        problems.append(f"container is {len(blob)} bytes, expected {16 + m + (total + 7) // 8}")
        return problems
    if blob[: 16 + m] != header:
        problems.append("header differs from the wire format")
    payload = int.from_bytes(blob[16 + m :], "big")
    length = 8 * (len(blob) - 16 - m)

    def field(offset: int, width: int) -> int:
        return (payload >> (length - offset - width)) & ((1 << width) - 1)

    data = model.data
    idx = {b: i for i, b in enumerate(model.alphabet)}
    prefix = 0
    for b in data[: min(h, n)]:
        prefix = (prefix << model.symbol_width) | idx[b]
    contexts = sorted(model.rows)
    rank = {j: r for r, j in enumerate(contexts)}
    marked = sorted((i, j, f) for j, row in model.rows.items() for i, f in row.items())
    width = model.freq_width
    freqs = int("".join(format(f, f"0{width}b") for _, _, f in marked) or "0", 2)
    expected = {
        "prefix": prefix,
        "context_map": _bitmap(sizes["context_map"], contexts),
        "successor_map": _bitmap(
            sizes["successor_map"], (i * len(contexts) + rank[j] for i, j, _ in marked)
        ),
        "freq_table": freqs,
    }
    offset = 0
    for name, value in expected.items():
        if field(offset, sizes[name]) != value:
            problems.append(f"{name} differs from the position scan")
        offset += sizes[name]
    if field(total, length - total):
        problems.append("padding bits are not zero")
    entropy = model.entropy_bits()
    stream, symbols = sizes["stream"], max(h - n, 0)
    slack = 1e-9 * max(symbols, 1)
    if not entropy - slack <= stream <= entropy + symbols + slack:
        problems.append(f"stream {stream} bits outside [{entropy:.1f}, {entropy + symbols:.1f}]")
    return problems


def check_csv(path: str, expected: dict[tuple[str, int], tuple[int, int, int]]) -> list[str]:
    """Compare `eahc stats`/`bench` CSV rows with (LEAHn, LH, LLZ) per (file, n)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    got = {(r["file"], int(r["n"])): (int(r["LEAHn"]), int(r["LH"]), int(r["LLZ"])) for r in rows}
    if len(rows) != len(got) or got.keys() != expected.keys():
        return [f"CSV rows {sorted(got)} differ from {sorted(expected)}"]
    return [
        f"{key}: (LEAHn, LH, LLZ) = {got[key]}, expected {want}"
        for key, want in expected.items()
        if got[key] != want
    ]


def vertex_name(key: bytes) -> str:
    return "".join(
        chr(b) if 33 <= b <= 126 and b not in (34, 92) else f"x{b:02X}" for b in key
    )


_DOT_EDGE = re.compile(r'^  "([^"]*)" -> "([^"]*)" \[label="\((\d+),([01]+|λ)\)"\];$')


def check_dot(model: Model, text: str) -> list[str]:
    """Transition-edge frequencies equal the scan; each context's code is optimal.

    Order-1 repeats are expected on the edge to the companion `_aux`
    vertex; edges with frequency 0 are structural and ignored.
    """
    expected: dict[tuple[str, str], int] = {}
    for (window, succ), f in model.windows.items():
        name = vertex_name(bytes([succ]))
        if model.order == 1 and window[0] == succ:
            expected[(name, name + "_aux")] = f
        else:
            expected[(vertex_name(window), name)] = f
    got: dict[tuple[str, str], int] = {}
    cost: dict[str, int] = {}
    per_context: dict[str, list[int]] = {}
    for line in text.splitlines():
        match = _DOT_EDGE.match(line)
        if match is None or match[3] == "0":
            continue
        src, dst, f, code = match[1], match[2], int(match[3]), match[4]
        got[(src, dst)] = f
        cost[src] = cost.get(src, 0) + f * (0 if code == "λ" else len(code))
        per_context.setdefault(src, []).append(f)
    problems = []
    if got != expected:
        problems.append(f"{len(set(got.items()) ^ set(expected.items()))} transition edges differ from the scan")
    for src, freqs in per_context.items():
        if cost[src] != optimal_cost(freqs):
            problems.append(f"context {src!r} costs {cost[src]} bits, optimum {optimal_cost(freqs)}")
    return problems
