"""Independent reference computations and seeded inputs the tests use.

Everything here is deliberately naive (position scans, exhaustive
enumeration) and shares no code with the package under test.
"""

import random
from functools import cache

# 200-symbol sample over {a,b,c,d,e} with known golden statistics:
# symbol counts a:31 b:31 c:64 d:37 e:37, pair counts ab:31 ba:8 be:23
# ca:22 cc:28 ce:14 dc:36 ed:37.
SAMPLE_200 = (
    b"abedcababedccabedcedcababedcedcccabedcabedcedccababedc"
    b"abedccccedccedccedcababedcabedcedccedcababedcabedccabedcab"
    b"abedcedcccccedcabedcabedccccedcccabedcccedccabedccccabedcc"
    b"ababedcabedcedccabedcababedced"
)


def long_code_word(k: int) -> bytes:
    """An order-1 input whose context 0x00 has k successors with
    Fibonacci counts, so its longest codeword is k - 1 bits."""
    fib = [1, 1]
    while len(fib) < k:
        fib.append(fib[-1] + fib[-2])
    successors = [s for t, f in enumerate(fib) for s in [t + 1] * f]
    random.Random(44).shuffle(successors)
    return bytes(b for s in successors for b in (0, s))


def de_bruijn_word(k: int, n: int) -> bytes:
    """The de Bruijn sequence B(k, n) over the bytes 0..k-1, the least in
    lexicographic order, followed by its first n symbols: each of the k**n
    windows of n symbols occurs once with a successor after it, and the
    first window ends the input again."""
    a = [0] * (n + 1)
    out: list[int] = []

    def extend(t: int, p: int) -> None:
        if t > n:
            if n % p == 0:
                out.extend(a[1 : p + 1])
            return
        a[t] = a[t - p]
        extend(t + 1, p)
        for b in range(a[t - p] + 1, k):
            a[t] = b
            extend(t + 1, t)

    extend(1, 1)
    return bytes(out + out[:n])


def scan_transition_counts(word: bytes, order: int) -> dict[tuple[bytes, int, bool], int]:
    """Count every (context window, successor) occurrence by brute scan.

    Keys are (window bytes, successor byte, is_repeat) where is_repeat
    marks the order-1 self-transition routed through an aux vertex.
    """
    counts: dict[tuple[bytes, int, bool], int] = {}
    n = order
    for p in range(len(word) - n):
        window = word[p : p + n]
        successor = word[p + n]
        repeat = n == 1 and window[0] == successor
        key = (window, successor, repeat)
        counts[key] = counts.get(key, 0) + 1
    return counts


@cache
def depth_multisets(k: int) -> frozenset[tuple[int, ...]]:
    """All leaf-depth multisets of full binary trees with k leaves."""
    if k == 1:
        return frozenset({(0,)})
    out = set()
    for left in range(1, k // 2 + 1):
        for a in depth_multisets(left):
            for b in depth_multisets(k - left):
                out.add(tuple(sorted(x + 1 for x in a + b)))
    return frozenset(out)


def optimal_prefix_cost(freqs) -> int:
    """Minimum sum(f*l) over all binary prefix codes, by enumeration.

    A lone symbol still needs a nonempty codeword, so k=1 costs f*1.
    For k >= 2 every optimal code is a full binary tree; within a fixed
    depth multiset the best assignment pairs large frequencies with
    small depths.
    """
    k = len(freqs)
    if k == 1:
        return freqs[0]
    ordered = sorted(freqs, reverse=True)
    best = None
    for lengths in depth_multisets(k):
        cost = sum(f * l for f, l in zip(ordered, sorted(lengths)))
        if best is None or cost < best:
            best = cost
    return best


def set_bit_positions(bits) -> list[int]:
    """Positions of the set bits of a BitString, one bit at a time."""
    positions = []
    for p, bit in enumerate(bits.to01()):
        if bit == "1":
            positions.append(p)
    return positions


def popcount(bits) -> int:
    return int.from_bytes(bits.to_bytes(), "big").bit_count()


def assert_component_identities(payload, header) -> None:
    """The structural length identities every encode must satisfy."""
    m = len(header.alphabet)
    n = header.order
    h = header.length
    sym_width = (m - 1).bit_length()
    assert len(payload.prefix) == min(h, n) * sym_width
    assert len(payload.context_map) == m**n
    marked_contexts = popcount(payload.context_map)
    assert len(payload.successor_map) == m * marked_contexts
    marked = popcount(payload.successor_map)
    assert len(payload.freq_table) == payload.freq_width * marked
    if h > n:
        assert marked_contexts > 0
    else:
        assert marked_contexts == 0 and payload.freq_width == 0


def pool_code_pairs(freqs) -> list[tuple[int, int]]:
    """Positional Huffman codewords by the original quadratic pool rule.

    The pool keeps work items (total, member positions) in creation order.
    Each step scans for the two smallest totals, preferring the later pool
    position on ties, prepends bit 0 to the members of the earlier of the
    two and bit 1 to the later, and appends their merge to the pool.
    """
    k = len(freqs)
    if k == 1:
        return [(0, 1)]
    codes = [(0, 0)] * k
    pool = [(f, (q,)) for q, f in enumerate(freqs)]
    while len(pool) > 1:
        first = second = None  # pool positions of the two smallest keys
        for q, (total, _) in enumerate(pool):
            if first is None or total <= pool[first][0]:
                first, second = q, first
            elif second is None or total <= pool[second][0]:
                second = q
        i, j = sorted((first, second))
        for x in pool[i][1]:
            value, length = codes[x]
            codes[x] = (value, length + 1)
        for x in pool[j][1]:
            value, length = codes[x]
            codes[x] = ((1 << length) | value, length + 1)
        merged = (pool[i][0] + pool[j][0], pool[i][1] + pool[j][1])
        del pool[j]
        del pool[i]
        pool.append(merged)
    return codes


def reference_stream_decode(payload, header):
    """Decode a payload's codeword stream one bit at a time.

    The per-context codes are rebuilt from the bitmaps with
    pool_code_pairs, taking successors in ascending symbol order with the
    order-1 repeat successor last.  Returns the original bytes, or
    "truncated", "corrupt" or "trailing" where the stream ends inside a
    codeword, holds a codeword no context code has, or runs on past the
    last symbol.  The bitmaps and counts must be consistent.
    """
    m = len(header.alphabet)
    n = header.order
    h = header.length
    width = (m - 1).bit_length()
    prefix = payload.prefix.to01()
    out = [int(prefix[t * width : (t + 1) * width] or "0", 2) for t in range(min(h, n))]
    contexts = [j for j, bit in enumerate(payload.context_map.to01()) if bit == "1"]
    marked = [p for p, bit in enumerate(payload.successor_map.to01()) if bit == "1"]
    fields = payload.freq_table.to01()
    w = payload.freq_width
    rows = {j: [] for j in contexts}
    for k, p in enumerate(marked):
        i, r = divmod(p, len(contexts))
        rows[contexts[r]].append((i, int(fields[k * w : (k + 1) * w], 2)))
    codes = {}
    for j, row in rows.items():
        if n == 1:
            row = sorted(row, key=lambda pair: pair[0] == j)
        words = pool_code_pairs([f for _, f in row])
        codes[j] = {format(v, f"0{l}b"): i for (i, _), (v, l) in zip(row, words)}

    bits = payload.stream.to01()
    pos = 0
    j = 0
    for i in out:
        j = j * m + i
    for _ in range(h - n):
        code = codes.get(j)
        if code is None:
            return "corrupt"
        longest = max(map(len, code))
        word = ""
        while word not in code:
            if len(word) >= longest:
                return "corrupt"
            if pos >= len(bits):
                return "truncated"
            word += bits[pos]
            pos += 1
        i = code[word]
        out.append(i)
        j = (j % m ** (n - 1)) * m + i
    if pos != len(bits):
        return "trailing"
    return bytes(header.alphabet.to_bytes()[i] for i in out)


def reference_lz78(word: bytes) -> tuple[str, int, int]:
    """The textbook LZ78 parse of `word` over `bytes` phrases.

    Each phrase is the longest known phrase at the current position plus
    the symbol after it, and becomes the next dictionary entry.  Input
    that ends inside a known phrase emits that phrase's own (parent entry,
    last symbol) pair.  Every pair is priced at t.bit_length() pointer
    bits and (m - 1).bit_length() symbol bits, for t phrases over m
    symbols.  Returns the pairs as '0'/'1' text, t, and the length of the
    leftover phrase (0 when the input ends on a new phrase).
    """
    symbols = sorted(set(word))
    entries = {b"": 0}
    pairs = []
    leftover = 0
    p = 0
    while p < len(word):
        k = p
        while k < len(word) and word[p : k + 1] in entries:
            k += 1
        if k == len(word):  # the rest of the input is a known phrase
            phrase = word[p:]
            pairs.append((entries[phrase[:-1]], phrase[-1]))
            leftover = len(phrase)
            break
        entries[word[p : k + 1]] = len(entries)
        pairs.append((entries[word[p:k]], word[k]))
        p = k + 1
    t = len(pairs)
    pointer_width = t.bit_length()
    symbol_width = (len(symbols) - 1).bit_length()

    def field(value: int, width: int) -> str:
        return format(value, f"0{width}b") if width else ""

    text = "".join(
        field(pointer, pointer_width) + field(symbols.index(sym), symbol_width)
        for pointer, sym in pairs
    )
    return text, t, leftover


def _dot_name(key: bytes, aux: bool) -> str:
    # xHH for every byte but the printables other than '"' and '\'; a
    # literal 'x' followed by two hex-digit characters is escaped as well,
    # so that it never reads as the start of an escape
    hex_digits = b"0123456789ABCDEF"
    parts = []
    for i, b in enumerate(key):
        after = key[i + 1 : i + 3]
        looks_escaped = b == ord("x") and len(after) == 2 and all(c in hex_digits for c in after)
        printable = 33 <= b <= 126 and b not in (34, 92)
        parts.append(chr(b) if printable and not looks_escaped else f"x{b:02X}")
    name = "".join(parts)
    return name + "_aux" if aux else name


def reference_dot(word: bytes, order: int) -> str:
    """DOT text of the order-n transition graph with its codewords.

    Every edge comes from a position scan: window -> successor with its
    count (at order 1 a repeat goes symbol -> aux with the count, plus an
    aux -> symbol return edge), and for n >= 2 a symbol -> window linking
    edge at every position p in [n, h - 1) from word[p] to the window
    ending at p.  Return and linking edges carry frequency 0 and no
    codeword.  Each window's codewords come from pool_code_pairs over its
    successors in ascending symbol order, the aux successor last.
    """
    n = order
    h = len(word)
    vertices: set[tuple[bytes, bool]] = set()
    labels: dict[tuple, list] = {}  # (src, dst) -> [frequency, codeword]

    def edge(src, dst, count):
        vertices.update((src, dst))
        labels.setdefault((src, dst), [0, ""])[0] += count

    for p in range(h - n):
        window = word[p : p + n]
        succ = word[p + n : p + n + 1]
        if n == 1 and window == succ:
            edge((succ, False), (succ, True), 1)
            edge((succ, True), (succ, False), 0)
        else:
            edge((window, False), (succ, False), 1)
    if n >= 2:
        for p in range(n, h - 1):
            edge((word[p : p + 1], False), (word[p - n + 1 : p + 1], False), 0)

    by_source: dict[tuple, list] = {}
    for (src, dst), label in labels.items():
        if label[0]:
            by_source.setdefault(src, []).append((dst[1], dst[0], (src, dst)))
    for row in by_source.values():
        row.sort()
        codes = pool_code_pairs([labels[e][0] for _, _, e in row])
        for (_, _, e), (value, length) in zip(row, codes):
            labels[e][1] = format(value, f"0{length}b")

    lines = ["digraph G {"]
    lines += [f'  "{name}";' for name in sorted(_dot_name(*v) for v in vertices)]
    for src, dst in sorted(labels, key=lambda e: (_dot_name(*e[0]), _dot_name(*e[1]))):
        frequency, code = labels[(src, dst)]
        lines.append(
            f'  "{_dot_name(*src)}" -> "{_dot_name(*dst)}" '
            f'[label="({frequency},{code or "λ"})"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
