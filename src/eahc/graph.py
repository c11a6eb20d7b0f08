"""Transition graph of order n for a symbol string.

The graph is a view of the codec's context model, its edge list.  Base
vertices are the length-n windows of the string together with the
symbols that follow them; a directed edge (context, symbol) carries the
number of positions where that transition occurs, the count of its pair
key j*m + i in the codec's flat model (`codec._successor_counts`), read
one context at a time in `codec._by_context` order, and its codeword
comes from `codec._successor_codes`, `code_pairs` over the counts that
`codec._code_order` puts in code order, as encoder and decoder do;
the codec's `_context_index` and `_window` give a window's index and an
index's window.  For order 1, an immediate repeat of a symbol is routed
through a companion aux vertex instead of a self-loop; the aux return
edge and, for n >= 2, the symbol-to-window linking edges are structural
only (frequency 0, empty codeword).

The graph stores only its labelled edges; V is the set of their
endpoints, and a string no longer than n yields the empty graph.
Construction is single-owner; once codewords are assigned the graph is
effectively immutable and shareable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import codec
from .adaptive_code import Alphabet
from .bitstream import EMPTY, BitString

Edge = tuple["Vertex", "Vertex"]

# a DOT name spells as xHH, its two hex digits, a byte outside 33..126, a
# '"', a '\', and an 'x' before two of 0-9A-F, which would read as an escape
_ESCAPE = re.compile(r"[^!#-\[\]-~]|x(?=[0-9A-F]{2})")


@dataclass(frozen=True, slots=True)
class Vertex:
    key: bytes
    aux: bool = False

    @property
    def name(self) -> str:
        base = _ESCAPE.sub(lambda c: f"x{ord(c[0]):02X}", self.key.decode("latin-1"))
        return base + "_aux" if self.aux else base


@dataclass(slots=True)
class EdgeLabel:
    frequency: int = 0
    codeword: BitString = EMPTY


class AdaptiveGraph:
    def __init__(self, order: int, alphabet: Alphabet | None):
        self.order = order
        self.alphabet = alphabet
        self.labels: dict[Edge, EdgeLabel] = {}

    @property
    def vertices(self) -> set[Vertex]:  # V: the endpoints of the edges
        return {v for edge in self.labels for v in edge}

    def transition_edges(self) -> list[Edge]:
        """Edges that carry a frequency: window->symbol plus, for order 1,
        the symbol->aux repeats.  Return and linking edges have frequency 0."""
        return [e for e, label in self.labels.items() if label.frequency]


def build_graph(word: bytes, order: int) -> AdaptiveGraph:
    """Construct the order-n transition graph of `word`.

    Overlapping occurrences are counted at every position.  The alphabet
    is the distinct bytes of `word` in ascending order.  Raises ValueError
    for an order below 1, or for one whose m**n contexts exceed
    `codec.MAX_CONTEXT_BITS` when `word` is longer than the order.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    word = bytes(word)
    n = order
    g = AdaptiveGraph(n, Alphabet.from_bytes(word) if word else None)
    if len(word) <= n:
        return g
    symbols = g.alphabet.to_bytes()
    m = len(symbols)
    vertex = [Vertex(symbols[i : i + 1]) for i in range(m)]  # one per symbol
    t = word.translate(codec._index_table(g.alphabet))
    first = codec._context_index(t[:n], m)
    counts = codec._successor_counts(t, m, n)
    keys, sizes = codec._by_context(counts, m)
    start = 0
    for j, k in sizes.items():  # each context's run of pair keys j*m + i
        window = bytes(symbols[i] for i in codec._window(j, m, n))
        context = Vertex(window)
        row = keys[start : start + k]
        start += k
        for key in row:
            i, f = key - j * m, counts[key]
            if n == 1 and i == j:
                aux = Vertex(window, aux=True)
                g.labels[(vertex[i], aux)] = EdgeLabel(f)
                g.labels[(aux, vertex[i])] = EdgeLabel()
            else:
                g.labels[(context, vertex[i])] = EdgeLabel(f)
        # a window starting after position 0 is entered from its last
        # symbol, j % m; the first window starts there, so it needs a second start
        if n >= 2 and (j != first or sum(map(counts.__getitem__, row)) > 1):
            g.labels[(vertex[j % m], context)] = EdgeLabel()
    return g


def assign_codewords(g: AdaptiveGraph) -> None:
    """Label every transition edge with its per-context Huffman codeword.

    Each context window gets the codec's prefix code over its successor
    frequencies.  Structural edges keep the empty codeword.
    """
    by_context: dict[Vertex, dict[int, EdgeLabel]] = {}
    for src, dst in g.transition_edges():
        by_context.setdefault(src, {})[g.alphabet.index(dst.key[0])] = g.labels[src, dst]
    for src, row in by_context.items():
        syms = sorted(row)
        freqs = [row[i].frequency for i in syms]
        j = codec._context_index(map(g.alphabet.index, src.key), len(g.alphabet))
        for i, value, length in codec._successor_codes(g.order, j, syms, freqs):
            row[i].codeword = BitString.from_int(value, length)


def export_dot(g: AdaptiveGraph) -> str:
    """Render as deterministic Graphviz DOT text, naming each vertex once.

    Vertices are listed in name order and edges in (source, target) name
    order, a unique pair; edges are labeled "(frequency,codeword)" with
    the empty codeword shown as the λ character.
    """
    names = {v: v.name for v in g.vertices}
    lines = ["digraph G {", *(f'  "{name}";' for name in sorted(names.values()))]
    for src, dst, label in sorted(
        (names[src], names[dst], label) for (src, dst), label in g.labels.items()
    ):
        code = label.codeword.to01() if len(label.codeword) else "λ"
        lines.append(f'  "{src}" -> "{dst}" [label="({label.frequency},{code})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
