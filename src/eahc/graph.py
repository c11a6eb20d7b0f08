"""Transition graph of order n for a symbol string.

The graph is a view of the codec's context model.  Base vertices are the
length-n windows of the string together with the symbols that follow
them; a directed edge (context, symbol) carries the number of positions
where that transition occurs, taken from `codec._successor_counts`, and
its codeword comes from `codec._successor_codes`, the code the encoder
emits for it; the codec's `_context_index` and `_window` give a window's
index and an index's window.  For order 1, an immediate repeat of a
symbol is routed through a companion aux vertex instead of a self-loop;
the aux return edge and, for n >= 2, the symbol-to-window linking edges
are structural only (frequency 0, empty codeword).

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

# a DOT name spells as xHH every byte but the printables other than '"' and
# '\', and also an 'x' before two bytes that would read as an escape's digits
_ESCAPES = {b: f"x{b:02X}" for b in range(256) if not 33 <= b <= 126 or b in (34, 92)}
_LITERAL_X = re.compile("x(?=[0-9A-F]{2})")


@dataclass(frozen=True, slots=True)
class Vertex:
    key: bytes
    aux: bool = False

    @property
    def name(self) -> str:
        base = _LITERAL_X.sub("x78", self.key.decode("latin-1")).translate(_ESCAPES)
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

    first = codec._context_index(map(g.alphabet.index, word[:n]), m)
    for j, row in codec._successor_counts(word, n, g.alphabet).items():
        window = bytes(symbols[i] for i in codec._window(j, m, n))
        context = Vertex(window)
        for i, f in row.items():
            succ = Vertex(symbols[i : i + 1])
            if n == 1 and i == j:
                aux = Vertex(window, aux=True)
                g.labels[(succ, aux)] = EdgeLabel(f)
                g.labels[(aux, succ)] = EdgeLabel()
            else:
                g.labels[(context, succ)] = EdgeLabel(f)
        # a window starting after position 0 is entered from its last
        # symbol; the first window starts there, so it needs a second start
        if n >= 2 and (j != first or sum(row.values()) > 1):
            g.labels[(Vertex(window[-1:]), context)] = EdgeLabel()
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
        pairs = [(i, row[i].frequency) for i in sorted(row)]
        j = codec._context_index(map(g.alphabet.index, src.key), len(g.alphabet))
        for i, value, length in codec._successor_codes(g.order, j, pairs):
            row[i].codeword = BitString.from_int(value, length)


def export_dot(g: AdaptiveGraph) -> str:
    """Render as deterministic Graphviz DOT text.

    Vertices are listed in lexicographic key order; edges are labeled
    "(frequency,codeword)" with the empty codeword shown as the λ
    character.
    """
    lines = ["digraph G {"]
    for v in sorted(g.vertices, key=lambda v: v.name):
        lines.append(f'  "{v.name}";')
    for (src, dst) in sorted(g.labels, key=lambda e: (e[0].name, e[1].name)):
        label = g.labels[(src, dst)]
        code = label.codeword.to01() if len(label.codeword) else "λ"
        lines.append(
            f'  "{src.name}" -> "{dst.name}" [label="({label.frequency},{code})"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
