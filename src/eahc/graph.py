"""Transition graph of order n for a symbol string.

Base vertices are the length-n windows of the string together with the
symbols that follow them; a directed edge (context, symbol) is labeled
with the number of positions where that transition occurs.  For order 1,
an immediate repeat of a symbol is routed through a companion aux vertex
instead of a self-loop; the aux return edge and, for n >= 2, the
symbol-to-window linking edges are structural only (frequency 0, empty
codeword).

A string no longer than n yields the empty graph.  Construction is
single-owner; once codewords are assigned the graph is effectively
immutable and shareable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .adaptive_code import Alphabet
from .bitstream import EMPTY, BitString
from .huffman import huffman

Edge = tuple["Vertex", "Vertex"]


@dataclass(frozen=True, slots=True)
class Vertex:
    key: bytes
    aux: bool = False

    @property
    def name(self) -> str:
        base = "".join(
            chr(b) if 33 <= b <= 126 and b not in (34, 92) else f"x{b:02X}"
            for b in self.key
        )
        return base + "_aux" if self.aux else base


@dataclass(slots=True)
class EdgeLabel:
    frequency: int = 0
    codeword: BitString = field(default_factory=lambda: EMPTY)


class AdaptiveGraph:
    def __init__(self, order: int, alphabet: Alphabet | None):
        self.order = order
        self.alphabet = alphabet
        self.vertices: set[Vertex] = set()
        self.labels: dict[Edge, EdgeLabel] = {}

    @property
    def edges(self):
        return self.labels.keys()

    def is_empty(self) -> bool:
        return not self.vertices

    def transition_edges(self) -> list[Edge]:
        """Edges that carry a frequency: window->symbol plus, for order 1,
        the symbol->aux repeats.  Return and linking edges are excluded."""
        out = []
        for (src, dst) in self.labels:
            if src.aux:
                continue  # aux return edge
            if not dst.aux and self.order >= 2 and len(dst.key) == self.order:
                continue  # symbol->window linking edge
            out.append((src, dst))
        return out


def build_graph(word: bytes, order: int, alphabet: Alphabet | None = None) -> AdaptiveGraph:
    """Construct the order-n transition graph of `word`.

    Overlapping occurrences are counted at every position.  If an
    alphabet is not supplied it is derived from the distinct bytes of
    `word` in ascending order.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    word = bytes(word)
    if alphabet is None and word:
        alphabet = Alphabet.from_bytes(word)
    g = AdaptiveGraph(order, alphabet)
    h = len(word)
    n = order
    if h <= n:
        return g

    for j in range(h - n):
        g.vertices.add(Vertex(word[j : j + n]))
    for j in range(n, h):
        g.vertices.add(Vertex(word[j : j + 1]))
    if n == 1:
        for j in range(h - 1):
            if word[j] == word[j + 1]:
                g.vertices.add(Vertex(word[j : j + 1], aux=True))

    def add_edge(src: Vertex, dst: Vertex) -> EdgeLabel:
        label = g.labels.get((src, dst))
        if label is None:
            label = g.labels[(src, dst)] = EdgeLabel()
        return label

    for j in range(h - n):
        succ = Vertex(word[j + n : j + n + 1])
        if n == 1 and word[j] == word[j + 1]:
            aux = Vertex(word[j : j + 1], aux=True)
            add_edge(succ, aux).frequency += 1
            add_edge(aux, succ)
        else:
            add_edge(Vertex(word[j : j + n]), succ).frequency += 1
    if n >= 2:
        for p in range(n, h - 1):
            add_edge(Vertex(word[p : p + 1]), Vertex(word[p - n + 1 : p + 1]))
    return g


def degree_stats(g: AdaptiveGraph, v: Vertex) -> tuple[int, int, int, int]:
    """Edge counts (in from base, out to base, in from aux, out to aux)."""
    if v not in g.vertices:
        raise KeyError(f"vertex {v.name!r} not in graph")
    in_base = out_base = in_aux = out_aux = 0
    for (src, dst) in g.labels:
        if dst == v:
            if src.aux:
                in_aux += 1
            else:
                in_base += 1
        if src == v:
            if dst.aux:
                out_aux += 1
            else:
                out_base += 1
    return (in_base, out_base, in_aux, out_aux)


def _code_order(edge: Edge) -> tuple[bool, bytes]:
    # successor symbols ascending, the order-1 aux successor last
    return (edge[1].aux, edge[1].key)


def successors_sorted(g: AdaptiveGraph, context: Vertex) -> tuple[Edge, ...]:
    """Transition edges out of a context window, in the fixed order the
    per-context code is built in: successor symbols ascending, with the
    order-1 aux successor last."""
    return tuple(
        sorted((e for e in g.transition_edges() if e[0] == context), key=_code_order)
    )


def assign_codewords(g: AdaptiveGraph) -> None:
    """Label every transition edge with its per-context Huffman codeword.

    Each context window gets a prefix code over its successor
    frequencies, taken in successors_sorted order.  Structural edges keep
    the empty codeword.
    """
    by_context: dict[Vertex, list[Edge]] = {}
    for e in g.transition_edges():
        by_context.setdefault(e[0], []).append(e)
    for edges in by_context.values():
        edges.sort(key=_code_order)
        codes = huffman([g.labels[e].frequency for e in edges])
        for e, (codeword, _) in zip(edges, codes):
            g.labels[e].codeword = codeword


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
