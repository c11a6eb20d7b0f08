import random

import pytest

from eahc.graph import EdgeLabel, Vertex, assign_codewords, build_graph, export_dot
from oracles import SAMPLE_200, _dot_name, reference_dot, scan_transition_counts


def edge_set(g):
    return {(src.name, dst.name) for src, dst in g.labels}


W9 = b"abccdbbab"


class TestVertexName:
    def test_every_one_byte_key_matches_reference(self):
        for b in range(256):
            for aux in (False, True):
                key = bytes([b])
                assert Vertex(key, aux).name == _dot_name(key, aux), (b, aux)

    def test_x_before_every_hex_pair_matches_reference(self):
        hex_digits = b"0123456789ABCDEF"
        others = b'abfGx"\\ \x00\x7f\xff'  # lower case, 'x', escaped bytes
        for a in hex_digits + others:
            for b in hex_digits + others:
                pair = bytes([a, b])
                for key in (b"x" + pair, b"xx" + pair, pair + b"x", b"x" + pair + b"x"):
                    for aux in (False, True):
                        assert Vertex(key, aux).name == _dot_name(key, aux), key


class TestBuildGraphOrder1:
    def test_vertices(self):
        g = build_graph(W9, 1)
        assert {v.name for v in g.vertices} == {"a", "b", "c", "d", "c_aux", "b_aux"}

    def test_edges(self):
        g = build_graph(W9, 1)
        assert edge_set(g) == {
            ("a", "b"),
            ("b", "a"),
            ("b", "b_aux"),
            ("b_aux", "b"),
            ("b", "c"),
            ("c", "c_aux"),
            ("c", "d"),
            ("c_aux", "c"),
            ("d", "b"),
        }

    def test_frequencies(self):
        g = build_graph(W9, 1)
        freq = {(s.name, d.name): label.frequency for (s, d), label in g.labels.items()}
        assert freq[("a", "b")] == 2
        assert freq[("b", "c")] == 1
        assert freq[("c", "c_aux")] == 1
        assert freq[("b_aux", "b")] == 0

    def test_sample_200_frequencies(self):
        g = build_graph(SAMPLE_200, 1)
        freq = {(s.name, d.name): label.frequency for (s, d), label in g.labels.items()}
        assert freq[("a", "b")] == 31
        assert freq[("b", "a")] == 8
        assert freq[("b", "e")] == 23
        assert freq[("c", "a")] == 22
        assert freq[("c", "e")] == 14
        assert freq[("c", "c_aux")] == 28
        assert freq[("d", "c")] == 36
        assert freq[("e", "d")] == 37


class TestBuildGraphGeneral:
    def test_short_input_is_empty(self):
        assert not build_graph(b"ab", 3).vertices
        assert not build_graph(b"a", 1).vertices
        assert not build_graph(b"abc", 3).vertices

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            build_graph(b"ab", 0)

    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_bytes_like_input(self, kind):
        g, ref = build_graph(kind(SAMPLE_200), 2), build_graph(SAMPLE_200, 2)
        assert g.alphabet == ref.alphabet
        assert g.labels == ref.labels

    def test_order2_structure(self):
        g = build_graph(b"abab", 2)
        assert {v.name for v in g.vertices} == {"ab", "ba", "a", "b"}
        freq = {(s.name, d.name): label.frequency for (s, d), label in g.labels.items()}
        assert freq == {("ab", "a"): 1, ("ba", "b"): 1, ("a", "ba"): 0}

    def test_no_aux_vertices_above_order1(self):
        g = build_graph(b"aaabbb", 2)
        assert not any(v.aux for v in g.vertices)

    def test_aux_pairing(self):
        rng = random.Random(31)
        for _ in range(100):
            word = bytes(rng.choice(b"ab") for _ in range(rng.randint(2, 20)))
            g = build_graph(word, 1)
            edges = set(g.labels)
            for (src, dst) in edges:
                if dst.aux:
                    assert (dst, src) in edges
                if src.aux:
                    assert (dst, src) in edges

    def test_vertex_soundness_and_windows(self):
        rng = random.Random(32)
        for _ in range(100):
            n = rng.randint(1, 3)
            word = bytes(rng.choice(b"abcd") for _ in range(rng.randint(1, 25)))
            g = build_graph(word, n)
            for (src, dst) in g.labels:
                assert src in g.vertices and dst in g.vertices
            if len(word) > n:
                windows = {word[j : j + n] for j in range(len(word) - n)}
                tails = {word[j : j + 1] for j in range(n, len(word))}
                base_keys = {v.key for v in g.vertices if not v.aux}
                assert base_keys == windows | tails

    def test_vertices_are_the_edge_endpoints(self):
        for word in (W9, SAMPLE_200):
            for n in (1, 2, 3):
                g = build_graph(word, n)
                assert g.vertices == {v for edge in g.labels for v in edge}, n
        # a label added after the build brings its endpoints into V
        src, dst = Vertex(b"new"), Vertex(b"q", aux=True)
        g.labels[(src, dst)] = EdgeLabel(1)
        assert {src, dst} <= g.vertices

    def test_frequency_scan_oracle(self):
        rng = random.Random(33)
        for _ in range(200):
            n = rng.randint(1, 3)
            m = rng.randint(1, 4)
            symbols = bytes(rng.sample(range(97, 123), m))
            word = bytes(rng.choice(symbols) for _ in range(rng.randint(1, 30)))
            g = build_graph(word, n)
            got = {}
            for (src, dst) in g.transition_edges():
                key = (
                    src.key,
                    dst.key[0] if not dst.aux else src.key[0],
                    dst.aux,
                )
                got[key] = g.labels[(src, dst)].frequency
            assert got == scan_transition_counts(word, n)
            if len(word) > n:
                total = sum(
                    g.labels[e].frequency for e in g.transition_edges()
                )
                assert total == len(word) - n

    def test_flow_balance_order1(self):
        rng = random.Random(34)
        for _ in range(100):
            word = bytes(rng.choice(b"abc") for _ in range(rng.randint(2, 40)))
            g = build_graph(word, 1)
            if not g.vertices:
                continue
            for sym in set(word):
                v = Vertex(bytes([sym]))
                incoming = sum(
                    g.labels[(s, d)].frequency
                    for (s, d) in g.transition_edges()
                    if (d == v) or (d.aux and d.key == v.key)
                )
                outgoing = sum(
                    g.labels[(s, d)].frequency
                    for (s, d) in g.transition_edges()
                    if s == v
                )
                assert incoming + (word[0] == sym) == outgoing + (word[-1] == sym)


class TestAssignCodewords:
    def test_codes_match_published_graph(self):
        g = build_graph(W9, 1)
        assign_codewords(g)
        labels = {
            (s.name, d.name): (label.frequency, label.codeword.to01())
            for (s, d), label in g.labels.items()
        }
        assert labels[("a", "b")] == (2, "0")
        assert labels[("b", "a")] == (1, "0")
        assert labels[("b", "c")] == (1, "10")
        assert labels[("b", "b_aux")] == (1, "11")
        assert labels[("c", "c_aux")] == (1, "1")
        assert labels[("c", "d")] == (1, "0")
        assert labels[("d", "b")] == (1, "0")
        assert labels[("b_aux", "b")] == (0, "")
        assert labels[("c_aux", "c")] == (0, "")

    def test_sample_200_code_lengths(self):
        g = build_graph(SAMPLE_200, 1)
        assign_codewords(g)
        lengths = {
            (s.name, d.name): len(label.codeword)
            for (s, d), label in g.labels.items()
            if label.frequency
        }
        assert lengths == {
            ("a", "b"): 1,
            ("b", "a"): 1,
            ("b", "e"): 1,
            ("c", "a"): 2,
            ("c", "e"): 2,
            ("c", "c_aux"): 1,
            ("d", "c"): 1,
            ("e", "d"): 1,
        }


class TestExportDot:
    def test_empty_graph(self):
        assert export_dot(build_graph(b"ab", 3)) == "digraph G {\n}\n"

    def test_contains_labeled_edge(self):
        g = build_graph(W9, 1)
        assign_codewords(g)
        text = export_dot(g)
        assert '"a" -> "b" [label="(2,0)"];' in text
        assert '"b_aux" -> "b" [label="(0,λ)"];' in text

    def test_deterministic(self):
        first = export_dot(build_graph(W9, 1))
        for _ in range(3):
            assert export_dot(build_graph(W9, 1)) == first

    def test_nonprintable_bytes_escaped(self):
        g = build_graph(bytes([0, 10, 0, 10]), 1)
        text = export_dot(g)
        assert '"x00"' in text and '"x0A"' in text

    def test_literal_x_never_reads_as_an_escape(self):
        # the window b"x00" and the symbol 0x00 once both rendered as "x00"
        g = build_graph(b"x00\x00x00\x00x00", 3)
        assert len(g.vertices) == len({v.name for v in g.vertices}) == 7
        assert all(src.name != dst.name for src, dst in g.labels)
        assert '"x7800" -> "x00"' in export_dot(g)

    def test_matches_reference_dot(self):
        # byte-identical DOT, escaping and order-3 linking edges included
        rng = random.Random(35)
        for _ in range(2400):
            n = rng.randint(1, 3)
            symbols = bytes(rng.sample(range(256), rng.randint(1, 6)))
            word = bytes(rng.choice(symbols) for _ in range(rng.randint(0, 60)))
            g = build_graph(word, n)
            assign_codewords(g)
            assert export_dot(g) == reference_dot(word, n), (word, n)
