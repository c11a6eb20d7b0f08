"""Acceptance suite: one test per published criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 5 is expected to fail: the required LZ78 size band cannot be
reached under the fixed-width accounting once the real phrase count of
the 200-symbol sample is used.  The test states the measured numbers.
"""

import random
import time

from eahc.adaptive_code import Alphabet, CodeTable, decode_with_table, extend
from eahc.baselines import huffman_stream_length, lz78_encode
from eahc.bitstream import BitString
from eahc.codec import decode, deserialize, encode, serialize
from eahc.graph import assign_codewords, build_graph
from eahc.huffman import code_pairs
from oracles import (
    SAMPLE_200,
    assert_component_identities,
    optimal_prefix_cost,
    scan_transition_counts,
)

W9 = b"abccdbbab"


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_order1_graph_golden():
    best = float("inf")
    for _ in range(10):
        start = time.perf_counter()
        g = build_graph(W9, 1)
        assign_codewords(g)
        best = min(best, time.perf_counter() - start)

    names = {v.name for v in g.vertices}
    labels = {
        (s.name, d.name): (label.frequency, label.codeword.to01())
        for (s, d), label in g.labels.items()
    }
    expected = {
        ("a", "b"): (2, "0"),
        ("b", "a"): (1, "0"),
        ("b", "c"): (1, "10"),
        ("b", "b_aux"): (1, "11"),
        ("b_aux", "b"): (0, ""),
        ("c", "c_aux"): (1, "1"),
        ("c", "d"): (1, "0"),
        ("c_aux", "c"): (0, ""),
        ("d", "b"): (1, "0"),
    }
    ok = (
        names == {"a", "b", "c", "d", "c_aux", "b_aux"}
        and labels == expected
        and best < 1e-3
    )
    report(1, ok, f"order-1 graph of {W9.decode()} exact, build+assign {best*1e6:.0f}us")


def test_criterion_02_sample200_graph_golden():
    g = build_graph(SAMPLE_200, 1)
    assign_codewords(g)
    stats = {
        (s.name, d.name): (label.frequency, len(label.codeword))
        for (s, d), label in g.labels.items()
        if label.frequency
    }
    expected = {
        ("a", "b"): (31, 1),
        ("b", "a"): (8, 1),
        ("b", "e"): (23, 1),
        ("c", "a"): (22, 2),
        ("c", "e"): (14, 2),
        ("c", "c_aux"): (28, 1),
        ("d", "c"): (36, 1),
        ("e", "d"): (37, 1),
    }
    report(2, stats == expected, "sample-200 edge frequencies and code lengths exact")


def test_criterion_03_huffman_baseline():
    measured = huffman_stream_length(SAMPLE_200)
    derived = sum(f * l for f, l in zip((31, 31, 64, 37, 37), (3, 3, 2, 2, 2)))
    report(3, measured == 462 == derived, f"whole-string Huffman bits = {measured}")


def test_criterion_04_sample200_encoded_size():
    payload, _ = encode(SAMPLE_200, 1)
    stream_bits = len(payload.stream)
    total = payload.total_bits()
    # component-sum accounting yields 316; the published total is 310 and
    # the criterion accepts anything within 2.5% of it
    ok = stream_bits == 235 and total == 316 and abs(total - 310) / 310 <= 0.025
    report(4, ok, f"stream bits = {stream_bits}, total bits = {total} (band 310 +-2.5%)")


def test_criterion_05_lz78_baseline():
    bits, phrases = lz78_encode(SAMPLE_200)
    low, high = 388 * 0.95, 388 * 1.05
    ok = low <= len(bits) <= high
    report(
        5,
        ok,
        f"lz78 bits = {len(bits)} ({phrases} phrases x "
        f"{phrases.bit_length()}+3 bits), required band [{low:.1f}, {high:.1f}] "
        "- unreachable under fixed-width accounting with the true phrase count",
    )


def test_criterion_06_code_table_golden():
    a, b, c = ord("a"), ord("b"), ord("c")
    columns = {
        b"a": {a: "00", b: "10", c: "11"},
        b"b": {a: "11", b: "00", c: "01"},
        b"c": {a: "10", b: "11", c: "00"},
        b"aa": {a: "00", b: "11", c: "10"},
        b"ab": {a: "11", b: "01", c: "00"},
        b"ac": {a: "10", b: "00", c: "11"},
        b"ba": {a: "01", b: "00", c: "11"},
        b"bb": {a: "10", b: "11", c: "00"},
        b"bc": {a: "11", b: "01", c: "00"},
        b"ca": {a: "11", b: "10", c: "00"},
        b"cb": {a: "11", b: "00", c: "10"},
        b"cc": {a: "00", b: "10", c: "11"},
        b"": {a: "00", b: "11", c: "10"},
    }
    table = CodeTable(
        Alphabet([a, b, c]),
        2,
        {
            ctx: {sym: BitString.from_str(code) for sym, code in column.items()}
            for ctx, column in columns.items()
        },
    )
    encoded = extend(table, b"abacca")
    ok = (
        encoded.to01() == "001011111100"
        and decode_with_table(table, encoded, 6) == b"abacca"
    )
    report(6, ok, f"order-2 table encodes abacca to {encoded.to01()} and back")


def test_criterion_07_round_trip_suite():
    rng = random.Random(0xEA11)
    start = time.perf_counter()
    for _ in range(1000):
        h = rng.randint(1, 2000)
        m = rng.randint(1, 256)
        symbols = rng.sample(range(256), m)
        word = bytes(rng.choices(symbols, k=h))
        for n in (1, 2, 3):
            payload, header = encode(word, n)
            assert_component_identities(payload, header)
            assert decode(payload, header) == word, (h, m, n)
            blob = serialize(payload, header)
            payload2, header2 = deserialize(blob)
            assert (payload2, header2) == (payload, header), (h, m, n)
            assert serialize(payload2, header2) == blob, (h, m, n)
    elapsed = time.perf_counter() - start
    report(7, elapsed < 60.0, f"1000 strings x 3 orders round-trip in {elapsed:.1f}s")


def _assert_code_quality(freqs):
    codes = code_pairs(freqs)
    cost = sum(f * l for f, (_, l) in zip(freqs, codes))
    assert cost == optimal_prefix_cost(freqs), freqs
    words = sorted(format(value, f"0{length}b") for value, length in codes)
    for u, v in zip(words, words[1:]):
        assert not v.startswith(u), freqs
    kraft = sum(2 ** -l for _, l in codes)
    assert kraft == (0.5 if len(freqs) == 1 else 1.0), freqs


def test_criterion_08_huffman_optimality():
    cases = 0
    for k, bound in ((1, 12), (2, 12), (3, 12), (4, 6)):
        grid = [[]]
        for _ in range(k):
            grid = [tup + [f] for tup in grid for f in range(1, bound + 1)]
        for freqs in grid:
            _assert_code_quality(freqs)
            cases += 1
    rng = random.Random(0xEA12)
    for _ in range(500):
        k = rng.randint(1, 6)
        freqs = [rng.randint(1, 12) for _ in range(k)]
        _assert_code_quality(freqs)
        cases += 1
    report(8, True, f"{cases} tuples optimal with prefix property and Kraft equality")


def test_criterion_09_graph_oracle():
    rng = random.Random(0xEA13)
    for _ in range(500):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        symbols = rng.sample(range(256), m)
        word = bytes(rng.choice(symbols) for _ in range(rng.randint(1, 30)))
        g = build_graph(word, n)
        got = {}
        for (src, dst) in g.transition_edges():
            successor = src.key[0] if dst.aux else dst.key[0]
            got[(src.key, successor, dst.aux)] = g.labels[(src, dst)].frequency
        assert got == scan_transition_counts(word, n), (word, n)
        if len(word) > n:
            total = sum(g.labels[e].frequency for e in g.transition_edges())
            assert total == len(word) - n, (word, n)
        payload, header = encode(word, n)
        assert_component_identities(payload, header)
    report(9, True, "500 random graphs match the brute-force position scan")


def test_criterion_10_component_length_identities():
    # already enforced on every encode in criteria 7 and 9; re-checked
    # here on a dedicated deterministic sample so the criterion reports
    # its own line
    rng = random.Random(0xEA14)
    checked = 0
    for _ in range(200):
        h = rng.randint(1, 300)
        m = rng.randint(1, 256)
        symbols = rng.sample(range(256), m)
        word = bytes(rng.choices(symbols, k=h))
        for n in (1, 2, 3):
            payload, header = encode(word, n)
            assert_component_identities(payload, header)
            checked += 1
    report(10, True, f"component length identities hold on {checked} encodes")
