import itertools
import random

import pytest

from eahc.huffman import code_pairs
from oracles import optimal_prefix_cost, pool_code_pairs


def codewords(freqs):
    return [format(value, f"0{length}b") for value, length in code_pairs(freqs)]


class TestHuffman:
    def test_single_frequency(self):
        assert codewords((42,)) == ["0"]

    def test_three_distinct(self):
        # the per-context code of the 200-symbol sample's richest context
        assert codewords((22, 14, 28)) == ["10", "11", "0"]

    def test_five_symbol_stream_cost(self):
        freqs = (31, 31, 64, 37, 37)
        result = code_pairs(freqs)
        assert [l for _, l in result] == [3, 3, 2, 2, 2]
        assert sum(f * l for f, (_, l) in zip(freqs, result)) == 462

    def test_all_equal(self):
        lengths = sorted(l for _, l in code_pairs((1, 1, 1)))
        assert lengths == [1, 2, 2]
        assert sum(l for _, l in code_pairs((1, 1, 1))) == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="frequency tuple must not be empty"):
            code_pairs(())

    def test_nonpositive_rejected(self):
        # checked before the one- and two-symbol shortcuts
        for freqs in [(1, 0, 2), (0,), (3, 0), (-1, 4, 4, 4)]:
            with pytest.raises(ValueError, match="frequencies must be >= 1"):
                code_pairs(freqs)

    def test_prefix_property_random(self):
        rng = random.Random(11)
        for _ in range(400):
            k = rng.randint(1, 12)
            freqs = [rng.randint(1, 50) for _ in range(k)]
            words = sorted(codewords(freqs))
            for a, b in zip(words, words[1:]):
                assert not b.startswith(a), (freqs, words)

    def test_kraft_equality(self):
        rng = random.Random(12)
        for _ in range(300):
            k = rng.randint(1, 10)
            freqs = [rng.randint(1, 30) for _ in range(k)]
            total = sum(2 ** -l for _, l in code_pairs(freqs))
            assert total == (0.5 if k == 1 else 1.0)

    def test_optimality_against_enumeration(self):
        rng = random.Random(13)
        for _ in range(400):
            k = rng.randint(1, 8)
            freqs = [rng.randint(1, 20) for _ in range(k)]
            cost = sum(f * l for f, (_, l) in zip(freqs, code_pairs(freqs)))
            assert cost == optimal_prefix_cost(freqs), freqs

    def test_determinism(self):
        freqs = (5, 5, 5, 5, 2, 2)
        first = codewords(freqs)
        for _ in range(5):
            assert codewords(freqs) == first

    def test_positional_alignment_under_permutation(self):
        # powers of two give every frequency a unique depth, so each value
        # must keep its length wherever it sits in the input
        base = (1, 2, 4, 8, 16)
        expected = {1: 4, 2: 4, 4: 3, 8: 2, 16: 1}
        for perm in itertools.permutations(base):
            lengths = [l for _, l in code_pairs(perm)]
            assert {f: l for f, l in zip(perm, lengths)} == expected


class TestCodePairs:
    def test_matches_pool_reference(self):
        # every k from 1 to 256 twice, then many small tuples; narrow
        # frequency ranges force ties among totals
        rng = random.Random(14)
        sizes = [k for k in range(1, 257) for _ in range(2)]
        sizes += [rng.randint(1, 16) for _ in range(20_000 - len(sizes))]
        for k in sizes:
            high = rng.choice((1, 2, 3, 8, 1000))
            freqs = [rng.randint(1, high) for _ in range(k)]
            assert code_pairs(freqs) == pool_code_pairs(freqs), freqs
