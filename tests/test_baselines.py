import random

import pytest

from eahc.adaptive_code import Alphabet
from eahc.baselines import (
    huffman_stream_length,
    lz78_decode,
    lz78_encode,
)
from eahc.bitstream import BitString
from eahc.errors import CorruptStreamError, TrailingGarbageError, TruncationError
from oracles import SAMPLE_200, optimal_prefix_cost, reference_lz78


class TestHuffmanStreamLength:
    def test_sample_200(self):
        assert huffman_stream_length(SAMPLE_200) == 462

    def test_sample_200_independent_derivation(self):
        # frequencies (31,31,64,37,37) force lengths (3,3,2,2,2)
        freqs = sorted(
            (SAMPLE_200.count(bytes([s])) for s in set(SAMPLE_200)),
        )
        assert sorted([31, 31, 64, 37, 37]) == freqs
        assert 31 * 3 + 31 * 3 + 64 * 2 + 37 * 2 + 37 * 2 == 462

    def test_single_symbol(self):
        assert huffman_stream_length(b"aaaa") == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            huffman_stream_length(b"")

    def test_matches_optimal_cost(self):
        rng = random.Random(51)
        for _ in range(120):
            m = rng.randint(1, 8)
            symbols = rng.sample(range(256), m)
            word = bytes(rng.choice(symbols) for _ in range(rng.randint(1, 120)))
            counts = [word.count(bytes([s])) for s in sorted(set(word))]
            assert huffman_stream_length(word) == optimal_prefix_cost(counts)


class TestLz78:
    def test_phrase_counts(self):
        assert lz78_encode(b"aaaa")[1] == 3  # a, aa, leftover a
        assert lz78_encode(b"abab")[1] == 3  # a, b, ab

    def test_bit_accounting(self):
        bits, t = lz78_encode(b"abab")
        # 3 phrases x (2-bit pointer + 1-bit symbol)
        assert t == 3
        assert len(bits) == 3 * (2 + 1)

    def test_single_symbol_alphabet_bits(self):
        bits, t = lz78_encode(b"aaaa")
        assert t == 3
        assert len(bits) == 3 * 2  # 2-bit pointers, 0-bit symbols

    def test_sample_200_size(self):
        bits, t = lz78_encode(SAMPLE_200)
        assert t == 54
        assert len(bits) == 54 * (6 + 3)

    def test_round_trip_examples(self):
        for word in (b"aaaa", b"abab", SAMPLE_200):
            bits, t = lz78_encode(word)
            alphabet = Alphabet.from_bytes(word)
            assert lz78_decode(bits, t, alphabet) == word

    def test_leftover_phrase_reemits_the_pair_that_added_it(self):
        # a, b, ab, then the leftover ab is entry 3, re-emitted as (1, b):
        # four pairs of a 3-bit pointer and a 1-bit symbol
        bits, t = lz78_encode(b"ababab")
        assert (bits.to01(), t) == ("0000" + "0001" + "0011" + "0011", 4)
        assert reference_lz78(b"ababab") == (bits.to01(), 4, 2)

    def test_matches_reference_parse(self):
        rng = random.Random(55)
        leftovers = []
        for m in (*range(1, 9), 256):
            for _ in range(40):
                symbols = rng.sample(range(256), m)
                word = bytes(rng.choices(symbols, k=rng.randint(1, 600)))
                if rng.random() < 0.5:  # end on a copy of an early stretch
                    k = rng.randint(0, len(word) - 1)
                    word += word[k : k + rng.randint(2, 12)]
                bits, t = lz78_encode(word)
                text, count, leftover = reference_lz78(word)
                assert (bits.to01(), t) == (text, count), (m, word)
                leftovers.append(leftover)
        # many inputs end inside a phrase of two or more symbols
        assert sum(length >= 2 for length in leftovers) >= 40

    def test_round_trip_random(self):
        rng = random.Random(52)
        for _ in range(80):
            m = rng.randint(1, 256)
            symbols = rng.sample(range(256), m)
            word = bytes(rng.choices(symbols, k=rng.randint(1, 2000)))
            bits, t = lz78_encode(word)
            assert lz78_decode(bits, t, Alphabet.from_bytes(word)) == word

    def test_phrases_cover_input_exactly(self):
        # decode of any honest encode reproduces the input with no overlap,
        # so total phrase length equals the input length
        rng = random.Random(53)
        for _ in range(50):
            word = bytes(rng.choice(b"abc") for _ in range(rng.randint(1, 300)))
            bits, t = lz78_encode(word)
            decoded = lz78_decode(bits, t, Alphabet.from_bytes(word))
            assert decoded == word and len(decoded) == len(word)

    def test_dangling_reference_rejected(self):
        # first phrase cannot reference entry 1: nothing exists yet
        alphabet = Alphabet.from_bytes(b"ab")
        bad = BitString.from_str("10")  # 1-bit pointer=1, 1-bit symbol=a
        with pytest.raises(CorruptStreamError):
            lz78_decode(bad, 1, alphabet)
        # 1-bit pointer=0, 2-bit symbol index 3 of a 3-symbol alphabet
        with pytest.raises(CorruptStreamError):
            lz78_decode(BitString.from_str("011"), 1, Alphabet.from_bytes(b"abc"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lz78_encode(b"")

    def test_bits_must_hold_exactly_the_phrases(self):
        word = b"abracadabra"
        bits, t = lz78_encode(word)
        alphabet = Alphabet.from_bytes(word)
        extra = BitString.from_str(bits.to01() + "0")
        with pytest.raises(TrailingGarbageError):
            lz78_decode(extra, t, alphabet)
        with pytest.raises(TruncationError):
            lz78_decode(BitString.from_str(bits.to01()[:-1]), t, alphabet)

    def test_negative_phrase_count_rejected(self):
        with pytest.raises(ValueError):
            lz78_decode(BitString.from_str(""), -1, Alphabet.from_bytes(b"a"))
