"""Reference coders the adaptive codec is measured against.

Both report payload bits only (no codebook or dictionary headers): the
whole-string Huffman size is the optimal prefix-code cost of the symbol
frequencies, and the LZ78 size charges every phrase a fixed-width
(pointer, symbol) pair.
"""

from __future__ import annotations

from collections import Counter

from .adaptive_code import Alphabet
from .bitstream import BitReader, BitString, BitWriter
from .errors import CorruptStreamError, TrailingGarbageError
from .huffman import code_pairs


def huffman_stream_length(word: bytes) -> int:
    """Bits needed to Huffman-code `word` with one global code.

    Frequencies are taken in alphabet (ascending byte) order; the
    codebook itself is not counted.  Raises ValueError for empty input.
    """
    counts = Counter(word)
    freqs = [counts[s] for s in Alphabet.from_bytes(word)]
    return sum(f * length for f, (_, length) in zip(freqs, code_pairs(freqs)))


def _widths(phrase_count: int, alphabet_size: int) -> tuple[int, int]:
    # fixed pointer width log2(t+1), symbol width log2(m)
    return (phrase_count.bit_length(), (alphabet_size - 1).bit_length())


def lz78_encode(word: bytes) -> tuple[BitString, int]:
    """Dictionary-phrase parse of `word`: (encoded bits, phrase count).

    Each phrase is the longest dictionary match plus one extension
    symbol, emitted as a fixed-width (pointer, symbol) pair.  Phrase k
    adds entry k to a dictionary keyed by (entry number, byte), so no
    phrase is built as bytes.  Input that ends inside entry k re-emits
    phrase k, the one that added it, so every phrase has both fields.
    Raises ValueError for empty input.
    """
    alphabet = Alphabet.from_bytes(word)
    dictionary: dict[tuple[int, int], int] = {}
    phrases: list[tuple[int, int]] = []
    entry = 0  # the entry matched so far; 0 is the empty phrase
    for sym in word:
        if (entry, sym) in dictionary:
            entry = dictionary[entry, sym]
        else:
            phrases.append((entry, alphabet.index(sym)))
            dictionary[entry, sym] = len(phrases)
            entry = 0
    if entry:
        phrases.append(phrases[entry - 1])

    t = len(phrases)
    pointer_width, symbol_width = _widths(t, len(alphabet))
    out = BitWriter()
    for pointer, sym_index in phrases:
        out.write_uint(pointer, pointer_width)
        out.write_uint(sym_index, symbol_width)
    return out.getvalue(), t


def lz78_decode(bits: BitString, phrase_count: int, alphabet: Alphabet) -> bytes:
    """Invert lz78_encode given the phrase count and alphabet.

    Raises ValueError for a negative phrase count, CorruptStreamError for
    a phrase that names no entry or symbol, TruncationError when the bits
    run out mid-phrase, and TrailingGarbageError when bits remain after
    `phrase_count` phrases.
    """
    if phrase_count < 0:
        raise ValueError("phrase count must be >= 0")
    pointer_width, symbol_width = _widths(phrase_count, len(alphabet))
    reader = BitReader(bits)
    entries: list[bytes] = []
    out = bytearray()
    for _ in range(phrase_count):
        pointer = reader.read_uint(pointer_width)
        sym_index = reader.read_uint(symbol_width)
        if sym_index >= len(alphabet):
            raise CorruptStreamError(f"symbol index {sym_index} outside the alphabet")
        sym = alphabet.symbol(sym_index)
        if pointer > len(entries):
            raise CorruptStreamError(
                f"phrase references entry {pointer} of {len(entries)}"
            )
        phrase = (entries[pointer - 1] if pointer else b"") + bytes([sym])
        entries.append(phrase)
        out += phrase
    if reader.remaining():
        left = reader.remaining()
        raise TrailingGarbageError(f"{left} bits left after {phrase_count} phrases")
    return bytes(out)
