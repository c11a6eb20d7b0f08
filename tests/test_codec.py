import bisect
import contextlib
import dataclasses
import gc
import hashlib
import random
import signal
import struct
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Iterable

import pytest

from eahc import codec
from eahc.adaptive_code import Alphabet
from eahc.bitstream import EMPTY, BitString, BitWriter
from eahc.codec import (
    EahPayload,
    Header,
    compress,
    decode,
    decompress,
    deserialize,
    encode,
    leahn_length,
    serialize,
)
from eahc.errors import (
    CodecError,
    CorruptHeaderError,
    CorruptStreamError,
    TrailingGarbageError,
    TruncationError,
)
from eahc.graph import assign_codewords, build_graph
from oracles import (
    SAMPLE_200,
    assert_component_identities,
    de_bruijn_word,
    long_code_word,
    reference_stream_decode,
    scan_transition_counts,
    set_bit_positions,
)

W9 = b"abccdbbab"


def _full_alphabet_word() -> bytes:
    """1,500 seeded bytes in which all 256 byte values occur."""
    rng = random.Random(47)
    symbols = list(range(256)) + [rng.randrange(256) for _ in range(1500 - 256)]
    rng.shuffle(symbols)
    return bytes(symbols)


def _markov_text(seed: int, size: int) -> bytes:
    """`size` bytes of an order-2 Markov source over 64 symbols: each
    context has 12 successors in a random rank order, and rank r is drawn
    with weight 1 / (r + 1)**1.1."""
    rng = random.Random(seed)
    weights = [1 / (r + 1) ** 1.1 for r in range(12)]
    successors = [rng.sample(range(64), 12) for _ in range(64 * 64)]
    a, b = rng.randrange(64), rng.randrange(64)
    out = bytearray(size)
    for p in range(size):
        c = rng.choices(successors[a * 64 + b], weights)[0]
        out[p] = 48 + c
        a, b = b, c
    return bytes(out)


def _model(word: bytes, order: int) -> Counter:
    """The codec's flat model of `word`: pair key j*m + i -> count."""
    alphabet = Alphabet.from_bytes(word)
    t = word.translate(codec._index_table(alphabet))
    return codec._successor_counts(t, len(alphabet), order)


def _rows(model: dict[int, int], m: int) -> dict[int, dict[int, int]]:
    """A flat model grouped by context: context index -> {successor index
    -> count}, context index ascending, each row in symbol order."""
    rows: dict[int, dict[int, int]] = {}
    for key in sorted(model):
        j, i = divmod(key, m)
        rows.setdefault(j, {})[i] = model[key]
    return rows


def _write_model(header: Header, head: bytes, counts: dict[int, int]) -> tuple:
    """`_write_v1` of a flat model, in the context-major order it takes."""
    keys, sizes = codec._by_context(counts, len(header.alphabet))
    return codec._write_v1(header, head, counts, keys, sizes)


def _model_without_stream() -> bytes:
    """m = 13 at order 3: all 2,197 contexts are followed by all 13 symbols
    with Fibonacci counts, so every decoder table would hold 4,096
    entries, but the container ends before the stream."""
    fib = [1, 1]
    while len(fib) < 13:
        fib.append(fib[-1] + fib[-2])
    counts = {j * 13 + i: f for j in range(13**3) for i, f in enumerate(fib)}
    header = Header(3, Alphabet(bytes(range(13))), 3 + 13**3 * sum(fib))
    prefix, context_map, successor_map, freq_table, width = _write_model(
        header, bytes(3), counts
    )
    payload = EahPayload(prefix, context_map, successor_map, freq_table, EMPTY, width)
    return serialize(payload, header)


def _context_map_without_successor_map() -> bytes:
    """m = 256 at order 2 with all 65,536 contexts marked, and nothing
    after the context map."""
    full = BitString(b"\xff" * 8192, 65_536)
    payload = EahPayload(BitString(bytes(2), 16), full, EMPTY, EMPTY, EMPTY, 0)
    return serialize(payload, Header(2, Alphabet(bytes(range(256))), 1000))


LONG_CODE_WORD = long_code_word(14)
TABLE_BITS_WORD = long_code_word(13)
REFERENCE_ERRORS = {
    "truncated": TruncationError,
    "corrupt": CorruptStreamError,
    "trailing": TrailingGarbageError,
}


def _prefixing_ranks(codes: list, longest: int, slots: Iterable[int]) -> list[int]:
    """Per slot of a `longest`-bit table, the rank of the codeword in
    `codes` whose bits begin it, or len(codes) when none does, found by
    trying every codeword length."""
    rank = {code: r for r, code in enumerate(codes)}
    lengths = sorted({length for _, length in codes})
    found = []
    for slot in slots:
        hits = (rank.get((slot >> (longest - k), k)) for k in lengths)
        found.append(next((r for r in hits if r is not None), len(codes)))
    return found


def _decoder_tables(payload: EahPayload, header: Header) -> dict:
    """The decoder entries, by context index, that `_build_codes` makes of
    the model `_read_v1` reads off the payload's own fields."""
    _, rows = codec._read_v1(header, payload.freq_width, codec._field_reader(payload))
    tables, _ = codec._build_codes(header.order, rows, len(payload.stream))
    return tables


def _flip(bits: str, *positions: int) -> str:
    """`bits`, a '0'/'1' string, with the bits at `positions` inverted."""
    out = list(bits)
    for k in positions:
        out[k] = "10"[int(out[k])]
    return "".join(out)


@contextlib.contextmanager
def _deadline(seconds: float):
    """Raise TimeoutError inside the block once `seconds` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _assert_decodes_like_reference(payload, header, streams):
    """`decode` of `payload` with each of `streams` in place of its own
    gives the bytes, or raises the error class, that
    `reference_stream_decode` gives."""
    for stream in streams:
        damaged = dataclasses.replace(payload, stream=BitString.from_str(stream))
        expected = reference_stream_decode(damaged, header)
        if isinstance(expected, bytes):
            assert decode(damaged, header) == expected
        else:
            with pytest.raises(REFERENCE_ERRORS[expected]):
                decode(damaged, header)


class TestEncodeGoldens:
    def test_w9_components(self):
        payload, header = encode(W9, 1)
        assert payload.prefix.to01() == "00"
        assert payload.context_map.to01() == "1111"
        assert payload.successor_map.to01() == "0100110101100010"
        assert payload.freq_table.to01() == "01100101010101"
        assert payload.freq_width == 2
        assert payload.stream.to01() == "0101001100"
        assert header == Header(1, header.alphabet, 9)
        assert header.alphabet.to_bytes() == b"abcd"

    def test_sample_200_component_lengths(self):
        payload, _ = encode(SAMPLE_200, 1)
        assert [len(c) for c in payload.components()] == [3, 5, 25, 48, 235]
        assert payload.freq_width == 6

    def test_short_input(self):
        payload, header = encode(b"ab", 3)
        assert payload.prefix.to01() == "01"
        assert payload.context_map.to01() == "0" * 8
        assert payload.successor_map == EMPTY
        assert payload.freq_table == EMPTY
        assert payload.stream == EMPTY
        assert header.length == 2

    def test_single_symbol_alphabet(self):
        payload, header = encode(b"aaaa", 1)
        assert payload.prefix == EMPTY  # zero-width indices
        assert payload.context_map.to01() == "1"
        assert payload.successor_map.to01() == "1"
        assert payload.freq_table.to01() == "11"
        assert payload.stream.to01() == "000"
        assert decode(payload, header) == b"aaaa"

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            encode(b"", 1)

    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_bytes_like_input(self, kind):
        # the input is read as bytes, whatever bytes-like object holds it
        assert encode(kind(SAMPLE_200), 2) == encode(SAMPLE_200, 2)
        assert compress(kind(SAMPLE_200), 2) == compress(SAMPLE_200, 2)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            encode(b"ab", 0)

    def test_order_must_fit_its_header_byte(self):
        # one symbol spans 1**256 contexts, inside the budget
        with pytest.raises(ValueError, match="255"):
            encode(b"a", 256)

    def test_stream_length_matches_graph_cost(self):
        # the codec and the transition graph must price the stream equally
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 3)
            word = bytes(rng.choice(b"abcd") for _ in range(rng.randint(1, 60)))
            payload, _ = encode(word, n)
            g = build_graph(word, n)
            assign_codewords(g)
            cost = sum(
                label.frequency * len(label.codeword)
                for label in g.labels.values()
            )
            assert len(payload.stream) == cost

    def test_determinism(self):
        blob = compress(SAMPLE_200, 1)
        for _ in range(3):
            assert compress(SAMPLE_200, 1) == blob


class TestGoldenContainers:
    """SHA-256 of whole containers: any change to the bytes `compress`
    writes, in any component or header field, fails here."""

    @pytest.mark.parametrize(
        "word, order, digest",
        [
            (SAMPLE_200, 1, "c6646a643ae9504a06fe1e6111a0b5fdc154b360ba1fd05adc31d2e3f54eff94"),
            (SAMPLE_200, 2, "4ee2a2bce05a54185cabc4d14a1391f6a10b54778df835a70404e8479e4b8672"),
            (SAMPLE_200, 3, "2dbec616f3dd4905ae9689f02ea1d1c5a1bd63906713404cb43285028ab9bffe"),
            (W9, 1, "cd4b51fce70972a28a399325945e1888040063ac64fce558f2e1227729c841e5"),
            (LONG_CODE_WORD, 1, "95b47674040d427dea7538b0066126375b61cd6f5e4af004074c2ab4810d9aa4"),
            (b"ab", 3, "83dc37cb2e87544ca41ddde243f6467776345ac7391f6a884cf5c0de25e14959"),
            (b"aaaa", 1, "672090cc90fac01acc2b4ed7ce84c9535b5e4c0d65d646a440c187ebc75cfe77"),
            (
                random.Random(46).randbytes(4096),
                2,
                "59014ff3cefeb8dc0e85d5c5a5d494c483ee10e629881553f3ef17c757f7e015",
            ),
            (
                _full_alphabet_word(),
                3,
                "88ce2fda26a3e8817fc2d7f5cb1f94a4314a93649b0793867315253281c44e2a",
            ),
        ],
        ids=[
            "sample200-1",
            "sample200-2",
            "sample200-3",
            "w9-1",
            "long-code-1",
            "ab-3",
            "aaaa-1",
            "random-4k-2",
            "full-alphabet-3",
        ],
    )
    def test_container_digest(self, word, order, digest):
        blob = compress(word, order)
        assert hashlib.sha256(blob).hexdigest() == digest
        assert decompress(blob) == word


class TestDecode:
    def test_w9_round_trip(self):
        payload, header = encode(W9, 1)
        assert decode(payload, header) == W9

    def test_sample_200_round_trip(self):
        payload, header = encode(SAMPLE_200, 1)
        assert decode(payload, header) == SAMPLE_200

    def test_short_input_round_trip(self):
        payload, header = encode(b"ab", 3)
        assert decode(payload, header) == b"ab"

    def test_degenerate_single_byte(self):
        payload, header = encode(b"a", 1)
        assert leahn_length(b"a", 1) == 1  # the lone all-zero context map bit
        assert decode(payload, header) == b"a"

    @pytest.mark.parametrize("order", [1, 2])
    def test_decode_holds_its_output_twice(self, order):
        # the stream loop holds the index buffer it appends to and the
        # returned copy, plus the stream and the buffer's growth slack; a
        # third copy would pass 3x.  The model is read before tracing starts
        word = _markov_text(72, 128 * 1024)
        payload, header = deserialize(compress(word, order))
        stream = payload.stream
        head, rows = codec._read_v1(header, payload.freq_width, codec._field_reader(payload))
        tables, _ = codec._build_codes(order, rows, len(stream))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            decoded = codec._decode_stream(header, head, tables, stream.to_bytes(), 0, len(stream))
            assert decoded == word
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 3 * len(word)

    def test_short_input_components_checked(self):
        payload, header = encode(b"ab", 3)
        for name, value in [
            ("successor_map", BitString.from_str("1")),
            ("freq_table", BitString.from_str("101")),
            ("freq_width", 7),
        ]:
            with pytest.raises(CorruptHeaderError):
                decode(dataclasses.replace(payload, **{name: value}), header)

    def test_wider_frequency_fields_rejected(self):
        # consistent counts in fields one bit wider than the largest needs
        payload, header = encode(W9, 1)
        bits = payload.freq_table.to01()
        w = payload.freq_width
        wide = "".join("0" + bits[k : k + w] for k in range(0, len(bits), w))
        replaced = dataclasses.replace(
            payload, freq_table=BitString.from_str(wide), freq_width=w + 1
        )
        with pytest.raises(CorruptHeaderError):
            decode(replaced, header)

    def test_marked_context_without_successor_rejected(self):
        payload, header = encode(SAMPLE_200, 2)
        counts = _model(SAMPLE_200, 2)
        keys, sizes = codec._by_context(counts, len(header.alphabet))
        # one more context in the map, with a run of no successors
        empty = next(j for j in range(len(payload.context_map)) if j not in sizes)
        sizes = dict(sorted({**sizes, empty: 0}.items()))
        _, context_map, successor_map, _, _ = codec._write_v1(
            header, b"", counts, keys, sizes
        )
        replaced = dataclasses.replace(
            payload, context_map=context_map, successor_map=successor_map
        )
        with pytest.raises(CorruptHeaderError):
            decode(replaced, header)

    def test_all_zero_context_map_rejected(self):
        payload, header = encode(W9, 1)
        broken = EahPayload(
            payload.prefix,
            BitString(b"\x00", 4),
            payload.successor_map,
            payload.freq_table,
            payload.stream,
            payload.freq_width,
        )
        with pytest.raises(CorruptHeaderError):
            decode(broken, header)

    def test_truncated_stream_rejected(self):
        payload, header = encode(W9, 1)
        short = BitString.from_str(payload.stream.to01()[:-1])
        broken = EahPayload(
            payload.prefix,
            payload.context_map,
            payload.successor_map,
            payload.freq_table,
            short,
            payload.freq_width,
        )
        with pytest.raises(TruncationError):
            decode(broken, header)

    def test_stream_bound_refuses_the_model_before_the_loop(self):
        # two lone contexts claim 2**40 codewords: past the 2-bit stream
        # every load reads zeros, which decode to "a" in context "a", so
        # only the stream bound in `_build_codes` keeps decode from
        # running 2**40 steps
        b = BitString.from_str
        counts = BitString.from_int((2**40 - 1) << 40 | 1, 80)  # two 40-bit fields
        payload = EahPayload(b("1"), b("11"), b("1100"), counts, b("00"), 40)
        header = Header(1, Alphabet(b"ab"), 2**40 + 1)
        with _deadline(5), pytest.raises(TruncationError) as caught:
            decode(payload, header)
        assert str(caught.value) == "stream needs more than the 2 bits left"

    def test_trailing_stream_bits_rejected(self):
        payload, header = encode(W9, 1)
        extra = BitString.from_str(payload.stream.to01() + "0")
        broken = EahPayload(
            payload.prefix,
            payload.context_map,
            payload.successor_map,
            payload.freq_table,
            extra,
            payload.freq_width,
        )
        with pytest.raises(TrailingGarbageError):
            decode(broken, header)

    def test_inconsistent_frequency_sum_rejected(self):
        payload, header = encode(W9, 1)
        bad_header = Header(header.order, header.alphabet, header.length + 1)
        with pytest.raises(CorruptHeaderError):
            decode(payload, bad_header)

    def test_alphabet_out_of_order_rejected(self):
        # decoded, this header would turn b"abbab" into b"baaba"; no
        # container can hold it, so it cannot be built
        payload, header = encode(b"abbab", 1)
        with pytest.raises(ValueError, match="not strictly ascending"):
            decode(payload, dataclasses.replace(header, alphabet=Alphabet(b"ba")))

    @pytest.mark.parametrize("order", [0, 256])
    def test_order_outside_the_container_rejected(self, order):
        # at order 0 these fields decode to b"ab" unless the order is checked
        # before any component is read: the header cannot be built
        b = BitString.from_str
        payload = EahPayload(b(""), b("1"), b("11"), b("11"), b("01"), 1)
        with pytest.raises(ValueError, match=f"got {order}"):
            decode(payload, Header(order, Alphabet(b"ab"), 2))

    @pytest.mark.parametrize(
        "word, order, width",
        [
            (_full_alphabet_word(), 2, 1),
            (long_code_word(11), 1, 7),
            (long_code_word(12), 1, 8),
            (LONG_CODE_WORD, 1, 9),
        ],
        ids=["width-1", "width-7", "width-8", "width-9"],
    )
    def test_frequency_fields_across_byte_boundaries(self, word, order, width):
        payload, header = encode(word, order)
        assert payload.freq_width == width
        assert len(payload.freq_table) > 8 * width  # fields cross byte boundaries
        head, pairs = codec._read_v1(header, width, codec._field_reader(payload))
        assert head == word[:order].translate(codec._index_table(header.alphabet))
        model = dict(pairs)
        m = len(header.alphabet)
        flat = {j * m + i: f for j, row in model.items() for i, f in row.items()}
        assert flat == _scanned_model(word, order)
        # context index descending, each row in symbol order
        assert list(model) == sorted(model, reverse=True)
        assert all(list(row) == sorted(row) for row in model.values())
        bits = payload.freq_table.to01()
        k = len(bits) // width // 2 * width  # the middle field
        zeroed = bits[:k] + "0" * width + bits[k + width :]
        broken = dataclasses.replace(payload, freq_table=BitString.from_str(zeroed))
        with pytest.raises(CorruptHeaderError, match="zero frequency"):
            decode(broken, header)

    def test_symbol_missing_from_empty_data_rejected(self):
        # "a" framed with length 0: the alphabet holds a symbol no data uses
        payload, header = encode(b"a", 1)
        blob = serialize(payload, dataclasses.replace(header, length=0))
        with pytest.raises(CorruptHeaderError):
            decompress(blob)

    def test_prefix_index_outside_the_alphabet_rejected(self):
        # the prefix indices 0, 1, 3 at width 2 under the alphabet "abc":
        # unchecked, index 3 decodes to the byte 3, outside the alphabet
        header = Header(3, Alphabet(b"abc"), 3)
        payload = EahPayload(
            BitString.from_str("000111"), BitString.from_int(0, 27), EMPTY, EMPTY, EMPTY, 0
        )
        message = "symbol index 3 outside alphabet of size 3"
        with pytest.raises(CorruptHeaderError, match=message):
            decode(payload, header)
        with pytest.raises(CorruptHeaderError, match=message):
            decompress(serialize(payload, header))

    def test_symbol_missing_from_prefix_and_successors_rejected(self):
        # the prefix "ab" at order 3 (indices 0, 1 at width 2), framed with
        # the alphabet "abc", whose "c" neither the prefix nor a successor uses
        header = Header(3, Alphabet(b"abc"), 2)
        payload = EahPayload(
            BitString.from_str("0001"), BitString(bytes(4), 27), EMPTY, EMPTY, EMPTY, 0
        )
        with pytest.raises(CorruptHeaderError):
            decode(payload, header)
        with pytest.raises(CorruptHeaderError):
            decompress(serialize(payload, header))


def _key_cases(m: int) -> list[tuple[bytes, int]]:
    """(word, order) pairs over m symbols: a seeded 300-symbol word in
    which all m occur, at every order its m**n budget allows, and words
    no longer than their order, whose model and stream are empty."""
    rng = random.Random(48 + m)
    symbols = rng.sample(range(256), m)
    seq = symbols + rng.choices(symbols, k=300 - m)
    rng.shuffle(seq)
    word = bytes(seq)
    orders = [n for n in range(1, 256) if m**n <= codec.MAX_CONTEXT_BITS]
    short = [(word[:n], n) for n in (1, 2, orders[-1]) if n in orders]
    short += [(word[: n - 1], n) for n in (2, orders[-1]) if n in orders]
    return [(word, n) for n in orders] + short


def _scanned_model(word: bytes, order: int) -> dict[int, int]:
    """`scan_transition_counts` re-keyed to the flat model: the window and
    its successor read as a base-m number, j*m + i -> count."""
    index = {b: k for k, b in enumerate(sorted(set(word)))}
    model: dict[int, int] = {}
    for (window, successor, _), f in scan_transition_counts(word, order).items():
        key = 0
        for b in window + bytes((successor,)):
            key = key * len(index) + index[b]
        model[key] = f
    return model


def _write_uint_stream(word: bytes, order: int) -> BitString:
    """The stream as one `BitWriter.write_uint` per symbol writes it, with
    each context's codes taken from the position-scan model."""
    index = {b: k for k, b in enumerate(sorted(set(word)))}
    m = len(index)
    codes = {}
    for j, row in _rows(_scanned_model(word, order), m).items():
        pairs = codec._successor_codes(order, j, sorted(row.items()))
        codes[j] = {i: (value, length) for i, value, length in pairs}
    out = BitWriter()
    j = 0
    for b in word[:order]:
        j = j * m + index[b]
    for b in word[order:]:
        i = index[b]
        out.write_uint(*codes[j][i])
        j = (j % m ** (order - 1)) * m + i
    return out.getvalue()


KEY_ALPHABET_SIZES = [1, 2, 3, 4, 15, 16, 17, 64, 256]


class TestCompressPath:
    """The keys `_pair_keys` chains at C speed, packed while m**(2w) <=
    256, against position scans at every order around those widths."""

    @pytest.mark.parametrize("m", KEY_ALPHABET_SIZES)
    def test_counts_match_position_scan(self, m):
        for word, n in _key_cases(m):
            counts = _model(word, n)
            assert counts == _scanned_model(word, n), (m, n, len(word))
            assert bool(counts) == (len(word) > n)

    @pytest.mark.parametrize("m", KEY_ALPHABET_SIZES)
    def test_stream_matches_write_uint_loop(self, m):
        for word, n in _key_cases(m):
            payload, header = encode(word, n)
            assert payload.stream == _write_uint_stream(word, n), (m, n, len(word))
            if len(word) <= n:
                assert payload.stream == EMPTY
            if m**n <= 1 << 16:  # the reference scans the context map bit by bit
                assert reference_stream_decode(payload, header) == word

    def test_stream_longer_than_a_chunk(self):
        rng = random.Random(49)
        word = bytes(rng.choices(b"xyz", weights=(5, 3, 1), k=3 * codec._CHUNK))
        for n in (1, 2):
            payload, header = encode(word, n)
            assert len(word) - n > 2 * codec._CHUNK
            assert len(payload.stream) % 8
            assert payload.stream == _write_uint_stream(word, n)
            assert reference_stream_decode(payload, header) == word

    def test_compress_counts_once_and_builds_no_tables(self, monkeypatch):
        calls = []
        for name in ("_successor_counts", "_build_codes"):
            original = getattr(codec, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(codec, name, counted)
        blob = compress(SAMPLE_200, 2)
        assert calls == ["_successor_counts"]
        assert decompress(blob) == SAMPLE_200

    def test_stream_is_mapped_through_the_counted_model(self, monkeypatch):
        # the model `_successor_counts` returns becomes the codeword map:
        # every codeword of the stream is looked up in that one object
        looked_up = []

        class Model(Counter):
            def __getitem__(self, key):
                looked_up.append(value := super().__getitem__(key))
                return value

        models = []
        original = codec._successor_counts

        def kept(*args):
            models.append(Model(original(*args)))
            return models[-1]

        monkeypatch.setattr(codec, "_successor_counts", kept)
        payload, header = encode(SAMPLE_200, 2)
        (model,) = models
        assert set(model) == set(_scanned_model(SAMPLE_200, 2))
        codewords = [v for v in looked_up if isinstance(v, str)]
        assert len(codewords) == len(SAMPLE_200) - 2
        assert "".join(codewords) == payload.stream.to01()
        assert all(isinstance(v, str) for v in model.values())
        assert decode(payload, header) == SAMPLE_200

    def test_encode_packs_the_key_runs_once(self, monkeypatch):
        # both passes over the keys, the count and the stream, chain over
        # the same packed runs: b"a" at order 255 packs 8 levels of them
        calls = []
        original = codec._key_runs

        def counted(*args):
            calls.append(args[1:])
            return original(*args)

        monkeypatch.setattr(codec, "_key_runs", counted)
        word = b"a" * 1000
        payload, header = encode(word, 255)
        assert calls == [(1, 255)]
        assert payload.stream == _write_uint_stream(word, 255)
        assert decode(payload, header) == word

    def test_key_chain_depth_does_not_grow_with_order(self):
        # an unpacked chain is two maps per digit: 512 at (1, 255)
        for m in range(1, 257):
            t = bytes(k % m for k in range(300))
            for n in range(1, 256):
                if m**n > codec.MAX_CONTEXT_BITS:
                    break
                maps, stack = 0, [codec._pair_keys(t, m, n)]
                while stack:
                    obj = stack.pop()
                    if isinstance(obj, (map, tuple)):
                        maps += isinstance(obj, map)
                        stack.extend(gc.get_referents(obj))
                assert maps <= 14, (m, n, maps)  # 8 runs: n + 1 <= 256

    def test_high_order_key_chain_stays_small(self):
        # 256 digits per key: an unpacked chain of 256 map levels holds
        # tens of MiB of slices here
        word = b"a" * 100_000
        tracemalloc.start()
        try:
            blob = compress(word, 255)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        assert decompress(blob) == word


class TestContextIndex:
    def test_window_inverts_context_index(self):
        cases = [(j, m, n) for m in range(1, 6) for n in range(1, 4) for j in range(m**n)]
        cases += [(0, 256, 3), (256**3 - 1, 256, 3)]
        for j, m, n in cases:
            window = codec._window(j, m, n)
            assert len(window) == n
            assert codec._context_index(window, m) == j


class TestScanSetBits:
    """`_scan_set_bits` against a bit-by-bit reference, on maps that span
    several of the slices it masks at once, each map scanned alone and in
    place, inside set bits that the scan must not read."""

    SLICE_BITS = 8 * codec._SCAN_CHUNK

    @staticmethod
    def check(bits: BitString) -> None:
        expected = set_bit_positions(bits)
        nbits = len(bits)
        positions = codec._scan_set_bits(bits.to_bytes(), 0, nbits)
        assert list(positions) == expected
        assert codec._bitmap(positions, nbits) == bits
        for lead in (*range(1, 8), 13):
            # `lead` set bits before the map, then set bits to the end of
            # its last byte and through one byte more
            trail = 8 + -(lead + nbits) % 8
            value = ((1 << lead) - 1) << (nbits + trail)
            value |= bits.uint() << trail | ((1 << trail) - 1)
            data = value.to_bytes((lead + nbits + trail) // 8, "big")
            assert list(codec._scan_set_bits(data, lead, nbits)) == expected, lead

    @staticmethod
    def from_positions(positions, nbits: int) -> BitString:
        text = ["0"] * nbits
        for p in positions:
            text[p] = "1"
        return BitString.from_str("".join(text))

    @pytest.mark.parametrize("nbits", [0, 1, 7, 8, SLICE_BITS + 3])
    def test_empty_zero_and_full_maps(self, nbits):
        self.check(BitString(bytes((nbits + 7) // 8), nbits))
        self.check(BitString.from_int((1 << nbits) - 1, nbits))

    @pytest.mark.parametrize("density", [0.001, 0.01, 0.1, 0.5, 0.9])
    def test_random_maps(self, density):
        rng = random.Random(f"scan:{density}")
        for nbits in (13, 1021, 2 * self.SLICE_BITS + 5):
            positions = [p for p in range(nbits) if rng.random() < density]
            self.check(self.from_positions(positions, nbits))

    @pytest.mark.parametrize(
        "positions",
        [
            [SLICE_BITS - 1, SLICE_BITS],
            [SLICE_BITS - 8, SLICE_BITS + 7],
            [SLICE_BITS - 8, SLICE_BITS - 1, SLICE_BITS + 1, SLICE_BITS + 6],
            [SLICE_BITS - 1, 2 * SLICE_BITS - 1, 2 * SLICE_BITS],
        ],
        ids=["adjacent-bits", "byte-edges", "two-each-side", "two-boundaries"],
    )
    def test_set_bits_either_side_of_a_slice_boundary(self, positions):
        self.check(self.from_positions(positions, 2 * self.SLICE_BITS + 13))

    @pytest.mark.parametrize("nbits", [3, 8 * 5 + 3, SLICE_BITS + 8 * 5 + 3])
    def test_set_bit_in_the_final_padded_byte(self, nbits):
        self.check(self.from_positions([nbits - 1], nbits))
        self.check(self.from_positions([0, nbits - 3, nbits - 1], nbits))


class TestDecodeTables:
    def test_long_codewords_bisect_their_left_justified_starts(self):
        payload, header = deserialize(compress(LONG_CODE_WORD, 1))
        longest, (starts, by_start), lengths, _ = _decoder_tables(payload, header)[0]
        assert longest == 13 > codec.TABLE_BITS
        assert sorted(by_start) == list(range(len(lengths)))
        # the starts partition the 2**L slots: each codeword spans
        # 2**(L - length) of them, from its start to the next one's
        assert starts[0] == 0
        spans = [1 << (longest - lengths[r]) for r in by_start]
        assert list(starts[1:]) == [a + w for a, w in zip(starts, spans)][:-1]
        assert starts[-1] + spans[-1] == 1 << longest
        model = _rows(_model(LONG_CODE_WORD, 1), len(header.alphabet))
        _, freqs = codec._code_order(1, 0, sorted(model[0].items()))
        codes = codec.code_pairs(freqs)
        for slot in range(1 << longest):
            value, length = codes[by_start[bisect.bisect_right(starts, slot) - 1]]
            assert slot >> (longest - length) == value, slot
        assert decode(payload, header) == LONG_CODE_WORD

    def test_codewords_of_table_bits_use_a_table(self):
        payload, header = deserialize(compress(TABLE_BITS_WORD, 1))
        longest, ranks, _, _ = _decoder_tables(payload, header)[0]
        assert longest == codec.TABLE_BITS
        assert isinstance(ranks, bytes)
        assert decode(payload, header) == TABLE_BITS_WORD

    def test_equal_count_vectors_share_one_table(self, monkeypatch):
        word = random.Random(7).randbytes(4000)
        blob = compress(word, 2)
        model = _rows(_model(word, 2), len(Alphabet.from_bytes(word)))
        # at order 2 the code order is ascending symbol order
        vectors = {
            j: tuple(f for _, f in sorted(row.items()))
            for j, row in model.items()
            if len(row) > 1
        }
        calls = []
        original = codec.code_pairs

        def counted(freqs):
            calls.append(freqs)
            return original(freqs)

        payload, header = deserialize(blob)
        monkeypatch.setattr(codec, "code_pairs", counted)
        tables = _decoder_tables(payload, header)
        assert len(calls) == len(set(vectors.values())) < len(vectors)
        first: dict[tuple, tuple] = {}
        for j, vector in vectors.items():
            _, ranks, lengths, _ = tables[j]
            shared = first.setdefault(vector, (ranks, lengths))
            assert ranks is shared[0] and lengths is shared[1]
        assert decode(payload, header) == word

    def test_long_codewords_of_the_package_sources(self):
        # real text reaches the bitwise fallback: at order 1 the rarest
        # successors of common characters take more than TABLE_BITS bits
        paths = sorted(Path(codec.__file__).parent.glob("*.py"))
        paths += sorted(Path(__file__).parent.glob("*.py"))
        word = b"".join(path.read_bytes() for path in paths)
        for n in (1, 2):
            payload, header = deserialize(compress(word, n))
            if n == 1:
                tables = _decoder_tables(payload, header)
                assert max(entry[0] for entry in tables.values()) > codec.TABLE_BITS
            assert decode(payload, header) == word, n

    @pytest.mark.parametrize("f", [1, 5])
    def test_lone_entries_come_from_the_ranked_table(self, f):
        # one codeword "0" leaves slot 1 unprefixed: rank 1, past `lengths`
        table = codec._ranked_table((f,))
        assert table == (1, b"\x00\x01", b"\x01", f)
        for i, entry in enumerate(codec._LONE):
            assert entry[:3] == table[:3] and entry[3][0] == i

    def test_ranks_send_each_slot_to_its_prefixing_codeword(self):
        rng = random.Random(61)
        vectors = [
            tuple(rng.randint(1, 1 << rng.randint(0, 9)) for _ in range(k))
            for k in range(1, 41)
            for _ in range(3)
        ]
        fib = [1, 1]
        while len(fib) < 16:  # Fibonacci counts: a 15-bit longest codeword
            fib.append(fib[-1] + fib[-2])
        vectors += [tuple(fib), tuple(rng.sample(fib, len(fib))), (1,) * 256]
        assert codec._ranked_table(tuple(fib))[0] == 15 > codec.TABLE_BITS
        for freqs in vectors:
            codes = codec.code_pairs(freqs)
            longest, ranks, lengths, _ = codec._ranked_table(freqs)
            assert lengths == bytes(length for _, length in codes)
            assert longest == max(lengths)
            if longest <= codec.TABLE_BITS:
                slots = range(1 << longest)
                assert ranks == bytes(_prefixing_ranks(codes, longest, slots)), freqs
                continue
            starts, by_start = ranks
            slots = rng.sample(range(1 << longest), 2000) + [(1 << longest) - 1]
            edges = [s + d for s in starts for d in (-1, 0, 1)]
            slots += [s for s in edges if 0 <= s < 1 << longest]
            found = [by_start[bisect.bisect_right(starts, slot) - 1] for slot in slots]
            assert found == _prefixing_ranks(codes, longest, slots), freqs

    def test_context_followed_by_every_byte(self):
        # byte 0 is followed by all 256 byte values, the one code whose
        # ranks fill a slot byte: rank 255 is a codeword's, not past `lengths`
        word = bytes(b for s in range(256) for b in (0, s))
        payload, header = deserialize(compress(word, 1))
        longest, ranks, lengths, syms = _decoder_tables(payload, header)[0]
        assert len(lengths) == 256 and sorted(syms) == list(range(256))
        assert isinstance(ranks, bytes) and len(ranks) == 1 << longest
        assert set(ranks) == set(range(256))
        assert decode(payload, header) == word

    def test_undecodable_slot_named(self):
        # context 0 (a) has the lone successor b, coded "0": the stream "1"
        # reads slot 1, which no codeword prefixes
        payload, header = encode(b"ab", 1)
        assert payload.stream == BitString.from_str("0")
        payload = dataclasses.replace(payload, stream=BitString.from_str("1"))
        message = "undecodable codeword in context 0"
        with pytest.raises(CorruptStreamError, match=message):
            decode(payload, header)
        with pytest.raises(CorruptStreamError, match=message):
            decompress(serialize(payload, header))

    def test_missing_context_named(self):
        # prefix "ab" enters context 1, whose lone successor a leads to
        # context 2, which has no row
        header = Header(2, Alphabet(b"ab"), 4)
        *fields, width = _write_model(header, bytes((0, 1)), {1 * 2 + 0: 2})
        payload = EahPayload(*fields, BitString.from_int(0, 2), width)
        message = "no code table for context index 2"
        with pytest.raises(CorruptStreamError, match=message):
            decode(payload, header)
        with pytest.raises(CorruptStreamError, match=message):
            decompress(serialize(payload, header))

    def test_count_vectors_are_keyed_after_the_repeat_reorder(self):
        # contexts a and b are each followed by a 3 times and by b and c
        # once: equal rows, but the repeat successor codes last, so their
        # count tuples in code order differ
        word = b"bbcbaaaabacba"
        model = _rows(_model(word, 1), 3)
        assert model[0] == model[1] == {0: 3, 1: 1, 2: 1}
        pairs = sorted(model[0].items())
        assert codec._code_order(1, 0, pairs) == ((1, 2, 0), (1, 1, 3))
        assert codec._code_order(1, 1, pairs) == ((0, 2, 1), (3, 1, 1))
        payload, header = deserialize(compress(word, 1))
        tables = _decoder_tables(payload, header)
        assert tables[0][1] != tables[1][1]
        assert decode(payload, header) == word

    def test_built_codes_price_the_encoded_stream(self):
        rng = random.Random(53)
        skewed = bytes(rng.choices(range(8), weights=range(1, 9), k=3000))
        cases = [(skewed, n) for n in (1, 2, 3)]
        cases += [(rng.randbytes(2000), 1), (SAMPLE_200, 2), (W9 * 5, 3)]
        cases += [(LONG_CODE_WORD, 1), (TABLE_BITS_WORD, 1)]
        for word, n in cases:
            payload, header = encode(word, n)
            read = codec._field_reader(payload)
            _, pairs = codec._read_v1(header, payload.freq_width, read)
            _, stream_bits = codec._build_codes(n, pairs, len(payload.stream))
            assert stream_bits == len(payload.stream), (len(word), n)
            assert next(pairs, None) is None  # every pair taken as its entry is built

    def test_refill_covers_table_bits(self):
        # decode loads the stream _REFILL bits, whole bytes, at a time, as
        # many times as the table's longest codeword needs (the test below
        # runs it with one-byte loads)
        assert codec._REFILL % 8 == 0

    @pytest.mark.parametrize(
        "word, order",
        [(LONG_CODE_WORD, 1), (SAMPLE_200, 2)],
        ids=["long-code-1", "sample200-2"],
    )
    def test_byte_loads_refill_until_a_codeword_fits(self, monkeypatch, word, order):
        # one byte per load: a 13-bit codeword of LONG_CODE_WORD takes up to
        # two loads before its lookup
        monkeypatch.setattr(codec, "_REFILL", 8)
        payload, header = deserialize(compress(word, order))
        assert decode(payload, header) == word
        bits = payload.stream.to01()
        rng = random.Random(46)
        positions = set(rng.sample(range(len(bits)), min(len(bits), 150)))
        positions.update(range(max(len(bits) - 24, 0), len(bits)))
        streams = [damaged for k in sorted(positions) for damaged in (bits[:k], _flip(bits, k))]
        _assert_decodes_like_reference(payload, header, streams)

    @pytest.mark.parametrize(
        "word, order",
        [
            (SAMPLE_200, 1),
            (SAMPLE_200, 2),
            (LONG_CODE_WORD, 1),
            (TABLE_BITS_WORD, 1),
            (W9 * 5, 2),
        ],
        ids=["sample200-1", "sample200-2", "long-code-1", "table-bits-1", "w9x5-2"],
    )
    def test_damaged_streams_match_bitwise_reference(self, word, order):
        payload, header = encode(word, order)
        bits = payload.stream.to01()
        rng = random.Random(45)
        positions = set(rng.sample(range(len(bits)), min(len(bits), 200)))
        # and every bit of the last 64, where decode's loads reach the padding
        positions.update(range(max(len(bits) - 64, 0), len(bits)))
        streams = [damaged for k in sorted(positions) for damaged in (bits[:k], _flip(bits, k))]
        _assert_decodes_like_reference(payload, header, streams)

    def test_zeros_past_the_stream_are_a_truncation(self):
        # bb ends the input, so its context, index 5, has no row.  With bits
        # 22 and 25 flipped, the last codeword takes one zero bit past the
        # stream and decodes into bb: the stream ran out before the lookup
        # of context 5 failed
        payload, header = encode(b"dcdaccccabdcaabdccdbcdbddabb", 2)
        flipped = _flip(payload.stream.to01(), 22, 25)
        damaged = dataclasses.replace(payload, stream=BitString.from_str(flipped))
        assert reference_stream_decode(damaged, header) == "truncated"
        with pytest.raises(TruncationError):
            decode(damaged, header)
        with pytest.raises(TruncationError):
            decompress(serialize(damaged, header))
        # one more zero bit moves that failed lookup inside the stream
        longer = dataclasses.replace(payload, stream=BitString.from_str(flipped + "0"))
        assert reference_stream_decode(longer, header) == "corrupt"
        with pytest.raises(CorruptStreamError, match="no code table for context index 5"):
            decode(longer, header)

    def test_table_path_resumes_after_long_codewords(self):
        # every codeword of LONG_CODE_WORD's context 0 is found by bisection,
        # and every other context is a lone one, read through its table
        payload, header = deserialize(compress(LONG_CODE_WORD, 1))
        tables = _decoder_tables(payload, header)
        assert tables[0][0] > codec.TABLE_BITS
        assert all(tables[j][0] <= codec.TABLE_BITS for j in tables if j != 0)
        model = _rows(_model(LONG_CODE_WORD, 1), len(header.alphabet))
        lengths = {
            (j, i): length
            for j, row in model.items()
            for i, _, length in codec._successor_codes(1, j, sorted(row.items()))
        }
        ends = {}  # bit offset within a byte -> first long codeword ending there
        pos = 0
        for j, i in zip(LONG_CODE_WORD, LONG_CODE_WORD[1:]):  # index == byte
            pos += lengths[j, i]
            if j == 0:
                ends.setdefault(pos & 7, pos)
        assert pos == len(payload.stream) and sorted(ends) == list(range(8))
        assert decode(payload, header) == LONG_CODE_WORD
        # flip a long codeword's last two bits and the first three after it
        bits = payload.stream.to01()
        streams = [
            _flip(bits, k)
            for end in ends.values()
            for k in range(end - 2, min(end + 3, len(bits)))
        ]
        _assert_decodes_like_reference(payload, header, streams)

    def test_decompress_builds_tables_once(self, monkeypatch):
        blob = compress(SAMPLE_200, 2)
        calls = []
        names = ("_unpack", "_read_v1", "_build_codes", "_scan_set_bits", "_decode_stream")
        for name in (*names, "_field_reader", "deserialize", "decode"):
            original = getattr(codec, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(codec, name, counted)
        assert decompress(blob) == SAMPLE_200
        # one read of the prefix and the model, in place, scanning each map
        # once, one table build and one stream loop; no payload is built
        assert sorted(calls) == sorted((*names, "_scan_set_bits"))

    def test_repeated_decodes_agree(self):
        # decode reads only its payload's fields and its header's, so it
        # gives the same bytes each time, and under an equal header
        payload, header = deserialize(compress(SAMPLE_200, 2))
        assert decode(payload, header) == SAMPLE_200
        assert decode(payload, header) == SAMPLE_200
        assert decode(payload, dataclasses.replace(header)) == SAMPLE_200
        assert decode(payload, header) == SAMPLE_200


class TestContainer:
    def test_round_trip_bytes_identical(self):
        payload, header = encode(W9, 1)
        blob = serialize(payload, header)
        payload2, header2 = deserialize(blob)
        assert payload2 == payload
        assert header2 == header
        assert serialize(payload2, header2) == blob

    def test_compress_decompress(self):
        assert decompress(compress(SAMPLE_200, 1)) == SAMPLE_200
        assert decompress(compress(b"aaaa", 2)) == b"aaaa"

    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_bytes_like_containers(self, kind):
        # decompress reads the stream in place, as bytes, from any
        # bytes-like container
        blob = compress(SAMPLE_200, 2)
        assert decompress(kind(blob)) == SAMPLE_200
        assert deserialize(kind(blob)) == deserialize(blob)

    def test_bad_magic(self):
        blob = bytearray(compress(W9, 1))
        blob[3] = ord("2")
        with pytest.raises(CorruptHeaderError):
            deserialize(bytes(blob))

    def test_unsupported_version(self):
        blob = bytearray(compress(W9, 1))
        blob[4] = 99
        with pytest.raises(CorruptHeaderError):
            deserialize(bytes(blob))

    def test_truncated_container(self):
        blob = compress(W9, 1)
        header_end = 7 + len(set(W9)) + 9  # fixed fields, alphabet, h and width
        for cut in (*range(header_end + 1), len(blob) - 1):
            with pytest.raises(TruncationError):
                deserialize(blob[:cut])

    def test_stream_cut_short_refused_by_its_bound(self):
        # the codes built from the model price the stream before it is read
        with pytest.raises(TruncationError) as caught:
            deserialize(compress(SAMPLE_200, 1)[:-1])
        assert str(caught.value) == "stream needs more than the 231 bits left"

    def test_order_zero_container_refused_by_deserialize(self):
        # "ab" framed at order 0: Header's ValueError leaves deserialize as
        # a CorruptHeaderError, so decode is never handed the header
        lead = codec._LEAD.pack(codec.MAGIC, codec.VERSION, 0, 1)
        blob = lead + b"ab" + codec._TAIL.pack(2, 1) + b"\xfa"
        assert len(blob) == 19
        with pytest.raises(CorruptHeaderError, match="order must be between 1 and 255"):
            deserialize(blob)

    def test_length_beyond_the_container_refused_before_the_model(self, monkeypatch):
        # every codeword takes a bit at least, so 2**40 symbols cannot fit
        # in a few bytes; the header alone must refuse it
        blob = bytearray(compress(W9, 1))
        struct.pack_into("<Q", blob, 7 + len(set(W9)), 2**40)

        def unreachable(*args):
            raise AssertionError("_read_v1 ran")

        monkeypatch.setattr(codec, "_read_v1", unreachable)
        with pytest.raises(TruncationError):
            decompress(bytes(blob))

    def test_trailing_bytes_rejected(self):
        blob = compress(W9, 1)
        with pytest.raises(TrailingGarbageError):
            deserialize(blob + b"\x00")

    def test_nonzero_padding_rejected(self):
        payload, header = encode(W9, 1)
        blob = bytearray(serialize(payload, header))
        # total payload bits of the w9 encode leave padding in the last byte
        total = payload.total_bits()
        assert total % 8
        blob[-1] |= 1
        with pytest.raises(TrailingGarbageError):
            deserialize(bytes(blob))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("order", 0),
            ("order", 256),
            ("length", -1),
            ("length", 1 << 64),
            ("freq_width", 256),
            ("alphabet", Alphabet(b"dcba")),  # deserialize requires ascending
        ],
    )
    def test_serialize_rejects_unframeable_fields(self, field, value):
        # a field the container cannot hold is refused as it is built
        payload, header = encode(W9, 1)
        with pytest.raises(ValueError, match=field):
            if field == "freq_width":
                payload = dataclasses.replace(payload, freq_width=value)
            else:
                header = dataclasses.replace(header, **{field: value})
            serialize(payload, header)

    @pytest.mark.parametrize(
        "word, order, width", [(b"ab", 3, 5), (W9, 1, 0)], ids=["short-input", "zero"]
    )
    def test_width_byte_checked(self, word, order, width):
        # the frequency field width is 0 exactly when no successor is marked
        blob = bytearray(compress(word, order))
        blob[7 + len(set(word)) + 8] = width
        with pytest.raises(CorruptHeaderError):
            deserialize(bytes(blob))

    def test_corrupt_frequency_detected(self):
        payload, header = encode(W9, 1)
        bits = payload.freq_table.to01()
        flipped = "11" + bits[2:]  # first marked frequency 1 -> 3
        broken = EahPayload(
            payload.prefix,
            payload.context_map,
            payload.successor_map,
            BitString.from_str(flipped),
            payload.stream,
            payload.freq_width,
        )
        with pytest.raises(CorruptHeaderError):
            decode(broken, header)


class TestLeahnLength:
    def test_sample_200(self):
        assert leahn_length(SAMPLE_200, 1) == 316

    def test_matches_component_sum(self):
        rng = random.Random(42)
        for _ in range(20):
            word = bytes(rng.choice(b"ab") for _ in range(rng.randint(1, 50)))
            n = rng.randint(1, 3)
            payload, _ = encode(word, n)
            assert leahn_length(word, n) == payload.total_bits()


class TestRandomRoundTrips:
    def test_varied_alphabets_and_orders(self):
        rng = random.Random(43)
        for _ in range(60):
            h = rng.randint(1, 400)
            m = rng.randint(1, 256)
            alphabet = rng.sample(range(256), m)
            word = bytes(rng.choices(alphabet, k=h))
            for n in (1, 2, 3):
                payload, header = encode(word, n)
                assert_component_identities(payload, header)
                assert decode(payload, header) == word
                blob = serialize(payload, header)
                payload2, header2 = deserialize(blob)
                assert (payload2, header2) == (payload, header)
                assert serialize(payload2, header2) == blob

    def test_highly_repetitive_inputs(self):
        for word in (b"a" * 100, b"ab" * 50, b"aab" * 30, bytes(range(256))):
            for n in (1, 2, 3):
                assert decompress(compress(word, n)) == word


class TestContextBudget:
    def test_largest_map_encodes(self):
        payload, _ = encode(bytes(range(256)), 3)
        assert len(payload.context_map) == codec.MAX_CONTEXT_BITS == 256**3

    def test_largest_map_round_trip_peaks(self):
        # compress frees each component once it is written, so it holds the
        # writer's buffer and its one copy; decompress reads the model and
        # the stream in place, and copies no component out of the container
        word = bytes(range(256))
        blob = compress(word, 3)
        assert len(blob) > 2 << 20
        tracemalloc.start()
        try:
            assert compress(word, 3) == blob
            _, compress_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert decompress(blob) == word
            _, decompress_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert decompress_peak < 0.25 * len(blob)
        assert compress_peak < 2.5 * len(blob)

    def test_unaligned_map_round_trip_peaks(self):
        # a 21-bit prefix leaves the context map and everything after it off
        # a byte boundary: the writer copies them through bounded integers,
        # one component at a time, and decompress scans them in place
        word = bytes(range(128)) * 2
        blob = compress(word, 3)
        assert len(blob) == 264_403
        tracemalloc.start()
        try:
            assert compress(word, 3) == blob
            _, compress_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert decompress(blob) == word
            _, decompress_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert decompress_peak < 0.5 * len(blob)
        assert compress_peak < 2.5 * len(blob)

    def test_aligned_map_deserialize_peaks(self):
        # with a 24-bit prefix every component starts on a byte boundary,
        # so the public deserialize copies each one out of the container
        # whole, once, with no chunk list beside it
        word = bytes(range(256)) * 2
        blob = compress(word, 3)
        tracemalloc.start()
        try:
            payload, header = deserialize(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert decode(payload, header) == word
        assert peak <= 1.25 * len(blob)

    def test_order_2_markov_decompress_peaks(self):
        # the model read back is freed row by row as the tables are built,
        # so the two are never held whole at once, and the rows go over in
        # reading order, with no dict of them and no re-sort
        word = _markov_text(71, 32 * 1024)
        blob = compress(word, 2)
        tracemalloc.start()
        try:
            assert decompress(blob) == word
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * len(blob)

    def test_order_2_markov_compress_peaks(self):
        # the frequency table is written from the model's own keys in symbol
        # order, with no (position, count) tuple per marked pair
        word = _markov_text(71, 32 * 1024)
        tracemalloc.start()
        try:
            compress(word, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 85 * len(word)

    def test_every_context_distinct_compress_peaks(self):
        # B(2, 16) at order 16: 65,536 contexts, each with one successor, so
        # the model has a pair per position; it is held once, as the flat
        # count map that becomes the codeword map
        word = de_bruijn_word(2, 16)
        assert len(word) == 65_552
        tracemalloc.start()
        try:
            blob = compress(word, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 << 20
        assert decompress(blob) == word

    def test_order_2_random_bytes_decompress_peaks(self):
        # 14,435 contexts, 12,655 of them with one successor and a shared
        # entry, so the reader's rows and scratch set the peak
        word = random.Random(16384).randbytes(16384)
        blob = compress(word, 2)
        tracemalloc.start()
        try:
            assert decompress(blob) == word
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * len(blob)

    @pytest.mark.parametrize(
        "make, size, bound",
        [
            (_model_without_stream, 32_437, 64 << 10),
            (_context_map_without_successor_map, 8_466, 1 << 20),
        ],
        ids=["model-without-stream", "context-map-without-successor-map"],
    )
    def test_missing_components_refused_in_bounded_memory(self, make, size, bound):
        # the header and the first components claim far more than the
        # container holds; the reader must refuse it before it builds
        # what the missing bits would need
        blob = make()
        assert len(blob) == size
        tracemalloc.start()
        try:
            with pytest.raises(TruncationError):
                decompress(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_over_budget_refused_before_allocating(self):
        word = bytes(range(17)) * 2  # 17**6 contexts: a 2.9 MiB map
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=str(codec.MAX_CONTEXT_BITS)):
                encode(word, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(ValueError, match=str(codec.MAX_CONTEXT_BITS)):
            build_graph(word, 6)

    def test_small_alphabet_above_order_3(self):
        payload, _ = encode(SAMPLE_200, 4)
        assert len(payload.context_map) == 5**4
        assert decompress(compress(SAMPLE_200, 4)) == SAMPLE_200


class TestFuzz:
    """Seeded truncations and single bit flips of small containers.

    Format v1 has no checksum, so some mutants decode to wrong bytes; what
    must hold is that nothing but a CodecError escapes, that an alphabet
    out of ascending order, which encode never writes, is caught, and that
    no mutant makes decompress trace more than 1 MiB at its peak.
    """

    def test_mutants_raise_only_codec_errors(self):
        rng = random.Random(7)
        words = [W9, SAMPLE_200, b"ab", bytes(rng.choices(b"stuvwxyz", k=300))]
        scrambled = 0
        tracemalloc.start()
        try:
            for word in words:
                for order in (1, 2, 3):
                    blob = compress(word, order)
                    for _ in range(400):
                        if rng.random() < 0.25:
                            mutant = blob[: rng.randrange(len(blob))]
                        else:
                            flipped = bytearray(blob)
                            bit = rng.randrange(8 * len(blob))
                            flipped[bit >> 3] ^= 0x80 >> (bit & 7)
                            mutant = bytes(flipped)
                        # a whole header: 7 bytes, the alphabet, h and the width
                        m = mutant[6] + 1 if len(mutant) > 6 else 0
                        symbols = list(mutant[7 : 7 + m])
                        out_of_order = (
                            len(mutant) >= 7 + m + 9 and symbols != sorted(set(symbols))
                        )
                        scrambled += out_of_order
                        tracemalloc.reset_peak()
                        try:
                            decoded = decompress(mutant)
                        except CodecError as exc:
                            if out_of_order:
                                assert isinstance(exc, CorruptHeaderError)
                        else:
                            assert not out_of_order
                            assert isinstance(decoded, bytes)
                        _, peak = tracemalloc.get_traced_memory()
                        assert peak < 1 << 20
        finally:
            tracemalloc.stop()
        assert scrambled > 0
