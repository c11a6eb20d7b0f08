import dataclasses
import hashlib
import random
import tracemalloc

import pytest

from eahc import codec
from eahc.adaptive_code import Alphabet
from eahc.bitstream import EMPTY, BitString
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
from oracles import SAMPLE_200, assert_component_identities, reference_stream_decode

W9 = b"abccdbbab"


def _long_code_word() -> bytes:
    """An order-1 input whose context 0x00 has 14 successors with
    Fibonacci counts, so its longest codeword is 13 bits."""
    fib = [1, 1]
    while len(fib) < 14:
        fib.append(fib[-1] + fib[-2])
    successors = [s for t, f in enumerate(fib) for s in [t + 1] * f]
    random.Random(44).shuffle(successors)
    return bytes(b for s in successors for b in (0, s))


def _full_alphabet_word() -> bytes:
    """1,500 seeded bytes in which all 256 byte values occur."""
    rng = random.Random(47)
    symbols = list(range(256)) + [rng.randrange(256) for _ in range(1500 - 256)]
    rng.shuffle(symbols)
    return bytes(symbols)


LONG_CODE_WORD = _long_code_word()
REFERENCE_ERRORS = {
    "truncated": TruncationError,
    "corrupt": CorruptStreamError,
    "trailing": TrailingGarbageError,
}


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
        counts = codec._successor_counts(SAMPLE_200, 2, header.alphabet)
        counts[next(j for j in range(len(payload.context_map)) if j not in counts)] = {}
        context_map, successor_map, _, _ = codec._write_model(header, counts)
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

    def test_symbol_missing_from_empty_data_rejected(self):
        # "a" framed with length 0: the alphabet holds a symbol no data uses
        payload, header = encode(b"a", 1)
        blob = serialize(payload, dataclasses.replace(header, length=0))
        with pytest.raises(CorruptHeaderError):
            decompress(blob)

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


class TestContextIndex:
    def test_window_inverts_context_index(self):
        cases = [(j, m, n) for m in range(1, 6) for n in range(1, 4) for j in range(m**n)]
        cases += [(0, 256, 3), (256**3 - 1, 256, 3)]
        for j, m, n in cases:
            window = codec._window(j, m, n)
            assert len(window) == n
            assert codec._context_index(window, m) == j


class TestDecodeTables:
    def test_long_codewords_use_the_bitwise_fallback(self):
        payload, header = deserialize(compress(LONG_CODE_WORD, 1))
        longest, table = payload._tables[1][0]
        assert longest == 13 > codec.TABLE_BITS
        assert isinstance(table, dict)
        assert decode(payload, header) == LONG_CODE_WORD

    @pytest.mark.parametrize(
        "word, order",
        [(SAMPLE_200, 1), (SAMPLE_200, 2), (LONG_CODE_WORD, 1), (W9 * 5, 2)],
        ids=["sample200-1", "sample200-2", "long-code-1", "w9x5-2"],
    )
    def test_damaged_streams_match_bitwise_reference(self, word, order):
        payload, header = encode(word, order)
        bits = payload.stream.to01()
        rng = random.Random(45)
        streams = []
        for k in rng.sample(range(len(bits)), min(len(bits), 200)):
            streams.append(BitString.from_str(bits[:k]))
            flipped = bits[:k] + "10"[int(bits[k])] + bits[k + 1 :]
            streams.append(BitString.from_str(flipped))
        for stream in streams:
            damaged = dataclasses.replace(payload, stream=stream)
            expected = reference_stream_decode(damaged, header)
            if isinstance(expected, bytes):
                assert decode(damaged, header) == expected
            else:
                with pytest.raises(REFERENCE_ERRORS[expected]):
                    decode(damaged, header)

    def test_decompress_builds_tables_once(self, monkeypatch):
        blob = compress(SAMPLE_200, 2)
        calls = []
        for name in ("_read_model", "_build_codes", "_scan_set_bits"):
            original = getattr(codec, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(codec, name, counted)
        assert decompress(blob) == SAMPLE_200
        # one model read, scanning each map once, and one table build
        assert sorted(calls) == [
            "_build_codes",
            "_read_model",
            "_scan_set_bits",
            "_scan_set_bits",
        ]

    def test_replaced_payload_rebuilds_its_tables(self):
        payload, header = deserialize(compress(W9, 1))
        bits = payload.freq_table.to01()
        replaced = dataclasses.replace(
            payload, freq_table=BitString.from_str("11" + bits[2:])
        )
        assert replaced._tables is None
        with pytest.raises(CorruptHeaderError):
            decode(replaced, header)
        assert decode(dataclasses.replace(payload), header) == W9


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
        for cut in (3, 10, len(blob) - 1):
            with pytest.raises(TruncationError):
                deserialize(blob[:cut])

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
        ],
    )
    def test_serialize_rejects_unframeable_fields(self, field, value):
        payload, header = encode(W9, 1)
        if field == "freq_width":
            payload = dataclasses.replace(payload, freq_width=value)
        else:
            header = dataclasses.replace(header, **{field: value})
        with pytest.raises(ValueError, match=field):
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
    must hold is that nothing but a CodecError escapes, and that an
    alphabet out of ascending order, which encode never writes, is caught.
    """

    def test_mutants_raise_only_codec_errors(self):
        rng = random.Random(7)
        words = [W9, SAMPLE_200, b"ab", bytes(rng.choices(b"stuvwxyz", k=300))]
        scrambled = 0
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
                    try:
                        decoded = decompress(mutant)
                    except CodecError as exc:
                        if out_of_order:
                            assert isinstance(exc, CorruptHeaderError)
                    else:
                        assert not out_of_order
                        assert isinstance(decoded, bytes)
        assert scrambled > 0
