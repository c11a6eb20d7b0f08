import copy
import itertools
import random

import pytest

from eahc.adaptive_code import (
    Alphabet,
    CodeTable,
    decode_with_table,
    extend,
    validate_prefix_condition,
)
from eahc.bitstream import EMPTY, BitString
from eahc.errors import (
    CorruptStreamError,
    TableIncompleteError,
    TrailingGarbageError,
    TruncationError,
)

A, B, C = ord("a"), ord("b"), ord("c")

# order-2 table over {a,b,c}: column per context, every column a prefix code
TABLE1_COLUMNS = {
    b"a":  {A: "00", B: "10", C: "11"},
    b"b":  {A: "11", B: "00", C: "01"},
    b"c":  {A: "10", B: "11", C: "00"},
    b"aa": {A: "00", B: "11", C: "10"},
    b"ab": {A: "11", B: "01", C: "00"},
    b"ac": {A: "10", B: "00", C: "11"},
    b"ba": {A: "01", B: "00", C: "11"},
    b"bb": {A: "10", B: "11", C: "00"},
    b"bc": {A: "11", B: "01", C: "00"},
    b"ca": {A: "11", B: "10", C: "00"},
    b"cb": {A: "11", B: "00", C: "10"},
    b"cc": {A: "00", B: "10", C: "11"},
    b"":   {A: "00", B: "11", C: "10"},
}


def make_table(columns=TABLE1_COLUMNS, order=2, alphabet=(A, B, C)):
    return CodeTable(
        Alphabet(alphabet),
        order,
        {
            ctx: {sym: BitString.from_str(code) for sym, code in column.items()}
            for ctx, column in columns.items()
        },
    )


@pytest.fixture(scope="module")
def table1():
    return make_table()


class TestAlphabet:
    def test_from_bytes_is_sorted_and_distinct(self):
        alpha = Alphabet.from_bytes(b"banana")
        assert alpha.to_bytes() == b"abn"
        assert alpha.index(ord("n")) == 2
        assert alpha.symbol(0) == ord("a")

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Alphabet([])
        with pytest.raises(ValueError):
            Alphabet([1, 1])
        with pytest.raises(ValueError):
            Alphabet([300])
        with pytest.raises(ValueError):
            Alphabet.from_bytes(b"")


class TestCodeTable:
    @pytest.mark.parametrize(
        "order, columns",
        [
            (0, {b"": {A: "0", B: "10", C: "11"}}),
            (1, {b"ab": {A: "0", B: "10", C: "11"}}),
            (1, {b"d": {A: "0", B: "10", C: "11"}}),
            (1, {b"a": {A: "0", B: "1"}}),
            (1, {b"a": {A: "", B: "10", C: "11"}}),
        ],
        ids=[
            "order-0",
            "context-longer-than-order",
            "context-outside-alphabet",
            "column-missing-a-symbol",
            "empty-codeword",
        ],
    )
    def test_rejects_malformed_tables(self, order, columns):
        with pytest.raises(ValueError):
            make_table(columns, order=order)


class TestExtend:
    def test_known_string(self, table1):
        assert extend(table1, b"abacca").to01() == "001011111100"

    def test_empty_string(self, table1):
        assert extend(table1, b"") == EMPTY

    def test_single_symbol_uses_empty_context(self, table1):
        assert extend(table1, b"a").to01() == "00"

    def test_length_additivity(self, table1):
        rng = random.Random(21)
        for _ in range(50):
            word = bytes(rng.choice(b"abc") for _ in range(rng.randint(0, 40)))
            total = sum(
                len(table1.context(word[max(0, t - 2) : t])[word[t]])
                for t in range(len(word))
            )
            assert len(extend(table1, word)) == total

    def test_context_discipline(self, table1):
        # re-derive the encoding with explicit window slicing
        rng = random.Random(22)
        for _ in range(50):
            word = bytes(rng.choice(b"abc") for _ in range(rng.randint(1, 30)))
            manual = "".join(
                table1.context(word[max(0, t - 2) : t])[word[t]].to01()
                for t in range(len(word))
            )
            assert extend(table1, word).to01() == manual

    def test_missing_symbol_raises(self):
        columns = {ctx: dict(col) for ctx, col in TABLE1_COLUMNS.items()}
        table = make_table(columns)
        with pytest.raises(TableIncompleteError):
            extend(table, b"abd")
        with pytest.raises(TableIncompleteError):  # no column for context "a"
            extend(make_table({b"": TABLE1_COLUMNS[b""]}, order=1), b"ab")


class TestValidatePrefixCondition:
    def test_full_table_passes(self, table1):
        assert validate_prefix_condition(table1) is True

    def test_prefix_violation_fails(self):
        columns = {
            b"": {A: "0", B: "01", C: "11"},
        }
        assert validate_prefix_condition(make_table(columns, order=1)) is False

    def test_duplicate_codewords_fail(self):
        columns = {
            b"": {A: "00", B: "00", C: "1"},
        }
        assert validate_prefix_condition(make_table(columns, order=1)) is False

    def test_single_symbol_alphabet_passes(self):
        table = CodeTable(
            Alphabet([A]),
            1,
            {b"": {A: BitString.from_str("0")}, b"a": {A: BitString.from_str("0")}},
        )
        assert validate_prefix_condition(table) is True


class TestDecodeWithTable:
    def test_inverts_known_string(self, table1):
        assert decode_with_table(table1, BitString.from_str("001011111100"), 6) == b"abacca"

    def test_empty(self, table1):
        assert decode_with_table(table1, EMPTY, 0) == b""

    def test_single_symbol(self, table1):
        assert decode_with_table(table1, BitString.from_str("00"), 1) == b"a"

    def test_trailing_garbage(self, table1):
        with pytest.raises(TrailingGarbageError):
            decode_with_table(table1, BitString.from_str("0000"), 1)

    def test_truncated_stream(self, table1):
        with pytest.raises(TruncationError):
            decode_with_table(table1, BitString.from_str("0"), 1)

    def test_table_unchanged_by_use(self):
        # the decoders are built at construction, so using a table never
        # mutates it and one table can be shared
        table = make_table()
        built = copy.deepcopy(vars(table))
        word = b"abaccbbca"
        assert decode_with_table(table, extend(table, word), len(word)) == word
        assert vars(table) == built

    def test_context_is_read_only(self):
        # a column written through context() would leave extend and the
        # decoder built at construction disagreeing
        table = make_table()
        with pytest.raises(TypeError):
            table.context(b"a")[B] = BitString.from_str("11")
        assert extend(table, b"ab").to01() == "0010"

    def test_undecodable_bits(self):
        columns = {b"": {A: "00", B: "01", C: "10"}}  # "11" unused
        table = make_table(columns, order=1)
        with pytest.raises(CorruptStreamError):
            decode_with_table(table, BitString.from_str("11"), 1)
        with pytest.raises(TableIncompleteError):  # no column for context "a"
            decode_with_table(table, BitString.from_str("0000"), 2)
        with pytest.raises(ValueError):
            decode_with_table(table, EMPTY, -1)


def random_prefix_table(rng, alphabet, order):
    """Random full-binary-tree codes per context; independent of huffman."""

    def random_codes(symbols):
        if len(symbols) == 1:
            return {symbols[0]: "0"}
        codes = {}
        stack = [(list(symbols), "")]
        while stack:
            group, prefix = stack.pop()
            if len(group) == 1:
                codes[group[0]] = prefix or "0"
                continue
            cut = rng.randint(1, len(group) - 1)
            stack.append((group[:cut], prefix + "0"))
            stack.append((group[cut:], prefix + "1"))
        return codes

    symbols = list(alphabet)
    contexts: dict[bytes, dict[int, BitString]] = {}
    all_contexts = [b""]
    for length in range(1, order + 1):
        all_contexts += [
            bytes(combo) for combo in itertools.product(symbols, repeat=length)
        ]
    for ctx in all_contexts:
        shuffled = symbols[:]
        rng.shuffle(shuffled)
        contexts[ctx] = {
            sym: BitString.from_str(code)
            for sym, code in random_codes(shuffled).items()
        }
    return CodeTable(alphabet, order, contexts)


class TestRoundTripProperty:
    def test_random_tables_round_trip(self):
        # behavioral form of the prefix-condition theorem: the extension
        # of any per-context prefix code is injective, so decoding works
        rng = random.Random(23)
        for _ in range(60):
            m = rng.randint(1, 4)
            order = rng.randint(1, 2)
            alphabet = Alphabet(rng.sample(range(256), m))
            table = random_prefix_table(rng, alphabet, order)
            assert validate_prefix_condition(table)
            for _ in range(5):
                word = bytes(
                    rng.choice(alphabet.to_bytes())
                    for _ in range(rng.randint(0, 64))
                )
                encoded = extend(table, word)
                assert decode_with_table(table, encoded, len(word)) == word
                bits = encoded.to01()
                for cut in range(len(bits)):
                    with pytest.raises(TruncationError):
                        decode_with_table(
                            table, BitString.from_str(bits[:cut]), len(word)
                        )
                with pytest.raises(TrailingGarbageError):
                    decode_with_table(
                        table,
                        BitString.from_str(bits + rng.choice("01")),
                        len(word),
                    )
