import copy
import itertools
import random
from collections import Counter

import pytest

from eahc.adaptive_code import Alphabet, CodeTable, decode_with_table, extend
from eahc.bitstream import EMPTY, BitString
from eahc.errors import (
    CodecError,
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

    def test_equality_hash_and_repr(self):
        assert Alphabet(b"ab") != b"ab"
        assert Alphabet(b"ab") == Alphabet([97, 98])
        assert hash(Alphabet(b"ab")) == hash(Alphabet([97, 98]))
        assert repr(Alphabet(b"ab")) == "Alphabet([97, 98])"


class TestCodeTable:
    @pytest.mark.parametrize(
        "order, columns",
        [
            (0, {b"": {A: "0", B: "10", C: "11"}}),
            (1, {b"ab": {A: "0", B: "10", C: "11"}}),
            (1, {b"d": {A: "0", B: "10", C: "11"}}),
            (1, {b"a": {A: "0", B: "1"}}),
            (1, {b"a": {A: "", B: "10", C: "11"}}),
            (1, {b"": {A: "0", B: "01", C: "11"}}),
            (1, {b"": {A: "00", B: "00", C: "1"}}),
        ],
        ids=[
            "order-0",
            "context-longer-than-order",
            "context-outside-alphabet",
            "column-missing-a-symbol",
            "empty-codeword",
            "prefix-violation",
            "duplicate-codewords",
        ],
    )
    def test_rejects_malformed_tables(self, order, columns):
        with pytest.raises(ValueError):
            make_table(columns, order=order)

    def test_lone_empty_codeword_refused(self):
        # a one-symbol column is a prefix code whatever its codeword, so
        # only the nonempty rule refuses ""
        with pytest.raises(ValueError, match="^codewords must be nonempty$"):
            make_table({b"": {A: ""}}, order=1, alphabet=(A,))

    @pytest.mark.parametrize(
        "column",
        [{A: "00", B: "00", C: "1"}, {A: "0", B: "01", C: "11"}],
        ids=["duplicate-codewords", "prefix-violation"],
    )
    def test_non_prefix_column_names_its_context(self, column):
        # unchecked, a/b -> "00" in every context decoded b"aca" as b"bcb"
        columns = {ctx: dict(TABLE1_COLUMNS[b""]) for ctx in (b"", b"a", b"b", b"c")}
        columns[b"c"] = column
        with pytest.raises(ValueError, match=r"^context b'c' codewords must form a prefix code$"):
            make_table(columns, order=1)

    def test_bytes_like_context_keys(self):
        # a context is kept and named as bytes, whatever bytes-like key the
        # caller gave (a dict key must be hashable: memoryview, not bytearray)
        columns = {memoryview(ctx): col for ctx, col in TABLE1_COLUMNS.items()}
        assert extend(make_table(columns), b"abacca").to01() == "001011111100"
        columns[memoryview(b"c")] = {A: "0", B: "01", C: "11"}
        with pytest.raises(ValueError, match=r"^context b'c' codewords"):
            make_table(columns)

    def test_membership_and_read_only_columns(self, table1):
        assert b"" in table1 and b"ab" in table1 and b"abc" not in table1
        # the table copies each column, so the caller's map cannot change it
        column = {sym: BitString.from_str(code) for sym, code in TABLE1_COLUMNS[b""].items()}
        table = CodeTable(Alphabet((A, B, C)), 1, {b"": column})
        column[A] = BitString.from_str("11")
        assert extend(table, b"a").to01() == "00"

    def test_single_symbol_alphabet_passes(self):
        table = CodeTable(
            Alphabet([A]),
            1,
            {b"": {A: BitString.from_str("0")}, b"a": {A: BitString.from_str("0")}},
        )
        assert extend(table, b"aaa").to01() == "000"
        assert decode_with_table(table, BitString.from_str("000"), 3) == b"aaa"


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
                len(TABLE1_COLUMNS[word[max(0, t - 2) : t]][word[t]])
                for t in range(len(word))
            )
            assert len(extend(table1, word)) == total

    def test_context_discipline(self, table1):
        # re-derive the encoding with explicit window slicing
        rng = random.Random(22)
        for _ in range(50):
            word = bytes(rng.choice(b"abc") for _ in range(rng.randint(1, 30)))
            manual = "".join(
                TABLE1_COLUMNS[word[max(0, t - 2) : t]][word[t]]
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

    def test_undecodable_bits(self):
        columns = {b"": {A: "00", B: "01", C: "10"}}  # "11" unused
        table = make_table(columns, order=1)
        # "11" ends just as its unmatched bits reach the longest codeword's
        # 2, and is undecodable; one bit fewer, the stream ends first
        with pytest.raises(CorruptStreamError, match="undecodable codeword in context b''"):
            decode_with_table(table, BitString.from_str("11"), 1)
        with pytest.raises(TruncationError, match="codeword stream ended early"):
            decode_with_table(table, BitString.from_str("1"), 1)
        with pytest.raises(TableIncompleteError):  # no column for context "a"
            decode_with_table(table, BitString.from_str("0000"), 2)
        with pytest.raises(ValueError):
            decode_with_table(table, EMPTY, -1)


def random_prefix_table(rng, alphabet, order, spare=0):
    """Random full-binary-tree codes per context; independent of huffman.

    Each tree has `spare` more leaves than the alphabet has symbols, and
    those leaves stay unassigned, so with `spare` > 0 no code is complete.
    """

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
        leaves = symbols + [-1 - k for k in range(spare)]
        rng.shuffle(leaves)
        contexts[ctx] = {
            sym: BitString.from_str(code)
            for sym, code in random_codes(leaves).items()
            if sym >= 0
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

    def test_incomplete_codes_round_trip(self):
        # a column whose code tree keeps leaves no symbol uses is still a
        # prefix code, so decoding inverts extend
        rng = random.Random(24)
        for _ in range(60):
            m = rng.randint(1, 4)
            order = rng.randint(1, 2)
            alphabet = Alphabet(rng.sample(range(256), m))
            table = random_prefix_table(rng, alphabet, order, spare=rng.randint(1, 4))
            for _ in range(5):
                word = bytes(
                    rng.choice(alphabet.to_bytes())
                    for _ in range(rng.randint(0, 64))
                )
                assert decode_with_table(table, extend(table, word), len(word)) == word


class TestFuzz:
    def test_damaged_streams_raise_only_codec_errors(self):
        # a flipped bit, a cut or appended bits either decode to `count`
        # alphabet symbols or raise a CodecError; nothing else escapes
        rng = random.Random(25)
        outcomes = Counter()
        for _ in range(300):
            alphabet = Alphabet(rng.sample(range(256), rng.randint(2, 4)))
            order = rng.randint(1, 2)
            table = random_prefix_table(rng, alphabet, order, spare=rng.randint(0, 3))
            word = bytes(
                rng.choice(alphabet.to_bytes()) for _ in range(rng.randint(1, 40))
            )
            bits = extend(table, word).to01()
            for _ in range(5):
                damage = rng.randrange(3)
                if damage == 0:
                    at = rng.randrange(len(bits))
                    mutant = bits[:at] + "10"[int(bits[at])] + bits[at + 1 :]
                elif damage == 1:
                    mutant = bits[: rng.randrange(len(bits))]
                else:
                    mutant = bits + "".join(rng.choices("01", k=rng.randint(1, 8)))
                try:
                    decoded = decode_with_table(
                        table, BitString.from_str(mutant), len(word)
                    )
                except CodecError as exc:
                    outcomes[type(exc).__name__] += 1
                else:
                    assert len(decoded) == len(word) and set(decoded) <= set(alphabet)
                    outcomes["decoded"] += 1
        assert sum(outcomes.values()) == 1500
        assert set(outcomes) == {
            "decoded",
            "CorruptStreamError",
            "TrailingGarbageError",
            "TruncationError",
        }
