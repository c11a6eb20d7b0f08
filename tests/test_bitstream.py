import random

import pytest

from eahc.bitstream import _SPLICE, EMPTY, BitReader, BitString, BitWriter
from eahc.errors import TruncationError


class TestBitString:
    def test_empty_is_identity_for_concat(self):
        bits = BitString.from_str("1011")
        w = BitWriter()
        w.write_bits(EMPTY)
        w.write_bits(bits)
        w.write_bits(EMPTY)
        assert w.getvalue() == bits
        assert len(EMPTY) == 0

    def test_round_trip_through_int(self):
        bits = BitString.from_str("0001011")
        assert bits.uint() == 0b0001011
        assert BitString.from_int(bits.uint(), 7) == bits

    def test_rejects_nonzero_padding(self):
        with pytest.raises(ValueError):
            BitString(b"\xff", 4)
        assert BitString(b"\xf0", 4).to01() == "1111"

    def test_rejects_wrong_byte_count(self):
        with pytest.raises(ValueError):
            BitString(b"\x00\x00", 4)
        with pytest.raises(ValueError):
            BitString(b"", -1)

    def test_from_int_rejects_overflow(self):
        with pytest.raises(ValueError):
            BitString.from_int(4, 2)
        with pytest.raises(ValueError):
            BitString.from_int(5, -1)

    def test_from_str_rejects_other_characters(self):
        for text in ("012", "0b1", "1_0", " 1"):  # int(text, 2) parses the last three
            with pytest.raises(ValueError, match="only '0' and '1'"):
                BitString.from_str(text)

    def test_hash_and_eq(self):
        assert BitString.from_str("101") == BitString.from_str("101")
        assert BitString.from_str("101") != BitString.from_str("1010")
        assert hash(BitString.from_str("101")) == hash(BitString.from_str("101"))
        assert BitString.from_int(0, 1) != "0"

    def test_repr_elides_long_strings(self):
        assert repr(BitString.from_str("101")) == "BitString('101')"
        assert repr(BitString.from_int(0, 65)) == "BitString(<65 bits>)"


class TestReaderWriter:
    def test_write_then_read_concatenates(self):
        w = BitWriter()
        w.write_bits(BitString.from_str("101"))
        w.write_bits(BitString.from_str("11"))
        r = BitReader(w.getvalue())
        assert r.read_bits(5).to01() == "10111"

    def test_read_zero_bits_is_empty(self):
        r = BitReader(BitString.from_str("1"))
        assert r.read_bits(0) == EMPTY

    def test_read_past_end_raises(self):
        r = BitReader(BitString.from_str("10"))
        r.read_bits(2)
        with pytest.raises(TruncationError):
            r.read_uint(1)
        with pytest.raises(TruncationError):
            BitReader(BitString.from_str("10")).read_uint(3)
        with pytest.raises(ValueError):
            BitReader(b"a").read_uint(-1)

    @pytest.mark.parametrize("skip", [0, 3])
    def test_negative_width_leaves_the_cursor(self, skip):
        for read in ("read_uint", "read_bits"):
            r = BitReader(b"\xa5")
            r.read_uint(skip)
            with pytest.raises(ValueError, match="^width must be >= 0$"):
                getattr(r, read)(-1)
            assert r.remaining() == 8 - skip
            assert r.read_bits(8 - skip) == BitString.from_int(0xA5 & 0xFF >> skip, 8 - skip)

    def test_aligned_write_copies_whole_bytes(self, monkeypatch):
        # from a byte boundary, only the final partial byte goes through
        # write_uint; the general path would take one call per _SPLICE bits
        widths = []
        write_uint = BitWriter.write_uint

        def counted(self, value, width):
            widths.append(width)
            write_uint(self, value, width)

        monkeypatch.setattr(BitWriter, "write_uint", counted)
        bits = BitString(b"\xa5" * ((1 << 20) - 1) + b"\xa0", (8 << 20) - 3)
        w = BitWriter()
        w.write_bits(bits)
        assert len(widths) <= 1
        assert w.getvalue() == bits

    def test_final_byte_zero_padded(self):
        w = BitWriter()
        w.write_bits(BitString.from_str("11"))
        assert w.getvalue().to_bytes() == b"\xc0"

    @staticmethod
    def _chunked_round_trip(bits, write_step, read_step):
        w = BitWriter()
        pos = 0
        while pos < len(bits):
            step = write_step(len(bits) - pos)
            w.write_bits(BitString.from_str(bits[pos : pos + step]))
            pos += step
        written = w.getvalue()
        assert written.to01() == bits
        r = BitReader(written)
        got = ""
        while r.remaining():
            got += r.read_bits(read_step(r.remaining())).to01()
        assert got == bits

    def test_random_chunked_round_trips(self):
        rng = random.Random(3)

        def step(left):
            return rng.randint(1, left)

        for _ in range(150):
            bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 200)))
            self._chunked_round_trip(bits, step, step)
        # longer than two unaligned-copy chunks, and copied whole after a
        # 3-bit write or a 5-bit read, so each chunk starts mid-byte
        bits = "".join(rng.choice("01") for _ in range(2 * _SPLICE + 77))
        n = len(bits)
        self._chunked_round_trip(
            bits, lambda left: 3 if left == n else left, lambda left: 5 if left == n else left
        )

    def test_aligned_odd_reads_match_slow_path(self):
        rng = random.Random(5)
        data = bytes(rng.randrange(256) for _ in range(64))
        for _ in range(300):
            start = 8 * rng.randint(0, 40)
            count = rng.randint(1, 8 * 64 - start)
            fast = BitReader(data)
            fast.read_bits(start)
            slow = BitReader(data)
            slow.read_uint(start)
            got = fast.read_bits(count)
            assert got == BitString.from_int(slow.read_uint(count), count)
            assert fast.remaining() == 8 * 64 - start - count

    def test_write_uint_matches_bit_writes(self):
        rng = random.Random(4)
        for _ in range(200):
            width = rng.randint(0, 40)
            value = rng.randrange(1 << width) if width else 0
            w = BitWriter()
            w.write_uint(value, width)
            assert w.getvalue() == BitString.from_int(value, width)

    def test_write_uint_rejects_overflow(self):
        with pytest.raises(ValueError):
            BitWriter().write_uint(8, 3)
