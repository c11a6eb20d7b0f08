"""Bit-level strings, readers and writers.

Bits are packed most-significant-bit first within each byte; a final
partial byte is zero-padded.  A finished BitString is immutable, so it can
be shared freely across threads; readers and writers are single-owner
cursors.

`write_bits` and `read_bits` copy whole bytes while the cursor is
byte-aligned (on read, once, with the bits past the end cleared); every
other bit goes through `write_uint`/`read_uint` at most `_SPLICE` bits at a
time, so no copy turns more than 8 KiB of a component into one integer.
"""

from __future__ import annotations

from .errors import TruncationError

_SPLICE = 1 << 16  # bits per integer in an unaligned copy; a multiple of 8


class BitString:
    """An immutable sequence of bits backed by zero-padded bytes."""

    __slots__ = ("_data", "_nbits")

    def __init__(self, data: bytes, nbits: int):
        if nbits < 0:
            raise ValueError("bit length must be >= 0")
        if len(data) != (nbits + 7) // 8:
            raise ValueError(f"{len(data)} bytes cannot hold exactly {nbits} bits")
        pad = -nbits % 8
        if pad and data[-1] & ((1 << pad) - 1):
            raise ValueError("padding bits must be zero")
        self._data = bytes(data)
        self._nbits = nbits

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitString":
        """Pack the low `width` bits of a nonnegative integer, MSB first."""
        if width < 0 or value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        pad = -width % 8
        return cls((value << pad).to_bytes((width + 7) // 8, "big"), width)

    @classmethod
    def from_str(cls, bits: str) -> "BitString":
        """Build from a text string of '0' and '1' characters."""
        if bits and set(bits) - {"0", "1"}:
            raise ValueError("bit string may contain only '0' and '1'")
        return cls.from_int(int(bits, 2) if bits else 0, len(bits))

    def uint(self) -> int:
        """The bits read as a big-endian unsigned integer (0 for empty)."""
        return int.from_bytes(self._data, "big") >> (-self._nbits % 8)

    def to_bytes(self) -> bytes:
        """The backing bytes, final partial byte zero-padded."""
        return self._data

    def to01(self) -> str:
        """Render as a text string of '0' and '1' characters."""
        return format(self.uint(), f"0{self._nbits}b") if self._nbits else ""

    def __len__(self) -> int:
        return self._nbits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._nbits == other._nbits and self._data == other._data

    def __hash__(self) -> int:
        return hash((self._data, self._nbits))

    def __repr__(self) -> str:
        if self._nbits <= 64:
            return f"BitString({self.to01()!r})"
        return f"BitString(<{self._nbits} bits>)"


EMPTY = BitString(b"", 0)


class BitWriter:
    """Accumulates bits MSB-first; the final byte is zero-padded on output."""

    def __init__(self):
        self._buf = bytearray()
        self._acc = 0
        self._accbits = 0

    def __len__(self) -> int:
        return len(self._buf) * 8 + self._accbits

    def write_uint(self, value: int, width: int) -> None:
        """Append the low `width` bits of a nonnegative integer."""
        if width < 0 or value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc = (self._acc << width) | value
        nbits = self._accbits + width
        rem = nbits & 7
        nbytes = nbits >> 3
        if nbytes:
            self._buf += (acc >> rem).to_bytes(nbytes, "big")
            acc &= (1 << rem) - 1
        self._acc = acc
        self._accbits = rem

    def write_bits(self, bits: BitString) -> None:
        """Append every bit of an existing BitString."""
        data, n = bits.to_bytes(), len(bits)
        done = 0
        if self._accbits == 0:
            done = n & ~7
            self._buf += memoryview(data)[: done >> 3]
        for start in range(done, n, _SPLICE):
            stop = min(start + _SPLICE, n)
            chunk = int.from_bytes(data[start >> 3 : (stop + 7) >> 3], "big")
            self.write_uint(chunk >> (-stop % 8), stop - start)

    def getvalue(self) -> BitString:
        """Snapshot of everything written so far, the buffer copied once."""
        tail = bytes([self._acc << (8 - self._accbits)] if self._accbits else [])
        return BitString(b"".join((self._buf, tail)), len(self))


class BitReader:
    """Sequential cursor over a BitString or raw bytes."""

    def __init__(self, source: BitString | bytes):
        if isinstance(source, BitString):
            self._data = source.to_bytes()
            self._nbits = len(source)
        else:
            self._data = bytes(source)
            self._nbits = len(self._data) * 8
        self._pos = 0

    def remaining(self) -> int:
        return self._nbits - self._pos

    def _end(self, width: int) -> int:
        """The cursor after `width` more bits; raises if they are not there."""
        if width < 0:
            raise ValueError("width must be >= 0")
        end = self._pos + width
        if end > self._nbits:
            raise TruncationError(f"needed {width} bits, only {self.remaining()} remain")
        return end

    def read_uint(self, width: int) -> int:
        """Read `width` bits as a big-endian unsigned integer."""
        end = self._end(width)
        chunk = self._data[self._pos >> 3 : (end + 7) >> 3]
        value = int.from_bytes(chunk, "big") >> (-end % 8)
        self._pos = end
        return value & ((1 << width) - 1)

    def read_bits(self, count: int) -> BitString:
        """Read `count` bits into a new BitString."""
        end = self._end(count)
        if count and self._pos & 7 == 0:
            start, stop = self._pos >> 3, (end + 7) >> 3
            last = bytes((self._data[stop - 1] & (0xFF << (-count % 8)) & 0xFF,))
            self._pos = end
            return BitString(b"".join((memoryview(self._data)[start : stop - 1], last)), count)
        parts = []
        for start in range(self._pos, end, _SPLICE):
            width = min(_SPLICE, end - start)
            value = self.read_uint(width) << (-width % 8)
            parts.append(value.to_bytes((width + 7) >> 3, "big"))
        return BitString(b"".join(parts), count)
