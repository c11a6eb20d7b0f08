"""Huffman coding over frequency tuples with positional code assignment.

Every input position starts as a leaf; the two pending nodes with the
smallest totals are merged into a new internal node until one root
remains.  Codewords are read from the root down, so entry i of the result
always corresponds to frequency i of the input.

Tie-breaking is fully deterministic: among nodes with equal totals the
one created later merges first, and of the two nodes merged the one
created earlier takes bit 0.  Encoder and decoder must run the identical
rule to regenerate identical codewords.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Sequence


def code_pairs(freqs: Sequence[int]) -> list[tuple[int, int]]:
    """A prefix code for a sequence of positive frequencies.

    Returns one (value, length) pair per input frequency, positionally
    aligned: the codeword is the `length`-bit binary form of `value`.  A
    single frequency gets the one-bit codeword "0".  The total cost
    sum(f_i * l_i) is minimal over all prefix codes.
    """
    k = len(freqs)
    if k == 0:
        raise ValueError("frequency tuple must not be empty")
    if min(freqs) < 1:
        raise ValueError("frequencies must be >= 1")

    if k == 1:
        return [(0, 1)]
    if k == 2:
        return [(0, 1), (1, 1)]  # single merge, position order
    # heap keys (total, -node id): node ids count up in creation order, so
    # equal totals pop the later-created node first
    heap = [(f, -q) for q, f in enumerate(freqs)]
    heapify(heap)
    zero: list[int] = []  # children of internal node k + t, by bit
    one: list[int] = []
    for node in range(k, 2 * k - 1):
        total_a, a = heappop(heap)
        total_b, b = heappop(heap)
        # a and b are negated ids: the larger one was created earlier
        if a > b:
            zero.append(-a)
            one.append(-b)
        else:
            zero.append(-b)
            one.append(-a)
        heappush(heap, (total_a + total_b, -node))
    codes = [(0, 0)] * (2 * k - 1)
    for t in range(k - 2, -1, -1):  # a parent is created after its children
        value, length = codes[k + t]
        value <<= 1
        length += 1
        codes[zero[t]] = (value, length)
        codes[one[t]] = (value | 1, length)
    return codes[:k]

