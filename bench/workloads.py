"""Seeded input generation for the benchmark workloads.

Every input is a pure function of the workload name and the seed, so the
same seed gives the same bytes on every machine.  Nothing here imports
eahc: the program under test only ever sees the generated files.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field

# 64 printable symbols: digits, both letter cases, space and full stop
TEXT_SYMBOLS = (
    b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz ."
)
TEXT_SIZE = 128 * 1024
TEXT_SUCCESSORS = 12  # successors per order-2 context
TEXT_ZIPF = 1.1  # successor weight 1 / rank**TEXT_ZIPF
# graph.assign_codewords costs O(contexts x edges), so `eahc graph` runs on
# a slice; 1 KB at order 2 keeps it near half a second
TEXT_GRAPH_SLICE = 1024

RANDOM_SIZE = 64 * 1024
# `eahc stats` at order 1 runs on the first 16 KiB: about 60 successors per
# context, enough for the quadratic code_pairs to dominate, in under a
# second, so that several rounds fit in a run
RANDOM_STATS_SLICE = 16 * 1024
RANDOM_GRAPH_SLICE = 4096

SMALL_COUNT = 160
SMALL_MAX_LEN = 2000
SMALL_MAX_ALPHABET = 256
SMALL_LATTICE_STEP = 97  # coprime with SMALL_COUNT


@dataclass
class Workload:
    """The files one workload writes and the operations run on them.

    `inputs` are compressed and decompressed at every order in `orders`.
    Analyze runs `eahc stats` on `stats_file`, `eahc graph` on `graph_file`
    and `eahc bench` over every file in `corpus`.  `extra` holds files only
    those commands read.  File names are relative to the workload's
    temporary directory.
    """

    name: str
    inputs: dict[str, bytes]
    orders: tuple[int, ...]
    corpus: dict[str, bytes]
    stats_file: str
    stats_orders: tuple[int, ...]
    graph_file: str
    graph_order: int
    bench_orders: tuple[int, ...]
    extra: dict[str, bytes] = field(default_factory=dict)
    files: dict[str, bytes] = field(init=False)

    def __post_init__(self) -> None:
        self.files = {**self.inputs, **self.extra}
        self.files.update({f"corpus/{k}": v for k, v in self.corpus.items()})

    @property
    def input_bytes(self) -> int:
        """Bytes of the distinct inputs, each counted once."""
        return sum(len(v) for v in self.inputs.values())

    def pairs(self) -> list[tuple[str, int]]:
        """Every (input name, order) pair that is compressed."""
        return [(name, n) for name in self.inputs for n in self.orders]

    def baseline_files(self) -> list[str]:
        """Files whose LH and LLZ columns `eahc stats` or `bench` reports."""
        return sorted({self.stats_file, *(f"corpus/{f}" for f in self.corpus)})


def markov_text(rng: random.Random, size: int) -> bytes:
    """An order-2 Markov source with Zipf-like successors.

    Each of the 64*64 contexts draws TEXT_SUCCESSORS distinct successors in
    a random rank order; rank r is chosen with weight 1 / (r+1)**TEXT_ZIPF.
    """
    m = len(TEXT_SYMBOLS)
    cum = []
    acc = 0.0
    for r in range(TEXT_SUCCESSORS):
        acc += 1.0 / (r + 1) ** TEXT_ZIPF
        cum.append(acc)
    successors = [rng.sample(range(m), TEXT_SUCCESSORS) for _ in range(m * m)]
    a, b = rng.randrange(m), rng.randrange(m)
    out = bytearray(size)
    rand = rng.random
    pick = bisect.bisect
    for p in range(size):
        c = successors[a * m + b][pick(cum, rand() * acc)]
        out[p] = TEXT_SYMBOLS[c]
        a, b = b, c
    return bytes(out)


def small_strings(rng: random.Random, count: int) -> list[bytes]:
    """Strings drawn like acceptance criterion 7, on a stratified design.

    As in criterion 7, each string has a length h in 1..SMALL_MAX_LEN and
    an alphabet of m in 1..SMALL_MAX_ALPHABET byte values sampled without
    replacement, and is drawn uniformly from that alphabet.  Unlike it:
    - string k takes its length from stratum k of `count` equal strata
      (the seed moves it within the stratum) and its alphabet size from
      the middle of stratum (k * SMALL_LATTICE_STEP) mod count, a lattice
      that spreads the (h, m) pairs evenly over the square;
    - every sampled symbol occurs at least once (a string shorter than its
      alphabet uses h of them), so the alphabet size is fixed by the design
      and not by chance.
    The order-3 context map costs m**3 bits, and decompress's memory peak
    is 1.7x higher when m is odd; with criterion 7's independent draws the
    workload's bits per symbol and its memory peaks moved by 6-35% from
    seed to seed.  The seed still picks the lengths within their strata,
    the symbols and their order.
    """
    if math.gcd(SMALL_LATTICE_STEP, count) != 1:
        raise ValueError("the lattice step must be coprime with the string count")
    out = []
    for k in range(count):
        h = 1 + int((k + rng.random()) * SMALL_MAX_LEN / count)
        stratum = k * SMALL_LATTICE_STEP % count
        m = 1 + (2 * stratum + 1) * SMALL_MAX_ALPHABET // (2 * count)
        symbols = rng.sample(range(256), min(m, h))
        word = symbols + rng.choices(symbols, k=h - len(symbols))
        rng.shuffle(word)
        out.append(bytes(word))
    return out


def _text(rng: random.Random) -> Workload:
    text = markov_text(rng, TEXT_SIZE)
    return Workload(
        name="text",
        inputs={"text.bin": text},
        orders=(1, 2),
        corpus={"slice.bin": text[:TEXT_GRAPH_SLICE]},
        stats_file="text.bin",
        stats_orders=(1, 2),
        graph_file="corpus/slice.bin",
        graph_order=2,
        bench_orders=(1, 2),
    )


def _random_bytes(rng: random.Random) -> Workload:
    data = rng.randbytes(RANDOM_SIZE)
    return Workload(
        name="random-bytes",
        inputs={"random.bin": data},
        orders=(2,),
        corpus={"slice.bin": data[:RANDOM_GRAPH_SLICE]},
        extra={"head.bin": data[:RANDOM_STATS_SLICE]},
        # order 2 in `eahc graph` would visit about 6e9 edges (see README)
        stats_file="head.bin",
        stats_orders=(1,),
        graph_file="corpus/slice.bin",
        graph_order=1,
        bench_orders=(1,),
    )


def _many_small(rng: random.Random) -> Workload:
    strings = small_strings(rng, SMALL_COUNT)
    names = [f"s{k:03d}.bin" for k in range(len(strings))]
    longest = max(range(len(strings)), key=lambda k: (len(strings[k]), -k))
    corpus = dict(zip(names, strings))
    return Workload(
        name="many-small",
        inputs={f"corpus/{k}": v for k, v in corpus.items()},
        orders=(1, 2, 3),
        corpus=corpus,
        stats_file=f"corpus/{names[longest]}",
        stats_orders=(1, 2, 3),
        graph_file=f"corpus/{names[longest]}",
        graph_order=1,
        bench_orders=(1, 2, 3),
    )


GENERATORS = {"text": _text, "random-bytes": _random_bytes, "many-small": _many_small}


def make(name: str, seed: int) -> Workload:
    """Generate workload `name` for `seed`; the name salts the seed."""
    return GENERATORS[name](random.Random(f"{name}:{seed}"))
