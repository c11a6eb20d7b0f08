"""Compare how two checkouts of eahc decompress damaged containers, and
what their analysis views make of the same inputs.

Usage:

    python tests/compare_decoders.py OLD_SRC NEW_SRC [--seed S] [--flips N]

OLD_SRC and NEW_SRC are two `src/` directories, each holding an `eahc`
package.  Each is imported in turn.  For every seeded (input, order) case
it compresses the input and runs `decompress` on these mutants of the
container:
- every cut of the container's last 300 bytes;
- N seeded single bit flips and N seeded double bit flips.

A mutant's outcome is the bytes it decodes to, or the class and message
of the error it raises.  For every case's input, and for a seeded escape
corpus (every byte value, and an 'x' before every pair of hex digits), it
also takes the DOT text of `build_graph` + `assign_codewords` +
`export_dot` at orders 1-3 and the bits and phrase count of
`lz78_encode`.  The script prints, per case, the mutants tried and how
many outcomes differ between the two checkouts, with up to three of
them; then, over all cases, each distinct (old outcome, new outcome)
pair that differs with its count; then how many analysis views differ.
It exits with status 1 when any container, outcome or view differs.
Its name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from oracles import SAMPLE_200, long_code_word  # noqa: E402  (imports no eahc)

CUT_BYTES = 300


def _skewed(seed: int, size: int, m: int) -> bytes:
    """`size` seeded bytes over m symbols, symbol s drawn with weight s + 1."""
    rng = random.Random(seed)
    return bytes(rng.choices(range(97, 97 + m), weights=range(1, m + 1), k=size))


def cases(seed: int) -> list[tuple[str, bytes, int]]:
    """(name, input, order) for every container the comparison damages."""
    return [
        ("long-code-14", long_code_word(14), 1),
        ("long-code-16", long_code_word(16), 1),
        ("long-code-20", long_code_word(20), 1),
        ("sample200-1", SAMPLE_200, 1),
        ("sample200-2", SAMPLE_200, 2),
        ("skewed-1", _skewed(seed, 6000, 20), 1),
        ("skewed-3", _skewed(seed + 1, 3000, 6), 3),
        ("random-2", random.Random(seed + 2).randbytes(1500), 2),
    ]


def escape_corpus(seed: int) -> bytes:
    """Every byte value, and an 'x' before every pair of hex digits, as
    seeded-order chunks of one and three bytes."""
    digits = b"0123456789ABCDEF"
    chunks = [bytes([b]) for b in range(256)]
    chunks += [bytes([120, a, b]) for a in digits for b in digits]
    random.Random(seed).shuffle(chunks)
    return b"".join(chunks)


def mutants(blob: bytes, seed: int, flips: int) -> list[bytes]:
    """Every cut of the last CUT_BYTES bytes, then the seeded flips."""
    out = [blob[:k] for k in range(max(len(blob) - CUT_BYTES, 0), len(blob))]
    rng = random.Random(seed)
    for count in (1, 2):
        for _ in range(flips):
            damaged = bytearray(blob)
            for pos in rng.sample(range(8 * len(blob)), count):
                damaged[pos >> 3] ^= 0x80 >> (pos & 7)
            out.append(bytes(damaged))
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def views(word: bytes, graph, baselines) -> list[tuple[str, str]]:
    """(view, digest) for the DOT text at orders 1-3, then for the LZ78
    bits and phrase count."""
    found = []
    for order in (1, 2, 3):
        g = graph.build_graph(word, order)
        graph.assign_codewords(g)
        found.append((f"dot at order {order}", _digest(graph.export_dot(g))))
    bits, phrases = baselines.lz78_encode(word)
    return found + [("lz78", _digest(f"{bits.to01()} {phrases}"))]


def outcomes(src: str, seed: int, flips: int) -> tuple[dict, dict]:
    """Case name -> (container digest, outcome of each mutant), and input
    name -> its analysis views, with eahc imported from `src`."""
    sys.path.insert(0, src)
    try:
        codec = importlib.import_module("eahc.codec")
        if not Path(codec.__file__).is_relative_to(Path(src).resolve()):
            raise SystemExit(f"eahc imported from {codec.__file__}, not from {src}")
        graph = importlib.import_module("eahc.graph")
        baselines = importlib.import_module("eahc.baselines")
        inputs = {name: word for name, word, _ in cases(seed)}
        inputs["escapes"] = escape_corpus(seed)
        analysis = {name: views(w, graph, baselines) for name, w in inputs.items()}
        result = {}
        for name, word, order in cases(seed):
            blob = codec.compress(word, order)
            found = []
            for damaged in mutants(blob, seed, flips):
                try:
                    decoded = codec.decompress(damaged)
                except Exception as e:  # the class and message are the outcome
                    found.append((type(e).__name__, str(e)))
                else:
                    found.append(("bytes", hashlib.sha256(decoded).hexdigest()))
            result[name] = (hashlib.sha256(blob).hexdigest(), found)
        return result, analysis
    finally:
        sys.path.remove(src)
        for module in [k for k in sys.modules if k == "eahc" or k.startswith("eahc.")]:
            del sys.modules[module]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--flips", type=int, default=1350)
    args = parser.parse_args(argv)
    old, old_views = outcomes(str(Path(args.old_src).resolve()), args.seed, args.flips)
    new, new_views = outcomes(str(Path(args.new_src).resolve()), args.seed, args.flips)
    total = differences = 0
    pairs: Counter = Counter()
    for name, (old_blob, old_found) in old.items():
        new_blob, new_found = new[name]
        if old_blob != new_blob:
            print(f"{name}: the containers differ")
            differences += 1
            continue
        diff = [(a, b) for a, b in zip(old_found, new_found) if a != b]
        decoded = sum(kind == "bytes" for kind, _ in new_found)
        print(f"{name}: {len(new_found)} mutants, {decoded} decoded, {len(diff)} differ")
        for a, b in diff[:3]:
            print(f"    old {a}\n    new {b}")
        total += len(new_found)
        differences += len(diff)
        pairs.update(diff)
    print(f"total: {total} mutants, {differences} differences")
    for ((old_kind, old_text), (new_kind, new_text)), count in pairs.most_common():
        print(f"{count:>7}x old {old_kind}: {old_text}\n{'':>9}new {new_kind}: {new_text}")
    compared = differing = 0
    for name, found in old_views.items():
        diff = [view for (view, a), (_, b) in zip(found, new_views[name]) if a != b]
        listed = "".join(f"; {view}" for view in diff)
        print(f"{name}: {len(found)} views, {len(diff)} differ{listed}")
        compared += len(found)
        differing += len(diff)
    print(f"views: {compared} compared, {differing} differences")
    return 1 if differences or differing else 0


if __name__ == "__main__":
    sys.exit(main())
