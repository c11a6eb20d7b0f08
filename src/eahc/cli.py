"""Command-line interface: encode/decode files, compare codecs, export
transition graphs, and benchmark a corpus.

Inputs are checked by the library, not here.  The coders raise
ValueError for an empty file and for a bad order, including one whose
m**n possible contexts exceed `codec.MAX_CONTEXT_BITS`; `main` reports
it as an error with exit status 1.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass

from . import baselines, codec, graph
from .errors import CodecError


@dataclass
class BenchRow:
    file: str
    h: int
    n: int
    leahn: int
    lh: int
    llz: int

    @property
    def ratio(self) -> float:
        return self.leahn / (8 * self.h)


def _parse_orders(text: str) -> list[int]:
    try:
        orders = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"error: bad order list {text!r}")
    if not orders:
        raise SystemExit("error: empty order list")
    return orders


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def cmd_encode(args: argparse.Namespace) -> int:
    payload, header = codec.encode(_read_file(args.input), args.order)
    blob = codec.serialize(payload, header)
    with open(args.output, "wb") as fh:
        fh.write(blob)
    a, b, c, d, e = (len(x) for x in payload.components())
    print(f"A={a} B={b} C={c} D={d} E={e} total={payload.total_bits()} bytes={len(blob)}")
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    data = codec.decompress(_read_file(args.input))
    with open(args.output, "wb") as fh:
        fh.write(data)
    print(f"decoded {len(data)} bytes")
    return 0


def _bench_rows(name: str, data: bytes, orders: list[int]) -> list[BenchRow]:
    """One row per order; each encode is also checked to round-trip."""
    lh = baselines.huffman_stream_length(data)
    llz = len(baselines.lz78_encode(data)[0])
    rows = []
    for n in orders:
        payload, header = codec.encode(data, n)
        if codec.decompress(codec.serialize(payload, header)) != data:
            raise CodecError(f"round-trip failed for {name!r} at order {n}")
        rows.append(BenchRow(name, len(data), n, payload.total_bits(), lh, llz))
    return rows


def _write_csv(path: str, rows: list[BenchRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["file", "h", "n", "LEAHn", "LH", "LLZ", "ratio"])
        for row in rows:
            writer.writerow(
                [row.file, row.h, row.n, row.leahn, row.lh, row.llz, f"{row.ratio:.6f}"]
            )


def cmd_stats(args: argparse.Namespace) -> int:
    orders = _parse_orders(args.orders)
    data = _read_file(args.input)
    rows = _bench_rows(os.path.basename(args.input), data, orders)
    print(f"{'file':<20} {'h':>8} {'n':>2} {'LEAHn':>10} {'LH':>10} {'LLZ':>10} {'ratio':>8}")
    for row in rows:
        print(
            f"{row.file:<20} {row.h:>8} {row.n:>2} {row.leahn:>10} "
            f"{row.lh:>10} {row.llz:>10} {row.ratio:>8.4f}"
        )
    if args.csv:
        _write_csv(args.csv, rows)
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    data = _read_file(args.input)
    g = graph.build_graph(data, args.order)
    graph.assign_codewords(g)
    text = graph.export_dot(g)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.output} ({len(g.vertices)} vertices, {len(g.labels)} edges)")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    orders = _parse_orders(args.orders)
    names = sorted(
        name
        for name in os.listdir(args.corpus)
        if os.path.isfile(os.path.join(args.corpus, name))
    )
    rows: list[BenchRow] = []
    for name in names:
        data = _read_file(os.path.join(args.corpus, name))
        try:
            rows.extend(_bench_rows(name, data, orders))
        except (CodecError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    rows.sort(key=lambda r: (r.file, r.n))
    _write_csv(args.csv, rows)
    print(f"wrote {args.csv} ({len(rows)} rows)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eahc", description="adaptive context-modeled Huffman compressor"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="compress a file")
    enc.add_argument("-i", "--input", required=True)
    enc.add_argument("-o", "--output", required=True)
    enc.add_argument("-n", "--order", type=int, default=1)
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="decompress a container file")
    dec.add_argument("-i", "--input", required=True)
    dec.add_argument("-o", "--output", required=True)
    dec.set_defaults(func=cmd_decode)

    stats = sub.add_parser("stats", help="compare codec sizes on one file")
    stats.add_argument("-i", "--input", required=True)
    stats.add_argument("--orders", default="1")
    stats.add_argument("--csv")
    stats.set_defaults(func=cmd_stats)

    gr = sub.add_parser("graph", help="export the transition graph as DOT")
    gr.add_argument("-i", "--input", required=True)
    gr.add_argument("-o", "--output", required=True)
    gr.add_argument("-n", "--order", type=int, default=1)
    gr.set_defaults(func=cmd_graph)

    bench = sub.add_parser("bench", help="benchmark every file in a directory")
    bench.add_argument("corpus")
    bench.add_argument("--orders", default="1")
    bench.add_argument("--csv", required=True)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CodecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
