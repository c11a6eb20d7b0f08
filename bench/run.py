"""Benchmark of eahc: compress, decompress and analyze on seeded workloads.

    python3 bench/run.py --workload text --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --write-manifest

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  One process, one thread.  A run sets up the workload
(import eahc, generate the inputs from the seed, write them to a
temporary directory) several times and reports the median, then runs
whole rounds until the next round would end after `--seconds`.  A round
compresses every (input, order) pair, decompresses every container and
runs `eahc stats`, `eahc graph` and `eahc bench` through `eahc.cli.main`;
every output is then checked against `oracle.py`.

`--trace 0` reports the end-to-end metrics, each the median over rounds,
plus the tracemalloc peaks of the largest compress and decompress call
measured in a pass of their own.  `--trace 1` runs one untraced round,
then traced rounds, and reports the per-layer metrics (medians over the
traced rounds) and the tracing overhead.  The last line of standard
output is the result as JSON; results and spans are also written to
`.bench_out/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import oracle
import workloads
from clock import Clock
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MANIFEST = HERE / "manifest.json"
MANIFEST_SEED = 1
SETUP_REPEATS = 5
MODULES = ("codec", "cli", "baselines", "graph", "huffman", "bitstream", "adaptive_code")


def load_eahc() -> dict[str, object]:
    """Import eahc afresh from the checkout's src/ and return its modules."""
    for name in [k for k in sys.modules if k == "eahc" or k.startswith("eahc.")]:
        del sys.modules[name]
    package = importlib.import_module("eahc")
    if Path(package.__file__).resolve().parent != SRC / "eahc":
        raise SystemExit(f"error: imported eahc from {package.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"eahc.{name}") for name in MODULES}


def setup(name: str, seed: int) -> tuple[dict, workloads.Workload, Path]:
    mods = load_eahc()
    wl = workloads.make(name, seed)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    for rel, data in wl.files.items():
        path = tmp / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return mods, wl, tmp


class Op:
    """One attempted user operation and the problems found in its output."""

    def __init__(self, kind: str, key):
        self.kind, self.key = kind, key
        self.error: str | None = None
        self.problems: list[str] = []


class Bench:
    def __init__(self, mods: dict, wl: workloads.Workload, tmp: Path):
        self.mods, self.wl, self.tmp = mods, wl, tmp
        self.codec, self.cli, self.baselines = mods["codec"], mods["cli"], mods["baselines"]
        self.ops: list[Op] = []
        self.verified: dict[tuple[str, int], bytes] = {}
        self.models: dict[tuple[str, int], oracle.Model] = {}
        self.lh: dict[str, int] = {}
        self.codewords: dict[tuple[str, int], list[tuple[int, int]]] = {}
        wanted = set(wl.pairs())
        wanted.update((wl.stats_file, n) for n in wl.stats_orders)
        wanted.update((f"corpus/{f}", n) for f in wl.corpus for n in wl.bench_orders)
        wanted.add((wl.graph_file, wl.graph_order))
        for rel, n in sorted(wanted):
            self.models[(rel, n)] = oracle.Model.scan(wl.files[rel], n)
        for rel in wl.baseline_files():
            self.lh[rel] = oracle.huffman_cost(wl.files[rel])

    # -- one round ---------------------------------------------------------

    def _attempt(self, op: Op, fn):
        self.ops.append(op)
        try:
            return fn()
        except (Exception, SystemExit) as exc:  # a failed operation, not a crash
            op.error = f"{type(exc).__name__}: {exc}"
            return None

    def _cli(self, clock: Clock, op: Op, argv: list[str]) -> None:
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            rc = clock.time("analyze", lambda: self._attempt(op, lambda: self.cli.main(argv)))
        if op.error is None and rc != 0:
            op.error = f"exit code {rc}: {sink.getvalue().strip()[-200:]}"

    def run_round(self, tracer: Tracer | None = None) -> dict:
        wl, tmp = self.wl, self.tmp
        phase = tracer.span if tracer else (lambda name: nullcontext())
        blobs: dict[tuple[str, int], tuple[Op, bytes | None]] = {}
        outs: list[tuple[Op, bytes, bytes | None]] = []
        analyze: list[tuple[Op, str]] = []
        for name in ("stats.csv", "graph.dot", "bench.csv"):
            (tmp / name).unlink(missing_ok=True)
        with Clock() as clock:
            if tracer:
                tracer.install(self.mods)
            try:
                gc.collect()
                with phase("compress"):
                    for key in wl.pairs():
                        op = Op("compress", key)
                        data = wl.inputs[key[0]]
                        blobs[key] = (op, clock.time("compress", lambda: self._attempt(
                            op, lambda: self.codec.compress(data, key[1]))))
                    clock.flush()
                gc.collect()
                with phase("decompress"):
                    for key, (_, blob) in blobs.items():
                        if blob is None:
                            continue
                        op = Op("decompress", key)
                        out = clock.time("decompress", lambda: self._attempt(
                            op, lambda: self.codec.decompress(blob)))
                        outs.append((op, wl.inputs[key[0]], out))
                    clock.flush()
                gc.collect()
                orders = lambda ns: ",".join(map(str, ns))
                commands = {
                    "stats": ["stats", "-i", str(tmp / wl.stats_file), "--orders",
                              orders(wl.stats_orders), "--csv", str(tmp / "stats.csv")],
                    "graph": ["graph", "-i", str(tmp / wl.graph_file), "-o",
                              str(tmp / "graph.dot"), "-n", str(wl.graph_order)],
                    "bench": ["bench", str(tmp / "corpus"), "--orders",
                              orders(wl.bench_orders), "--csv", str(tmp / "bench.csv")],
                }
                with phase("analyze"):
                    for command, argv in commands.items():
                        op = Op(command, None)
                        self._cli(clock, op, argv)
                        analyze.append((op, command))
                    clock.flush()
            finally:
                if tracer:
                    tracer.uninstall()

        lz78_decode_s = self._verify(blobs, outs, analyze)
        pair_bytes = sum(len(wl.inputs[name]) for name, _ in wl.pairs())
        t, wall = clock.calibrated, clock.wall

        def mbps(nbytes: int, times: dict, name: str) -> float:
            return nbytes / times[name] / 1e6 if times.get(name) else 0.0

        return {
            "compress_mbps": mbps(pair_bytes, t, "compress"),
            "decompress_mbps": mbps(pair_bytes, t, "decompress"),
            "analyze_mbps": mbps(wl.input_bytes, t, "analyze"),
            "bits_per_symbol": sum(8 * len(b or b"") for _, b in blobs.values()) / pair_bytes,
            "wall_compress_mbps": mbps(pair_bytes, wall, "compress"),
            "wall_decompress_mbps": mbps(pair_bytes, wall, "decompress"),
            "wall_analyze_mbps": mbps(wl.input_bytes, wall, "analyze"),
            "ops_s": sum(t.values()),
            "speed": sum(t.values()) / sum(wall.values()),  # calibrated per wall second
            "lz78_decode_s": lz78_decode_s,
            "containers": {k: b for k, (_, b) in blobs.items()},
        }

    # -- checks ------------------------------------------------------------

    def _verify(self, blobs, outs, analyze) -> float:
        wl, tmp = self.wl, self.tmp
        for key, (op, blob) in blobs.items():
            if blob is not None and self.verified.get(key) != blob:
                op.problems += oracle.check_container(self.models[key], blob)
                if not op.problems:
                    self.verified[key] = blob
        for op, data, out in outs:
            if out is not None and out != data:
                op.problems.append("decompress(compress(x)) != x")
        llz = {}
        with Clock() as clock:
            for rel in wl.baseline_files():
                data = wl.files[rel]
                llz[rel] = -1  # never matches LLZ unless the LZ78 round trip holds
                try:
                    bits, phrases = self.baselines.lz78_encode(data)
                    alphabet = self.mods["adaptive_code"].Alphabet.from_bytes(data)
                    back = clock.time(
                        "lz78_decode", lambda: self.baselines.lz78_decode(bits, phrases, alphabet)
                    )
                except Exception:
                    continue
                if back == data:
                    llz[rel] = len(bits)

        def expected(rel: str, orders) -> dict:
            name = Path(rel).name
            return {
                (name, n): (self.models[(rel, n)].payload_bits(), self.lh[rel], llz[rel])
                for n in orders
            }

        for op, command in analyze:
            if op.error is not None:
                continue
            try:
                if command == "stats":
                    op.problems += oracle.check_csv(
                        str(tmp / "stats.csv"), expected(wl.stats_file, wl.stats_orders)
                    )
                elif command == "bench":
                    rows = {}
                    for f in wl.corpus:
                        rows.update(expected(f"corpus/{f}", wl.bench_orders))
                    op.problems += oracle.check_csv(str(tmp / "bench.csv"), rows)
                else:
                    text = (tmp / "graph.dot").read_text(encoding="utf-8")
                    op.problems += oracle.check_dot(
                        self.models[(wl.graph_file, wl.graph_order)], text
                    )
            except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
                op.problems.append(f"unreadable {command} output: {exc!r}")
        return clock.calibrated.get("lz78_decode", 0.0)

    # -- measured apart from the rounds ----------------------------------

    def peaks(self, containers: dict) -> tuple[float, float, bool]:
        """tracemalloc peaks (MiB) of compressing and decompressing the
        pair with the largest container, each call in a pass of its own;
        also whether both calls returned the expected output.  A call that
        raises reads 0 MiB."""
        made = {k: b for k, b in containers.items() if b is not None}
        if not made:
            return 0.0, 0.0, False
        key = max(made, key=lambda k: (len(made[k]), k))
        data, blob = self.wl.inputs[key[0]], made[key]

        def peak(fn, expected) -> tuple[float, bool]:
            gc.collect()
            tracemalloc.start()
            try:
                held = fn() == expected
                return tracemalloc.get_traced_memory()[1] / 2**20, held
            except Exception:
                return 0.0, False
            finally:
                tracemalloc.stop()

        compress_peak, compressed = peak(lambda: self.codec.compress(data, key[1]), blob)
        decompress_peak, decompressed = peak(lambda: self.codec.decompress(blob), data)
        return compress_peak, decompress_peak, compressed and decompressed

    def replay(self) -> dict:
        """Time huffman.code_pairs and the bitstream writer/reader on the
        workload's own per-context frequency tuples and codeword sequence."""
        code_pairs = self.mods["huffman"].code_pairs
        bitstream = self.mods["bitstream"]
        tuples = []
        for key in self.wl.pairs():
            model = self.models[key]
            for j in sorted(model.rows):
                row = sorted(model.rows[j].items())
                if key[1] == 1:  # the order-1 repeat successor codes last
                    row.sort(key=lambda item: item[0] == j)
                if len(row) > 1:
                    tuples.append((key, j, row))
        freqs = [[f for _, f in row] for _, _, row in tuples]
        with Clock() as clock:
            codes = clock.time("code_pairs", lambda: [code_pairs(t) for t in freqs])
        if not self.codewords:
            self._codeword_sequences(tuples, codes)

        def write(seq):
            writer = bitstream.BitWriter()
            write_uint = writer.write_uint
            for value, width in seq:
                write_uint(value, width)
            return writer.getvalue()

        ok = True
        with Clock() as bits_clock:
            for seq in self.codewords.values():
                bits = bits_clock.time("write_uint", lambda: write(seq))
                read = bitstream.BitReader(bits).read_uint
                values = bits_clock.time("read_uint", lambda: [read(width) for _, width in seq])
                ok = ok and values == [v for v, _ in seq]
        return {
            "huffman.code_pairs_s": clock.calibrated["code_pairs"],
            "huffman.tables": len(freqs),
            "huffman.max_k": max(map(len, freqs), default=0),
            "bitstream.write_uint_s": bits_clock.calibrated["write_uint"],
            "bitstream.read_uint_s": bits_clock.calibrated["read_uint"],
            "ok": ok,
        }

    def _codeword_sequences(self, tuples, codes) -> None:
        """The (value, width) of every stream codeword, position by position."""
        tables: dict[tuple[str, int], dict[int, dict[int, tuple[int, int]]]] = {}
        for (key, j, row), pairs in zip(tuples, codes):
            tables.setdefault(key, {})[j] = {i: code for (i, _), code in zip(row, pairs)}
        for key in self.wl.pairs():
            model = self.models[key]
            n, m = key[1], model.m
            idx = {b: i for i, b in enumerate(model.alphabet)}
            data = self.wl.inputs[key[0]]
            table = tables.get(key, {})
            seq = []
            j = 0
            for b in data[:n]:
                j = j * m + idx[b]
            tail = m ** (n - 1)
            for b in data[n:]:
                i = idx[b]
                seq.append(table[j][i] if j in table else (0, 1))
                j = (j % tail) * m + i
            self.codewords[key] = seq


def median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def run_rounds(bench: Bench, seconds: float, tracer: Tracer | None = None, on_round=None):
    """Whole rounds until the next one would end after `seconds`; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        first = len(tracer.spans) if tracer else 0
        result = bench.run_round(tracer)
        if on_round:
            on_round(result, first)
        rounds.append(result)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return rounds


def layer_metrics(bench: Bench, tracer: Tracer, result: dict, first: int, untraced_s: float) -> dict:
    """Per-layer figures of one traced round; span times are calibrated
    with the round's own ratio of calibrated to wall time."""
    s = tracer.summary(first)
    calls, counts = s["calls"], s["counts"]
    self_s = {k: v * result["speed"] for k, v in s["self_s"].items()}
    out = {
        f"codec.{f}_s": self_s.get(f"codec.{f}", 0.0)
        for f in ("encode", "serialize", "deserialize", "decode")
    }
    for f in ("encode", "deserialize", "decode"):
        out[f"codec.{f}_calls"] = calls.get(f"analyze/codec.{f}", 0)
    for c in ("prefix_bits", "context_map_bits", "successor_map_bits", "freq_table_bits",
              "stream_bits", "contexts", "marked_pairs"):
        out[f"codec.{c}"] = counts.get(f"compress/codec.encode.{c}", 0)
    replay = bench.replay()
    result["replay_ok"] = replay.pop("ok")
    out.update(replay)
    for f in ("build_graph", "assign_codewords", "export_dot"):
        out[f"graph.{f}_s"] = self_s.get(f"graph.{f}", 0.0)
    out["graph.vertices"] = counts.get("analyze/graph.build_graph.vertices", 0)
    out["graph.edges"] = counts.get("analyze/graph.build_graph.edges", 0)
    for f in ("huffman_stream_length", "lz78_encode"):
        out[f"baselines.{f}_s"] = self_s.get(f"baselines.{f}", 0.0)
    out["baselines.lz78_decode_s"] = result["lz78_decode_s"]
    out["baselines.lz78_phrases"] = counts.get("analyze/baselines.lz78_encode.phrases", 0)
    for f in ("stats", "graph", "bench"):
        out[f"cli.{f}_s"] = self_s.get(f"cli.{f}", 0.0)
    out["trace.spans"] = s["spans"]
    out["trace.overhead_pct"] = 100.0 * (result["ops_s"] / untraced_s - 1.0)
    return out


UNITS = {
    "setup_s": "s",
    "compress_mbps": "MB/s",
    "decompress_mbps": "MB/s",
    "analyze_mbps": "MB/s",
    "bits_per_symbol": "bit/symbol",
    "compress_peak_mib": "MiB",
    "decompress_peak_mib": "MiB",
    "trace.overhead_pct": "%",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def manifest_line(workload: str, seed: int, containers: dict) -> str:
    if seed != MANIFEST_SEED:
        return f"manifest: not checked (it is for seed {MANIFEST_SEED})"
    recorded = json.loads(MANIFEST.read_text())["workloads"][workload]
    got = {
        f"{name}@{n}": hashlib.sha256(b).hexdigest()
        for (name, n), b in containers.items()
        if b is not None
    }
    differ = sorted(k for k in recorded if recorded[k] != got.get(k))
    if differ:
        return f"manifest: MISMATCH in {len(differ)} of {len(recorded)} containers, first {differ[0]}"
    return f"manifest: match ({len(recorded)} containers)"


def write_manifest() -> None:
    codec = load_eahc()["codec"]
    result = {"seed": MANIFEST_SEED, "workloads": {}}
    for name in workloads.GENERATORS:
        wl = workloads.make(name, MANIFEST_SEED)
        result["workloads"][name] = {
            f"{rel}@{n}": hashlib.sha256(codec.compress(wl.inputs[rel], n)).hexdigest()
            for rel, n in wl.pairs()
        }
    MANIFEST.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=MANIFEST_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help=f"rewrite {MANIFEST.name} from seed {MANIFEST_SEED} and exit")
    args = parser.parse_args()
    if not (SRC / "eahc" / "__init__.py").is_file():
        raise SystemExit(f"error: no eahc package under {SRC}")
    sys.path.insert(0, str(SRC))
    if args.write_manifest:
        write_manifest()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    OUT.mkdir(exist_ok=True)

    setups, tmp = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if tmp is not None:
                shutil.rmtree(tmp)
            with Clock() as clock:
                mods, wl, tmp = clock.time("setup", lambda: setup(args.workload, args.seed))
            setups.append(clock.calibrated["setup"])
        bench = Bench(mods, wl, tmp)
        # keep the benchmark's own long-lived objects (oracle scans, inputs)
        # out of the collections the timed calls trigger, as in a process
        # that holds only its input
        gc.collect()
        gc.freeze()
        correct = True
        if args.trace:
            start = time.perf_counter()
            untraced = run_rounds(bench, 0.0)[0]
            tracer = Tracer()
            layers = []
            rounds = run_rounds(
                bench,
                max(args.seconds - (time.perf_counter() - start), 0.0),
                tracer,
                lambda r, first: layers.append(layer_metrics(bench, tracer, r, first, untraced["ops_s"])),
            )
            correct = all(r["replay_ok"] for r in rounds)
            metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
            rounds.insert(0, untraced)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(tracer.spans))
        else:
            rounds = run_rounds(bench, args.seconds)
            compress_peak, decompress_peak, held = bench.peaks(rounds[-1]["containers"])
            correct = held
            metrics = {k: median_of(rounds, k) for k in
                       ("compress_mbps", "decompress_mbps", "analyze_mbps", "bits_per_symbol")}
            metrics["setup_s"] = statistics.median(setups)
            metrics["compress_peak_mib"] = compress_peak
            metrics["decompress_peak_mib"] = decompress_peak
    finally:
        if tmp is not None:
            shutil.rmtree(tmp)

    failed = [op for op in bench.ops if op.error or op.problems]
    for op in failed[:5]:
        print(f"failed {op.kind} {op.key}: {op.error or '; '.join(op.problems)}", file=sys.stderr)
    correct = correct and not any(op.problems for op in bench.ops if op.error is None)
    print(manifest_line(args.workload, args.seed, rounds[0]["containers"]))
    wall = {k: round(median_of(rounds, f"wall_{k}"), 4) for k in ("compress_mbps", "decompress_mbps", "analyze_mbps")}
    print(f"rounds: {len(rounds)}, uncalibrated {wall}, speed {median_of(rounds, 'speed'):.3f}")
    result = {
        "correct": correct,
        "attempted": len(bench.ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in sorted(metrics.items())},
    }
    per_round = [{k: v for k, v in r.items() if k != "containers"} for r in rounds]
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "setup_s": setups, "rounds": per_round}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
