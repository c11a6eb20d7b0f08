"""In-memory spans around calls into eahc's modules.

A span is (name, start, end, parent, counts).  `Tracer.install` replaces
public functions on eahc's module objects with wrappers that record one
span per call, so calls made by eahc itself through those module
attributes (for example `cli` calling `codec.compress`, or `compress`
calling `encode`) are traced as children of the caller.  Functions a
module imported by name from another (`codec` calling
`huffman.code_pairs`) are not intercepted; those layers are measured by
replay instead.  The benchmark's own phases are spans too, so every call
has a phase at its root.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# (module, function, span name, counts taken from the result)
TRACED = [
    ("codec", "compress", "codec.compress", None),
    ("codec", "decompress", "codec.decompress", None),
    ("codec", "encode", "codec.encode", "payload"),
    ("codec", "serialize", "codec.serialize", None),
    ("codec", "deserialize", "codec.deserialize", None),
    ("codec", "decode", "codec.decode", None),
    ("codec", "leahn_length", "codec.leahn_length", None),
    ("baselines", "huffman_stream_length", "baselines.huffman_stream_length", None),
    ("baselines", "lz78_encode", "baselines.lz78_encode", "lz78"),
    ("baselines", "lz78_decode", "baselines.lz78_decode", None),
    ("graph", "build_graph", "graph.build_graph", "graph"),
    ("graph", "assign_codewords", "graph.assign_codewords", None),
    ("graph", "export_dot", "graph.export_dot", None),
    ("cli", "cmd_stats", "cli.stats", None),
    ("cli", "cmd_graph", "cli.graph", None),
    ("cli", "cmd_bench", "cli.bench", None),
]


def _payload_counts(result) -> dict[str, int]:
    payload, header = result
    m = len(header.alphabet)
    return {
        "prefix_bits": len(payload.prefix),
        "context_map_bits": len(payload.context_map),
        "successor_map_bits": len(payload.successor_map),
        "freq_table_bits": len(payload.freq_table),
        "stream_bits": len(payload.stream),
        "contexts": len(payload.successor_map) // m,
        "marked_pairs": len(payload.freq_table) // payload.freq_width
        if payload.freq_width
        else 0,
    }


COUNTERS = {
    "payload": _payload_counts,
    "lz78": lambda result: {"phrases": result[1]},
    "graph": lambda g: {"vertices": len(g.vertices), "edges": len(g.labels)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, counts]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, count):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record[4] = count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict[str, object]) -> None:
        for module_name, attr, name, counter in TRACED:
            module = modules[module_name]
            fn = getattr(module, attr)
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, COUNTERS.get(counter)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def summary(self, first: int = 0) -> dict:
        """Self time per span name, and call counts and summed counts per
        "<phase>/<name>" (the phase is the root span), over spans[first:].

        Self time is a span's duration minus the durations of its direct
        children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans[first:]:
            if parent is not None:
                child_time[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        for k in range(first, len(spans)):
            name, start, end, parent, extra = spans[k]
            root = k
            while spans[root][3] is not None:
                root = spans[root][3]
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[k]
            key = f"{spans[root][0]}/{name}"
            calls[key] = calls.get(key, 0) + 1
            for c, v in (extra or {}).items():
                counts[f"{key}.{c}"] = counts.get(f"{key}.{c}", 0) + v
        return {"self_s": self_s, "calls": calls, "counts": counts, "spans": len(spans) - first}
