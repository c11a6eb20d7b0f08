"""List every statement of `src/eahc` whose deletion no tier-1 test notices.

Usage, from the root of a checkout:

    python tests/surviving_deletions.py [--module NAME] [--jobs N]

Each mutant replaces one statement of a module with `pass`: a compound
statement goes whole, header and body.  `def` and `class` headers,
docstrings and imports are not mutated.  Every mutant gets a fresh
temporary copy of `src/`, `tests/`, `bench/` and `pyproject.toml`, since
pyproject's `pythonpath = ["src"]` puts a checkout's own `src/` ahead of
`PYTHONPATH`, and runs pytest there with `-x`, without criteria 5 (it
fails by design) and 7 (the long round-trip suite).  A mutant survives
when pytest passes.  One unmutated copy runs first: it must pass, and
its time sets each mutant's timeout, past which a mutant (often a loop
that no longer advances) counts as caught.

`--module` limits the sweep to one module, `codec` for
`src/eahc/codec.py`.  `--jobs` runs that many mutants at once (default
1, at most `os.cpu_count()`).  The script prints `path:line: source` per
survivor, then the counts, and exits with status 1 if a survivor is not
in ALLOWED.  At 2 jobs the whole sweep took 27 minutes on a 2-vCPU
x86-64 host.  Its name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from unrun_statements import PACKAGE, ROOT, _statements

COPIED = ("src", "tests", "bench", "pyproject.toml")
PYTEST = [
    sys.executable,
    "-m",
    "pytest",
    "-x",
    "-q",
    "-p",
    "no:cacheprovider",
    "--deselect",
    "tests/test_acceptance.py::test_criterion_05_lz78_baseline",
    "--deselect",
    "tests/test_acceptance.py::test_criterion_07_round_trip_suite",
]
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)

# Survivors that no test can tell from the unmutated code, keyed by module
# and the statement's first line, each with the reason it stays.
ALLOWED = {
    (
        "codec.py",
        "_Runs = list[tuple[int, memoryview]]  # (m**w, packed run) per link of the key chain",
    ): "an alias that only annotations use",
    (
        "codec.py",
        "_Span = tuple[bytes, int, int]  # (data, first bit, bit count) of one component",
    ): "an alias that only annotations use",
    ("graph.py", 'Edge = tuple["Vertex", "Vertex"]'): "an alias that only annotations use",
    (
        "adaptive_code.py",
        '__slots__ = ("_symbols", "_index")',
    ): "saves memory per Alphabet; behaviour is the same without it",
    (
        "bitstream.py",
        '__slots__ = ("_data", "_nbits")',
    ): "saves memory per BitString; behaviour is the same without it",
    (
        "huffman.py",
        "if k == 2:",
    ): "code_pairs' two-symbol shortcut, a settled speed path with the general path's result",
    (
        "huffman.py",
        "return [(0, 1), (1, 1)]  # single merge, position order",
    ): "the body of code_pairs' two-symbol shortcut",
}


def _mutants(path: Path):
    """(line, source line, mutated module text) per deletable statement."""
    source = path.read_text()
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(line: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return starts[line - 1] + len(lines[line - 1].encode()[:col].decode())

    for node, _ in _statements(ast.parse(source)):
        docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        if isinstance(node, SKIPPED) or docstring:
            continue
        begin = offset(node.lineno, node.col_offset)
        end = offset(node.end_lineno, node.end_col_offset)
        yield node.lineno, lines[node.lineno - 1].strip(), source[:begin] + "pass" + source[end:]


def _run(rel: str | None, text: str | None, timeout: float | None) -> tuple[bool, float]:
    """Whether pytest passes on a fresh copy with `rel` holding `text`,
    and how long it took; a run past `timeout` counts as failed."""
    with tempfile.TemporaryDirectory(prefix="eahc-mutant-") as tmp:
        for name in COPIED:
            source, target = ROOT / name, Path(tmp) / name
            if source.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".bench_out")
                shutil.copytree(source, target, ignore=ignore)
            else:
                shutil.copy2(source, target)
        if rel is not None:
            (Path(tmp) / rel).write_text(text)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        start = time.monotonic()
        try:
            done = subprocess.run(
                PYTEST, cwd=tmp, env=env, timeout=timeout, capture_output=True
            )
        except subprocess.TimeoutExpired:
            return False, time.monotonic() - start
        return done.returncode == 0, time.monotonic() - start


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--module", help="one module of src/eahc, such as codec")
    parser.add_argument("--jobs", type=int, default=1, help="mutants run at once")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    jobs = min(args.jobs, os.cpu_count() or 1)
    paths = sorted(PACKAGE.glob("*.py"))
    if args.module is not None:
        paths = [p for p in paths if p.stem == args.module]
        if not paths:
            parser.error(f"no module {args.module!r} in {PACKAGE.relative_to(ROOT)}")

    passed, seconds = _run(None, None, None)
    if not passed:
        print("the unmutated copy fails its tests", file=sys.stderr)
        return 2
    timeout = 3 * seconds + 30

    cases = [
        (path, line, text, mutated)
        for path in paths
        for line, text, mutated in _mutants(path)
    ]
    rels = {path: str(path.relative_to(ROOT)) for path in paths}
    with ThreadPoolExecutor(jobs) as pool:
        outcomes = list(
            pool.map(lambda case: _run(rels[case[0]], case[3], timeout)[0], cases)
        )

    survivors = unexpected = 0
    for (path, line, text, _), survived in zip(cases, outcomes):
        if survived:
            survivors += 1
            allowed = (path.name, text) in ALLOWED
            unexpected += not allowed
            print(f"{rels[path]}:{line}: {text}" + ("" if allowed else "  [not allowed]"))
    print(
        f"{len(cases)} mutants, {survivors} survived, "
        f"{unexpected} outside the allowlist"
    )
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
