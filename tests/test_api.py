import ast
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import eahc

# The public surface of the package.  Changing it is a deliberate act:
# update this list together with __init__.py and say why.
PUBLIC = [
    "AdaptiveGraph",
    "Alphabet",
    "BitReader",
    "BitString",
    "BitWriter",
    "CodeTable",
    "CodecError",
    "CorruptHeaderError",
    "CorruptStreamError",
    "EMPTY",
    "EahPayload",
    "EdgeLabel",
    "Header",
    "TableIncompleteError",
    "TrailingGarbageError",
    "TruncationError",
    "Vertex",
    "__version__",
    "assign_codewords",
    "build_graph",
    "compress",
    "decode",
    "decode_with_table",
    "decompress",
    "deserialize",
    "encode",
    "export_dot",
    "extend",
    "huffman_stream_length",
    "leahn_length",
    "lz78_decode",
    "lz78_encode",
    "serialize",
    "validate_prefix_condition",
]

# The public attributes of the support types, pinned the same way: a name
# stays only while the package, the CLI or the benchmark calls it.
MEMBERS = {
    "AdaptiveGraph": ["alphabet", "labels", "order", "transition_edges", "vertices"],
    "Alphabet": ["from_bytes", "index", "symbol", "to_bytes"],
    "BitReader": ["read_bits", "read_uint", "remaining"],
    "BitString": ["from_int", "from_str", "to01", "to_bytes", "uint"],
    "BitWriter": ["getvalue", "write_bits", "write_uint"],
    "CodeTable": ["context", "contexts", "order"],
}


def test_all_is_the_public_list():
    assert sorted(eahc.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in eahc.__all__:
        assert getattr(eahc, name) is not None, name


def test_support_types_keep_their_members():
    alphabet = eahc.Alphabet(b"a")
    instances = [
        eahc.build_graph(b"ab", 1),
        alphabet,
        eahc.BitReader(b""),
        eahc.EMPTY,
        eahc.BitWriter(),
        eahc.CodeTable(alphabet, 1, {}),
    ]
    got = {
        type(x).__name__: sorted(name for name in dir(x) if not name.startswith("_"))
        for x in instances
    }
    assert got == MEMBERS


def test_imports_only_stdlib_and_eahc():
    # the package promises no runtime dependencies
    for path in sorted(Path(eahc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one inside eahc
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "eahc", (path.name, name)


def test_sources_parse_as_python_3_10():
    # pyproject.toml promises Python >= 3.10.  This checks the grammar only
    # (`except*` would fail it), not which stdlib APIs the modules call.
    for path in sorted(Path(eahc.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def _bench_constant(filename: str, name: str):
    # the value of a top-level literal assignment in bench/, read without
    # importing the benchmark
    path = Path(__file__).resolve().parents[1] / "bench" / filename
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not assigned in {path}")


def test_benchmark_names_resolve():
    # `bench/run.py --trace 1` wraps every TRACED function by name and fails
    # on a missing one, so deleting one would break the benchmark unseen
    for module in _bench_constant("run.py", "MODULES"):
        importlib.import_module(f"eahc.{module}")
    for module, function, _, _ in _bench_constant("spans.py", "TRACED"):
        assert callable(getattr(importlib.import_module(f"eahc.{module}"), function, None)), (
            module,
            function,
        )


def test_benchmark_manifest_matches_containers(monkeypatch):
    # every container the benchmark compresses at the manifest's seed must
    # keep the bytes bench/manifest.json records for it
    bench = Path(__file__).resolve().parents[1] / "bench"
    manifest = json.loads((bench / "manifest.json").read_text())
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules as they are made
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name, recorded in manifest["workloads"].items():
        wl = workloads.make(name, manifest["seed"])
        got = {
            f"{rel}@{n}": hashlib.sha256(eahc.compress(wl.inputs[rel], n)).hexdigest()
            for rel, n in wl.pairs()
        }
        assert got == recorded, name
