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
    "huffman",
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
    "CodeTable": ["alphabet", "context", "contexts", "order"],
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
