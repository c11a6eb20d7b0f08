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
    "b10",
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


def test_all_is_the_public_list():
    assert sorted(eahc.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in eahc.__all__:
        assert getattr(eahc, name) is not None, name
