"""Adaptive context-modeled Huffman compression toolkit.

Each symbol is coded by a Huffman table selected by its n preceding
symbols; the tables are derived from a transition graph of the input and
shipped as compact bitmaps, so the decoder rebuilds them without ever
seeing the original data.  Whole-string Huffman and LZ78 baselines, a
bit-exact container format, and Graphviz export round out the package.
"""

from .adaptive_code import (
    Alphabet,
    CodeTable,
    decode_with_table,
    extend,
    validate_prefix_condition,
)
from .baselines import (
    huffman_stream_length,
    lz78_decode,
    lz78_encode,
)
from .bitstream import EMPTY, BitReader, BitString, BitWriter
from .codec import (
    EahPayload,
    Header,
    compress,
    decode,
    decompress,
    deserialize,
    encode,
    leahn_length,
    serialize,
)
from .errors import (
    CodecError,
    CorruptHeaderError,
    CorruptStreamError,
    TableIncompleteError,
    TrailingGarbageError,
    TruncationError,
)
from .graph import (
    AdaptiveGraph,
    EdgeLabel,
    Vertex,
    assign_codewords,
    build_graph,
    export_dot,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "CodeTable",
    "decode_with_table",
    "extend",
    "validate_prefix_condition",
    "huffman_stream_length",
    "lz78_decode",
    "lz78_encode",
    "EMPTY",
    "BitReader",
    "BitString",
    "BitWriter",
    "EahPayload",
    "Header",
    "compress",
    "decode",
    "decompress",
    "deserialize",
    "encode",
    "leahn_length",
    "serialize",
    "CodecError",
    "CorruptHeaderError",
    "CorruptStreamError",
    "TableIncompleteError",
    "TrailingGarbageError",
    "TruncationError",
    "AdaptiveGraph",
    "EdgeLabel",
    "Vertex",
    "assign_codewords",
    "build_graph",
    "export_dot",
    "__version__",
]
