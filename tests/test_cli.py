import pytest

from eahc.cli import main
from oracles import SAMPLE_200

W9 = b"abccdbbab"


@pytest.fixture()
def sample_file(tmp_path):
    path = tmp_path / "sample.bin"
    path.write_bytes(SAMPLE_200)
    return path


class TestEncodeDecode:
    def test_round_trip(self, tmp_path, sample_file, capsys):
        packed = tmp_path / "sample.eah"
        restored = tmp_path / "restored.bin"
        assert main(["encode", "-i", str(sample_file), "-o", str(packed), "-n", "1"]) == 0
        out = capsys.readouterr().out
        assert "E=235" in out and "total=316" in out
        assert main(["decode", "-i", str(packed), "-o", str(restored)]) == 0
        assert restored.read_bytes() == SAMPLE_200

    def test_higher_orders_round_trip(self, tmp_path, sample_file):
        for n in ("2", "3"):
            packed = tmp_path / f"sample{n}.eah"
            restored = tmp_path / f"restored{n}.bin"
            assert main(["encode", "-i", str(sample_file), "-o", str(packed), "-n", n]) == 0
            assert main(["decode", "-i", str(packed), "-o", str(restored)]) == 0
            assert restored.read_bytes() == SAMPLE_200

    def test_empty_input_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        out = tmp_path / "out.eah"
        assert main(["encode", "-i", str(empty), "-o", str(out)]) != 0
        assert "empty" in capsys.readouterr().err

    def test_unwritable_output_fails(self, tmp_path, sample_file, capsys):
        target = tmp_path / "missing" / "dir" / "out.eah"
        assert main(["encode", "-i", str(sample_file), "-o", str(target)]) != 0
        assert capsys.readouterr().err

    def test_missing_input_fails(self, tmp_path):
        assert main(["encode", "-i", str(tmp_path / "nope"), "-o", str(tmp_path / "o")]) != 0

    def test_bad_magic_fails(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.eah"
        bogus.write_bytes(b"EAH2" + b"\x00" * 20)
        assert main(["decode", "-i", str(bogus), "-o", str(tmp_path / "out")]) != 0
        assert "magic" in capsys.readouterr().err

    def test_truncated_container_fails(self, tmp_path, sample_file):
        packed = tmp_path / "sample.eah"
        assert main(["encode", "-i", str(sample_file), "-o", str(packed)]) == 0
        packed.write_bytes(packed.read_bytes()[:-2])
        assert main(["decode", "-i", str(packed), "-o", str(tmp_path / "out")]) != 0

    def test_order_cap(self, tmp_path, sample_file, capsys):
        # the m**n context budget bounds the order, whatever the alphabet
        out = tmp_path / "out.eah"
        assert main(["encode", "-i", str(sample_file), "-o", str(out), "-n", "4"]) == 0
        wide = tmp_path / "wide.bin"
        wide.write_bytes(bytes(range(17)) * 2)
        over = tmp_path / "over.eah"
        assert main(["encode", "-i", str(wide), "-o", str(over), "-n", "6"]) == 1
        assert "16777216" in capsys.readouterr().err
        assert not over.exists()


class TestStats:
    def test_sample_row(self, sample_file, capsys):
        assert main(["stats", "-i", str(sample_file), "--orders", "1"]) == 0
        out = capsys.readouterr().out
        assert "462" in out  # whole-string Huffman bits
        assert "316" in out  # adaptive codec bits
        assert "486" in out  # LZ78 bits under fixed-width accounting

    def test_single_byte_file(self, tmp_path, capsys):
        path = tmp_path / "one.bin"
        path.write_bytes(b"a")
        assert main(["stats", "-i", str(path), "--orders", "1"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        assert row[1:6] == ["1", "1", "1", "1", "1"]  # h, n, LEAH1, LH, LLZ

    def test_multiple_orders_csv(self, tmp_path, sample_file):
        csv_path = tmp_path / "stats.csv"
        assert (
            main(
                [
                    "stats",
                    "-i",
                    str(sample_file),
                    "--orders",
                    "1,2,3",
                    "--csv",
                    str(csv_path),
                ]
            )
            == 0
        )
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "file,h,n,LEAHn,LH,LLZ,ratio"
        assert len(lines) == 4
        assert lines[1].startswith("sample.bin,200,1,316,462,486,")

    def test_bad_orders_rejected(self, sample_file):
        with pytest.raises(SystemExit):
            main(["stats", "-i", str(sample_file), "--orders", "zap"])
        with pytest.raises(SystemExit, match="empty order list"):
            main(["stats", "-i", str(sample_file), "--orders", ","])


class TestGraph:
    def test_fig_style_dot(self, tmp_path, capsys):
        src = tmp_path / "w.bin"
        src.write_bytes(W9)
        dot = tmp_path / "w.dot"
        assert main(["graph", "-i", str(src), "-o", str(dot), "-n", "1"]) == 0
        text = dot.read_text()
        assert '"a" -> "b" [label="(2,0)"];' in text

    def test_empty_graph_for_short_input(self, tmp_path):
        src = tmp_path / "w.bin"
        dot = tmp_path / "w.dot"
        for word in (b"ab", b""):
            src.write_bytes(word)
            assert main(["graph", "-i", str(src), "-o", str(dot), "-n", "3"]) == 0
            assert dot.read_text() == "digraph G {\n}\n"

    def test_deterministic(self, tmp_path):
        src = tmp_path / "w.bin"
        src.write_bytes(W9)
        first = tmp_path / "a.dot"
        second = tmp_path / "b.dot"
        assert main(["graph", "-i", str(src), "-o", str(first)]) == 0
        assert main(["graph", "-i", str(src), "-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestBench:
    def test_corpus_csv(self, tmp_path, sample_file):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "b.bin").write_bytes(W9)
        (corpus / "a.bin").write_bytes(SAMPLE_200)
        csv_path = tmp_path / "bench.csv"
        assert (
            main(["bench", str(corpus), "--orders", "2,1", "--csv", str(csv_path)]) == 0
        )
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "file,h,n,LEAHn,LH,LLZ,ratio"
        names = [line.split(",")[0:3] for line in lines[1:]]
        assert names == [
            ["a.bin", "200", "1"],
            ["a.bin", "200", "2"],
            ["b.bin", "9", "1"],
            ["b.bin", "9", "2"],
        ]

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        csv_path = tmp_path / "bench.csv"
        assert main(["bench", str(corpus), "--csv", str(csv_path)]) == 0
        assert csv_path.read_text().strip() == "file,h,n,LEAHn,LH,LLZ,ratio"

    def test_missing_corpus_fails(self, tmp_path):
        assert main(["bench", str(tmp_path / "nope"), "--csv", str(tmp_path / "x")]) != 0

    def test_empty_file_named(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "bad.bin").write_bytes(b"")
        assert main(["bench", str(corpus), "--csv", str(tmp_path / "x.csv")]) != 0
        assert "bad.bin" in capsys.readouterr().err
