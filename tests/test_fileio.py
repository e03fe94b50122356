import numpy as np
import pytest

from hyperclust import (
    FileFormatError,
    InteractionHypergraph,
    read_communities,
    read_interactions,
    write_communities,
    write_interactions,
)
from hyperclust.fileio import read_text, write_csv, write_text


def test_round_trip(tmp_path, toy_hypergraph):
    path = tmp_path / "toy.txt"
    write_interactions(toy_hypergraph, path)
    assert read_interactions(path) == toy_hypergraph
    assert path.read_text().startswith("#n=6\n")


def test_node_count_defaults_to_max_id(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("1 2\n4 5\n")
    assert read_interactions(path).n == 5


def test_header_fixes_node_count(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("#n=9\n1 2\n")
    assert read_interactions(path).n == 9


def test_comments_and_blanks_are_skipped(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("# a comment\n\n1 2\n# another\n2 3\n")
    assert read_interactions(path).m == 2


def test_header_conflict_rejected(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("#n=5\n#n=6\n1 2\n")
    with pytest.raises(FileFormatError, match="conflicting"):
        read_interactions(path)


def test_bad_token_reports_line_number(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("1 2\n3 x\n")
    with pytest.raises(FileFormatError) as info:
        read_interactions(path)
    assert info.value.line_no == 2
    assert "h.txt:2" in str(info.value)


def test_nonpositive_id_rejected(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("0 1\n")
    with pytest.raises(FileFormatError, match=r"h\.txt:1: node ids must be positive, got 0$") as info:
        read_interactions(path)
    assert info.value.line_no == 1


def test_repeated_vertex_rejected(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("1 2 1\n")
    with pytest.raises(FileFormatError, match=r"h\.txt:1: repeated vertex in interaction: \[1, 1, 2\]$") as info:
        read_interactions(path)
    assert info.value.line_no == 1


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("1 2\n3 99999999999999999999\n", 2, "node id 99999999999999999999 exceeds the int64 limit"),
        ("#n=99999999999999999999\n1 2\n", 1, "node count 99999999999999999999 exceeds the int64 limit"),
    ],
    ids=["id", "header"],
)
def test_id_beyond_int64_names_its_line(tmp_path, text, line_no, message):
    path = tmp_path / "h.txt"
    path.write_text(text)
    with pytest.raises(FileFormatError, match=rf"h\.txt:{line_no}: {message}") as info:
        read_interactions(path)
    assert info.value.line_no == line_no


def test_hypergraph_too_large_to_index_rejected(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("#n=2305843009213693952\n1 2\n1\n1\n1\n")
    with pytest.raises(FileFormatError, match=r"h\.txt: n \* m must stay below 2\*\*63") as info:
        read_interactions(path)
    assert info.value.line_no is None


def test_id_exceeding_header_rejected(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("#n=2\n1 3\n")
    with pytest.raises(FileFormatError, match="exceeds"):
        read_interactions(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("")
    with pytest.raises(FileFormatError, match="no interactions"):
        read_interactions(path)
    path.write_text("# only comments\n")
    with pytest.raises(FileFormatError):
        read_interactions(path)


def test_communities_round_trip(tmp_path):
    path = tmp_path / "z.txt"
    write_communities([1, 1, 2, 2, 3], path)
    assert np.array_equal(read_communities(path), [1, 1, 2, 2, 3])


def test_communities_are_canonicalized(tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("0\n0\n5\n2\n")
    assert np.array_equal(read_communities(path), [1, 1, 3, 2])


def test_communities_bad_label(tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("1\nblue\n")
    with pytest.raises(FileFormatError) as info:
        read_communities(path)
    assert info.value.line_no == 2


def test_unicode_ok(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("# données\n1 2\n", encoding="utf-8")
    assert read_interactions(path).m == 1


def test_byte_order_mark_is_dropped(tmp_path):
    h, z = tmp_path / "h.txt", tmp_path / "z.txt"
    h.write_text("\ufeff#n=3\n1 2\n", encoding="utf-8")
    z.write_text("\ufeff4\n4\n7\n", encoding="utf-8")
    assert read_interactions(h) == InteractionHypergraph(3, [[1, 2]])
    assert np.array_equal(read_communities(z), [1, 1, 2])
    assert read_text(h) == "#n=3\n1 2\n"


def test_writers_create_missing_directories(tmp_path, toy_hypergraph):
    h, z = tmp_path / "a" / "h.txt", tmp_path / "b" / "c" / "z.txt"
    write_interactions(toy_hypergraph, h)
    write_communities([1, 2], z)
    assert read_interactions(h) == toy_hypergraph
    assert z.read_bytes() == b"1\n2\n"


def test_write_csv_and_write_text(tmp_path):
    path = tmp_path / "new" / "t.csv"
    write_csv(path, ["a", "b"], ([i, f"x{i}"] for i in range(2)))
    assert path.read_bytes() == b"a,b\r\n0,x0\r\n1,x1\r\n"
    write_text(path, "données\n")
    assert path.read_bytes() == "données\n".encode("utf-8")
