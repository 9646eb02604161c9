import re

import pytest

from bookrel.tsv import read_tsv, write_tsv


def test_round_trip_skips_blank_lines_and_names_lines(tmp_path):
    path = tmp_path / "t.tsv"
    write_tsv(path, ("a", "b"), [("x", 1), ("", "y")])
    assert path.read_text(encoding="utf-8") == "a\tb\nx\t1\n\ty\n"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n  \nz\t2\n")
    assert list(read_tsv(path, ("a", "b"))) == [
        (f"{path}:2", ["x", "1"]), (f"{path}:3", ["", "y"]), (f"{path}:6", ["z", "2"]),
    ]


def test_empty_file_names_line_one(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: bad header")):
        list(read_tsv(path, ("a",)))


@pytest.mark.parametrize("field", ["a\tb", "a\nb", "a\rb"])
def test_write_refuses_separator_in_field_and_writes_nothing(tmp_path, field):
    path = tmp_path / "t.tsv"
    with pytest.raises(ValueError, match=re.escape(f"{path}: field {field!r}")):
        write_tsv(path, ("a", "b"), [("ok", "ok"), ("ok", field)])
    assert not path.exists()

