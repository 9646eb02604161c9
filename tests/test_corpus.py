import json
import re

import pytest
from hypothesis import given, strategies as st

from bookrel.corpus import (
    Book,
    BookFormatError,
    BookMetadata,
    Page,
    book_from_json,
    book_to_json,
    book_word_count,
    dedup_by_author_title,
    length_percentile,
    load_book,
    make_book,
    read_manifest,
    save_book,
    write_manifest,
)

from _support import book_with_pages


def write_book_file(tmp_path, doc, name="book.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_load_book_sums_token_counts(tmp_path):
    path = write_book_file(
        tmp_path,
        {
            "id": "b1",
            "metadata": {"title": "T", "author": "A"},
            "pages": [{"tokens": {"the": 2, "cat": 1}}, {"tokens": {"dog": 4}}],
        },
    )
    book = load_book(path)
    assert book.pages[0].word_count == 3
    assert book.pages[1].word_count == 4
    assert book_word_count(book) == 7


def test_load_book_keeps_file_order_and_reindexes(tmp_path):
    # stray index fields are ignored: position in the file wins
    path = write_book_file(
        tmp_path,
        {
            "id": "b1",
            "pages": [
                {"index": 5, "tokens": {"last": 1}},
                {"index": 0, "tokens": {"first": 1}},
            ],
        },
    )
    book = load_book(path)
    assert [p.index for p in book.pages] == [0, 1]
    assert "last" in book.pages[0].tokens


def test_load_book_accepts_blank_page(tmp_path):
    path = write_book_file(
        tmp_path, {"id": "b1", "pages": [{"tokens": {}}, {"tokens": {"a": 1}}]}
    )
    book = load_book(path)
    assert book.pages[0].word_count == 0


def test_load_book_lowercases_and_merges(tmp_path):
    path = write_book_file(
        tmp_path, {"id": "b1", "pages": [{"tokens": {"The": 2, "the": 1}}]}
    )
    book = load_book(path)
    assert book.pages[0].tokens == {"the": 3}


def test_load_book_rejects_bad_counts_naming_page(tmp_path):
    path = write_book_file(
        tmp_path,
        {"id": "b1", "pages": [{"tokens": {"a": 1}}, {"tokens": {"b": 0}}]},
    )
    with pytest.raises(BookFormatError, match="page 1"):
        load_book(path)


def test_load_book_rejects_empty_page_list(tmp_path):
    path = write_book_file(tmp_path, {"id": "b1", "pages": []})
    with pytest.raises(BookFormatError, match="empty page list"):
        load_book(path)


def test_load_book_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(BookFormatError, match="invalid JSON"):
        load_book(path)


def test_book_from_json_inverts_book_to_json():
    book = make_book("b9", [{"alpha": 2}, {}], BookMetadata(title="T", work_key="w1"))
    assert book_from_json(book_to_json(book), "b9.json") == book


def test_book_from_json_names_the_path():
    with pytest.raises(BookFormatError, match=re.escape("where.json: expected an object")):
        book_from_json([1, 2], "where.json")


def test_save_load_round_trip(tmp_path):
    book = make_book(
        "b9",
        [{"alpha": 2, "beta": 1}, {}, {"gamma": 5}],
        BookMetadata(title="A Title", author="An Author",
                     enumeration_raw="v.2", work_key="w1"),
    )
    path = tmp_path / "b9.json"
    save_book(book, path)
    again = load_book(path)
    assert again.id == book.id
    assert [p.tokens for p in again.pages] == [p.tokens for p in book.pages]
    assert again.metadata == book.metadata


def test_book_word_count_brute_force():
    counts = [100] * 10
    book = book_with_pages("b", counts)
    assert book_word_count(book) == sum(counts) == 1000


def test_book_word_count_trivial_cases():
    assert book_word_count(book_with_pages("b", [3, 5])) == 8
    assert book_word_count(book_with_pages("b", [0])) == 0


def test_book_requires_contiguous_indices():
    with pytest.raises(ValueError, match="position 1"):
        Book("b", (Page(0, {"a": 1}), Page(2, {"b": 1})))


def test_length_percentile_nearest_rank():
    books = [book_with_pages(f"b{i}", [c]) for i, c in enumerate([10, 20, 30, 40, 50])]
    assert length_percentile(books, 0.4) == 20
    assert length_percentile(books, 0.0) == 10
    assert length_percentile(books, 1.0) == 50


def test_length_percentile_errors():
    with pytest.raises(ValueError):
        length_percentile([], 0.5)
    with pytest.raises(ValueError):
        length_percentile([book_with_pages("b", [1])], 1.5)


@given(
    counts=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=30),
    qs=st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=2),
)
def test_length_percentile_monotone_in_q(counts, qs):
    books = [book_with_pages(f"b{i}", [c]) for i, c in enumerate(counts)]
    lo, hi = sorted(qs)
    assert length_percentile(books, lo) <= length_percentile(books, hi)


def _meta(author, title):
    return BookMetadata(title=title, author=author)


def test_dedup_keeps_smallest_id():
    books = [
        book_with_pages("b2", [5], metadata=_meta("Smith", "Tales")),
        book_with_pages("b1", [5], metadata=_meta("Smith", "Tales")),
    ]
    kept = dedup_by_author_title(books)
    assert [b.id for b in kept] == ["b1"]


def test_dedup_distinguishes_authors():
    books = [
        book_with_pages("b1", [5], metadata=_meta("Smith", "Tales")),
        book_with_pages("b2", [5], metadata=_meta("Jones", "Tales")),
    ]
    assert len(dedup_by_author_title(books)) == 2


def test_dedup_normalizes_case_and_whitespace():
    books = [
        book_with_pages("b1", [5], metadata=_meta("Smith", "Collected  Tales")),
        book_with_pages("b2", [5], metadata=_meta("SMITH", "collected tales")),
    ]
    assert [b.id for b in dedup_by_author_title(books)] == ["b1"]


def test_dedup_idempotent():
    books = [
        book_with_pages("b1", [5], metadata=_meta("A", "X")),
        book_with_pages("b2", [5], metadata=_meta("A", "X")),
        book_with_pages("b3", [5], metadata=_meta("B", "Y")),
    ]
    once = dedup_by_author_title(books)
    assert dedup_by_author_title(once) == once


def test_manifest_round_trip(tmp_path):
    entries = [("b1", "books/b1.json", 120), ("b2", "books/b2.json", 99)]
    path = tmp_path / "manifest.tsv"
    write_manifest(entries, path)
    assert read_manifest(path) == entries


@pytest.mark.parametrize("row,message", [
    ("b2\tbooks/b2.json", ":3: expected 3 fields, got 2"),
    ("b2\tbooks/b2.json\t99\textra", ":3: expected 3 fields, got 4"),
    ("b2\tbooks/b2.json\tmany", ":3: word_count 'many' is not a whole number"),
], ids=["short-row", "long-row", "word-count"])
def test_read_manifest_bad_row_names_file_and_line(tmp_path, row, message):
    path = tmp_path / "manifest.tsv"
    path.write_text(f"id\tpath\tword_count\nb1\tbooks/b1.json\t120\n{row}\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
        read_manifest(path)


def test_write_manifest_refuses_tab_in_book_id(tmp_path):
    """A book id with a tab loads from JSON but cannot become a manifest row."""
    book_path = write_book_file(tmp_path, {"id": "b\t1", "pages": [{"tokens": {"a": 1}}]})
    book = load_book(book_path)
    path = tmp_path / "manifest.tsv"
    with pytest.raises(ValueError, match=re.escape(f"{path}: field 'b\\t1'")):
        write_manifest([(book.id, book_path.name, book_word_count(book))], path)
    assert not path.exists()
