import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bookrel.corpus import make_book
from bookrel.embed import (
    EmbeddingFormatError,
    EmbeddingTable,
    book_vector,
    chunk_book,
    chunk_vectors,
    load_embeddings,
    save_embeddings,
)

from _support import book_with_pages, tiny_table


def test_load_embeddings_infers_dimension(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("cat 1.0 2.0 3.0\ndog 4.0 5.0 6.0\n", encoding="utf-8")
    table = load_embeddings(path)
    assert table.dimension == 3
    assert len(table.vectors) == 2
    assert np.allclose(table.vectors["dog"], [4.0, 5.0, 6.0])


def test_load_embeddings_rejects_mixed_dimensions(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("cat 1.0 2.0 3.0\ndog 4.0 5.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match=":2"):
        load_embeddings(path)


def test_load_embeddings_duplicate_last_wins(tmp_path, caplog):
    path = tmp_path / "emb.txt"
    path.write_text("cat 1.0\ncat 2.0\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        table = load_embeddings(path)
    assert table.vectors["cat"][0] == 2.0
    assert any("duplicate" in record.message for record in caplog.records)


def test_embeddings_round_trip_large(tmp_path):
    rng = np.random.default_rng(7)
    table = EmbeddingTable(
        8, {f"word{i:05d}": rng.standard_normal(8) for i in range(10_000)}
    )
    path = tmp_path / "big.txt"
    save_embeddings(table, path)
    again = load_embeddings(path)
    assert again.dimension == 8
    assert len(again.vectors) == 10_000
    for word in ("word00000", "word04999", "word09999"):
        assert np.allclose(again.vectors[word], table.vectors[word])


def test_chunk_book_page_granular_accumulation():
    book = book_with_pages("b", [3000, 3000, 3000])
    chunks = chunk_book(book, chunk_size=5000)
    assert [c.word_count for c in chunks] == [6000, 3000]
    assert [c.ordinal for c in chunks] == [0, 1]


def test_chunk_book_single_small_page():
    book = book_with_pages("b", [100])
    chunks = chunk_book(book, chunk_size=5000)
    assert len(chunks) == 1
    assert chunks[0].word_count == 100


def test_chunk_book_all_blank_pages_gives_no_chunks():
    book = book_with_pages("b", [0, 0, 0])
    assert chunk_book(book, chunk_size=100) == []


def test_chunk_book_rejects_bad_chunk_size():
    with pytest.raises(ValueError):
        chunk_book(book_with_pages("b", [1]), chunk_size=0)


@given(
    counts=st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=25),
    chunk_size=st.integers(min_value=1, max_value=900),
)
@settings(max_examples=60)
def test_chunk_invariants(counts, chunk_size):
    book = book_with_pages("b", counts)
    chunks = chunk_book(book, chunk_size)
    assert sum(c.word_count for c in chunks) == sum(counts)
    for chunk in chunks[:-1]:
        assert chunk.word_count >= chunk_size
    for chunk in chunks:
        assert chunk.word_count >= 1


def test_chunk_vector_scales_by_count():
    table = tiny_table({"a": [1.0, 0.0]})
    array = chunk_vectors(make_book("b", [{"a": 2}]), table, chunk_size=10)
    assert np.allclose(array, [[2.0, 0.0]])


def test_chunk_vector_all_oov():
    table = tiny_table({"a": [1.0, 0.0]})
    # the second chunk holds only out-of-vocabulary tokens: a zero row
    book = make_book("b", [{"a": 1}, {"zzz": 3}])
    array = chunk_vectors(book, table, chunk_size=1)
    assert np.allclose(array, [[1.0, 0.0], [0.0, 0.0]])


def test_chunk_vector_hand_sum():
    table = tiny_table({"a": [1.0, 2.0], "b": [3.0, 4.0]})
    array = chunk_vectors(make_book("b", [{"a": 1, "b": 1}]), table, chunk_size=10)
    assert np.allclose(array, [[4.0, 6.0]])


def test_book_vector_single_chunk_equals_chunk_vector():
    table = tiny_table({"a": [1.0, 1.0], "b": [0.5, -1.0]})
    book = make_book("b", [{"a": 2, "b": 1}])
    array = chunk_vectors(book, table, chunk_size=10)
    assert array.shape == (1, 2)
    assert np.allclose(book_vector(book, table), array[0])


def test_book_vector_hand_computed():
    table = tiny_table({"a": [1.0, 0.0], "b": [0.0, 2.0]})
    book = make_book("b", [{"a": 3}, {"b": 2, "a": 1}])
    assert np.allclose(book_vector(book, table), [4.0, 4.0])


@given(chunk_size=st.integers(min_value=1, max_value=5000))
@settings(max_examples=30)
def test_book_vector_invariant_to_chunk_size(chunk_size):
    table = tiny_table({"a": [1.0, 2.0], "b": [-1.0, 0.5], "c": [0.25, 0.25]})
    book = make_book(
        "b",
        [{"a": 40, "b": 3}, {"c": 17}, {"a": 5, "c": 2}, {"b": 60}],
    )
    total = chunk_vectors(book, table, chunk_size).sum(axis=0)
    assert np.allclose(total, book_vector(book, table))


def test_chunk_vector_linearity_under_merge():
    table = tiny_table({"a": [1.0, 0.0], "b": [0.0, 1.0]})
    book = make_book("b", [{"a": 2}, {"a": 1, "b": 4}])
    split = chunk_vectors(book, table, chunk_size=2)  # one chunk per page
    merged = chunk_vectors(book, table, chunk_size=7)  # both pages in one chunk
    assert split.shape == (2, 2) and merged.shape == (1, 2)
    assert np.allclose(merged[0], split[0] + split[1])


def test_chunk_vectors_array_shape():
    table = tiny_table({"a": [1.0, 0.0]})
    book = book_with_pages("b", [10, 10, 10], word="p")
    array = chunk_vectors(book, table, chunk_size=15)
    assert array.shape == (2, 2)
