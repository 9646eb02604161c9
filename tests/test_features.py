import re

import numpy as np
import pytest

from bookrel.corpus import BookMetadata
from bookrel.features import (
    DEFAULT_MAX_WORDS,
    MANIFEST_NAME,
    LabeledPair,
    featurize_pairs,
    load_features,
    read_labels,
    write_features,
    write_labels,
)
from bookrel.labels import RelationshipLabel

from _support import book_with_pages, tiny_table, uniform_book


@pytest.fixture
def small_world():
    table = tiny_table(
        {
            "aaa": [1.0, 0.0, 0.0],
            "bbb": [0.0, 1.0, 0.0],
            "ccc": [0.0, 0.0, 1.0],
        }
    )
    left = book_with_pages("L", [4, 4, 4], word="x")  # tokens x0000.. are OOV
    # books whose pages hold in-vocabulary words
    from bookrel.corpus import make_book

    left = make_book("L", [{"aaa": 3}, {"bbb": 2}, {"aaa": 1, "ccc": 1}])
    right = make_book("R", [{"aaa": 2, "bbb": 2}, {"ccc": 4}])
    return table, left, right


def test_featurize_pair_shapes(small_world):
    table, left, right = small_world
    pairs = [LabeledPair("L", "R", RelationshipLabel.SW)]
    (example,), _ = featurize_pairs(
        pairs, {"L": left, "R": right}, table, chunk_size=4, matrix_size=6
    )
    assert example.matrix.size == 6
    assert example.matrix.left_chunks >= 1 and example.matrix.right_chunks >= 1
    assert example.pair_vector.size == 6  # 2 * dimension


def test_featurize_pairs_and_store_round_trip(tmp_path, small_world):
    table, left, right = small_world
    books = {"L": left, "R": right}
    pairs = [
        LabeledPair("L", "R", RelationshipLabel.SW, "real"),
        LabeledPair("R", "L", RelationshipLabel.SW, "synthetic"),
    ]
    examples, skipped = featurize_pairs(pairs, books, table, chunk_size=4, matrix_size=6)
    assert len(examples) == 2
    assert skipped == {"oversize": 0, "truncated": 0, "missing_book": 0}

    write_features(examples, tmp_path, chunk_size=4, matrix_size=6)
    again = load_features(tmp_path)
    assert len(again) == 2
    for before, after in zip(examples, again):
        assert before.left_id == after.left_id
        assert before.label == after.label
        assert before.provenance == after.provenance
        assert np.array_equal(before.matrix.values, after.matrix.values)
        assert np.allclose(before.pair_vector, after.pair_vector, atol=1e-6)


def test_featurize_pairs_skips_missing_and_oversize(small_world):
    table, left, right = small_world
    big = uniform_book("BIG", 10, words_per_page=200)
    books = {"L": left, "R": right, "BIG": big}
    pairs = [
        LabeledPair("L", "R", RelationshipLabel.SW),
        LabeledPair("L", "GHOST", RelationshipLabel.DIFF),
        LabeledPair("L", "BIG", RelationshipLabel.DIFF),
    ]
    examples, skipped = featurize_pairs(
        pairs, books, table, chunk_size=4, matrix_size=6, max_words=100
    )
    assert len(examples) == 1
    assert skipped["missing_book"] == 1
    assert skipped["oversize"] == 1

    # the default limit is inclusive: exactly 750 000 words is kept
    keep = uniform_book("keep", 1, words_per_page=DEFAULT_MAX_WORDS)
    drop = uniform_book("drop", 1, words_per_page=DEFAULT_MAX_WORDS + 1)
    books = {"L": left, "keep": keep, "drop": drop}
    pairs = [
        LabeledPair("L", "keep", RelationshipLabel.DIFF),
        LabeledPair("L", "drop", RelationshipLabel.DIFF),
    ]
    examples, skipped = featurize_pairs(pairs, books, table, chunk_size=4, matrix_size=6)
    assert [ex.right_id for ex in examples] == ["keep"]
    assert skipped["oversize"] == 1
    assert DEFAULT_MAX_WORDS == 750_000


def test_featurize_pairs_skips_truncated(small_world):
    table, left, right = small_world
    books = {"L": left, "R": right}
    pairs = [LabeledPair("L", "R", RelationshipLabel.SW)]
    # chunk_size 1 -> one chunk per page; matrix_size 2 < 3 chunks on the left
    examples, skipped = featurize_pairs(
        pairs, books, table, chunk_size=1, matrix_size=2
    )
    assert examples == []
    assert skipped["truncated"] == 1


def test_featurize_pairs_threads_match_serial(small_world):
    table, left, right = small_world
    books = {"L": left, "R": right}
    pairs = [
        LabeledPair("L", "R", RelationshipLabel.SW),
        LabeledPair("R", "L", RelationshipLabel.SW),
    ]
    serial, _ = featurize_pairs(pairs, books, table, chunk_size=4, matrix_size=6)
    threaded, _ = featurize_pairs(
        pairs, books, table, chunk_size=4, matrix_size=6, threads=4
    )
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.matrix.values, b.matrix.values)
        assert np.array_equal(a.pair_vector, b.pair_vector)


def test_labels_round_trip(tmp_path):
    pairs = [
        LabeledPair("a", "b", RelationshipLabel.CONTAINS, "real"),
        LabeledPair("b", "a", RelationshipLabel.PARTOF, "synthetic"),
    ]
    path = tmp_path / "labels.tsv"
    write_labels(pairs, path)
    assert read_labels(path) == pairs


def test_read_labels_defaults_provenance(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("left_id\tright_id\tlabel\nx\ty\tDV\n", encoding="utf-8")
    pairs = read_labels(path)
    assert pairs == [LabeledPair("x", "y", RelationshipLabel.DV, "real")]


@pytest.mark.parametrize("text,message", [
    ("left_id\tright_id\tlabel\nx\ty\tDV\nx\ty\n", ":3: expected 3 fields, got 2"),
    ("left_id\tright_id\tlabel\nx\ty\tDV\textra\n", ":2: expected 3 fields, got 4"),
    ("left_id\tright_id\tlabel\tprovenance\nx\ty\tDV\treal\textra\n",
     ":2: expected 4 fields, got 5"),
    ("left_id\tright_id\tlabel\textra\nx\ty\tDV\te\n", ":1: bad header"),
], ids=["short-row", "long-row", "long-row-with-provenance", "extra-header-column"])
def test_read_labels_row_width_names_file_and_line(tmp_path, text, message):
    path = tmp_path / "labels.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
        read_labels(path)


def test_write_labels_refuses_tab_in_id(tmp_path):
    path = tmp_path / "labels.tsv"
    pairs = [LabeledPair("x\t1", "y", RelationshipLabel.DV)]
    with pytest.raises(ValueError, match=re.escape(f"{path}: field 'x\\t1'")):
        write_labels(pairs, path)
    assert not path.exists()


def written_store(tmp_path, small_world):
    """A two-record feature store and its manifest's lines."""
    table, left, right = small_world
    pairs = [
        LabeledPair("L", "R", RelationshipLabel.SW),
        LabeledPair("R", "L", RelationshipLabel.SW),
    ]
    examples, _ = featurize_pairs(
        pairs, {"L": left, "R": right}, table, chunk_size=4, matrix_size=6
    )
    write_features(examples, tmp_path, chunk_size=4, matrix_size=6)
    manifest = tmp_path / MANIFEST_NAME
    return manifest, manifest.read_text(encoding="utf-8").splitlines(keepends=True)


@pytest.mark.parametrize("bad_index", ["2", "-1"])
def test_load_features_index_outside_count_names_file_and_line(
    tmp_path, small_world, bad_index
):
    manifest, lines = written_store(tmp_path, small_world)
    lines[2] = bad_index + lines[2][1:]
    manifest.write_text("".join(lines), encoding="utf-8")
    message = f"{manifest}:3: index '{bad_index}' is outside 0..1"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_features(tmp_path)


def test_read_labels_unknown_label_names_file_and_line(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("left_id\tright_id\tlabel\nx\ty\tDV\nx\ty\tXX\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: unknown label 'XX'")):
        read_labels(path)


def test_load_features_unknown_label_names_file_and_line(tmp_path, small_world):
    manifest, lines = written_store(tmp_path, small_world)
    lines[2] = lines[2].replace("\tSW\t", "\tXX\t")
    manifest.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{manifest}:3: unknown label 'XX'")):
        load_features(tmp_path)


def test_load_features_bad_matrix_names_manifest_line(tmp_path, small_world):
    manifest, lines = written_store(tmp_path, small_world)
    matrix_file = tmp_path / lines[2].rstrip("\n").split("\t")[-1]
    matrix_file.write_bytes(matrix_file.read_bytes()[:-4])
    with pytest.raises(ValueError, match=re.escape(f"{manifest}:3: {matrix_file}: expected")):
        load_features(tmp_path)
