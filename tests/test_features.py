import re

import numpy as np
import pytest

from bookrel import features
from bookrel.corpus import make_book
from bookrel.embed import chunk_vectors
from bookrel.features import (
    DEFAULT_MAX_WORDS,
    MANIFEST_NAME,
    MATRICES_NAME,
    META_NAME,
    PAIR_FEATURES_NAME,
    LabeledPair,
    featurize_pairs,
    load_features,
    read_labels,
    write_features,
    write_labels,
)
from bookrel.labels import RelationshipLabel

from _support import tiny_table, uniform_book


@pytest.fixture
def small_world():
    table = tiny_table(
        {
            "aaa": [1.0, 0.0, 0.0],
            "bbb": [0.0, 1.0, 0.0],
            "ccc": [0.0, 0.0, 1.0],
        }
    )
    # books whose pages hold in-vocabulary words
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


def test_featurize_pairs_pools_each_eligible_book_once(small_world, monkeypatch):
    table, left, right = small_world
    big = uniform_book("BIG", 10, words_per_page=200)
    books = {"L": left, "R": right, "BIG": big}
    pooled = []

    def counting(book, *args, **kwargs):
        pooled.append(book.id)
        return chunk_vectors(book, *args, **kwargs)

    monkeypatch.setattr(features, "chunk_vectors", counting)
    pairs = [
        LabeledPair("L", "R", RelationshipLabel.SW),
        LabeledPair("R", "L", RelationshipLabel.SW),
        LabeledPair("L", "GHOST", RelationshipLabel.DIFF),
        LabeledPair("GHOST", "R", RelationshipLabel.DIFF),
        LabeledPair("L", "BIG", RelationshipLabel.DIFF),
        LabeledPair("BIG", "R", RelationshipLabel.DIFF),
        LabeledPair("L", "R", RelationshipLabel.SW, "synthetic"),
    ]
    examples, skipped = featurize_pairs(
        pairs, books, table, chunk_size=4, matrix_size=6, max_words=100
    )
    assert len(examples) == 3
    assert skipped == {"oversize": 2, "truncated": 0, "missing_book": 2}
    assert sorted(pooled) == ["L", "R"]


def test_pair_vectors_are_centroid_and_difference_of_chunk_sums(small_world):
    table, left, right = small_world
    books = {"L": left, "R": right}
    pairs = [LabeledPair("L", "R", RelationshipLabel.SW),
             LabeledPair("R", "L", RelationshipLabel.SW),
             LabeledPair("L", "L", RelationshipLabel.SW)]
    examples, _ = featurize_pairs(pairs, books, table, chunk_size=1, matrix_size=6)
    for example in examples:
        l_vec = chunk_vectors(books[example.left_id], table, 1).sum(axis=0)
        r_vec = chunk_vectors(books[example.right_id], table, 1).sum(axis=0)
        assert np.array_equal(example.pair_vector,
                              np.concatenate([(l_vec + r_vec) / 2, l_vec - r_vec]))


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


def test_write_features_leaves_four_files_of_index_ordered_records(tmp_path, small_world):
    table, left, right = small_world
    pairs = [
        LabeledPair("L", "R", RelationshipLabel.SW),
        LabeledPair("R", "L", RelationshipLabel.SW, "synthetic"),
    ]
    examples, _ = featurize_pairs(
        pairs, {"L": left, "R": right}, table, chunk_size=4, matrix_size=6
    )
    write_features(examples, tmp_path, chunk_size=4, matrix_size=6)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [META_NAME, MANIFEST_NAME, MATRICES_NAME, PAIR_FEATURES_NAME])
    records = (tmp_path / MATRICES_NAME).read_bytes()
    record = 6 * 6 * 4
    assert len(records) == len(examples) * record
    for i, example in enumerate(examples):
        expected = example.matrix.values.astype("<f4").tobytes()
        assert records[i * record:(i + 1) * record] == expected

    first, second = load_features(tmp_path)
    assert not np.shares_memory(first.matrix.values, second.matrix.values)
    for before, after in zip(examples, (first, second)):
        assert (after.matrix.left_chunks, after.matrix.right_chunks) == (
            before.matrix.left_chunks, before.matrix.right_chunks)


def test_write_cut_short_leaves_a_store_that_does_not_load(tmp_path, small_world):
    written_store(tmp_path, small_world)
    table, left, right = small_world
    (example,), _ = featurize_pairs([LabeledPair("L", "R", RelationshipLabel.SW)],
                                    {"L": left, "R": right}, table, chunk_size=4,
                                    matrix_size=6)
    example.left_id = "L\t1"  # the manifest write refuses it after the records
    with pytest.raises(ValueError, match="contains a tab"):
        write_features([example], tmp_path, chunk_size=4, matrix_size=6)
    assert not (tmp_path / META_NAME).exists()
    with pytest.raises(FileNotFoundError):
        load_features(tmp_path)


@pytest.mark.parametrize("name,cut", [(MATRICES_NAME, 4), (PAIR_FEATURES_NAME, 4),
                                      (MATRICES_NAME, -4)],
                         ids=["short-matrices", "short-pair-features", "long-matrices"])
def test_load_features_refuses_record_file_of_wrong_size(tmp_path, small_world, name, cut):
    written_store(tmp_path, small_world)
    path = tmp_path / name
    data = path.read_bytes()
    path.write_bytes(data[:-cut] if cut > 0 else data + bytes(-cut))
    message = f"{path}: expected {len(data)} bytes (2 records of {len(data) // 2}), " \
              f"found {len(data) - cut}"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_features(tmp_path)


def test_load_features_refuses_manifest_row_count_other_than_meta(tmp_path, small_world):
    manifest, lines = written_store(tmp_path, small_world)
    manifest.write_text("".join(lines[:-1]), encoding="utf-8")
    message = f"{manifest}: 1 rows, but {META_NAME} count is 2"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_features(tmp_path)


def test_load_features_refuses_repeated_index(tmp_path, small_world):
    manifest, lines = written_store(tmp_path, small_world)
    lines[2] = "0" + lines[2][1:]
    manifest.write_text("".join(lines), encoding="utf-8")
    message = f"{manifest}:3: index 0 repeats {manifest}:2"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_features(tmp_path)


@pytest.mark.parametrize("column,value", [(-2, "x"), (-1, "-1"), (-2, "1.0"), (-1, "7")],
                         ids=["letters", "negative", "float", "over-side"])
def test_load_features_refuses_bad_chunk_count(tmp_path, small_world, column, value):
    manifest, lines = written_store(tmp_path, small_world)
    fields = lines[2].rstrip("\n").split("\t")
    fields[column] = value
    lines[2] = "\t".join(fields) + "\n"
    manifest.write_text("".join(lines), encoding="utf-8")
    message = f"{manifest}:3: chunk count {value!r} is not an integer in 0..6"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_features(tmp_path)


def test_load_features_refuses_old_per_pair_matrix_layout(tmp_path, small_world):
    manifest, lines = written_store(tmp_path, small_world)
    (tmp_path / MATRICES_NAME).unlink()
    old_header = "index\tleft_id\tright_id\tlabel\tprovenance\tmatrix_file\n"
    rows = ["\t".join(line.split("\t")[:5] + [f"matrices/{i:06d}.smx"]) + "\n"
            for i, line in enumerate(lines[1:])]
    manifest.write_text(old_header + "".join(rows), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{manifest}:1: bad header")):
        load_features(tmp_path)
