"""Featurized training pairs and their on-disk store.

A feature directory holds four files: ``features-meta.json`` (record count,
matrix side, pair dimension, chunk size), ``features-manifest.tsv`` (one row
per pair: index, ids, label, provenance and unpadded chunk counts), and two
files of fixed-size little-endian float32 records in index order,
``matrices.f32`` (side x side each) and ``pair-features.f32``. The meta file
is written last, so a directory whose write was cut short does not load.
Pairs whose books exceed the training word limit, or whose chunk count would
overflow the matrix, are excluded from training features. Each book is pooled
once per featurize call; its book vector is the sum of its chunk vectors.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Book, book_word_count
# book_vector, load_matrix and save_matrix go unused here: perfbench/tracing.py
# wraps them by name
from .embed import EmbeddingTable, book_vector, chunk_vectors, DEFAULT_CHUNK_SIZE
from .labels import RelationshipLabel
from .simmat import (
    DEFAULT_MATRIX_SIZE,
    SimilarityMatrix,
    load_matrix,
    pad_truncate,
    pair_features,
    pairwise_similarity,
    save_matrix,
)
from .tsv import read_tsv, write_tsv

MANIFEST_NAME = "features-manifest.tsv"
META_NAME = "features-meta.json"
PAIR_FEATURES_NAME = "pair-features.f32"
MATRICES_NAME = "matrices.f32"
MANIFEST_COLUMNS = ("index", "left_id", "right_id", "label", "provenance",
                    "left_chunks", "right_chunks")

DEFAULT_MAX_WORDS = 750_000


@dataclass(frozen=True)
class LabeledPair:
    left_id: str
    right_id: str
    label: RelationshipLabel
    provenance: str = "real"  # "real" | "synthetic"


@dataclass
class PairExample:
    left_id: str
    right_id: str
    matrix: SimilarityMatrix
    pair_vector: np.ndarray
    label: RelationshipLabel
    provenance: str


def featurize_pairs(
    pairs: Sequence[LabeledPair],
    books: Mapping[str, Book],
    table: EmbeddingTable,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    matrix_size: int = DEFAULT_MATRIX_SIZE,
    max_words: int = DEFAULT_MAX_WORDS,
    threads: int = 1,
) -> tuple[list[PairExample], dict[str, int]]:
    """Featurize labeled pairs, excluding any pair touching a book that is
    missing, over the word limit, or whose similarity matrix would be
    truncated, checked in that order. Returns (examples, skip counts by
    reason). Each book is pooled once per call: one `chunk_vectors` pass
    gives its chunk rows, whose sum is its book vector. A missing or
    oversize book is never pooled."""
    pooled: dict[str, tuple[np.ndarray, np.ndarray] | None] = {}

    def pool(book_id: str) -> tuple[np.ndarray, np.ndarray] | None:
        """A book's (chunk rows, book vector), or None if it is over the limit."""
        if book_id not in pooled:
            book = books[book_id]
            pooled[book_id] = None
            if book_word_count(book) <= max_words:
                chunks = chunk_vectors(book, table, chunk_size)
                pooled[book_id] = chunks, chunks.sum(axis=0)
        return pooled[book_id]

    skipped = {"oversize": 0, "truncated": 0, "missing_book": 0}
    eligible = []
    for pair in pairs:
        if pair.left_id not in books or pair.right_id not in books:
            skipped["missing_book"] += 1
            continue
        left, right = pool(pair.left_id), pool(pair.right_id)
        if left is None or right is None:
            skipped["oversize"] += 1
        elif max(len(left[0]), len(right[0])) > matrix_size:
            skipped["truncated"] += 1
        else:
            eligible.append((pair, left, right))

    def build(item) -> PairExample:
        pair, (left_chunks, left_vector), (right_chunks, right_vector) = item
        matrix = pad_truncate(pairwise_similarity(left_chunks, right_chunks), matrix_size)
        feats = pair_features(left_vector, right_vector)
        return PairExample(
            pair.left_id, pair.right_id, matrix, feats, pair.label, pair.provenance
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as executor:
            examples = list(executor.map(build, eligible))
    else:
        examples = [build(item) for item in eligible]
    return examples, skipped


def write_features(examples: Sequence[PairExample], out_dir: str | Path,
                   chunk_size: int, matrix_size: int) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta_path = out_dir / META_NAME
    meta_path.unlink(missing_ok=True)

    rows = []
    with open(out_dir / MATRICES_NAME, "wb") as matrices, \
            open(out_dir / PAIR_FEATURES_NAME, "wb") as feats:
        for index, example in enumerate(examples):
            matrices.write(np.ascontiguousarray(example.matrix.values, dtype="<f4"))
            feats.write(np.ascontiguousarray(example.pair_vector, dtype="<f4"))
            rows.append((index, example.left_id, example.right_id, example.label.value,
                         example.provenance, example.matrix.left_chunks,
                         example.matrix.right_chunks))
    write_tsv(out_dir / MANIFEST_NAME, MANIFEST_COLUMNS, rows)

    meta = {
        "count": len(examples),
        "matrix_size": matrix_size,
        "pair_dim": int(examples[0].pair_vector.size) if examples else 0,
        "chunk_size": chunk_size,
    }
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_features(directory: str | Path) -> list[PairExample]:
    """Load a feature directory, refusing one whose files disagree with
    ``features-meta.json``. Every example owns its own matrix array."""
    directory = Path(directory)
    with open(directory / META_NAME, encoding="utf-8") as handle:
        meta = json.load(handle)
    count, side = int(meta["count"]), int(meta["matrix_size"])
    pair_dim = int(meta["pair_dim"])
    manifest = directory / MANIFEST_NAME
    rows = list(read_tsv(manifest, MANIFEST_COLUMNS))
    if len(rows) != count:
        raise ValueError(f"{manifest}: {len(rows)} rows, but {META_NAME} "
                         f"count is {count}")
    _check_size(directory / PAIR_FEATURES_NAME, count, pair_dim * 4)
    vectors = np.fromfile(directory / PAIR_FEATURES_NAME, dtype="<f4").reshape(count, pair_dim)

    record = side * side * 4
    matrices_path = directory / MATRICES_NAME
    _check_size(matrices_path, count, record)
    examples: list[PairExample] = []
    seen: dict[int, str] = {}
    with open(matrices_path, "rb") as matrices:
        for where, fields in rows:
            index, left_id, right_id, label, provenance, left_chunks, right_chunks = fields
            if not index.isdecimal() or int(index) >= count:
                raise ValueError(f"{where}: index {index!r} is outside 0..{count - 1}")
            at = int(index)
            if at in seen:
                raise ValueError(f"{where}: index {at} repeats {seen[at]}")
            seen[at] = where
            values = np.empty((side, side), dtype="<f4")
            matrices.seek(at * record)
            if matrices.readinto(values) != record:
                raise ValueError(f"{matrices_path}: record {at} is short")
            matrix = SimilarityMatrix(values, _parse_chunks(left_chunks, side, where),
                                      _parse_chunks(right_chunks, side, where))
            examples.append(PairExample(left_id, right_id, matrix,
                                        vectors[at].astype(np.float64),
                                        _parse_label(label, where), provenance))
    return examples


def _check_size(path: Path, count: int, record: int) -> None:
    found = path.stat().st_size
    if found != count * record:
        raise ValueError(f"{path}: expected {count * record} bytes ({count} records "
                         f"of {record}), found {found}")


def _parse_chunks(value: str, side: int, where: str) -> int:
    if not value.isdecimal() or int(value) > side:
        raise ValueError(f"{where}: chunk count {value!r} is not an integer in 0..{side}")
    return int(value)


def _parse_label(value: str, where: str) -> RelationshipLabel:
    try:
        return RelationshipLabel(value)
    except ValueError:
        raise ValueError(f"{where}: unknown label {value!r}") from None


LABELS_COLUMNS = ("left_id", "right_id", "label", "provenance")


def write_labels(pairs: Iterable[LabeledPair], path: str | Path) -> None:
    write_tsv(path, LABELS_COLUMNS, ((pair.left_id, pair.right_id, pair.label.value,
                                      pair.provenance) for pair in pairs))


def read_labels(path: str | Path) -> list[LabeledPair]:
    """Read a labeled-pair TSV; without a provenance column, pairs are real."""
    pairs: list[LabeledPair] = []
    for where, fields in read_tsv(path, LABELS_COLUMNS, LABELS_COLUMNS[:3]):
        left_id, right_id, label, *provenance = fields
        pairs.append(LabeledPair(left_id, right_id, _parse_label(label, where),
                                 *provenance))
    return pairs
