"""Featurized training pairs and their on-disk store.

A feature directory holds one similarity-matrix file per pair plus a single
flat file of fixed-width pair-feature records, indexed by
``features-manifest.tsv``. Pairs whose books exceed the training word limit,
or whose chunk count would overflow the matrix, are excluded from training
features.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Book, book_word_count
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

MANIFEST_NAME = "features-manifest.tsv"
META_NAME = "features-meta.json"
PAIR_FEATURES_NAME = "pair-features.f32"
MANIFEST_COLUMNS = ("index", "left_id", "right_id", "label", "provenance", "matrix_file")

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
    over the word limit or whose similarity matrix would be truncated.
    Returns (examples, skip counts by reason). Each book's chunk vectors and
    book vector are computed once per call."""
    chunk_cache: dict[str, np.ndarray] = {}
    vector_cache: dict[str, np.ndarray] = {}

    def chunks(book_id: str) -> np.ndarray:
        if book_id not in chunk_cache:
            chunk_cache[book_id] = chunk_vectors(books[book_id], table, chunk_size)
        return chunk_cache[book_id]

    def vector(book_id: str) -> np.ndarray:
        if book_id not in vector_cache:
            vector_cache[book_id] = book_vector(books[book_id], table)
        return vector_cache[book_id]

    skipped = {"oversize": 0, "truncated": 0, "missing_book": 0}

    eligible: list[LabeledPair] = []
    for pair in pairs:
        if pair.left_id not in books or pair.right_id not in books:
            skipped["missing_book"] += 1
            continue
        if (
            book_word_count(books[pair.left_id]) > max_words
            or book_word_count(books[pair.right_id]) > max_words
        ):
            skipped["oversize"] += 1
            continue
        if (
            len(chunks(pair.left_id)) > matrix_size
            or len(chunks(pair.right_id)) > matrix_size
        ):
            skipped["truncated"] += 1
            continue
        eligible.append(pair)

    def build(pair: LabeledPair) -> PairExample:
        matrix = pad_truncate(
            pairwise_similarity(chunks(pair.left_id), chunks(pair.right_id)), matrix_size
        )
        feats = pair_features(vector(pair.left_id), vector(pair.right_id))
        return PairExample(
            pair.left_id, pair.right_id, matrix, feats, pair.label, pair.provenance
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            examples = list(pool.map(build, eligible))
    else:
        examples = [build(pair) for pair in eligible]
    return examples, skipped


def write_features(examples: Sequence[PairExample], out_dir: str | Path,
                   chunk_size: int, matrix_size: int) -> None:
    out_dir = Path(out_dir)
    matrices_dir = out_dir / "matrices"
    matrices_dir.mkdir(parents=True, exist_ok=True)

    pair_dim = int(examples[0].pair_vector.size) if examples else 0
    meta = {
        "count": len(examples),
        "matrix_size": matrix_size,
        "pair_dim": pair_dim,
        "chunk_size": chunk_size,
    }
    with open(out_dir / META_NAME, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, sort_keys=True, indent=2)
        handle.write("\n")

    with open(out_dir / PAIR_FEATURES_NAME, "wb") as feats:
        with open(out_dir / MANIFEST_NAME, "w", encoding="utf-8") as manifest:
            manifest.write("\t".join(MANIFEST_COLUMNS) + "\n")
            for index, example in enumerate(examples):
                matrix_file = f"matrices/{index:06d}.smx"
                save_matrix(example.matrix, out_dir / matrix_file)
                feats.write(
                    np.ascontiguousarray(example.pair_vector, dtype="<f4").tobytes()
                )
                manifest.write(
                    f"{index}\t{example.left_id}\t{example.right_id}\t"
                    f"{example.label.value}\t{example.provenance}\t{matrix_file}\n"
                )


def load_features(directory: str | Path) -> list[PairExample]:
    directory = Path(directory)
    with open(directory / META_NAME, encoding="utf-8") as handle:
        meta = json.load(handle)
    pair_dim = int(meta["pair_dim"])
    raw = np.fromfile(directory / PAIR_FEATURES_NAME, dtype="<f4")
    if pair_dim and raw.size != meta["count"] * pair_dim:
        raise ValueError(f"{directory}: pair-features size mismatch")
    vectors = raw.reshape(meta["count"], pair_dim) if pair_dim else raw.reshape(0, 0)

    examples: list[PairExample] = []
    manifest = directory / MANIFEST_NAME
    with open(manifest, encoding="utf-8") as handle:
        header = tuple(handle.readline().rstrip("\n").split("\t"))
        if header != MANIFEST_COLUMNS:
            raise ValueError(f"{directory}: bad features manifest header")
        for line_no, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != len(MANIFEST_COLUMNS):
                raise ValueError(f"{manifest}:{line_no}: expected "
                                 f"{len(MANIFEST_COLUMNS)} fields, got {len(fields)}")
            index_s, left_id, right_id, label, provenance, matrix_file = fields
            if not index_s.isdecimal() or int(index_s) >= len(vectors):
                raise ValueError(f"{manifest}:{line_no}: index {index_s!r} is outside "
                                 f"0..{len(vectors) - 1}")
            index = int(index_s)
            examples.append(
                PairExample(
                    left_id,
                    right_id,
                    load_matrix(directory / matrix_file),
                    vectors[index].astype(np.float64),
                    RelationshipLabel(label),
                    provenance,
                )
            )
    return examples


LABELS_COLUMNS = ("left_id", "right_id", "label", "provenance")


def write_labels(pairs: Iterable[LabeledPair], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\t".join(LABELS_COLUMNS) + "\n")
        for pair in pairs:
            handle.write(
                f"{pair.left_id}\t{pair.right_id}\t{pair.label.value}\t{pair.provenance}\n"
            )


def read_labels(path: str | Path, default_provenance: str = "real") -> list[LabeledPair]:
    """Read a labeled-pair TSV; a missing provenance column defaults to real."""
    pairs: list[LabeledPair] = []
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split("\t")
        if header[:3] != list(LABELS_COLUMNS[:3]):
            raise ValueError(f"{path}: bad labels header {header}")
        has_provenance = len(header) >= 4 and header[3] == "provenance"
        n_fields = 4 if has_provenance else 3
        for line_no, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) < n_fields:
                raise ValueError(
                    f"{path}:{line_no}: expected {n_fields} fields, got {len(fields)}"
                )
            provenance = fields[3] if has_provenance else default_provenance
            pairs.append(
                LabeledPair(fields[0], fields[1], RelationshipLabel(fields[2]), provenance)
            )
    return pairs
