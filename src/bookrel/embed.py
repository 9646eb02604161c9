"""Pretrained word-embedding tables and count-weighted vector pooling.

Books are chunked into fixed word-count windows at page granularity, and a
chunk's vector is the count-weighted sum of its in-vocabulary token vectors.
One pass over a book's tokens gives all its chunk vectors; the book's vector
is the sum of its chunk vectors, so it is invariant to the chunk size used.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Book

log = logging.getLogger(__name__)

DEFAULT_CHUNK_SIZE = 5000


class EmbeddingFormatError(ValueError):
    """An embedding file line that cannot be parsed consistently."""


@dataclass
class EmbeddingTable:
    dimension: int
    vectors: dict[str, np.ndarray]


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Load a plain-text embedding file: one "word f1 ... fd" entry per line,
    no header. The dimension is inferred from the first line; later lines
    with a different dimension raise EmbeddingFormatError naming the line.
    Duplicate words keep the last entry (a warning is logged)."""
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    dimension: int | None = None
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) < 2:
                raise EmbeddingFormatError(f"{path}:{line_no}: no vector components")
            word = fields[0].lower()
            try:
                values = np.array([float(f) for f in fields[1:]], dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingFormatError(f"{path}:{line_no}: {exc}") from exc
            if dimension is None:
                dimension = values.size
            elif values.size != dimension:
                raise EmbeddingFormatError(
                    f"{path}:{line_no}: dimension {values.size} != {dimension}"
                )
            if word in vectors:
                log.warning("duplicate embedding entry %r at %s:%d (last wins)",
                            word, path, line_no)
            vectors[word] = values
    if dimension is None:
        raise EmbeddingFormatError(f"{path}: empty embedding file")
    return EmbeddingTable(dimension, vectors)


def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for word in table.vectors:
            components = " ".join(repr(float(x)) for x in table.vectors[word])
            handle.write(f"{word} {components}\n")


def chunk_vectors(
    book: Book, table: EmbeddingTable, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> np.ndarray:
    """All chunk vectors of a book as an (n_chunks, d) array, from one pass
    over its tokens.

    Each page is pooled once, as the count-weighted sum of its in-vocabulary
    token vectors (out-of-vocabulary tokens are skipped). Pages then
    accumulate, in order, into the current chunk until it reaches
    `chunk_size` words, and a new chunk starts. Pages are never split, so
    every chunk except the last overshoots to a page boundary; a trailing
    chunk with zero words (all-blank tail) is dropped. A chunk whose tokens
    are all out of vocabulary is a zero row."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    pages = np.zeros((len(book.pages), table.dimension), dtype=np.float64)
    starts, words = [0], 0
    for i, page in enumerate(book.pages):
        known = [(count, table.vectors[token]) for token, count in page.tokens.items()
                 if token in table.vectors]
        if known:
            counts, vectors = zip(*known)
            pages[i] = np.asarray(counts, dtype=np.float64) @ np.asarray(vectors)
        words += page.word_count
        if words >= chunk_size:
            starts.append(i + 1)
            words = 0
    if words == 0:  # the last start opens an empty chunk
        starts.pop()
    if not starts:
        return np.zeros((0, table.dimension), dtype=np.float64)
    return np.add.reduceat(pages, starts, axis=0)


def book_vector(book: Book, table: EmbeddingTable) -> np.ndarray:
    """The sum of the book's chunk vectors: the count-weighted embedding sum
    over the whole book, whatever the chunk size."""
    return chunk_vectors(book, table).sum(axis=0)
