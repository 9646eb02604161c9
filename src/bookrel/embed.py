"""Pretrained word-embedding tables and count-weighted vector pooling.

Books are chunked into fixed word-count windows at page granularity, and a
chunk's vector is the count-weighted sum of its in-vocabulary token vectors.
A book's vector is the same sum taken over the whole book, so it is invariant
to the chunk size used.
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

    def __contains__(self, word: str) -> bool:
        return word in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def get(self, word: str) -> np.ndarray | None:
        return self.vectors.get(word)


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


@dataclass(frozen=True)
class Chunk:
    ordinal: int
    tokens: dict[str, int]
    word_count: int


def chunk_book(book: Book, chunk_size: int = DEFAULT_CHUNK_SIZE) -> list[Chunk]:
    """Accumulate pages, in order, into the current chunk until it reaches
    `chunk_size` words, then start a new one. Pages are never split, so every
    chunk except the last overshoots to a page boundary; a trailing chunk with
    zero words (all-blank tail) is dropped."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    chunks: list[Chunk] = []
    tokens: dict[str, int] = {}
    word_count = 0
    for page in book.pages:
        for token, count in page.tokens.items():
            tokens[token] = tokens.get(token, 0) + count
        word_count += page.word_count
        if word_count >= chunk_size:
            chunks.append(Chunk(len(chunks), tokens, word_count))
            tokens, word_count = {}, 0
    if word_count >= 1:
        chunks.append(Chunk(len(chunks), tokens, word_count))
    return chunks


def chunk_vectors(
    book: Book, table: EmbeddingTable, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> np.ndarray:
    """All chunk vectors of a book as an (n_chunks, d) array. Row i is the
    count-weighted sum of chunk i's in-vocabulary token vectors;
    out-of-vocabulary tokens are skipped, so a fully out-of-vocabulary chunk
    is a zero row."""
    chunks = chunk_book(book, chunk_size)
    out = np.zeros((len(chunks), table.dimension), dtype=np.float64)
    for row, chunk in zip(out, chunks):
        for token, count in chunk.tokens.items():
            vec = table.vectors.get(token)
            if vec is not None:
                row += count * vec
    return out


def book_vector(book: Book, table: EmbeddingTable) -> np.ndarray:
    """Count-weighted embedding sum over the whole book (chunk-size invariant)."""
    vector = np.zeros(table.dimension, dtype=np.float64)
    for page in book.pages:
        for token, count in page.tokens.items():
            vec = table.vectors.get(token)
            if vec is not None:
                vector += count * vec
    return vector
