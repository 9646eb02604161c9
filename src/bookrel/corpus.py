"""Data model and ingestion for page-level token-count books.

A book file is a single JSON object::

    {"id": "...",
     "metadata": {"title": "...", "author": "...", "enumeration": "...", "work_key": "..."},
     "pages": [{"tokens": {"the": 12, "cat": 3}}, ...]}

Pages are indexed by their position in the file; token keys are lowercased
at ingest (counts of case variants are merged). Token order within a page is
never recorded: downstream featurization only ever sums per-token vectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .tsv import read_tsv, write_tsv


class BookFormatError(ValueError):
    """A book file does not match the documented JSON layout."""


@dataclass(frozen=True)
class BookMetadata:
    title: str = ""
    author: str = ""
    enumeration_raw: str | None = None
    work_key: str | None = None

    def __post_init__(self):
        if self.work_key is not None and not self.work_key:
            raise ValueError("work_key must be non-empty when present")


@dataclass(frozen=True)
class Page:
    """One scanned page reduced to lowercase token counts.

    `word_count` is derived from `tokens`; a page with no tokens (a blank
    scan) is legal and has word_count 0.
    """

    index: int
    tokens: dict[str, int]
    word_count: int = field(init=False)

    def __post_init__(self):
        for token, count in self.tokens.items():
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise ValueError(
                    f"page {self.index}: token {token!r} has invalid count {count!r}"
                )
        object.__setattr__(self, "word_count", sum(self.tokens.values()))


@dataclass(frozen=True)
class Book:
    id: str
    pages: tuple[Page, ...]
    metadata: BookMetadata = field(default_factory=BookMetadata)

    def __post_init__(self):
        object.__setattr__(self, "pages", tuple(self.pages))
        if not self.pages:
            raise ValueError(f"book {self.id!r} has no pages")
        for position, page in enumerate(self.pages):
            if page.index != position:
                raise ValueError(
                    f"book {self.id!r}: page at position {position} "
                    f"has index {page.index}"
                )


def make_book(
    book_id: str,
    page_tokens: Sequence[dict[str, int]],
    metadata: BookMetadata | None = None,
) -> Book:
    """Build a Book from raw per-page token maps, assigning indices 0..n-1."""
    pages = tuple(Page(i, dict(tokens)) for i, tokens in enumerate(page_tokens))
    return Book(book_id, pages, metadata or BookMetadata())


def _lowercase_tokens(raw: dict, page_index: int) -> dict[str, int]:
    tokens: dict[str, int] = {}
    for token, count in raw.items():
        if not isinstance(token, str):
            raise BookFormatError(f"page {page_index}: non-string token {token!r}")
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise BookFormatError(
                f"page {page_index}: token {token!r} has invalid count {count!r}"
            )
        key = token.lower()
        tokens[key] = tokens.get(key, 0) + count
    return tokens


def read_json(path: str | Path):
    """Parse a JSON file; invalid JSON raises BookFormatError naming the path."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise BookFormatError(f"{path}: invalid JSON: {exc}") from exc


def load_book(path: str | Path) -> Book:
    """Load a book JSON file (see `book_from_json`)."""
    return book_from_json(read_json(path), path)


def book_from_json(doc, path: str | Path) -> Book:
    """The Book of a parsed book JSON document read from `path`, the
    counterpart of `book_to_json`. Pages keep file order regardless of any
    stray index fields; malformed pages raise BookFormatError naming the
    path and the page."""
    if not isinstance(doc, dict) or "id" not in doc or "pages" not in doc:
        raise BookFormatError(f"{path}: expected an object with 'id' and 'pages'")
    if not isinstance(doc["pages"], list):
        raise BookFormatError(f"{path}: 'pages' must be a list")
    if not doc["pages"]:
        raise BookFormatError(f"{path}: book has an empty page list")

    meta_raw = doc.get("metadata") or {}
    metadata = BookMetadata(
        title=meta_raw.get("title", "") or "",
        author=meta_raw.get("author", "") or "",
        enumeration_raw=meta_raw.get("enumeration") or None,
        work_key=meta_raw.get("work_key") or None,
    )

    pages = []
    for position, entry in enumerate(doc["pages"]):
        if not isinstance(entry, dict) or not isinstance(entry.get("tokens"), dict):
            raise BookFormatError(f"{path}: page {position} lacks a 'tokens' object")
        try:
            tokens = _lowercase_tokens(entry["tokens"], position)
        except BookFormatError as exc:
            raise BookFormatError(f"{path}: {exc}") from exc
        pages.append(Page(position, tokens))
    return Book(str(doc["id"]), tuple(pages), metadata)


def book_to_json(book: Book) -> dict:
    return {
        "id": book.id,
        "metadata": {
            "title": book.metadata.title,
            "author": book.metadata.author,
            "enumeration": book.metadata.enumeration_raw,
            "work_key": book.metadata.work_key,
        },
        "pages": [{"tokens": dict(sorted(p.tokens.items()))} for p in book.pages],
    }


def save_book(book: Book, path: str | Path) -> None:
    """Write a book as JSON; load_book(save_book(b)) round-trips exactly."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(book_to_json(book), handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def book_word_count(book: Book) -> int:
    return sum(page.word_count for page in book.pages)


def length_percentile(corpus: Iterable[Book], q: float) -> int:
    """Nearest-rank percentile of book word counts: the smallest count w such
    that at least ceil(q*N) books have word count <= w. q=0 gives the minimum."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    counts = sorted(book_word_count(book) for book in corpus)
    if not counts:
        raise ValueError("length_percentile of an empty corpus")
    rank = max(1, math.ceil(q * len(counts)))
    return counts[rank - 1]


def _normalize_key(text: str) -> str:
    return " ".join(text.lower().split())


def dedup_by_author_title(corpus: Iterable[Book]) -> list[Book]:
    """Keep one book per normalized (author, title) pair; ties keep the
    lexicographically smallest id. Output is sorted by id."""
    keepers: dict[tuple[str, str], Book] = {}
    for book in corpus:
        key = (_normalize_key(book.metadata.author), _normalize_key(book.metadata.title))
        held = keepers.get(key)
        if held is None or book.id < held.id:
            keepers[key] = book
    return sorted(keepers.values(), key=lambda b: b.id)


MANIFEST_COLUMNS = ("id", "path", "word_count")


def write_manifest(entries: Iterable[tuple[str, str, int]], path: str | Path) -> None:
    """Write a corpus manifest TSV of (id, path, word_count)."""
    write_tsv(path, MANIFEST_COLUMNS, entries)


def read_manifest(path: str | Path) -> list[tuple[str, str, int]]:
    entries = []
    for where, (book_id, book_path, word_count) in read_tsv(path, MANIFEST_COLUMNS):
        if not word_count.isdecimal():
            raise ValueError(f"{where}: word_count {word_count!r} is not a whole number")
        entries.append((book_id, book_path, int(word_count)))
    return entries


def load_corpus(manifest_path: str | Path) -> list[Book]:
    """Load every book referenced by a manifest, resolving relative paths
    against the manifest's directory."""
    base = Path(manifest_path).parent
    books = []
    for _, book_path, _ in read_manifest(manifest_path):
        resolved = Path(book_path)
        if not resolved.is_absolute():
            resolved = base / resolved
        books.append(load_book(resolved))
    return books
