"""Data model and ingestion for page-level token-count books.

A book file is a single JSON object::

    {"id": "...",
     "metadata": {"title": "...", "author": "...", "enumeration": "...", "work_key": "..."},
     "pages": [{"tokens": {"the": 12, "cat": 3}}, ...]}

A page has no number of its own: its place is its position in the book's
page list, in the file as in memory. Token keys are lowercased wherever a
page is made, whether read from a file or built in memory (counts of case
variants are merged). Token order within a page is never recorded:
downstream featurization only ever sums per-token vectors.
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

    The one place a page is made: keys must be strings and counts positive
    ints; keys are lowercased and the counts of case variants merged.
    `word_count` is derived from `tokens`; a page with no tokens (a blank
    scan) is legal and has word_count 0. Pages carry no position, so books
    built from other books share their Page objects.
    """

    tokens: dict[str, int]
    word_count: int = field(init=False)

    def __post_init__(self):
        raw = self.tokens
        if not isinstance(raw, dict):
            raise ValueError(f"expected a token-count object, got {type(raw).__name__}")
        for token, count in raw.items():
            if not isinstance(token, str):
                raise ValueError(f"non-string token {token!r}")
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise ValueError(f"token {token!r} has invalid count {count!r}")
        # One lower() of all keys at once: it leaves the string unchanged
        # exactly when it leaves every key unchanged, the usual case.
        joined = "".join(raw)
        if joined == joined.lower():
            tokens = dict(raw)
        else:
            tokens = {}
            for token, count in raw.items():
                key = token.lower()
                tokens[key] = tokens.get(key, 0) + count
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "word_count", sum(tokens.values()))


@dataclass(frozen=True)
class Book:
    id: str
    pages: tuple[Page, ...]
    metadata: BookMetadata = field(default_factory=BookMetadata)

    def __post_init__(self):
        object.__setattr__(self, "pages", tuple(self.pages))
        if not self.pages:
            raise ValueError(f"book {self.id!r} has an empty page list")


def make_book(
    book_id: str,
    page_tokens: Sequence[dict[str, int]],
    metadata: BookMetadata | None = None,
) -> Book:
    """Build a Book from raw per-page token maps; a bad page's error names
    its position."""
    pages = []
    for position, tokens in enumerate(page_tokens):
        try:
            pages.append(Page(tokens))
        except ValueError as exc:
            raise ValueError(f"page {position}: {exc}") from exc
    return Book(book_id, tuple(pages), metadata or BookMetadata())


def read_json(path: str | Path):
    """Parse a JSON file; invalid JSON raises BookFormatError naming the path."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise BookFormatError(f"{path}: invalid JSON: {exc}") from exc


def write_json(doc, path: str | Path) -> None:
    """Write doc as one line of compact JSON with sorted keys. json.dumps
    rather than json.dump: only dumps reaches the C encoder."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


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
    if not isinstance(doc["id"], str) or not doc["id"]:
        raise BookFormatError(f"{path}: 'id' must be a non-empty string")
    if not isinstance(doc["pages"], list):
        raise BookFormatError(f"{path}: 'pages' must be a list")

    meta_raw = {} if doc.get("metadata") is None else doc["metadata"]
    if not isinstance(meta_raw, dict):
        raise BookFormatError(f"{path}: 'metadata' must be an object")
    for key in ("title", "author", "enumeration", "work_key"):
        if meta_raw.get(key) is not None and not isinstance(meta_raw[key], str):
            raise BookFormatError(f"{path}: metadata {key!r} must be a string")
    metadata = BookMetadata(
        title=meta_raw.get("title") or "",
        author=meta_raw.get("author") or "",
        enumeration_raw=meta_raw.get("enumeration") or None,
        work_key=meta_raw.get("work_key") or None,
    )

    page_tokens = [entry.get("tokens") if isinstance(entry, dict) else entry
                   for entry in doc["pages"]]
    try:
        return make_book(doc["id"], page_tokens, metadata)
    except ValueError as exc:
        raise BookFormatError(f"{path}: {exc}") from exc


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
    write_json(book_to_json(book), path)


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
