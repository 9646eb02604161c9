"""Synthetic books built by splitting and concatenating real books.

Four kinds are generated:

* ``anthology``  - several short books bound into one larger book,
* ``combined``   - volumes of the same work concatenated in volume order,
* ``split``      - a long book cut into smaller contiguous parts,
* ``overlap``    - two fabricated anthologies that share some components
                   while neither contains the other.

Concatenation keeps one component's front and back pages as the shell of the
new book and stacks every component's middle in between; front/back matter is
approximated by trimming a random number of pages (at most 10) from each end.
Every construction is a pure function of its inputs and seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .corpus import (
    Book,
    BookMetadata,
    Page,
    book_from_json,
    book_to_json,
    book_word_count,
    dedup_by_author_title,
    length_percentile,
    read_json,
    write_json,
)
from .enumparse import InvalidRangeError, read_enumeration
from .labels import INVERSE_LABEL, RelationshipLabel

MAX_TRIM_PAGES = 10
SHORTS_PERCENTILE = 0.40
KINDS = ("anthology", "combined", "split", "overlap")


@dataclass(frozen=True)
class SynthRecipe:
    kind: str
    component_ids: tuple[str, ...]
    seed: int
    trims: tuple[tuple[int, int], ...]  # per-component (front_removed, back_removed)


@dataclass(frozen=True)
class SynthBook:
    book: Book
    recipe: SynthRecipe
    relations: tuple[tuple[str, RelationshipLabel], ...]


def derive_seed(base_seed: int, kind: str, ordinal: int) -> int:
    """Stable 63-bit per-item seed so parallel generation stays reproducible."""
    digest = hashlib.sha256(f"{base_seed}:{kind}:{ordinal}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


Trimmed = tuple[tuple[Page, ...], tuple[Page, ...], tuple[Page, ...]]


def trim_matter(book: Book, rng: random.Random) -> Trimmed:
    """Split a book into (front, middle, back) by removing up to 10 pages from
    each end. Draws are clamped to floor((pages-1)/2) so the middle is never
    empty, whatever the draws were."""
    n = len(book.pages)
    bound = (n - 1) // 2
    front_n = min(rng.randint(0, MAX_TRIM_PAGES), bound)
    back_n = min(rng.randint(0, MAX_TRIM_PAGES), bound)
    front = book.pages[:front_n]
    back = book.pages[n - back_n :]
    middle = book.pages[front_n : n - back_n]
    return front, middle, back


def _assemble(
    kind: str,
    book_id: str,
    components: Sequence[Book],
    trimmed: Sequence[Trimmed],
    donor: int,
    seed: int,
) -> tuple[Book, SynthRecipe]:
    """Bind components into one book from their own Page objects: the
    donor's front, every component's middle in order, the donor's back.
    `trimmed[i]` is component i's (front, middle, back)."""
    front, _, back = trimmed[donor]
    middles = tuple(page for _, middle, _ in trimmed for page in middle)
    donor_meta = components[donor].metadata
    metadata = BookMetadata(title=donor_meta.title, author=donor_meta.author)
    trims = tuple((len(f), len(b)) for f, _, b in trimmed)
    recipe = SynthRecipe(kind, tuple(c.id for c in components), seed, trims)
    return Book(book_id, front + middles + back, metadata), recipe


def _concatenate(
    kind: str,
    components: Sequence[Book],
    rng: random.Random,
    seed: int,
    ordinal: int,
) -> SynthBook:
    """Anthology-style construction: a random donor, then each component
    trimmed in order. The result CONTAINS each component."""
    donor = rng.randrange(len(components))
    trimmed = [trim_matter(component, rng) for component in components]
    book_id = f"synth:{kind}:{seed}:{ordinal}"
    book, recipe = _assemble(kind, book_id, components, trimmed, donor, seed)
    return SynthBook(book, recipe, tuple((c.id, RelationshipLabel.CONTAINS) for c in components))


def make_anthology(
    components: Sequence[Book],
    rng: random.Random,
    seed: int = 0,
    ordinal: int = 0,
) -> SynthBook:
    """Bind several short books into one; the result CONTAINS each component."""
    if len(components) < 2:
        raise ValueError(f"anthology needs >= 2 components, got {len(components)}")
    return _concatenate("anthology", components, rng, seed, ordinal)


def make_combined(
    volumes: Sequence[Book],
    rng: random.Random,
    seed: int = 0,
    ordinal: int = 0,
) -> SynthBook:
    """Concatenate volumes of one work; the result CONTAINS each volume."""
    if len(volumes) < 2:
        raise ValueError(f"combined volume needs >= 2 volumes, got {len(volumes)}")
    work_keys = {v.metadata.work_key for v in volumes}
    if len(work_keys) != 1 or None in work_keys:
        raise ValueError(f"volumes do not share a work_key: {sorted(map(str, work_keys))}")
    return _concatenate("combined", volumes, rng, seed, ordinal)


def make_split(
    book: Book,
    rng: random.Random,
    seed: int = 0,
    ordinal: int = 0,
) -> list[SynthBook]:
    """Cut a long book's middle into 2..4 contiguous runs; each part is
    PARTOF the source. The cut count shrinks when the middle is short."""
    front, middle, back = trim_matter(book, rng)
    if len(middle) < 2:
        raise ValueError(f"book {book.id!r}: middle has {len(middle)} pages, cannot split")
    k = min(rng.randint(2, 4), len(middle))
    cuts = sorted(rng.sample(range(1, len(middle)), k - 1))
    bounds = [0, *cuts, len(middle)]
    meta = BookMetadata(title=book.metadata.title, author=book.metadata.author)
    recipe = SynthRecipe("split", (book.id,), seed, ((len(front), len(back)),))
    relations = ((book.id, RelationshipLabel.PARTOF),)
    return [
        SynthBook(Book(f"synth:split:{seed}:{ordinal}.{i}", middle[lo:hi], meta), recipe, relations)
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]


def make_overlap_pair(
    pool: Sequence[Book],
    rng: random.Random,
    seed: int = 0,
    ordinal: int = 0,
) -> tuple[SynthBook, SynthBook]:
    """Build two anthologies that share at least one component while each
    keeps at least one private component, so neither subsumes the other."""
    if len(pool) < 3:
        raise ValueError(f"overlap pair needs a pool of >= 3 books, got {len(pool)}")
    n_shared = rng.randint(1, min(2, len(pool) - 2))
    n_left = rng.randint(1, min(2, len(pool) - n_shared - 1))
    n_right = rng.randint(1, min(2, len(pool) - n_shared - n_left))
    chosen = rng.sample(range(len(pool)), n_shared + n_left + n_right)
    shared = [pool[i] for i in chosen[:n_shared]]
    left_only = [pool[i] for i in chosen[n_shared : n_shared + n_left]]
    right_only = [pool[i] for i in chosen[n_shared + n_left :]]

    left_components = left_only + shared
    right_components = right_only + shared
    rng.shuffle(left_components)
    rng.shuffle(right_components)

    # Trim each distinct component exactly once so the shared middles appear
    # verbatim in both books.
    trimmed: dict[str, Trimmed] = {}
    for component in (*left_components, *right_components):
        if component.id not in trimmed:
            trimmed[component.id] = trim_matter(component, rng)
    donor_left = rng.randrange(len(left_components))
    donor_right = rng.randrange(len(right_components))

    left_id = f"synth:overlap:{seed}:{ordinal}.0"
    right_id = f"synth:overlap:{seed}:{ordinal}.1"
    left_book, left_recipe = _assemble(
        "overlap_pair", left_id, left_components,
        [trimmed[c.id] for c in left_components], donor_left, seed,
    )
    right_book, right_recipe = _assemble(
        "overlap_pair", right_id, right_components,
        [trimmed[c.id] for c in right_components], donor_right, seed,
    )
    left = SynthBook(left_book, left_recipe, ((right_id, RelationshipLabel.OVERLAPS),))
    right = SynthBook(right_book, right_recipe, ((left_id, RelationshipLabel.OVERLAPS),))
    return left, right


def eligible_shorts(corpus: Sequence[Book], dedup: bool = True) -> list[Book]:
    """Books strictly shorter than the corpus's 40th length percentile,
    optionally de-duplicated by author and title. Sorted by id."""
    threshold = length_percentile(corpus, SHORTS_PERCENTILE)
    pool = [b for b in corpus if book_word_count(b) < threshold]
    if dedup:
        return dedup_by_author_title(pool)
    return sorted(pool, key=lambda b: b.id)


def split_sources(corpus: Sequence[Book]) -> list[Book]:
    """Books strictly longer than the 40th length percentile, sorted by id."""
    threshold = length_percentile(corpus, SHORTS_PERCENTILE)
    return sorted(
        (b for b in corpus if book_word_count(b) > threshold), key=lambda b: b.id
    )


def _volume_sort_key(book: Book):
    try:
        enumeration = read_enumeration(book.metadata.enumeration_raw)
    except InvalidRangeError:
        enumeration = None
    first = min(enumeration.volumes) if enumeration else 10**9
    return (first, book.id)


def works_with_volumes(corpus: Sequence[Book]) -> dict[str, list[Book]]:
    """Group books by work_key, keeping only works with >= 2 volumes; each
    group is sorted by volume number (falling back to id)."""
    groups: dict[str, list[Book]] = {}
    for book in corpus:
        key = book.metadata.work_key
        if key:
            groups.setdefault(key, []).append(book)
    return {
        key: sorted(books, key=_volume_sort_key)
        for key, books in sorted(groups.items())
        if len(books) >= 2
    }


def generate(
    corpus: Sequence[Book],
    counts: dict[str, int],
    base_seed: int,
    dedup: bool = True,
) -> tuple[list[SynthBook], list[tuple[str, str, RelationshipLabel]]]:
    """Generate `counts[kind]` items of each requested kind and the labeled
    training pairs they imply. Whole-part books are paired with their real
    source components in both directions; an overlap pair is labeled OVERLAPS
    between its two fabricated books."""
    unknown = set(counts) - set(KINDS)
    if unknown:
        raise ValueError(f"unknown synthetic kinds: {sorted(unknown)}")

    shorts = eligible_shorts(corpus, dedup=dedup)
    longs = split_sources(corpus)
    works = works_with_volumes(corpus)
    work_keys = list(works)

    synth_books: list[SynthBook] = []
    pairs: dict[tuple[str, str], RelationshipLabel] = {}

    def emit(synth: SynthBook) -> None:
        synth_books.append(synth)
        for other_id, label in synth.relations:
            forward = (synth.book.id, other_id)
            if forward not in pairs:
                pairs[forward] = label
            inverse = (other_id, synth.book.id)
            if inverse not in pairs:
                pairs[inverse] = INVERSE_LABEL[label]

    for kind in KINDS:
        wanted = counts.get(kind, 0)
        for ordinal in range(wanted):
            seed = derive_seed(base_seed, kind, ordinal)
            rng = random.Random(seed)
            if kind == "anthology":
                if len(shorts) < 2:
                    raise ValueError("anthology generation needs >= 2 eligible short books")
                n = rng.randint(2, min(5, len(shorts)))
                components = [shorts[i] for i in rng.sample(range(len(shorts)), n)]
                emit(make_anthology(components, rng, seed, ordinal))
            elif kind == "combined":
                if not work_keys:
                    raise ValueError("combined generation needs a work with >= 2 volumes")
                volumes = works[work_keys[rng.randrange(len(work_keys))]]
                n = rng.randint(2, min(5, len(volumes)))
                start = rng.randint(0, len(volumes) - n)
                emit(make_combined(volumes[start : start + n], rng, seed, ordinal))
            elif kind == "split":
                if not longs:
                    raise ValueError("split generation needs a book above the length threshold")
                source = longs[rng.randrange(len(longs))]
                for part in make_split(source, rng, seed, ordinal):
                    emit(part)
            else:  # overlap
                if len(shorts) < 3:
                    raise ValueError("overlap generation needs >= 3 eligible short books")
                left, right = make_overlap_pair(shorts, rng, seed, ordinal)
                emit(left)
                emit(right)

    rows = [(left, right, label) for (left, right), label in pairs.items()]
    return synth_books, rows


def synth_book_to_json(synth: SynthBook) -> dict:
    doc = book_to_json(synth.book)
    doc["synthetic"] = {
        "kind": synth.recipe.kind,
        "component_ids": list(synth.recipe.component_ids),
        "seed": synth.recipe.seed,
        "trims": [list(t) for t in synth.recipe.trims],
        "relations": [[other, label.value] for other, label in synth.relations],
    }
    return doc


def save_synth_book(synth: SynthBook, path: str | Path) -> None:
    write_json(synth_book_to_json(synth), path)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _list_of(item_ok, length=None):
    return lambda value: isinstance(value, list) and all(map(item_ok, value)) and (
        length is None or len(value) == length
    )


_LABELS = frozenset(label.value for label in RelationshipLabel)


def _is_relation(value) -> bool:
    return _list_of(_is_str, 2)(value) and value[1] in _LABELS


_RECIPE_FIELDS = (
    ("kind", _is_str, "a string"),
    ("component_ids", _list_of(_is_str), "a list of strings"),
    ("seed", _is_int, "an integer"),
    ("trims", _list_of(_list_of(_is_int, 2)), "a list of [front, back] integers"),
    ("relations", _list_of(_is_relation), "a list of [book id, relationship label] pairs"),
)


def load_synth_book(path: str | Path) -> SynthBook:
    """Load a synthetic book file; a malformed `synthetic` object raises a
    ValueError naming the path."""
    doc = read_json(path)
    book = book_from_json(doc, path)
    info = doc.get("synthetic")
    if not isinstance(info, dict):
        raise ValueError(f"{path}: not a synthetic book file")
    for key, ok, expected in _RECIPE_FIELDS:
        if key not in info:
            raise ValueError(f"{path}: 'synthetic' lacks {key!r}")
        if not ok(info[key]):
            raise ValueError(f"{path}: synthetic {key!r} must be {expected}")
    recipe = SynthRecipe(
        info["kind"], tuple(info["component_ids"]), info["seed"], tuple(map(tuple, info["trims"]))
    )
    relations = tuple((other, RelationshipLabel(label)) for other, label in info["relations"])
    return SynthBook(book, recipe, relations)


def load_synth_dir(directory: str | Path) -> list[SynthBook]:
    paths = sorted(
        p for p in Path(directory).glob("*.json")
        if not p.name.endswith("run-manifest.json")
    )
    return [load_synth_book(p) for p in paths]
