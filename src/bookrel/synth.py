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
import json
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
    make_book,
    read_json,
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


def trim_matter(book: Book, rng: random.Random) -> tuple[
    tuple[Page, ...], tuple[Page, ...], tuple[Page, ...]
]:
    """Split a book into (front, middle, back) by removing up to 10 pages from
    each end. Draws are clamped to floor((pages-1)/2) so the middle is never
    empty, whatever the draws were."""
    n = len(book.pages)
    bound = (n - 1) // 2
    front_n = min(rng.randint(0, MAX_TRIM_PAGES), bound)
    back_n = min(rng.randint(0, MAX_TRIM_PAGES), bound)
    front = book.pages[:front_n]
    back = book.pages[n - back_n :] if back_n else ()
    middle = book.pages[front_n : n - back_n]
    return front, middle, back


def _concatenate(
    kind: str,
    components: Sequence[Book],
    rng: random.Random,
    seed: int,
    book_id: str,
) -> tuple[Book, SynthRecipe]:
    """Shared anthology-style construction: one component donates its front
    and back pages, all middles are stacked in component order."""
    donor_index = rng.randrange(len(components))
    trims: list[tuple[int, int]] = []
    fronts, middles, backs = [], [], []
    for component in components:
        front, middle, back = trim_matter(component, rng)
        trims.append((len(front), len(back)))
        fronts.append(front)
        middles.append(middle)
        backs.append(back)
    pages: list[Page] = list(fronts[donor_index])
    for middle in middles:
        pages.extend(middle)
    pages.extend(backs[donor_index])
    donor_meta = components[donor_index].metadata
    metadata = BookMetadata(title=donor_meta.title, author=donor_meta.author)
    book = make_book(book_id, [p.tokens for p in pages], metadata)
    recipe = SynthRecipe(kind, tuple(c.id for c in components), seed, tuple(trims))
    return book, recipe


def make_anthology(
    components: Sequence[Book],
    rng: random.Random,
    seed: int = 0,
    ordinal: int = 0,
) -> SynthBook:
    """Bind several short books into one; the result CONTAINS each component."""
    if len(components) < 2:
        raise ValueError(f"anthology needs >= 2 components, got {len(components)}")
    book_id = f"synth:anthology:{seed}:{ordinal}"
    book, recipe = _concatenate("anthology", components, rng, seed, book_id)
    relations = tuple((c.id, RelationshipLabel.CONTAINS) for c in components)
    return SynthBook(book, recipe, relations)


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
    book_id = f"synth:combined:{seed}:{ordinal}"
    book, recipe = _concatenate("combined", volumes, rng, seed, book_id)
    relations = tuple((v.id, RelationshipLabel.CONTAINS) for v in volumes)
    return SynthBook(book, recipe, relations)


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
    trims = ((len(front), len(back)),)
    parts: list[SynthBook] = []
    for part_no in range(k):
        run = middle[bounds[part_no] : bounds[part_no + 1]]
        part_id = f"synth:split:{seed}:{ordinal}.{part_no}"
        meta = BookMetadata(title=book.metadata.title, author=book.metadata.author)
        part_book = make_book(part_id, [p.tokens for p in run], meta)
        recipe = SynthRecipe("split", (book.id,), seed, trims)
        parts.append(
            SynthBook(part_book, recipe, ((book.id, RelationshipLabel.PARTOF),))
        )
    return parts


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
    trimmed: dict[str, tuple[tuple[Page, ...], tuple[Page, ...], tuple[Page, ...]]] = {}
    for component in (*left_components, *right_components):
        if component.id not in trimmed:
            trimmed[component.id] = trim_matter(component, rng)
    donor_left = left_components[rng.randrange(len(left_components))]
    donor_right = right_components[rng.randrange(len(right_components))]

    def build(book_id: str, components: Sequence[Book], donor: Book) -> tuple[Book, SynthRecipe]:
        front, _, back = trimmed[donor.id]
        pages: list[Page] = list(front)
        for component in components:
            pages.extend(trimmed[component.id][1])
        pages.extend(back)
        metadata = BookMetadata(title=donor.metadata.title, author=donor.metadata.author)
        trims = tuple(
            (len(trimmed[c.id][0]), len(trimmed[c.id][2])) for c in components
        )
        recipe = SynthRecipe(
            "overlap_pair", tuple(c.id for c in components), seed, trims
        )
        return make_book(book_id, [p.tokens for p in pages], metadata), recipe

    left_id = f"synth:overlap:{seed}:{ordinal}.0"
    right_id = f"synth:overlap:{seed}:{ordinal}.1"
    left_book, left_recipe = build(left_id, left_components, donor_left)
    right_book, right_recipe = build(right_id, right_components, donor_right)
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
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(synth_book_to_json(synth), handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def load_synth_book(path: str | Path) -> SynthBook:
    doc = read_json(path)
    book = book_from_json(doc, path)
    info = doc.get("synthetic")
    if not isinstance(info, dict):
        raise ValueError(f"{path}: not a synthetic book file")
    recipe = SynthRecipe(
        kind=info["kind"],
        component_ids=tuple(info["component_ids"]),
        seed=int(info["seed"]),
        trims=tuple((int(f), int(b)) for f, b in info["trims"]),
    )
    relations = tuple(
        (other, RelationshipLabel(label)) for other, label in info["relations"]
    )
    return SynthBook(book, recipe, relations)


def load_synth_dir(directory: str | Path) -> list[SynthBook]:
    paths = sorted(
        p for p in Path(directory).glob("*.json")
        if not p.name.endswith("run-manifest.json")
    )
    return [load_synth_book(p) for p in paths]
