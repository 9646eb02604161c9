import json
import random
import re

import pytest

from bookrel.corpus import BookFormatError, BookMetadata, book_word_count
from bookrel.labels import RelationshipLabel
from bookrel.synth import (
    derive_seed,
    eligible_shorts,
    generate,
    load_synth_book,
    make_anthology,
    make_combined,
    make_overlap_pair,
    make_split,
    save_synth_book,
    split_sources,
    trim_matter,
)

from _support import ScriptedRng, book_with_pages, find_page_run, uniform_book


def trimmed_middle(book, trims):
    front, back = trims
    return book.pages[front : len(book.pages) - back]


def test_trim_matter_hand_derived():
    book = uniform_book("b", 100)
    front, middle, back = trim_matter(book, ScriptedRng(randint=[3, 7]))
    assert len(front) == 3 and len(back) == 7
    assert [p.index for p in middle] == list(range(3, 93))


def test_trim_matter_zero_draws_keep_whole_book():
    book = uniform_book("b", 30)
    front, middle, back = trim_matter(book, ScriptedRng(randint=[0, 0]))
    assert front == () and back == ()
    assert len(middle) == 30


def test_trim_matter_clamps_short_books():
    book = uniform_book("b", 5)
    front, middle, back = trim_matter(book, ScriptedRng(randint=[10, 10]))
    assert len(front) == 2 and len(back) == 2
    assert len(middle) == 1


def test_anthology_page_count_arithmetic():
    a = uniform_book("a", 40)
    b = uniform_book("b", 30)
    # donor index 0; trims: a -> (2, 4), b -> (1, 3)
    rng = ScriptedRng(randint=[2, 4, 1, 3], randrange=[0])
    synth = make_anthology([a, b], rng, seed=9, ordinal=0)
    expected = 2 + (40 - 2 - 4) + (30 - 1 - 3) + 4
    assert len(synth.book.pages) == expected
    assert synth.recipe.trims == ((2, 4), (1, 3))


def test_anthology_relations_and_id():
    a, b = uniform_book("a", 25), uniform_book("b", 25)
    synth = make_anthology([a, b], random.Random(5), seed=5, ordinal=3)
    assert synth.book.id == "synth:anthology:5:3"
    assert set(synth.relations) == {
        ("a", RelationshipLabel.CONTAINS),
        ("b", RelationshipLabel.CONTAINS),
    }


def test_anthology_determinism():
    a, b, c = (uniform_book(x, 30) for x in "abc")
    one = make_anthology([a, b, c], random.Random(77), seed=77)
    two = make_anthology([a, b, c], random.Random(77), seed=77)
    assert one == two


def test_anthology_requires_two_components():
    with pytest.raises(ValueError):
        make_anthology([uniform_book("a", 25)], random.Random(0))


def test_anthology_containment_witness():
    components = [uniform_book(f"c{i}", 30 + i) for i in range(3)]
    synth = make_anthology(components, random.Random(11), seed=11)
    for component, trims in zip(components, synth.recipe.trims):
        middle = trimmed_middle(component, trims)
        assert find_page_run(synth.book.pages, middle) is not None


def test_combined_requires_shared_work_key():
    meta1 = BookMetadata(title="T", author="A", work_key="w1")
    meta2 = BookMetadata(title="T", author="A", work_key="w2")
    v1 = uniform_book("v1", 25, metadata=meta1)
    v2 = uniform_book("v2", 25, metadata=meta2)
    with pytest.raises(ValueError, match="work_key"):
        make_combined([v1, v2], random.Random(0))


def test_combined_contains_each_volume():
    meta = BookMetadata(title="T", author="A", work_key="w1")
    vols = [uniform_book(f"v{i}", 30, metadata=meta) for i in range(3)]
    synth = make_combined(vols, random.Random(3), seed=3)
    assert {label for _, label in synth.relations} == {RelationshipLabel.CONTAINS}
    for volume, trims in zip(vols, synth.recipe.trims):
        assert find_page_run(synth.book.pages, trimmed_middle(volume, trims)) is not None


def test_split_parts_partition_the_middle():
    book = uniform_book("src", 100)
    parts = make_split(book, random.Random(13), seed=13)
    assert 2 <= len(parts) <= 4
    front, back = parts[0].recipe.trims[0]
    middle = [dict(p.tokens) for p in trimmed_middle(book, (front, back))]
    concatenated = [dict(p.tokens) for part in parts for p in part.book.pages]
    assert concatenated == middle
    for part in parts:
        assert part.relations == (("src", RelationshipLabel.PARTOF),)


def test_split_reduces_k_when_middle_is_tiny():
    book = uniform_book("src", 4)
    # trims clamp to 1 page each end -> middle 2 pages; k drawn as 4 shrinks to 2
    parts = make_split(book, ScriptedRng(randint=[1, 1, 4], sample=[[1]]), seed=1)
    assert len(parts) == 2


def test_split_rejects_unsplittable_book():
    book = uniform_book("src", 2)
    # middle of a 2-page book after zero trim is 2 pages -> fine; force middle 1
    with pytest.raises(ValueError):
        make_split(uniform_book("one", 1), ScriptedRng(randint=[0, 0]), seed=0)


def test_split_equal_cut_example():
    book = uniform_book("src", 90)
    rng = ScriptedRng(randint=[0, 0, 3], sample=[[30, 60]])
    parts = make_split(book, rng, seed=0)
    assert [len(p.book.pages) for p in parts] == [30, 30, 30]


def test_overlap_pair_shares_without_subsumption():
    pool = [uniform_book(f"p{i}", 26 + i) for i in range(6)]
    left, right = make_overlap_pair(pool, random.Random(21), seed=21)
    shared = set(left.recipe.component_ids) & set(right.recipe.component_ids)
    assert shared
    by_id = {b.id: b for b in pool}
    for comp_id in shared:
        comp = by_id[comp_id]
        trims = dict(zip(left.recipe.component_ids, left.recipe.trims))[comp_id]
        middle = trimmed_middle(comp, trims)
        assert find_page_run(left.book.pages, middle) is not None
        assert find_page_run(right.book.pages, middle) is not None
    # neither side's full page run contains the other's
    assert find_page_run(left.book.pages, right.book.pages) is None
    assert find_page_run(right.book.pages, left.book.pages) is None
    assert left.relations == ((right.book.id, RelationshipLabel.OVERLAPS),)


def test_overlap_pair_determinism():
    pool = [uniform_book(f"p{i}", 26) for i in range(5)]
    one = make_overlap_pair(pool, random.Random(8), seed=8)
    two = make_overlap_pair(pool, random.Random(8), seed=8)
    assert one == two


def test_overlap_pair_needs_three_books():
    with pytest.raises(ValueError):
        make_overlap_pair([uniform_book("a", 25), uniform_book("b", 25)],
                          random.Random(0))


def test_eligible_shorts_strict_threshold():
    books = [
        book_with_pages(f"b{i}", [c], metadata=BookMetadata(title=f"t{i}", author="a"))
        for i, c in enumerate([10, 20, 30, 40, 50])
    ]
    pool = eligible_shorts(books, dedup=False)
    assert [b.id for b in pool] == ["b0"]


def test_eligible_shorts_empty_when_all_equal():
    books = [
        book_with_pages(f"b{i}", [10], metadata=BookMetadata(title=f"t{i}", author="a"))
        for i in range(4)
    ]
    assert eligible_shorts(books) == []


def test_eligible_shorts_dedups():
    meta = BookMetadata(title="Same", author="One")
    books = [
        book_with_pages("b1", [5], metadata=meta),
        book_with_pages("b2", [5], metadata=meta),
        book_with_pages("b3", [30], metadata=BookMetadata(title="Long", author="One")),
        book_with_pages("b4", [60], metadata=BookMetadata(title="Long2", author="One")),
        book_with_pages("b5", [70], metadata=BookMetadata(title="Long3", author="One")),
        book_with_pages("b6", [80], metadata=BookMetadata(title="Long4", author="One")),
    ]
    # threshold is the 40th-percentile count (30); both 5-word books qualify
    pool = eligible_shorts(books, dedup=True)
    assert [b.id for b in pool] == ["b1"]


def test_split_sources_strictly_above_threshold():
    books = [book_with_pages(f"b{i}", [c]) for i, c in enumerate([10, 20, 30, 40, 50])]
    assert [b.id for b in split_sources(books)] == ["b2", "b3", "b4"]


def test_derive_seed_is_stable():
    assert derive_seed(42, "anthology", 0) == derive_seed(42, "anthology", 0)
    assert derive_seed(42, "anthology", 0) != derive_seed(42, "anthology", 1)
    assert derive_seed(42, "anthology", 0) != derive_seed(42, "split", 0)


def _demo_corpus_for_generate():
    corpus = []
    for i in range(8):
        meta = BookMetadata(title=f"Short {i}", author="A")
        corpus.append(uniform_book(f"s{i}", 22 + i, metadata=meta))
    for i in range(4):
        meta = BookMetadata(title=f"Long {i}", author="A", work_key=None)
        corpus.append(uniform_book(f"L{i}", 80 + i, words_per_page=30, metadata=meta))
    for v in (1, 2, 3):
        meta = BookMetadata(
            title="Work", author="A", enumeration_raw=f"v.{v}", work_key="w0"
        )
        corpus.append(uniform_book(f"w0.v{v}", 70, words_per_page=30, metadata=meta))
    return corpus


def test_generate_emits_inverse_pairs():
    corpus = _demo_corpus_for_generate()
    books, rows = generate(corpus, {"anthology": 3, "split": 2}, base_seed=1)
    pair_labels = {(l, r): lab for l, r, lab in rows}
    for left, right in list(pair_labels):
        label = pair_labels[(left, right)]
        if label == RelationshipLabel.CONTAINS:
            assert pair_labels[(right, left)] == RelationshipLabel.PARTOF
        elif label == RelationshipLabel.PARTOF:
            assert pair_labels[(right, left)] == RelationshipLabel.CONTAINS


def test_generate_combined_uses_work_volumes():
    corpus = _demo_corpus_for_generate()
    books, rows = generate(corpus, {"combined": 2}, base_seed=3)
    for synth in books:
        assert synth.recipe.kind == "combined"
        assert all(cid.startswith("w0.") for cid in synth.recipe.component_ids)


def test_generate_is_deterministic():
    corpus = _demo_corpus_for_generate()
    one = generate(corpus, {"anthology": 2, "overlap": 2}, base_seed=9)
    two = generate(corpus, {"anthology": 2, "overlap": 2}, base_seed=9)
    assert one == two


def test_generate_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown"):
        generate(_demo_corpus_for_generate(), {"mystery": 1}, base_seed=0)


def test_synth_book_json_round_trip(tmp_path):
    corpus = _demo_corpus_for_generate()
    books, _ = generate(corpus, {"anthology": 1}, base_seed=4)
    path = tmp_path / "synth.json"
    save_synth_book(books[0], path)
    again = load_synth_book(path)
    assert again == books[0]


def test_load_synth_book_parses_the_file_once(tmp_path, monkeypatch):
    books, _ = generate(_demo_corpus_for_generate(), {"anthology": 1}, base_seed=4)
    path = tmp_path / "synth.json"
    save_synth_book(books[0], path)
    loads = []
    real_load = json.load
    monkeypatch.setattr(json, "load", lambda handle: loads.append(1) or real_load(handle))
    assert load_synth_book(path) == books[0]
    assert len(loads) == 1


def test_load_synth_book_names_a_file_of_invalid_json(tmp_path):
    path = tmp_path / "synth.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(BookFormatError, match=re.escape(f"{path}: invalid JSON")):
        load_synth_book(path)


def test_word_count_conservation_for_anthology():
    components = [uniform_book(f"c{i}", 30) for i in range(2)]
    synth = make_anthology(components, random.Random(2), seed=2)
    (f0, b0), (f1, b1) = synth.recipe.trims
    donor_extra = None
    for donor, (fd, bd) in zip(components, synth.recipe.trims):
        expected = fd + sum(
            len(c.pages) - f - b
            for c, (f, b) in zip(components, synth.recipe.trims)
        ) + bd
        if expected == len(synth.book.pages):
            donor_extra = donor
            break
    assert donor_extra is not None
