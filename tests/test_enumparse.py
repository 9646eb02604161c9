import pytest
from hypothesis import given, strategies as st

from bookrel.enumparse import (
    Enumeration,
    InvalidRangeError,
    infer_relations,
    normalize_enumeration,
    parse_enumeration,
    read_enumeration,
    relations_from_raw_catalog,
)
from bookrel.labels import RelationshipLabel

from vectors_enumeration import (
    INVALID_RANGE_VECTORS,
    NORMALIZE_VECTORS,
    PARSE_VECTORS,
)


@pytest.mark.parametrize("raw,expected", NORMALIZE_VECTORS)
def test_normalize_vectors(raw, expected):
    assert normalize_enumeration(raw) == expected


@pytest.mark.parametrize("canonical,volumes", PARSE_VECTORS)
def test_parse_vectors(canonical, volumes):
    assert sorted(parse_enumeration(canonical).volumes) == volumes


@pytest.mark.parametrize("canonical", INVALID_RANGE_VECTORS)
def test_parse_rejects_degenerate_ranges(canonical):
    with pytest.raises(InvalidRangeError):
        parse_enumeration(canonical)


def test_parse_rejects_non_canonical():
    with pytest.raises(ValueError):
        parse_enumeration("volume 1")


@given(st.text(max_size=25))
def test_normalize_idempotent(raw):
    once = normalize_enumeration(raw)
    if once is not None:
        assert normalize_enumeration(once) == once


@given(st.integers(min_value=1, max_value=10_000))
def test_parse_normalize_round_trip_singleton(n):
    canonical = normalize_enumeration(f"volume {n}")
    assert canonical == f"v.{n}"
    assert parse_enumeration(canonical).volumes == frozenset({n})


def _enum(*volumes):
    return Enumeration("x", "x", frozenset(volumes))


def _catalog(*entries):
    return [(book_id, work, _enum(*vols)) for book_id, work, vols in entries]


def as_set(relations):
    return {(r.left_id, r.right_id, r.label) for r in relations}


def test_infer_contains_and_partof():
    relations = infer_relations(_catalog(("A", "w", (2, 3)), ("B", "w", (2,))))
    assert as_set(relations) == {
        ("A", "B", RelationshipLabel.CONTAINS),
        ("B", "A", RelationshipLabel.PARTOF),
    }


def test_infer_same_work_both_directions():
    relations = infer_relations(_catalog(("A", "w", (1,)), ("B", "w", (1,))))
    assert as_set(relations) == {
        ("A", "B", RelationshipLabel.SW),
        ("B", "A", RelationshipLabel.SW),
    }


def test_infer_disjoint_volumes_are_dv():
    relations = infer_relations(_catalog(("A", "w", (1,)), ("B", "w", (2,))))
    assert as_set(relations) == {
        ("A", "B", RelationshipLabel.DV),
        ("B", "A", RelationshipLabel.DV),
    }


def test_infer_partial_overlap_unlabeled():
    relations = infer_relations(_catalog(("A", "w", (1, 2)), ("B", "w", (2, 3))))
    assert relations == []


def test_infer_skips_cross_work_pairs():
    relations = infer_relations(_catalog(("A", "w1", (1,)), ("B", "w2", (1,))))
    assert relations == []


def test_infer_rejects_empty_work_key():
    with pytest.raises(ValueError):
        infer_relations(_catalog(("A", "", (1,))))


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["w1", "w2"]),
            st.sets(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_infer_relations_antisymmetry(entries):
    catalog = [
        (f"b{i}", work, _enum(*vols)) for i, (work, vols) in enumerate(entries)
    ]
    relations = as_set(infer_relations(catalog))
    for left, right, label in relations:
        assert left != right
        if label == RelationshipLabel.CONTAINS:
            assert (right, left, RelationshipLabel.PARTOF) in relations
        elif label == RelationshipLabel.PARTOF:
            assert (right, left, RelationshipLabel.CONTAINS) in relations
        else:
            assert (right, left, label) in relations


def test_relations_from_raw_catalog_skips_junk():
    rows = [
        ("A", "w", "volume 2"),
        ("B", "w", "v.2"),
        ("C", "w", "not an enumeration"),
        ("D", "w", "v.3-3"),  # invalid range is skipped, not fatal
        ("E", "", "v.1"),
    ]
    relations, skipped = relations_from_raw_catalog(rows)
    assert skipped == 3
    assert as_set(relations) == {
        ("A", "B", RelationshipLabel.SW),
        ("B", "A", RelationshipLabel.SW),
    }


def test_read_enumeration_keeps_raw():
    enumeration = read_enumeration("Volume 4")
    assert enumeration.raw == "Volume 4"
    assert enumeration.canonical == "v.4"
    assert enumeration.volumes == frozenset({4})
