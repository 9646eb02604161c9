"""Volume-enumeration normalization and enumeration-based relationship inference.

Catalog records spell volume enumeration inconsistently ("volume 1", "v1",
"V. 6 - 9", ...). `normalize_enumeration` collapses the recognized spellings
to a canonical "v.N" / "v.N-M" form; `parse_enumeration` expands that form to
a volume set; `infer_relations` compares volume sets of books sharing a work
key to produce ground-truth relationship labels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .labels import RelationshipLabel


class InvalidRangeError(ValueError):
    """A volume range whose upper bound does not exceed its lower bound."""


# "v", "v.", "vol", "vol.", "volume" prefixes, case-insensitive, with loose
# whitespace; single volume or dash range. Comma lists, issue numbers, and
# date enumerations are deliberately out of grammar and normalize to None.
_RAW_RE = re.compile(
    r"^\s*v(?:ol(?:ume)?)?\s*\.?\s*(\d+)\s*(?:[-–—]\s*(\d+))?\s*\.?\s*$",
    re.IGNORECASE,
)

_CANONICAL_RE = re.compile(r"^v\.(\d+)(?:-(\d+))?$")


@dataclass(frozen=True)
class Enumeration:
    raw: str
    canonical: str
    volumes: frozenset[int]


@dataclass(frozen=True)
class GroundTruthRelation:
    left_id: str
    right_id: str
    label: RelationshipLabel
    source: str = "enumeration-heuristic"


def normalize_enumeration(raw: str | None) -> str | None:
    """Return the canonical "v.N" / "v.N-M" form, or None when the string
    carries no recognizable enumeration (not an error: just no information)."""
    if raw is None:
        return None
    match = _RAW_RE.match(raw)
    if match is None:
        return None
    low = int(match.group(1))
    if low < 1:
        return None
    if match.group(2) is None:
        return f"v.{low}"
    high = int(match.group(2))
    if high < 1:
        return None
    return f"v.{low}-{high}"


def parse_enumeration(canonical: str) -> Enumeration:
    """Expand a canonical enumeration to its volume set: "v.2" -> {2},
    "v.6-9" -> {6,7,8,9}. Ranges must be strictly increasing."""
    match = _CANONICAL_RE.match(canonical)
    if match is None:
        raise ValueError(f"not a canonical enumeration: {canonical!r}")
    low = int(match.group(1))
    if match.group(2) is None:
        return Enumeration(canonical, canonical, frozenset({low}))
    high = int(match.group(2))
    if high <= low:
        raise InvalidRangeError(f"invalid volume range {canonical!r}: {high} <= {low}")
    return Enumeration(canonical, canonical, frozenset(range(low, high + 1)))


def read_enumeration(raw: str | None) -> Enumeration | None:
    """normalize + parse in one step, preserving the original raw string."""
    canonical = normalize_enumeration(raw)
    if canonical is None:
        return None
    parsed = parse_enumeration(canonical)
    return Enumeration(raw if raw is not None else canonical, canonical, parsed.volumes)


def infer_relations(
    catalog: Sequence[tuple[str, str, Enumeration]],
) -> list[GroundTruthRelation]:
    """Label every ordered pair of books sharing a work key.

    Equal volume sets give SW in both directions, disjoint sets DV in both
    directions, and strict subsumption gives CONTAINS with PARTOF on the
    inverse pair. Partial overlap without subsumption is left unlabeled.
    """
    by_work: dict[str, list[tuple[str, Enumeration]]] = {}
    for book_id, work_key, enumeration in catalog:
        if not work_key:
            raise ValueError(f"catalog entry {book_id!r} has an empty work_key")
        by_work.setdefault(work_key, []).append((book_id, enumeration))

    relations: list[GroundTruthRelation] = []
    for _, entries in by_work.items():
        for left_id, left in entries:
            for right_id, right in entries:
                if left_id == right_id:
                    continue
                if left.volumes == right.volumes:
                    label = RelationshipLabel.SW
                elif left.volumes.isdisjoint(right.volumes):
                    label = RelationshipLabel.DV
                elif left.volumes > right.volumes:
                    label = RelationshipLabel.CONTAINS
                elif left.volumes < right.volumes:
                    label = RelationshipLabel.PARTOF
                else:
                    continue  # partial overlap: outside the heuristic
                relations.append(GroundTruthRelation(left_id, right_id, label))
    return relations


def relations_from_raw_catalog(
    rows: Iterable[tuple[str, str, str]],
) -> tuple[list[GroundTruthRelation], int]:
    """Infer relations from raw (book_id, work_key, enumeration_raw) rows.

    Rows whose enumeration is unrecognizable or whose work_key is empty are
    skipped; returns (relations, skipped_row_count).
    """
    catalog: list[tuple[str, str, Enumeration]] = []
    skipped = 0
    for book_id, work_key, raw in rows:
        try:
            enumeration = read_enumeration(raw)
        except InvalidRangeError:
            enumeration = None
        if enumeration is None or not work_key:
            skipped += 1
            continue
        catalog.append((book_id, work_key, enumeration))
    return infer_relations(catalog), skipped
