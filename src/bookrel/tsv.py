"""The one reader and writer of tab-separated tables.

A table is UTF-8 text: a header row, then rows with exactly the header's
number of fields. Blank lines are skipped. No field holds a tab or a line
break. Read errors are ValueErrors that start with ``path:line``; a refused
write names the file and writes nothing.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Sequence


def read_tsv(path: str | Path, *headers: tuple[str, ...]) -> Iterator[tuple[str, list[str]]]:
    """Yield ``(where, fields)`` for each non-blank row, where `where` is
    ``path:line``. The header must equal one of `headers`."""
    with open(path, encoding="utf-8") as handle:
        header = tuple(handle.readline().rstrip("\n").split("\t"))
        if header not in headers:
            raise ValueError(f"{path}:1: bad header {list(header)}, expected "
                             + " or ".join(str(list(h)) for h in headers))
        for line_no, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != len(header):
                raise ValueError(f"{path}:{line_no}: expected {len(header)} fields, "
                                 f"got {len(fields)}")
            yield f"{path}:{line_no}", fields


def write_tsv(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the header and the rows; each field is written as ``str(field)``."""
    lines = []
    for row in (columns, *rows):
        fields = [str(field) for field in row]
        for field in fields:
            if "\t" in field or "\n" in field or "\r" in field:
                raise ValueError(f"{path}: field {field!r} contains a tab or a line break")
        lines.append("\t".join(fields) + "\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
