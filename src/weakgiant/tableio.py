"""Plain-text tables of ``n k prob`` triples.

One record per line, whitespace separated; blank lines and lines starting
with ``#`` are ignored.  The same format stores degree distributions and
bound distributions.
"""

from __future__ import annotations

from typing import Iterable

from .errors import ParseError

Record = tuple[int, int, float]


def parse_records(text: str) -> list[Record]:
    """Parse table text into a list of ``(n, k, prob)`` triples.

    Raises :class:`ParseError` naming the first malformed line.
    """
    records: list[Record] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ParseError(f"expected 3 fields, got {len(fields)}: {raw!r}", lineno)
        try:
            n = int(fields[0])
            k = int(fields[1])
        except ValueError:
            raise ParseError(f"first two fields must be integers: {raw!r}", lineno) from None
        try:
            prob = float(fields[2])
        except ValueError:
            raise ParseError(f"third field must be a real number: {raw!r}", lineno) from None
        records.append((n, k, prob))
    return records


def format_records(records: Iterable[tuple[int, int, float]]) -> str:
    lines = ["# n k prob"]
    for n, k, p in records:
        lines.append(f"{n} {k} {p:.17g}")
    return "\n".join(lines) + "\n"
