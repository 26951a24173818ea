"""Plain-text tables of ``n k prob`` triples.

One record per line, whitespace separated; blank lines and lines starting
with ``#`` are ignored.  The same format stores degree distributions and
bound distributions.
"""

from __future__ import annotations

from typing import Iterable

from .errors import ParseError

Record = tuple[int, int, float]


#: Lines converted per block: enough to amortize the per-block calls, few
#: enough that the split rows of one block stay small.
BLOCK_LINES = 1024


def parse_records(text: str) -> list[Record]:
    """Parse table text into a list of ``(n, k, prob)`` triples.

    Converts blocks of lines at a time; a block that holds a malformed line
    is read again line by line to raise :class:`ParseError` naming the first
    one.
    """
    lines = text.splitlines()
    records: list[Record] = []
    for start in range(0, len(lines), BLOCK_LINES):
        block = lines[start : start + BLOCK_LINES]
        rows = list(filter(None, map(str.split, block)))  # blank lines dropped
        if "#" in "".join(block):  # most blocks hold no comment line
            rows = [fields for fields in rows if fields[0][0] != "#"]
        if not rows:
            continue
        try:
            # A row without exactly three fields fails the strict zip or the unpacking.
            ns, ks, probs = zip(*rows, strict=True)
            records += zip(map(int, ns), map(int, ks), map(float, probs))
        except ValueError:
            _raise_first_error(block, start + 1)
    return records


def _raise_first_error(lines: list[str], first_lineno: int) -> None:
    """Raise :class:`ParseError` for the first malformed line of ``lines``."""
    for lineno, raw in enumerate(lines, start=first_lineno):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ParseError(f"expected 3 fields, got {len(fields)}: {raw!r}", lineno)
        try:
            int(fields[0])
            int(fields[1])
        except ValueError:
            raise ParseError(f"first two fields must be integers: {raw!r}", lineno) from None
        try:
            float(fields[2])
        except ValueError:
            raise ParseError(f"third field must be a real number: {raw!r}", lineno) from None
    raise AssertionError("no malformed line in a block that failed to convert")


def format_records(records: Iterable[tuple[int, int, float]]) -> str:
    lines = ["# n k prob"]
    for n, k, p in records:
        lines.append(f"{n} {k} {p:.17g}")
    return "\n".join(lines) + "\n"
