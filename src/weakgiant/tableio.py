"""Plain-text tables of ``n k prob`` triples.

One record per line, whitespace separated; blank lines and lines starting
with ``#`` are ignored.  The same format stores degree distributions and
bound distributions.
"""

from __future__ import annotations

import warnings
from typing import Iterable

import numpy as np

from .errors import ParseError

#: One table row as numpy's reader converts it.
_ROW = np.dtype([("n", np.int64), ("k", np.int64), ("prob", np.float64)])


def parse_records(text: str) -> tuple:
    """Parse table text into its three columns: first keys, second keys and
    probabilities.

    Lines are split as :meth:`str.splitlines` splits them.  numpy's C reader
    converts the lines after the leading comments and blank lines into
    int64, int64 and float64 arrays.  Text that it declines goes to the line
    reader: a malformed line, a comment line below the first record, a key
    beyond int64, or a number that only Python reads, such as ``1_000`` or
    non-ASCII digits.  That reader raises :class:`ParseError` naming the
    first malformed line, or returns the columns as lists of Python ints
    and floats.
    """
    lines = text.splitlines()
    start = 0
    for line in lines:
        head = line.lstrip()
        if head and head[0] != "#":
            break
        start += 1
    # With comments=None numpy reads a "#" as data.  Text with a "#" below
    # the leading comments goes to the line reader, which skips comment
    # lines there and rejects a "#" after a record's fields.
    if start < len(lines) and text.count("#") == sum(line.count("#") for line in lines[:start]):
        with warnings.catch_warnings():
            # Older numpy warns and then reads a float such as "1.0" as an int.
            warnings.simplefilter("error")
            try:
                return tuple(np.loadtxt(lines[start:], dtype=_ROW, comments=None, ndmin=1, unpack=True))
            except (ValueError, Warning):
                pass
    return _read_lines(lines)


def _read_lines(lines: list[str]) -> tuple[list[int], list[int], list[float]]:
    """The columns of ``lines``, converted one line at a time with Python's
    ``int`` and ``float``; the first malformed line raises
    :class:`ParseError`."""
    ns: list[int] = []
    ks: list[int] = []
    probs: list[float] = []
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if len(fields) != 3:
            raise ParseError(f"expected 3 fields, got {len(fields)}: {raw!r}", lineno)
        try:
            ns.append(int(fields[0]))
            ks.append(int(fields[1]))
        except ValueError:
            raise ParseError(f"first two fields must be integers: {raw!r}", lineno) from None
        try:
            probs.append(float(fields[2]))
        except ValueError:
            raise ParseError(f"third field must be a real number: {raw!r}", lineno) from None
    return ns, ks, probs


def format_records(records: Iterable[tuple[int, int, float]]) -> str:
    lines = ["# n k prob"]
    for n, k, p in records:
        lines.append(f"{n} {k} {p:.17g}")
    return "\n".join(lines) + "\n"
