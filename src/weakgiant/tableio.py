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

#: Lines converted per block by the line reader: enough to amortize the
#: per-block calls, few enough that the split rows of one block stay small.
BLOCK_LINES = 1024


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
    """The columns of ``lines``, converted a block of lines at a time with
    Python's ``int`` and ``float``; a block that holds a malformed line is
    read again line by line to raise :class:`ParseError` naming the first
    one."""
    ns: list[int] = []
    ks: list[int] = []
    probs: list[float] = []
    for start in range(0, len(lines), BLOCK_LINES):
        block = lines[start : start + BLOCK_LINES]
        # blank lines and comment lines dropped
        rows = [fields for fields in map(str.split, block) if fields and fields[0][0] != "#"]
        if not rows:
            continue
        try:
            # A row without exactly three fields fails the strict zip or the unpacking.
            n, k, prob = zip(*rows, strict=True)
            ns += map(int, n)
            ks += map(int, k)
            probs += map(float, prob)
        except ValueError:
            _raise_first_error(block, start + 1)
    return ns, ks, probs


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
