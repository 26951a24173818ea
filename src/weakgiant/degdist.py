"""Bivariate degree distributions for directed graphs.

A directed random graph in the configuration-model sense is specified by the
joint law ``u(n, k)`` of (in-degree, out-degree) of a uniformly random
vertex.  This module holds the sparse table type, its partial moments

    mu_ij = sum_{n,k} n^i k^j u(n, k),

and the edge-balance check ``mu_10 == mu_01`` (every edge has one head and
one tail, so a consistent law must give both means the same value).  The
laws seen by following a uniformly random edge are weighted in
``gfsolver._terms``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterable

import numpy as np

from . import tableio
from .errors import (
    DuplicateKey,
    EdgeImbalance,
    NegativeIndex,
    NegativeProbability,
    NotNormalized,
    ValidationError,
)

#: Default tolerance on |sum(prob) - 1| at construction.
NORM_TOL = 1e-9
#: Default tolerance on |mu_10 - mu_01| relative to max(mu_10, mu_01, 1).
BALANCE_TOL = 1e-9
#: Largest key component a table holds (its keys are int64 arrays).
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class MomentSet:
    """The six partial moments a connectivity analysis needs."""

    mu00: float
    mu10: float
    mu01: float
    mu20: float
    mu02: float
    mu11: float

    @property
    def mu(self) -> float:
        """Common mean degree; edge balance makes mu10 and mu01 agree to
        tolerance, so their mean is used."""
        return 0.5 * (self.mu10 + self.mu01)

    @property
    def determinant(self) -> float:
        """``D = (mu - mu_11)^2 - (mu_20 - mu)(mu_02 - mu)``; negative in the
        supercritical phase."""
        mu = self.mu
        return (mu - self.mu11) ** 2 - (self.mu20 - mu) * (self.mu02 - mu)

    @property
    def giant_in_out(self) -> bool:
        """Giant in- and out-components exist (``mu_11 > mu``)."""
        return self.mu11 - self.mu > 0.0

    @property
    def giant_weak(self) -> bool:
        """A giant weak component exists: D < 0, or D = 0 reached from the
        in/out-giant side (``mu_11 > mu``), which keeps boundary laws such as
        the pure (2, 2) atom classified as supercritical."""
        return self.determinant < 0.0 or self.giant_in_out

    @property
    def giant_undirected_projection(self) -> bool:
        """Molloy-Reed test on the total-degree law, written in (n, k)
        moments: ``2 mu_11 + mu_02 + mu_20 - 4 mu > 0``."""
        return 2.0 * self.mu11 + self.mu02 + self.mu20 - 4.0 * self.mu > 0.0


def _checked_tol(tol: float) -> float:
    """A validation tolerance: finite and nonnegative (a NaN would make every
    comparison against it false and so switch the check off)."""
    if not 0.0 <= tol < math.inf:
        raise ValidationError(f"tolerance {tol!r} must be finite and nonnegative")
    return tol


def _checked_count(value, noun: str) -> int:
    """``value`` as an ``int``, through ``operator.index``; a value that is
    not an integer, even a float such as ``3.0``, raises
    :class:`ValidationError` naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{noun} {value} is not an integer") from None


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry of ``mask``, or its length."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else len(mask)


def _new_keys(columns) -> np.ndarray:
    """Mask of the entries of key-sorted, nonnegative key ``columns`` whose
    key differs from the one before."""
    mask = np.diff(columns[0], prepend=-1) != 0
    for c in columns[1:]:
        mask |= np.diff(c, prepend=-1) != 0
    return mask


def _index_columns(columns, noun: str) -> list[np.ndarray]:
    """Key columns as int64 arrays; int64 arrays pass as they are.

    The first key in input order that has a component that is not an
    integer raises :class:`TypeError` (from ``operator.index``); else, with
    a negative component, :class:`NegativeIndex`; else, with a component
    above int64's range, :class:`ValidationError`.
    """
    try:
        arrays = [
            c if isinstance(c, np.ndarray) and c.dtype == np.int64
            else np.fromiter(map(operator.index, c), np.int64, len(c))
            for c in columns
        ]
    except (TypeError, OverflowError):
        pass
    else:
        if min(_first(a < 0) for a in arrays) == len(arrays[0]):
            return arrays
    one = len(columns) == 1
    for key in zip(*columns):
        key = tuple(map(operator.index, key))
        shown = key[0] if one else key
        if min(key) < 0:
            raise NegativeIndex(f"{noun} {shown} " + ("is negative" if one else "has a negative component"))
        if max(key) > _INT64_MAX:
            raise ValidationError(f"{noun} {shown} " + ("is" if one else "has a component") + f" above {_INT64_MAX}")
    raise AssertionError("no bad key in columns that failed to convert")


def _key(arrays, i: int):
    """Key ``i`` as the library prints it: an int, or a tuple of ints."""
    key = tuple(int(a[i]) for a in arrays)
    return key if len(key) > 1 else key[0]


@dataclass(frozen=True, eq=False)
class _Table:
    """Sparse law kept as ``support``: read-only arrays of the key
    components and the probabilities, one slot per entry, sorted by key.
    Stored probabilities are strictly positive (zero entries are dropped).

    Construction makes the ``support`` arrays read-only.  A subclass names
    its law and its keys in messages with ``_kind`` and ``_noun``.
    """

    support: tuple[np.ndarray, ...]

    _kind: ClassVar[str]
    _noun: ClassVar[str]

    def __post_init__(self):
        for a in self.support:
            a.flags.writeable = False

    @classmethod
    def _validated(cls, *columns, tol: float = NORM_TOL):
        """A table of the key ``columns`` and a last column of probabilities.

        Checks every key first (see :func:`_index_columns`), then the
        tolerance, then the entries in input order: the first one that is
        NaN, negative, or (zeros are dropped) a repeat of an earlier stored
        key raises.  Stores the entries sorted by key.
        """
        *columns, probs = columns
        keys = _index_columns(columns, cls._noun)
        _checked_tol(tol)
        values = np.array(probs)
        if values.dtype.kind not in "biuf":
            # e.g. Fractions; fsum, like the NaN test, takes any real but no text
            values = np.array([math.fsum((p,)) for p in probs])
        values = values.astype(float, copy=False)
        kept = np.flatnonzero(values > 0.0)
        # Stored entries sorted by key; the sort is stable, so of two equal keys
        # the later entry in input order comes second.
        order = kept[np.lexsort([k[kept] for k in keys[::-1]])]
        support = [k[order] for k in keys] + [values[order]]
        duplicate = int(order[~_new_keys(support[:-1])].min(initial=len(values)))
        nan, negative = _first(np.isnan(values)), _first(values < 0.0)
        bad = min(nan, negative, duplicate)
        if bad < len(values):
            key = _key(keys, bad)
            # a float, as text reads it, not a numpy scalar
            prob = probs[bad].item() if isinstance(probs, np.ndarray) else probs[bad]
            if bad == nan:
                raise ValidationError(f"{cls._kind}{key} = {prob!r} is not a number")
            if bad == negative:
                raise NegativeProbability(f"{cls._kind}{key} = {prob!r} is negative")
            raise DuplicateKey(f"duplicate key {key}")
        total = math.fsum(values[kept].tolist())
        if abs(total - 1.0) > tol:
            raise NotNormalized(f"probabilities sum to {total!r}, not 1 within {tol:g}")
        return cls(tuple(support))

    @cached_property
    def entries(self) -> dict:
        """Key (an int, or a tuple of ints) -> probability, sorted by key;
        built on first read (no request reads it)."""
        *keys, probs = (a.tolist() for a in self.support)
        return dict(zip(zip(*keys) if len(keys) > 1 else keys[0], probs))

    def records(self) -> list[tuple]:
        """Entries as ``(*key, prob)`` tuples sorted by key."""
        return list(zip(*(a.tolist() for a in self.support)))

    def moment(self, *exponents: int) -> float:
        """Partial moment ``sum a^i b^j ... P(a, b, ...)``, one exponent per
        key component (``0**0 == 1``).  Each term rounds once and ``fsum``
        rounds correctly, so no term order moves a bit."""
        *keys, probs = self.support
        if math.prod(int(a.max(initial=0)) ** e for a, e in zip(keys, exponents, strict=True)) >= 2**63:
            keys = [a.astype(object) for a in keys]  # int64 would wrap
        return math.fsum((math.prod(a**e for a, e in zip(keys, exponents)) * probs).tolist())


def _columns(rows, width: int) -> tuple:
    """Rows of ``width`` values as ``width`` columns."""
    return tuple(zip(*rows, strict=True)) or ((),) * width


def _run_sums(keys, probs: np.ndarray) -> list:
    """Key-sorted ``keys`` and ``probs`` with each run of equal keys summed:
    the run's key columns, then the ``fsum`` of its probabilities.  Serves
    :func:`weakgiant.evolution.marginal_degree_dist`, which sums a degree
    state over its capacities."""
    starts = np.flatnonzero(_new_keys(keys))
    sums = probs[starts].tolist()
    # fsum of one value is that value; only runs of two or more need the sum.
    ends = np.append(starts[1:], len(probs))
    for i in np.flatnonzero(ends - starts > 1).tolist():
        sums[i] = math.fsum(probs[starts[i] : ends[i]].tolist())
    return [k[starts] for k in keys] + [sums]


class UnivariateDegreeDist(_Table):
    """Sparse law of a single nonnegative integer degree, as built by
    :func:`weakgiant.mcgraph.size_histogram`."""

    _kind, _noun = "d", "degree"


class _PairTable(_Table):
    """Sparse law keyed by pairs of nonnegative integers: the base of degree
    tables and of :class:`weakgiant.evolution.BoundDist`.

    Construct through ``from_text`` or ``from_entries``, which validate the
    entries and sort them into ``support`` (first and second key
    components, probabilities) in one pass.
    """

    @classmethod
    def from_text(cls, text: str, *, tol: float = NORM_TOL):
        return cls._validated(*tableio.parse_records(text), tol=tol)

    @classmethod
    def from_entries(cls, triples: Iterable[tuple[int, int, float]], *, tol: float = NORM_TOL):
        return cls._validated(*_columns(triples, 3), tol=tol)

    def to_text(self) -> str:
        return tableio.format_records(self.records())


class BivariateDegreeDist(_PairTable):
    """Sparse joint law of (in-degree n, out-degree k)."""

    _kind, _noun = "u", "degree pair"
    # This class's own attribute, so that it can be wrapped on this class alone.
    from_entries = vars(_PairTable)["from_entries"]

    @cached_property
    def _moment_set(self) -> MomentSet:
        return MomentSet(
            mu00=self.moment(0, 0),
            mu10=self.moment(1, 0),
            mu01=self.moment(0, 1),
            mu20=self.moment(2, 0),
            mu02=self.moment(0, 2),
            mu11=self.moment(1, 1),
        )

    def moments(self) -> MomentSet:
        """The six partial moments, summed once per instance (instances are
        never mutated)."""
        return self._moment_set

    def is_edge_balanced(self, tol: float = BALANCE_TOL) -> bool:
        m = self.moments()
        return abs(m.mu10 - m.mu01) <= _checked_tol(tol) * max(1.0, m.mu10, m.mu01)


def truncated_double_poisson(lam: float, cutoff: int = 30) -> BivariateDegreeDist:
    """Independent Poisson(lam) in- and out-degrees, each truncated at
    ``cutoff``: the degree law of the directed Erdos-Renyi graph."""
    row = [math.exp(-lam)]
    for i in range(1, cutoff + 1):
        row.append(row[-1] * lam / i)
    return BivariateDegreeDist.from_entries(
        [(n, k, row[n] * row[k]) for n in range(cutoff + 1) for k in range(cutoff + 1)]
    )


def require_edge_balanced(d: BivariateDegreeDist, tol: float = BALANCE_TOL) -> None:
    """Raise :class:`EdgeImbalance` unless mean in- and out-degree agree."""
    if not d.is_edge_balanced(tol):
        m = d.moments()
        raise EdgeImbalance(
            f"mean in-degree {m.mu10!r} != mean out-degree {m.mu01!r} "
            f"beyond tolerance {tol:g}"
        )
