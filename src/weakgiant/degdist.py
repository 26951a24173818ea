"""Bivariate degree distributions for directed graphs.

A directed random graph in the configuration-model sense is specified by the
joint law ``u(n, k)`` of (in-degree, out-degree) of a uniformly random
vertex.  This module holds the sparse table type, its partial moments

    mu_ij = sum_{n,k} n^i k^j u(n, k),

the edge-balance check ``mu_10 == mu_01`` (every edge has one head and one
tail, so a consistent law must give both means the same value), and the
undirected projection ``d(l) = sum_{n+k=l} u(n, k)``.  The laws seen by
following a uniformly random edge are weighted in ``gfsolver._terms``.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

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


def _index_pair(first, second, noun: str) -> tuple[int, int]:
    """The key ``(first, second)`` as nonnegative integers."""
    first, second = operator.index(first), operator.index(second)
    if first < 0 or second < 0:
        raise NegativeIndex(f"{noun} ({first}, {second}) has a negative component")
    return first, second


def _checked_tol(tol: float) -> float:
    """A validation tolerance: finite and nonnegative (a NaN would make every
    comparison against it false and so switch the check off)."""
    if not 0.0 <= tol < math.inf:
        raise ValidationError(f"tolerance {tol!r} must be finite and nonnegative")
    return tol


def _validated_table(pairs, kind: str, tol: float) -> dict:
    _checked_tol(tol)
    table: dict = {}
    for key, prob in pairs:
        if math.isnan(prob):
            raise ValidationError(f"{kind}{key} = {prob!r} is not a number")
        if prob < 0:
            raise NegativeProbability(f"{kind}{key} = {prob!r} is negative")
        if prob == 0:
            # zero entries are omitted, not stored
            continue
        if key in table:
            raise DuplicateKey(f"duplicate key {key}")
        table[key] = float(prob)
    total = math.fsum(table.values())
    if abs(total - 1.0) > tol:
        raise NotNormalized(f"probabilities sum to {total!r}, not 1 within {tol:g}")
    return table


@dataclass(frozen=True)
class UnivariateDegreeDist:
    """Sparse law of a single nonnegative integer degree."""

    entries: dict

    @classmethod
    def from_entries(cls, pairs: Iterable[tuple[int, float]], *, tol: float = NORM_TOL) -> "UnivariateDegreeDist":
        checked = []
        for l, prob in pairs:
            l = operator.index(l)
            if l < 0:
                raise NegativeIndex(f"degree {l} is negative")
            checked.append((l, prob))
        return cls(_validated_table(checked, "d", tol))

    def moment(self, i: int) -> float:
        return math.fsum(l**i * p for l, p in self.entries.items())


@dataclass(frozen=True)
class _PairTable:
    """Sparse law keyed by pairs of nonnegative integers: the base of degree
    tables and of :class:`weakgiant.evolution.BoundDist`.

    Construct through the subclass's ``from_entries``; instances are never
    mutated, so the sorted support is built once per table.  Stored
    probabilities are strictly positive (zero entries are dropped).
    """

    entries: dict

    @classmethod
    def from_text(cls, text: str, *, tol: float = NORM_TOL):
        return cls.from_entries(tableio.parse_records(text), tol=tol)

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only arrays of the first and second key components and the
        probabilities, one slot per entry, sorted by key."""
        items = sorted(self.entries.items())
        keys = np.array([key for key, _p in items], dtype=np.int64).reshape(-1, 2)
        probs = np.array([p for _key, p in items], dtype=float)
        keys.flags.writeable = probs.flags.writeable = False
        return keys[:, 0], keys[:, 1], probs

    def records(self) -> list[tuple[int, int, float]]:
        """Entries as ``(first, second, prob)`` triples sorted by key."""
        return list(zip(*(a.tolist() for a in self.support)))

    def to_text(self) -> str:
        return tableio.format_records(self.records())

    def moment(self, i: int, j: int) -> float:
        """Partial moment ``sum a^i b^j P(a, b)`` (``0**0 == 1``).  Each term
        rounds once and ``fsum`` rounds correctly, so no term order moves a bit."""
        first, second, probs = self.support
        if int(first.max(initial=0)) ** i * int(second.max(initial=0)) ** j >= 2**63:
            first, second = first.astype(object), second.astype(object)  # int64 would wrap
        return math.fsum((first**i * second**j * probs).tolist())


class BivariateDegreeDist(_PairTable):
    """Sparse joint law of (in-degree n, out-degree k)."""

    @classmethod
    def from_entries(
        cls, triples: Iterable[tuple[int, int, float]], *, tol: float = NORM_TOL
    ) -> "BivariateDegreeDist":
        checked = [(_index_pair(n, k, "degree pair"), prob) for n, k, prob in triples]
        return cls(_validated_table(checked, "u", tol))

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

    def mean_degree(self) -> float:
        """The common edge density mu; meaningful once edge balance holds."""
        return self.moments().mu

    def is_edge_balanced(self, tol: float = BALANCE_TOL) -> bool:
        m = self.moments()
        return abs(m.mu10 - m.mu01) <= _checked_tol(tol) * max(1.0, m.mu10, m.mu01)

    def undirected_projection(self) -> UnivariateDegreeDist:
        """Law of the total degree l = n + k, ignoring edge directions."""
        groups: dict[int, list[float]] = defaultdict(list)
        for (n, k), p in self.entries.items():
            groups[n + k].append(p)
        return UnivariateDegreeDist.from_entries(
            [(l, math.fsum(ps)) for l, ps in sorted(groups.items())]
        )


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
