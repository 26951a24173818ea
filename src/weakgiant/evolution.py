"""Bounded-degree random growth of a directed graph, solved in closed form.

Vertices carry capacities ``(n_max, k_max)`` drawn once from a bound
distribution ``P``.  Edges appear one at a time, each step choosing a
uniformly random ordered pair of distinct vertices with a vacant in-spot on
the head and a vacant out-spot on the tail.  With time scaled so that the
pair-proposal rate per vertex is constant, the edge density mu(t) obeys

    mu'(t) = (nu_01 - mu)(nu_10 - mu),     mu(0) = 0,

where ``nu_ij`` are moments of ``P``.  Everything else follows from mu:
per-vertex in-spots fill independently with probability ``c_n = mu/nu_10``
(and out-spots with ``c_k = mu/nu_01``), so the degree law at time t is a
mixture over capacity classes of products of two binomials.  Substituting
its moments into the giant-weak-component determinant turns the phase
boundary into a quadratic in ``c_n``, giving a closed-form critical
conversion and, through the inverse of mu(t), a critical time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .degdist import NORM_TOL, BivariateDegreeDist, _checked_count, _index_columns, _PairTable, _run_sums, _Table
from .errors import (
    ConversionOutOfRange,
    NegativeTime,
    NoReactivePair,
    ValidationError,
)

#: Relative width of the band around the conversion supremum classified as
#: an asymptotic (infinite-time) transition.
ASYMPTOTIC_BAND = 1e-12
#: Relative threshold below which nu_10 and nu_01 are treated as equal and
#: the symmetric closed form of mu(t) is used.
SYMMETRIC_SWITCH = 1e-12
#: Largest capacity m for which every comb(m, j) converts to a float.
_FLOAT_COMB_MAX_M = 1029


@dataclass(frozen=True)
class NuMoments:
    """Capacity moments ``nu_ij = sum n_max^i k_max^j P(n_max, k_max)``."""

    nu10: float
    nu01: float
    nu20: float
    nu02: float
    nu11: float


class BoundDist(_PairTable):
    """Distribution of per-vertex capacities ``(n_max, k_max)``.

    Valid tables carry at least one class with in-capacity and one with
    out-capacity; otherwise no edge can ever form and construction fails.
    """

    _kind, _noun = "P", "bound pair"

    @classmethod
    def _validated(cls, *columns, tol: float = NORM_TOL) -> "BoundDist":
        table = super()._validated(*columns, tol=tol)
        n_max, k_max, _probs = table.support
        if not (n_max > 0).any():
            raise NoReactivePair("no class has in-capacity; no edge can ever form")
        if not (k_max > 0).any():
            raise NoReactivePair("no class has out-capacity; no edge can ever form")
        return table

    @cached_property
    def _nu(self) -> NuMoments:
        return NuMoments(
            nu10=self.moment(1, 0),
            nu01=self.moment(0, 1),
            nu20=self.moment(2, 0),
            nu02=self.moment(0, 2),
            nu11=self.moment(1, 1),
        )


@dataclass(frozen=True, eq=False)
class DegreeState(_Table):
    """Degree law at one instant of the process, a table keyed ``(n, k)``,
    with the time, edge density and conversions of that instant."""

    t: float
    mu: float
    c_n: float
    c_k: float


@dataclass(frozen=True)
class TransitionClass:
    """Verdict on when (if ever) the giant weak component appears.

    ``kind`` is one of ``"finite"`` (crossed at the attached conversions and
    time), ``"asymptotic"`` (reached only as t -> infinity), ``"never"``.
    """

    kind: str
    c_n_crit: float | None = None
    c_k_crit: float | None = None
    t_crit: float | None = None


def nu_moments(P: BoundDist) -> NuMoments:
    """The five capacity moments, summed once per instance (instances are
    never mutated)."""
    return P._nu


def _is_symmetric(a: float, b: float) -> bool:
    return abs(a - b) <= SYMMETRIC_SWITCH * max(a, b)


def _fill(a: float, b: float, t: float) -> float:
    """Solution m(t) of m' = (a - m)(b - m) with m(0) = 0, for a, b >= 0 and
    finite t >= 0; increasing, with supremum min(a, b)."""
    if _is_symmetric(a, b):
        v = 0.5 * (a + b)
        # where 1 + v t rounds to v t, m lies within an ulp of its supremum
        # v, and v^2 t may overflow: v is returned there
        return v if 1.0 + v * t == v * t else v * v * t / (1.0 + v * t)
    x = (b - a) * t
    # Overflow-free rational forms of  a b (e^x - 1) / (b e^x - a).  Where
    # e^-|x| is below rounding they would round a b / max(a, b) an ulp off
    # the limit min(a, b), which is returned instead.
    if x >= 0.0:
        em = math.expm1(-x)  # in [-1, 0]
        return a * b * (-em) / ((b - a) - a * em) if em > -1.0 else a
    em = math.expm1(x)  # in [-1, 0)
    return a * b * em / ((b - a) + b * em) if em > -1.0 else b


def mu_of_t(P: BoundDist, t: float) -> float:
    """Edge density at time t; increasing, with supremum min(nu_01, nu_10)."""
    if t < 0:
        raise NegativeTime(f"t = {t!r} is negative")
    if not math.isfinite(t):
        raise ValidationError(f"t = {t!r} must be finite")
    nu = nu_moments(P)
    return _fill(nu.nu01, nu.nu10, t)


def _at_time(P: BoundDist, t: float) -> tuple[float, float, float]:
    """``(mu, c_n, c_k)`` at time t."""
    nu = nu_moments(P)
    m = mu_of_t(P, t)
    return m, min(m / nu.nu10, 1.0), min(m / nu.nu01, 1.0)


def conversion_sup(P: BoundDist) -> tuple[float, float]:
    """Supremum of (c_n, c_k) as t -> infinity.

    The scarcer spot species fills completely; the other saturates at the
    capacity ratio.
    """
    nu = nu_moments(P)
    if nu.nu01 >= nu.nu10:
        return 1.0, nu.nu10 / nu.nu01
    return nu.nu01 / nu.nu10, 1.0


def _binom_pmfs(m: int, c: float) -> np.ndarray:
    """Binomial(m, c) pmf at j = 0..m.

    Up to ``_FLOAT_COMB_MAX_M`` each term is ``comb(m, j) c^j (1 - c)^(m - j)``.
    Beyond it comb(m, j) can exceed the float range, so the terms are running
    products of the ratios pmf(j + 1) / pmf(j) outward from the mode, each at
    most 1, divided by their correctly rounded sum: O(m) ulps relative.
    """
    if m <= _FLOAT_COMB_MAX_M:
        return np.array([math.comb(m, j) * c**j * (1.0 - c) ** (m - j) for j in range(m + 1)])
    pmf = np.zeros(m + 1)
    if c == 0.0 or c == 1.0:
        pmf[round(c * m)] = 1.0
        return pmf
    j = np.arange(m, dtype=float)
    ratio = (m - j) / (j + 1.0) * (c / (1.0 - c))
    mode = min(int((m + 1) * c), m)
    pmf[mode] = 1.0
    pmf[mode + 1 :] = np.cumprod(ratio[mode:])
    pmf[:mode] = np.cumprod(1.0 / ratio[:mode][::-1])[::-1]
    return pmf / math.fsum(pmf.tolist())


def _degree_support(P: BoundDist, c_n: float, c_k: float) -> tuple[np.ndarray, ...]:
    """Support of the degree law at conversions ``(c_n, c_k)``: per capacity
    class the outer product ``(p * pn) x pk`` of binomial pmfs, summed over
    the classes."""
    pmf = functools.cache(_binom_pmfs)
    columns = []
    for nm, km, p in P.records():
        q = np.multiply.outer(p * pmf(nm, c_n), pmf(km, c_k))
        n, k = np.nonzero(q > 0.0)
        columns.append((n, k, q[n, k]))
    n, k, probs = (np.concatenate(c) for c in zip(*columns))
    order = np.lexsort((k, n))
    return BivariateDegreeDist._validated(*_run_sums((n[order], k[order]), probs[order])).support


def degree_state_at(P: BoundDist, t: float) -> DegreeState:
    """Degree law u(n, k) at time t: per capacity class, spots fill
    independently, Binomial(n_max, c_n) x Binomial(k_max, c_k)."""
    mu, c_n, c_k = _at_time(P, t)
    return DegreeState(_degree_support(P, c_n, c_k), t, mu, c_n, c_k)


def _not_nan(c_n: float) -> float:
    """``c_n``, unless it is NaN: invalid input, not an unreachable target."""
    if math.isnan(c_n):
        raise ValidationError(f"c_n = {c_n!r} is not a number")
    return c_n


def check_reachable(P: BoundDist, c_n: float) -> float:
    """Raise unless ``c_n`` lies in [0, sup), reached at a finite time; returns sup."""
    sup_cn, _ = conversion_sup(P)
    if not 0.0 <= _not_nan(c_n) < sup_cn:
        raise ConversionOutOfRange(f"c_n = {c_n!r} outside [0, {sup_cn!r})")
    return sup_cn


def _at_conversion(P: BoundDist, c_n: float) -> tuple[float, float, float]:
    """``(mu, c_n, c_k)`` at in-conversion ``c_n``.

    ``c_n`` must lie in [0, sup] up to a relative 1e-12 and is clamped to
    the supremum, where the state is :func:`conversion_sup`'s exactly.
    """
    nu = nu_moments(P)
    sup_cn, sup_ck = conversion_sup(P)
    if not 0.0 <= _not_nan(c_n) <= sup_cn * (1.0 + 1e-12):
        raise ConversionOutOfRange(f"c_n = {c_n!r} outside [0, {sup_cn!r}]")
    if c_n >= sup_cn:
        return min(nu.nu01, nu.nu10), sup_cn, sup_ck
    return c_n * nu.nu10, c_n, min(c_n * nu.nu10 / nu.nu01, 1.0)


def degree_state_at_conversion(P: BoundDist, c_n: float) -> DegreeState:
    """Same state indexed by in-conversion; ``t`` is inf at the supremum."""
    mu, c_n, c_k = _at_conversion(P, c_n)
    t = time_of_conversion(P, c_n) if c_n < conversion_sup(P)[0] else math.inf
    return DegreeState(_degree_support(P, c_n, c_k), t, mu, c_n, c_k)


def marginal_degree_dist(state: DegreeState) -> BivariateDegreeDist:
    """The state's degree law u(n, k) as a degree table."""
    return BivariateDegreeDist(state.support)


def mu_moments_at(P: BoundDist, c_n: float) -> tuple[float, float, float]:
    """Closed-form (mu_20, mu_02, mu_11) of the degree law at conversion c_n:

        mu_20 = c_n nu_10 (1 - c_n) + c_n^2 nu_20,
        mu_02 = c_k nu_01 (1 - c_k) + c_k^2 nu_02,
        mu_11 = c_n c_k nu_11.
    """
    nu = nu_moments(P)
    _mu, c_n, c_k = _at_conversion(P, c_n)
    mu20 = c_n * nu.nu10 * (1.0 - c_n) + c_n * c_n * nu.nu20
    mu02 = c_k * nu.nu01 * (1.0 - c_k) + c_k * c_k * nu.nu02
    mu11 = c_n * c_k * nu.nu11
    return mu20, mu02, mu11


def critical_conversion(P: BoundDist) -> tuple[float, float] | None:
    """Conversions ``(c_n_crit, c_k_crit)`` where D hits zero,

        c_n_crit = nu_01 / (nu_11 + sqrt((nu_02 - nu_01)(nu_20 - nu_10))),

    or None when no real positive root exists.  The value may lie at or past
    the reachable supremum; see :func:`transition_class`.
    """
    nu = nu_moments(P)
    # Each n^2 P rounds to >= n P and fsum rounds correctly: nu_20 >= nu_10, nu_02 >= nu_01.
    den = nu.nu11 + math.sqrt((nu.nu02 - nu.nu01) * (nu.nu20 - nu.nu10))
    if den <= 0.0:
        return None
    return nu.nu01 / den, nu.nu10 / den


def time_of_conversion(P: BoundDist, c_n: float) -> float:
    """Time at which the in-conversion reaches ``c_n`` (must be < sup)."""
    sup_cn = check_reachable(P, c_n)
    nu = nu_moments(P)
    if _is_symmetric(nu.nu01, nu.nu10):
        v = 0.5 * (nu.nu01 + nu.nu10)
        return c_n / (v * (1.0 - c_n))
    a, b = nu.nu01, nu.nu10  # mu(t) -> min(a, b)
    # Inverting mu(t): t = log((1-c) a / (a - c b)) / (b - a), written with
    # log1p to stay accurate when a and b nearly coincide.  Within rounding
    # of the supremum a / b, a - c b can round to zero or below; b (sup - c)
    # cannot, since c < sup.
    gap = a - c_n * b
    if gap <= 0.0:
        gap = b * (sup_cn - c_n)
    return math.log1p(c_n * (b - a) / gap) / (b - a)


def transition_class(P: BoundDist) -> TransitionClass:
    """Classify the process: does the giant weak component appear at a finite
    time, only asymptotically, or never?

    Finite-time means the critical conversion is strictly inside the
    reachable range; landing on the supremum (within a relative band of
    1e-12) is the asymptotic marginal case.  This conversion-based test also
    covers boundary capacity tables, e.g. the pure (2, 2) atom, where the
    quadratic evaluated at full conversion vanishes even though the
    transition happened strictly earlier.
    """
    crit = critical_conversion(P)
    if crit is None:
        return TransitionClass("never")
    c_n_crit, c_k_crit = crit
    sup_cn, _ = conversion_sup(P)
    band = ASYMPTOTIC_BAND * max(1.0, sup_cn)
    if c_n_crit < sup_cn - band:
        return TransitionClass(
            "finite", c_n_crit=c_n_crit, c_k_crit=c_k_crit, t_crit=time_of_conversion(P, c_n_crit)
        )
    if c_n_crit <= sup_cn + band:
        return TransitionClass("asymptotic")
    return TransitionClass("never")


@dataclass(frozen=True)
class BarycentricPoint:
    """One lattice point of a three-atom mixture simplex."""

    f1: float
    f2: float
    f3: float
    transition: TransitionClass


def barycentric_grid(
    atoms: Sequence[tuple[int, int]], resolution: int
) -> list[BarycentricPoint]:
    """Classify every mixture ``f1 A1 + f2 A2 + f3 A3`` on the barycentric
    lattice with spacing 1/resolution, row-major in (j1, j2).

    Lattice points where one capacity species is absent (``nu_10 = 0`` or
    ``nu_01 = 0``) are classified ``never``: such tables admit no edges, so
    :meth:`BoundDist.from_entries` rejects them, and they never form a giant
    component.
    """
    if len(atoms) != 3:
        raise ValidationError(f"need exactly 3 atoms, got {len(atoms)}")
    n_max, k_max = zip(*atoms, strict=True)
    cleaned = list(zip(*(a.tolist() for a in _index_columns((n_max, k_max), "atom"))))
    if _checked_count(resolution, "resolution") < 2:
        raise ValidationError(f"resolution {resolution} too coarse; need >= 2")

    m = resolution
    points = []
    for j1 in range(m + 1):
        for j2 in range(m - j1 + 1):
            j3 = m - j1 - j2
            weights = (j1 / m, j2 / m, j3 / m)
            mix: dict[tuple[int, int], float] = {}
            for atom, w in zip(cleaned, weights):
                if w > 0.0:
                    mix[atom] = mix.get(atom, 0.0) + w
            try:
                cls = transition_class(BoundDist.from_entries((*key, w) for key, w in mix.items()))
            except NoReactivePair:
                cls = TransitionClass("never")
            points.append(BarycentricPoint(weights[0], weights[1], weights[2], cls))
    return points
