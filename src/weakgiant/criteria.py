"""Moment criteria for giant components of directed random graphs.

For an edge-balanced law ``u(n, k)`` with common mean ``mu`` the existence
of a giant *weak* component is read off a single determinant of partial
moments,

    D = (mu - mu_11)^2 - (mu_20 - mu)(mu_02 - mu),

which is negative exactly in the supercritical phase.  Two sign conventions
for this quantity circulate; reports carry both ``determinant_D`` (as above)
and its negative ``paper_A``, and the mean-size formula below uses the
convention that keeps the subcritical mean positive.

The other two classical thresholds are special cases of the same moment
algebra: giant in/out components appear when ``mu_11 > mu`` (the
Newman-Strogatz-Watts condition for each direction; either both in- and
out-giants exist or neither does under edge balance), and ignoring edge
directions reduces ``D < 0`` to the Molloy-Reed criterion
``mu_2 - 2 mu_1 > 0`` for the projected total-degree law.

Each verdict is a property of :class:`MomentSet` (``determinant``,
``giant_weak``, ``giant_in_out``, ``giant_undirected_projection``);
:func:`criteria_report` checks edge balance and evaluates them all.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import gfsolver
from .degdist import BALANCE_TOL, BivariateDegreeDist, MomentSet, require_edge_balanced
from .errors import Supercritical


@dataclass(frozen=True)
class ConnectivityReport:
    """All connectivity verdicts for one degree distribution."""

    moments: MomentSet
    determinant_D: float
    paper_A: float
    giant_weak: bool
    giant_in_out: bool
    giant_undirected_projection: bool
    mean_weak_size: float | None
    giant_weak_fraction: float | None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _mean_size(m: MomentSet) -> float | None:
    """``W'(1)``, or None where it diverges (D <= 0 with edges present)."""
    mu = m.mu
    if mu == 0.0:
        return 1.0
    D = m.determinant
    if D <= 0.0:
        return None
    return 1.0 + mu * mu * (m.mu02 + m.mu20 - 2.0 * m.mu11) / D


def mean_weak_component_size(
    d: BivariateDegreeDist, *, balance_tol: float = BALANCE_TOL
) -> float:
    """Expected weak-component size of a uniformly random vertex,

        W'(1) = 1 + mu^2 (mu_02 + mu_20 - 2 mu_11) / D,

    finite only while D > 0.  A law with no edges has mean exactly 1.
    """
    require_edge_balanced(d, balance_tol)
    m = d.moments()
    mean = _mean_size(m)
    if mean is None:
        raise Supercritical(f"mean weak-component size diverges (D = {m.determinant!r} <= 0)")
    return mean


def criteria_report(d: BivariateDegreeDist, *, balance_tol: float = BALANCE_TOL) -> ConnectivityReport:
    """Evaluate every criterion once and bundle the results.

    ``mean_weak_size`` is null in the supercritical phase;
    ``giant_weak_fraction`` is null in the subcritical phase (where it would
    be zero) and otherwise comes from the generating-function fixed point.
    Non-convergence of that fixed point propagates.
    """
    require_edge_balanced(d, balance_tol)
    m = d.moments()
    fraction = (
        gfsolver.giant_weak_fraction(d, balance_tol=balance_tol) if m.giant_weak else None
    )
    return ConnectivityReport(
        moments=m,
        determinant_D=m.determinant,
        paper_A=-m.determinant,
        giant_weak=m.giant_weak,
        giant_in_out=m.giant_in_out,
        giant_undirected_projection=m.giant_undirected_projection,
        mean_weak_size=_mean_size(m),
        giant_weak_fraction=fraction,
    )
