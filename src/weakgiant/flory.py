"""Flory-Stockmayer gelation as a special case of the bound process.

A classical A/B polymerizing mixture contains linear A-A units (fraction
f1), linear B-B units (f2), and n-functional A-branch units (f3), with
bonds only between A- and B-groups.  Identifying A-groups with in-spots and
B-groups with out-spots maps the mixture onto a bound distribution with
atoms (2, 0), (0, 2), and (n, 0); the gel point of classical theory then
coincides with the critical conversion of the growth process.  The CLI's
``flory`` prints a null ``c_n_crit`` exactly when ``evolve --critical`` on
the mixture's bound table is not ``finite``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .degdist import _checked_count
from .evolution import BoundDist, transition_class
from .errors import DegenerateMixture, ValidationError

#: Tolerance on |f1 + f2 + f3 - 1|.
MIX_TOL = 1e-12


@dataclass(frozen=True)
class FloryMixture:
    """Fractions of A-A, B-B, and n-functional A units."""

    f1: float
    f2: float
    f3: float
    n: int

    def __post_init__(self):
        for name in ("f1", "f2", "f3"):
            if not getattr(self, name) >= 0:
                raise ValidationError(f"{name} = {getattr(self, name)!r} is negative or not a number")
        total = math.fsum((self.f1, self.f2, self.f3))
        if abs(total - 1.0) > MIX_TOL:
            raise ValidationError(f"fractions sum to {total!r}, not 1 within {MIX_TOL:g}")
        if _checked_count(self.n, "branch functionality n =") < 2:
            raise ValidationError(f"branch functionality n = {self.n} must be >= 2")


@dataclass(frozen=True)
class FloryParameters:
    """Classical gelation parameters.

    ``alpha_c = 1/(n-1)`` is the critical branch-path probability,
    ``rho`` the fraction of A-groups on branch units,
    ``r`` the ratio of A-groups to B-groups.
    """

    alpha_c: float
    rho: float
    r: float


def to_bound_dist(mix: FloryMixture) -> BoundDist:
    """Bound distribution of the mixture: (2,0) for A-A, (0,2) for B-B,
    (n,0) for the branch units.  Single-species mixtures are rejected."""
    atoms: dict[tuple[int, int], float] = {}
    for key, f in (((2, 0), mix.f1), ((0, 2), mix.f2), ((mix.n, 0), mix.f3)):
        atoms[key] = atoms.get(key, 0.0) + f  # n = 2 merges with the A-A atom
    return BoundDist.from_entries([(nm, km, f) for (nm, km), f in atoms.items()])


def flory_parameters(mix: FloryMixture) -> FloryParameters:
    a_groups = 2.0 * mix.f1 + mix.n * mix.f3
    if a_groups == 0.0:
        raise DegenerateMixture("mixture has no A-groups")
    if mix.f2 == 0.0:
        raise DegenerateMixture("mixture has no B-groups")
    return FloryParameters(
        alpha_c=1.0 / (mix.n - 1),
        rho=mix.n * mix.f3 / a_groups,
        r=a_groups / (2.0 * mix.f2),
    )


def gel_conversion(mix: FloryMixture) -> float | None:
    """Critical A-group conversion

        c = sqrt( f2 / (f1 + (n^2 - n)/2 * f3) ),

    or None when the bound process of the mixture, :func:`to_bound_dist`,
    has no finite-time transition (the mixture then never gels in finite
    time)."""
    flory_parameters(mix)  # rejects a mixture without A- or B-groups
    if transition_class(to_bound_dist(mix)).kind != "finite":
        return None
    return math.sqrt(mix.f2 / (mix.f1 + 0.5 * (mix.n * mix.n - mix.n) * mix.f3))


def gel_point_pa(params: FloryParameters) -> tuple[float, float]:
    """Critical conversions of A- and B-groups,

        p_A = sqrt( alpha_c / (r (alpha_c + rho - alpha_c rho)) ),
        p_B = r p_A.
    """
    p_a = math.sqrt(params.alpha_c / alpha_of(1.0, params))
    return p_a, params.r * p_a


def alpha_of(p_a: float, params: FloryParameters) -> float:
    """Branch-path probability at A-conversion ``p_a``:
    ``alpha = p_a^2 r (alpha_c + rho - alpha_c rho)``."""
    return p_a * p_a * params.r * (params.alpha_c + params.rho - params.alpha_c * params.rho)


def is_gelled(p_a: float, params: FloryParameters) -> bool:
    """Strictly past the gel point: ``alpha > alpha_c``."""
    if not math.isfinite(p_a):
        raise ValidationError(f"A-group conversion {p_a!r} is not a finite number")
    return alpha_of(p_a, params) > params.alpha_c
