"""Shared oracles and input generators for the test suite.

The oracles here deliberately take independent routes from the library:
RK4 integration instead of closed forms, explicit double loops instead of
vectorized evaluation, a per-event loop on the admissible rate instead of
blocks of rejection-clock proposals, dyadic-rational probabilities so
grouping identities hold exactly in floating point.
"""

import contextlib
import io
import itertools
import json
import math
import operator
import sys
from collections import Counter
from fractions import Fraction
from importlib import resources

import numpy as np
from hypothesis import strategies as st

from weakgiant import (  # truncated_double_poisson is re-exported for the tests
    BivariateDegreeDist,
    BoundDist,
    DuplicateKey,
    EdgeImbalance,
    Exhausted,
    NegativeIndex,
    NegativeProbability,
    NoReactivePair,
    NotNormalized,
    ParseError,
    ValidationError,
    evolution,
    truncated_double_poisson,
)
from weakgiant.degdist import _checked_tol
from weakgiant.gfsolver import _terms
from weakgiant.mcgraph import (
    _PREFIX_SIGMAS,
    DirectedMultigraph,
    KmcResult,
    KmcState,
    _as_rng,
    _sample_keys,
)

DYADIC_SCALE = 2**20


def tv_distance(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(key, 0.0) - q.get(key, 0.0)) for key in keys)


def realized_degree_law(g: DirectedMultigraph) -> dict:
    """Share of the vertices of g with each realized (in-degree, out-degree)."""
    in_deg = np.bincount(g.edges[:, 1], minlength=g.vertex_count)
    out_deg = np.bincount(g.edges[:, 0], minlength=g.vertex_count)
    counts = Counter(zip(in_deg.tolist(), out_deg.tolist()))
    return {key: c / g.vertex_count for key, c in counts.items()}


def tv_size_law(w, hist_entries: dict, order: int) -> float:
    """TV between an analytic size law w(1..order) and an empirical histogram,
    lumping everything above the truncation order into one tail bucket."""
    body = math.fsum(
        abs(w[s - 1] - hist_entries.get(s, 0.0)) for s in range(1, order + 1)
    )
    tail_w = max(0.0, 1.0 - math.fsum(w))
    tail_h = math.fsum(p for s, p in hist_entries.items() if s > order)
    return 0.5 * (body + abs(tail_w - tail_h))


def _chi2_upper_tail(stat: float, df: int) -> float:
    """P(X >= stat) for X chi-squared with df degrees of freedom, by the
    Wilson-Hilferty normal approximation; 1.0 when df < 1."""
    if df < 1:
        return 1.0
    h = 2 / (9 * df)
    z = ((stat / df) ** (1 / 3) - (1 - h)) / math.sqrt(h)
    return 0.5 * math.erfc(z / math.sqrt(2))


def chi2_two_sample(a: dict, b: dict, min_expected: float = 5.0) -> float:
    """p-value of the two-sample chi-squared test of homogeneity on two
    tables of counts.

    Cells whose expected count in the smaller sample is below
    ``min_expected`` are pooled into one cell.  The p-value uses the
    Wilson-Hilferty normal approximation of the chi-squared law.
    """
    na, nb = sum(a.values()), sum(b.values())
    total = {c: a.get(c, 0) + b.get(c, 0) for c in set(a) | set(b)}
    small = min(na, nb) / (na + nb)
    rows = [(a.get(c, 0), b.get(c, 0)) for c, t in total.items() if t * small >= min_expected]
    pooled = [(a.get(c, 0), b.get(c, 0)) for c, t in total.items() if t * small < min_expected]
    if pooled:
        rows.append((sum(x for x, _ in pooled), sum(y for _, y in pooled)))
    stat = 0.0
    for x, y in rows:
        ex, ey = (x + y) * na / (na + nb), (x + y) * nb / (na + nb)
        stat += (x - ex) ** 2 / ex + (y - ey) ** 2 / ey
    return _chi2_upper_tail(stat, len(rows) - 1)


def chi2_goodness_of_fit(seen: dict, law: dict, min_expected: float = 5.0) -> tuple:
    """Statistic, degrees of freedom and p-value of the one-sample
    chi-squared test of the counts ``seen`` against the probabilities
    ``law``, whose keys hold every key of ``seen``.

    Cells whose expected count is below ``min_expected`` are pooled into
    one cell; the p-value is Wilson-Hilferty's, as in ``chi2_two_sample``.
    """
    draws = sum(seen.values())
    cells = [(seen.get(c, 0), draws * p) for c, p in law.items() if draws * p >= min_expected]
    pooled = [(seen.get(c, 0), draws * p) for c, p in law.items() if draws * p < min_expected]
    if pooled:
        cells.append((sum(x for x, _ in pooled), sum(e for _, e in pooled)))
    stat = math.fsum((x - e) ** 2 / e for x, e in cells)
    return stat, len(cells) - 1, _chi2_upper_tail(stat, len(cells) - 1)


def ks_two_sample(x, y) -> float:
    """Largest gap between the empirical distribution functions of x and y."""
    x, y = np.sort(x), np.sort(y)
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    return float(np.abs(fx - fy).max())


def ks_critical(alpha: float, n: int, m: int) -> float:
    """Asymptotic two-sample Kolmogorov-Smirnov critical distance at level alpha."""
    return math.sqrt(-0.5 * math.log(alpha / 2) * (n + m) / (n * m))


def brute_moment(entries: dict, i: int, j: int) -> float:
    """Moment by an explicit accumulation loop (independent of fsum order)."""
    total = 0.0
    for (n, k), p in sorted(entries.items()):
        total += (n**i) * (k**j) * p
    return total


def total_degree_law(d: BivariateDegreeDist) -> dict:
    """Oracle: the law of the total degree ``l = n + k``, ignoring edge
    directions; each probability is the ``fsum`` of its terms (Python ints
    do not wrap)."""
    terms: dict = {}
    for n, k, p in d.records():
        terms.setdefault(n + k, []).append(p)
    return {l: math.fsum(ps) for l, ps in sorted(terms.items())}


def rk4_mu(nu10, nu01, t_max: float, steps: int) -> np.ndarray:
    """RK4 integration of mu' = (nu01 - mu)(nu10 - mu), mu(0) = 0.

    Accepts arrays of rate pairs; returns shape (steps + 1, len(pairs)).
    """
    nu10 = np.atleast_1d(np.asarray(nu10, dtype=float))
    nu01 = np.atleast_1d(np.asarray(nu01, dtype=float))
    h = t_max / steps

    def f(m):
        return (nu01 - m) * (nu10 - m)

    mu = np.zeros_like(nu10)
    out = np.empty((steps + 1, nu10.size))
    out[0] = mu
    for step in range(1, steps + 1):
        k1 = f(mu)
        k2 = f(mu + 0.5 * h * k1)
        k3 = f(mu + 0.5 * h * k2)
        k4 = f(mu + h * k3)
        mu = mu + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[step] = mu
    return out


def borel_law(c: float, order: int) -> list[float]:
    """Finite-component size law w(1..order) of undirected ER with mean
    degree c: the Borel law ``e^{-cs} (cs)^{s-1} / s!``."""
    return [
        math.exp(-c * s + (s - 1) * math.log(c * s) - math.lgamma(s + 1))
        for s in range(1, order + 1)
    ]


def atom22_size_law(c: float, order: int) -> list[float]:
    """Size law w(1..order) of the (2, 2)-atom growth marginal at conversion c.

    In- and out-degree are independent Binomial(2, c), so W_in = W_out = T
    with T = z f(T)^3 and W = z f(T)^4, f(x) = 1 - c + c x.  Lagrange
    inversion gives w(1) = (1-c)^4 and, for s >= 2,
    w(s) = 4 / (s-1) C(3s, s-2) c^(s-1) (1-c)^(2s+2).
    """
    law = [(1.0 - c) ** 4]
    for s in range(2, order + 1):
        law.append(4 / (s - 1) * math.comb(3 * s, s - 2) * c ** (s - 1) * (1.0 - c) ** (2 * s + 2))
    return law


def atom22_fixed_point(c: float) -> tuple[float, float]:
    """``(1 - u, 1 - f(u)^4)`` for the (2, 2)-atom growth marginal at
    conversion c: u = f(u)^3 is the edge-following fixed point (both
    directions alike), f(x) = 1 - c + c x, and 1 - f(u)^4 the giant
    fraction.  Bisection on ``v = 1 - (1 - c v)^3`` in complement form,
    which keeps full relative precision as c -> 1/3."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if -math.expm1(3.0 * math.log1p(-c * mid)) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, -math.expm1(4.0 * math.log1p(-c * lo))


def exact_picard_size_law(d: BivariateDegreeDist, order: int) -> list[Fraction]:
    """w(1..order) in exact rational arithmetic by truncated Picard sweeps.

    Sweep m fixes coefficient m of W_in and W_out (each is z times a series
    in coefficients below m), so ``order`` sweeps from zero are exact.
    """
    terms = [(n, k, Fraction(p)) for (n, k), p in sorted(d.entries.items())]
    mu = sum((n + k) * p for n, k, p in terms) / 2

    def mul(a, b):
        out = [Fraction(0)] * (order + 1)
        for i, x in enumerate(a):
            if x:
                for j in range(order + 1 - i):
                    out[i + j] += x * b[j]
        return out

    def powers(a):
        table = [[Fraction(1)] + [Fraction(0)] * order]
        for _ in range(max(max(n, k) for n, k, _p in terms)):
            table.append(mul(table[-1], a))
        return table

    def z_times(weighted, w_out, w_in):
        """z * sum c W_out^a W_in^b over (c, a, b)."""
        po, pi = powers(w_out), powers(w_in)
        total = [Fraction(0)] * (order + 1)
        for c, a, b in weighted:
            for i, x in enumerate(mul(po[a], pi[b])):
                total[i] += c * x
        return [Fraction(0)] + total[:order]

    u_in = [(n * p / mu, n - 1, k) for n, k, p in terms if n >= 1]
    u_out = [(k * p / mu, n, k - 1) for n, k, p in terms if k >= 1]
    w_in = w_out = [Fraction(0)] * (order + 1)
    for _sweep in range(order):
        w_in, w_out = z_times(u_in, w_out, w_in), z_times(u_out, w_out, w_in)
    return z_times([(p, n, k) for n, k, p in terms], w_out, w_in)[1:]


def picard_fixed_point(d: BivariateDegreeDist, *, tol: float = 1e-12, max_iter: int = 10**6):
    """Least fixed point ``(s_out, s_in)`` of the edge-following system by
    Picard iteration from (0, 0): each table is a ``math.fsum`` of its terms
    ``w x^a y^b`` divided by the common mean mu.  None if ``max_iter`` steps
    do not reach ``tol``.

    Iterates increase monotonically to the least fixed point.  A small step
    does not mean a small error when the contraction rate q is near 1, so
    the iteration stops once the error estimate ``2 step q / (1 - q)`` is
    ``<= tol``; q is the ratio of the last two steps, and the factor 2
    covers the rounding noise in q once steps are near 1e-14.  The step
    itself must be ``<= tol`` too: in the first steps q can still grow
    fivefold, and the estimate then falls short of the error.
    """
    _u, u_in, u_out = _terms(d)
    mu = d.moments().mu

    def total(term, x, y):
        w, a, b = term
        return math.fsum((w * x**a * y**b).tolist())

    s_out = s_in = 0.0
    previous = math.inf
    for _ in range(max_iter):
        new_in, new_out = total(u_in, s_out, s_in) / mu, total(u_out, s_out, s_in) / mu
        step = max(abs(new_in - s_in), abs(new_out - s_out))
        s_out, s_in = min(new_out, 1.0), min(new_in, 1.0)
        q = step / previous
        if step == 0.0 or (step <= tol and 0.0 < q < 1.0 and 2.0 * step * q / (1.0 - q) <= tol):
            return s_out, s_in
        previous = step
    return None


def er_giant_fraction(c: float) -> float:
    """Root in (0, 1) of ``g = 1 - exp(-c g)`` for c > 1, the giant fraction
    of undirected Erdos-Renyi graphs with mean degree c.  Bisection on
    ``-expm1(-c g) - g``, which keeps full relative precision as c -> 1."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if -math.expm1(-c * mid) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def choice_slots(probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. slots 0..K-1 drawn one by one by ``Generator.choice``, which
    searches the cumulative probabilities: the reference for
    ``mcgraph._draw_slots``."""
    return rng.choice(probs.size, size=n, p=probs)


def least_imbalance(diff, n: int) -> int:
    """The stub imbalance a draw of n degree pairs is conditioned on: the
    least |Delta| in Delta's residue class n * d_0 mod g, +g/2 on a tie,
    with d_0 the least n - k value in ``diff`` and g the gcd of the
    differences of its values; n * d_0 for a single value."""
    values = sorted(set(diff))
    g = math.gcd(*(v - values[0] for v in values))
    if not g:
        return n * values[0]  # a single value: nothing to condition
    residue = n * values[0] % g
    return residue if 2 * residue <= g else residue - g


def exact_balanced_law(probs, diff, n: int) -> dict:
    """Law of the class counts of n i.i.d. draws from ``probs`` given that
    their imbalance sum(counts * diff) is ``least_imbalance(diff, n)``, by
    enumerating every count vector: the reference for
    ``mcgraph._balanced_counts``."""
    target = least_imbalance(diff, n)
    law = {}
    for counts in itertools.product(range(n + 1), repeat=len(probs)):
        if sum(counts) == n and sum(c * d for c, d in zip(counts, diff)) == target:
            law[counts] = math.factorial(n) * math.prod(
                p**c / math.factorial(c) for p, c in zip(probs, counts)
            )
    total = math.fsum(law.values())
    return {counts: p / total for counts, p in law.items()}


def imbalance_law(probs, diff, n: int) -> dict:
    """Law of the imbalance sum(diff) of n i.i.d. draws from ``probs``, one
    draw at a time; every imbalance some draw reaches is a key, its
    probability 0.0 where it underflows."""
    law = {0: 1.0}
    for _ in range(n):
        step = {}
        for delta, p in law.items():
            for q, d in zip(probs, diff):
                step[delta + d] = step.get(delta + d, 0.0) + p * q
        law = step
    return law


# ---------------------------------------------------------------------------
# kinetic Monte Carlo oracle


def sequential_kmc(
    P: BoundDist,
    n_vertices: int,
    seed,
    *,
    t_end: float | None = None,
    c_n_target: float | None = None,
    record_trajectory: bool = True,
) -> KmcResult:
    """Exact stochastic simulation of the bounded growth process, one event
    per loop step: the reference for the vectorized ``kmc_simulate``.

    Each step picks a uniformly random admissible ordered pair (distinct
    vertices, vacant out-spot on the tail, vacant in-spot on the head) and
    waits an exponential time at total rate (#admissible pairs)/N, counting
    spot pairs.  Stop at ``t_end``, or at the in-conversion ``c_n_target``
    (raising :class:`Exhausted` if the target cannot be reached), or, with
    neither given, when no admissible pair remains.
    """
    if n_vertices < 2:
        raise ValidationError(f"need at least 2 vertices, got {n_vertices}")
    if t_end is not None and c_n_target is not None:
        raise ValidationError("give at most one of t_end and c_n_target")
    if t_end is not None and t_end < 0:
        raise ValidationError(f"t_end = {t_end!r} is negative")
    if c_n_target is not None and not 0.0 <= c_n_target <= 1.0:
        raise ValidationError(f"c_n_target = {c_n_target!r} outside [0, 1]")

    rng = _as_rng(seed)
    n_max, k_max = _sample_keys(P, n_vertices, rng)
    vin = n_max.copy()
    vout = k_max.copy()

    total_in = int(vin.sum())
    total_out = int(vout.sum())
    in_spots = np.repeat(np.arange(n_vertices, dtype=np.int64), vin)
    out_spots = np.repeat(np.arange(n_vertices, dtype=np.int64), vout)
    v_in = total_in
    v_out = total_out
    blocked = int((vin * vout).sum())  # same-vertex spot pairs

    target_events = None
    if c_n_target is not None:
        target_events = int(round(c_n_target * total_in))
    capacity = min(total_in, total_out) if target_events is None else target_events
    edges = np.empty((max(capacity, 0), 2), dtype=np.int64)
    times = np.empty(max(capacity, 0), dtype=float)

    # Batched uniforms; refilled on demand, each batch twice the last up to
    # 65,536, so a short run draws few.  Chunked draws return the same
    # doubles in the same order, and nothing else draws from rng after this
    # point, so the batch sizes do not change a run.
    buf = rng.random(64)
    pos = 0

    def next_u() -> float:
        nonlocal buf, pos
        if pos == buf.size:
            buf = rng.random(min(2 * buf.size, 65536))
            pos = 0
        u = buf[pos]
        pos += 1
        return u

    t = 0.0
    events = 0
    while True:
        if target_events is not None and events >= target_events:
            break
        admissible = v_in * v_out - blocked
        if admissible <= 0:
            if target_events is not None:
                raise Exhausted(
                    f"no admissible pair after {events} events; "
                    f"target was {target_events}"
                )
            break
        rate = admissible / n_vertices
        dt = -math.log(1.0 - next_u()) / rate
        if t_end is not None and t + dt > t_end:
            t = t_end
            break
        t += dt

        while True:
            i = int(next_u() * v_out)
            j = int(next_u() * v_in)
            src = int(out_spots[i])
            dst = int(in_spots[j])
            if src != dst:
                break

        # Swap-remove the chosen vacant spot on each endpoint.
        v_out -= 1
        out_spots[i] = out_spots[v_out]
        v_in -= 1
        in_spots[j] = in_spots[v_in]

        blocked -= int(vin[src])
        vout[src] -= 1
        blocked -= int(vout[dst])
        vin[dst] -= 1
        assert vout[src] >= 0 and vin[dst] >= 0

        edges[events, 0] = src
        edges[events, 1] = dst
        times[events] = t
        events += 1

    graph = DirectedMultigraph(n_vertices, edges[:events].copy())
    traj_t = times[:events].copy() if record_trajectory else np.empty(0)
    state = KmcState(n_max=n_max, k_max=k_max, t=t, events=events)
    return KmcResult(graph=graph, times=traj_t, state=state)


def reference_prefix_end(events, t, t_end, v_in, v_out, n_vertices, last) -> int:
    """The spot prefix of a ``t_end`` run solved in vacant-spot counts: the
    reference for ``mcgraph._prefix_end``, which reads the same proposal
    clock as the growth law's closed form.

    With x the vacant spots of the smaller side and g the gap to the other,
    dx/dt = -x (x + g)/N, so x(t) = g x0 e^(-g s) / (g - x0 expm1(-g s))
    with s = (t_end - t)/N, and x(t) = x0 / (1 + x0 s) at g = 0; the mean
    event count is x0 - x(t), and the prefix adds ``_PREFIX_SIGMAS``
    standard deviations of a Poisson count and one spot.
    """
    if t_end is None:
        return last
    small, big = sorted((v_in - events, v_out - events))
    if not small:
        return events
    gap = big - small
    s = (t_end - t) / n_vertices
    if gap:
        left = gap * small * math.exp(-gap * s) / (gap - small * math.expm1(-gap * s))
    else:
        left = small / (1 + small * s)
    mean = small - left
    return min(last, events + math.ceil(mean + _PREFIX_SIGMAS * math.sqrt(mean)) + 1)


def random_bound_dist(rng: np.random.Generator, n_atoms: int = 3, max_bound: int = 6) -> BoundDist:
    """Random small bound distribution, guaranteed to admit edges."""
    while True:
        keys = set()
        while len(keys) < n_atoms:
            keys.add((int(rng.integers(0, max_bound + 1)), int(rng.integers(0, max_bound + 1))))
        keys = sorted(keys)
        if not any(nm > 0 for nm, _ in keys) or not any(km > 0 for _, km in keys):
            continue
        weights = rng.integers(1, DYADIC_SCALE, size=n_atoms)
        total = int(weights.sum())
        probs = [int(w) / total for w in weights]
        probs[-1] = 1.0 - math.fsum(probs[:-1])
        try:
            return BoundDist.from_entries(
                [(nm, km, p) for (nm, km), p in zip(keys, probs)]
            )
        except Exception:
            continue


def exact_transition_kind(atoms, weights) -> str:
    """The transition class of the capacity mixture ``sum_i weights[i] *
    atoms[i]``, from its capacity moments in exact rationals.

    With M = max(nu_01, nu_10) and Q = (M - nu_11)^2 - (nu_02 - nu_01)(nu_20
    - nu_10), the critical conversion lies inside the reachable range iff
    M < nu_11 or Q < 0, and on its supremum iff M >= nu_11 and Q = 0.  A
    mixture without both capacity species forms no edge: "never".
    """

    def nu(i: int, j: int) -> Fraction:
        return sum((Fraction(w) * n**i * k**j for (n, k), w in zip(atoms, weights)), Fraction(0))

    nu10, nu01, nu11 = nu(1, 0), nu(0, 1), nu(1, 1)
    if nu10 == 0 or nu01 == 0:
        return "never"
    m = max(nu01, nu10)
    q = (m - nu11) ** 2 - (nu(0, 2) - nu01) * (nu(2, 0) - nu10)
    if m < nu11 or q < 0:
        return "finite"
    return "asymptotic" if q == 0 else "never"


# ---------------------------------------------------------------------------
# The growth process without a configuration model: Smoluchowski's equation
# for its finite clusters, and the second moments that close over it.  A
# finite cluster is a tree; one of s vertices with class composition m has
# a = sum m k_max - (s - 1) vacant out-spots and b = sum m n_max - (s - 1)
# vacant in-spots.  An edge from cluster x to cluster y forms at rate
# a_x b_y per vertex, so the concentrations c per vertex solve
#
#     c'(z) = sum_{x + y = z} a_x b_y c_x c_y - c_z (a_z B + b_z A),
#
# A = nu_01 - mu(t) and B = nu_10 - mu(t) the vacant out- and in-spots per
# vertex, the gel's included (Flory's post-gel reading; Ziff & Stell,
# J. Chem. Phys. 73, 3492, 1980).


def _rk4_step(rhs, y, t: float, h: float):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_at(rhs, y, times, step: float) -> np.ndarray:
    """RK4 from ``y`` at t = 0 to each of the increasing ``times``, in equal
    steps of at most ``step`` between them; the states, one row per time."""
    states, t = [], 0.0
    for t_next in times:
        n = max(1, math.ceil((t_next - t) / step))
        h = (t_next - t) / n
        for i in range(n):
            y = _rk4_step(rhs, y, t + i * h, h)
        states.append(y)
        t = t_next
    return np.array(states)


def _vacant_spots(P: BoundDist, t: float) -> tuple[float, float]:
    """``(A, B)``: vacant out- and in-spots per vertex at time t."""
    nu = evolution.nu_moments(P)
    mu = evolution.mu_of_t(P, t)
    return nu.nu01 - mu, nu.nu10 - mu


def coagulation_size_law(P: BoundDist, order: int, times, *, step: float):
    """``(w, err)``: per time, the weak-component size law ``w(s) = sum_m s
    c(s, m)`` for s = 1..order from Smoluchowski's equation cut at size
    ``order``, and its step-halving error estimate.

    Gains into size s come only from smaller sizes, and A and B come from
    the closed-form mu(t), so the cut system is closed and exact.  Each
    time's law is the RK4 solution at ``step / 2``; the estimate is its
    distance to the solution at ``step``, over 15.
    """
    n_max, k_max, probs = (a.tolist() for a in P.support)
    index, sizes, vacant_out, vacant_in = {}, [], [], []

    def add(m):
        index[m] = len(sizes)
        s = sum(m)
        sizes.append(s)
        vacant_out.append(sum(map(operator.mul, m, k_max)) - (s - 1))
        vacant_in.append(sum(map(operator.mul, m, n_max)) - (s - 1))

    # States by size, and each merge (tail x, head y) -> z = x + y: one of
    # x's vacant out-spots bonds to one of y's vacant in-spots.
    by_size = [[], [tuple(int(i == c) for i in range(len(probs))) for c in range(len(probs))]]
    for m in by_size[1]:
        add(m)
    tails, heads, merged = [], [], []
    for s in range(2, order + 1):
        by_size.append([])
        for i in range(1, s):
            for x in by_size[i]:
                for y in by_size[s - i]:
                    if vacant_out[index[x]] and vacant_in[index[y]]:
                        z = tuple(map(operator.add, x, y))
                        if z not in index:
                            add(z)
                            by_size[s].append(z)
                        tails.append(index[x])
                        heads.append(index[y])
                        merged.append(index[z])
    a, b = np.array(vacant_out, dtype=float), np.array(vacant_in, dtype=float)
    tails, heads, merged = (np.array(x, dtype=np.int64) for x in (tails, heads, merged))
    rate = a[tails] * b[heads]

    def rhs(t, c):
        A, B = _vacant_spots(P, t)
        gain = np.bincount(merged, weights=rate * c[tails] * c[heads], minlength=len(c))
        return gain - c * (a * B + b * A)

    c0 = np.zeros(len(sizes))
    c0[: len(probs)] = probs
    # weight[j, s - 1] = s for state j of size s
    weight = np.zeros((len(sizes), order))
    weight[np.arange(len(sizes)), np.array(sizes) - 1] = sizes
    coarse, fine = (_rk4_at(rhs, c0, times, h) @ weight for h in (step, 0.5 * step))
    return fine, np.abs(fine - coarse) / 15.0


def _closure_rhs(P: BoundDist, *, chi: bool = False):
    """Right side of the linear form of the second-moment closure, on the
    state (U, V), each flattened row by row, and with ``chi`` the mean size
    of a vertex's cluster after them.

    The second moments X = [[sum a^2 c, sum ab c], [sum ab c, sum b^2 c]]
    solve X' = X J X + X K + K^T X + A B 11^T below the gel point, with
    J = [[0, 1], [1, 0]] and K = -[[B, B], [A, A]]: in the gain and the loss
    the third moments cancel.  With X = V U^-1 that is U' = -K U - J V and
    V' = A B 11^T U + K^T V, U(0) = I, which stays linear through the gel
    point, where X diverges and det U passes zero.  The size moments
    Y = (sum as c, sum bs c) solve Y' = (X J + K^T) Y, so Y = U^-T Y(0),
    and chi = sum s^2 c has chi' = 2 Y_a Y_b.
    """
    nu = evolution.nu_moments(P)

    def rhs(t, y):
        A, B = _vacant_spots(P, t)
        u00, u01, u10, u11, v00, v01, v10, v11 = y.tolist()[:8]
        col0, col1 = u00 + u10, u01 + u11
        dv0 = A * B * col0 - B * v00 - A * v10
        dv1 = A * B * col1 - B * v01 - A * v11
        dy = [B * col0 - v10, B * col1 - v11, A * col0 - v00, A * col1 - v01, dv0, dv1, dv0, dv1]
        if chi:
            det = u00 * u11 - u01 * u10
            y_a = (u11 * nu.nu01 - u10 * nu.nu10) / det
            y_b = (u00 * nu.nu10 - u01 * nu.nu01) / det
            dy.append(2.0 * y_a * y_b)
        return np.array(dy)

    return rhs


def _closure_start(P: BoundDist) -> np.ndarray:
    nu = evolution.nu_moments(P)
    return np.array([1.0, 0.0, 0.0, 1.0, nu.nu02, nu.nu11, nu.nu11, nu.nu20])


def _first_zero_of_det_u(P: BoundDist, step: float, horizon: float):
    """First zero of det U before ``horizon`` at RK4 step ``step``, refined
    by bisection on the length of the step that crosses it; None if none."""
    rhs = _closure_rhs(P)
    y, t = _closure_start(P), 0.0
    while t < horizon:
        h = min(step, horizon - t)
        y_next = _rk4_step(rhs, y, t, h)
        if y_next[0] * y_next[3] - y_next[1] * y_next[2] <= 0.0:
            lo, hi = 0.0, h
            while lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                z = _rk4_step(rhs, y, t, mid)
                lo, hi = (lo, mid) if z[0] * z[3] - z[1] * z[2] <= 0.0 else (mid, hi)
            return t + hi
        y, t = y_next, t + h
    return None


def closure_gel_time(P: BoundDist, *, step: float, horizon: float):
    """``(t_gel, err)``: the gel time read from the second-moment closure,
    the first zero of det U, and its step-halving error estimate; ``(None,
    None)`` when det U has no zero before ``horizon``.  A zero found at one
    of the two steps but not the other fails."""
    coarse, fine = (_first_zero_of_det_u(P, h, horizon) for h in (step, 0.5 * step))
    if fine is None and coarse is None:
        return None, None
    assert fine is not None and coarse is not None, (coarse, fine)
    return fine, abs(fine - coarse) / 15.0


def closure_chi(P: BoundDist, t: float, *, step: float = 1e-3) -> tuple[float, float]:
    """``(chi, err)``: the mean weak-component size of a random vertex at
    time t below the gel point, ``chi = sum s^2 c``, from the second-moment
    closure (:func:`_closure_rhs`) by RK4 at ``step / 2``, and its
    step-halving error estimate."""
    rhs, start = _closure_rhs(P, chi=True), np.append(_closure_start(P), 1.0)
    coarse, fine = (float(_rk4_at(rhs, start, [t], h)[0, -1]) for h in (step, 0.5 * step))
    return fine, abs(fine - coarse) / 15.0


# ---------------------------------------------------------------------------
# Scalar references of the array pipeline from table text to degree state:
# the per-line parser, the per-entry validator and the per-cell state loops
# that the library replaced.


def reference_parse_records(text: str) -> list:
    """Line-by-line parse of table text into ``(n, k, prob)`` triples."""
    records = []
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


def outcome(build):
    """``(value, None)``, or ``(None, (exception type, message))``."""
    try:
        return build(), None
    except Exception as exc:  # compared against the reference's exception
        return None, (type(exc), str(exc))


def parsed_records(columns) -> list:
    """The columns that ``tableio.parse_records`` returns, as ``(n, k, prob)``
    tuples of Python numbers."""
    return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns)))


def _reference_index_pair(first, second, noun: str) -> tuple:
    first, second = operator.index(first), operator.index(second)
    if first < 0 or second < 0:
        raise NegativeIndex(f"{noun} ({first}, {second}) has a negative component")
    if max(first, second) >= 2**63:
        raise ValidationError(f"{noun} ({first}, {second}) has a component above {2**63 - 1}")
    return first, second


def _reference_validated_table(pairs, kind: str, tol: float) -> dict:
    _checked_tol(tol)
    table: dict = {}
    for key, prob in pairs:
        if math.isnan(prob):
            raise ValidationError(f"{kind}{key} = {prob!r} is not a number")
        if prob < 0:
            raise NegativeProbability(f"{kind}{key} = {prob!r} is negative")
        if prob == 0:
            continue
        if key in table:
            raise DuplicateKey(f"duplicate key {key}")
        table[key] = float(prob)
    total = math.fsum(table.values())
    if abs(total - 1.0) > tol:
        raise NotNormalized(f"probabilities sum to {total!r}, not 1 within {tol:g}")
    return table


def reference_pair_table(triples, kind: str, noun: str, tol: float) -> dict:
    """Entries of a degree (``"u"``, ``"degree pair"``, edge balanced) or
    bound (``"P"``, ``"bound pair"``) table, validated one entry at a time."""
    checked = [(_reference_index_pair(a, b, noun), prob) for a, b, prob in triples]
    table = _reference_validated_table(checked, kind, tol)
    if kind == "u":
        mu10 = math.fsum(n * p for (n, _k), p in table.items())
        mu01 = math.fsum(k * p for (_n, k), p in table.items())
        if abs(mu10 - mu01) > tol * max(1.0, mu10, mu01):
            raise EdgeImbalance(
                f"mean in-degree {mu10!r} != mean out-degree {mu01!r} beyond tolerance {tol:g}"
            )
    if kind == "P":
        if not any(nm > 0 for nm, _km in table):
            raise NoReactivePair("no class has in-capacity; no edge can ever form")
        if not any(km > 0 for _nm, km in table):
            raise NoReactivePair("no class has out-capacity; no edge can ever form")
    return table


def _reference_binom_pmf(m: int, j: int, c: float) -> float:
    return math.comb(m, j) * c**j * (1.0 - c) ** (m - j)


def reference_state_entries(P: BoundDist, c_n: float, c_k: float) -> dict:
    """Joint (n, k, n_max, k_max) law, one cell at a time."""
    entries: dict = {}
    for nm, km, p in P.records():
        for n in range(nm + 1):
            pn = _reference_binom_pmf(nm, n, c_n)
            if pn == 0.0:
                continue
            for k in range(km + 1):
                q = p * pn * _reference_binom_pmf(km, k, c_k)
                if q > 0.0:
                    entries[(n, k, nm, km)] = q
    return entries


def reference_marginal(entries: dict) -> BivariateDegreeDist:
    """Sum of a state's entries over capacities, grouped in a dict."""
    groups: dict = {}
    for (n, k, _nm, _km), p in entries.items():
        groups.setdefault((n, k), []).append(p)
    return BivariateDegreeDist.from_entries(
        [(n, k, math.fsum(ps)) for (n, k), ps in sorted(groups.items())]
    )


# ---------------------------------------------------------------------------
# hypothesis strategies built on dyadic rationals: every probability is an
# integer multiple of 2**-20, so sums and regroupings are exact in binary64.


@st.composite
def dyadic_weights(draw, min_entries=1, max_entries=6):
    n = draw(st.integers(min_entries, max_entries))
    if n == 1:
        return [1.0]
    cuts = sorted(
        draw(
            st.lists(
                st.integers(1, DYADIC_SCALE - 1), min_size=n - 1, max_size=n - 1, unique=True
            )
        )
    )
    bounds = [0] + cuts + [DYADIC_SCALE]
    return [(b - a) / DYADIC_SCALE for a, b in zip(bounds, bounds[1:])]


def unchecked_degree_table(triples) -> BivariateDegreeDist:
    """A degree table of ``(n, k, prob)`` triples with distinct keys and
    positive probabilities, which need not be normalized or edge balanced:
    the dataclass constructor on the key-sorted columns, as
    ``evolution.degree_state_at`` calls it."""
    n, k, probs = zip(*sorted(triples))
    return BivariateDegreeDist((np.array(n, np.int64), np.array(k, np.int64), np.array(probs, float)))


@st.composite
def _drawn_entries(draw, max_degree, max_entries):
    """``((n, k), prob)`` pairs with distinct keys and dyadic weights."""
    probs = draw(dyadic_weights(max_entries=max_entries))
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, max_degree), st.integers(0, max_degree)),
            min_size=len(probs),
            max_size=len(probs),
            unique=True,
        )
    )
    return list(zip(keys, probs))


@st.composite
def bivariate_dists(draw, max_degree=8, max_entries=6):
    """Normalized tables, most of them not edge balanced."""
    entries = draw(_drawn_entries(max_degree, max_entries))
    return unchecked_degree_table([(n, k, p) for (n, k), p in entries])


@st.composite
def symmetrized_dists(draw, max_degree=6):
    """Transpose-symmetric tables: exactly edge-balanced by construction."""
    table = {}
    for (n, k), p in draw(_drawn_entries(max_degree, 6)):
        table[(n, k)] = table.get((n, k), 0.0) + 0.5 * p
        table[(k, n)] = table.get((k, n), 0.0) + 0.5 * p
    return BivariateDegreeDist.from_entries([(n, k, p) for (n, k), p in sorted(table.items())])


@st.composite
def source_sink_dists(draw):
    """Asymmetric but exactly balanced: sources (j, 0), sinks (0, l), filler
    at the origin, with j * P(source) == l * P(sink) exact in binary64."""
    j = draw(st.integers(1, 6))
    l = draw(st.integers(1, 6))
    w = draw(st.integers(1, DYADIC_SCALE // (2 * (j + l))))
    p_source = l * w / DYADIC_SCALE
    p_sink = j * w / DYADIC_SCALE
    p_origin = (DYADIC_SCALE - l * w - j * w) / DYADIC_SCALE
    entries = [(j, 0, p_source), (0, l, p_sink)]
    if p_origin > 0:
        entries.append((0, 0, p_origin))
    return BivariateDegreeDist.from_entries(entries)


def balanced_dists():
    return st.one_of(symmetrized_dists(), source_sink_dists())


@st.composite
def bound_dists(draw, max_bound=6, max_entries=4):
    probs = draw(dyadic_weights(max_entries=max_entries))
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, max_bound), st.integers(0, max_bound)),
            min_size=len(probs),
            max_size=len(probs),
            unique=True,
        ).filter(
            lambda ks: any(nm > 0 for nm, _ in ks) and any(km > 0 for _, km in ks)
        )
    )
    return BoundDist.from_entries([(nm, km, p) for (nm, km), p in zip(keys, probs)])


# ---------------------------------------------------------------------------
# CLI and schema plumbing


def reference_json17(obj) -> str:
    """Recursive JSON emitter with 17-significant-digit floats: the writer
    that ``cli._json17`` replaced.  Rows are lists of lists."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite value {obj!r} in JSON output")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {reference_json17(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(reference_json17(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def run_cli(argv, stdin_text=None):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    from weakgiant import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
    finally:
        sys.stdin = old_stdin
    return code, stdout.getvalue(), stderr.getvalue()


def load_schema(name: str) -> dict:
    text = (resources.files("weakgiant") / "schemas" / f"{name}.schema.json").read_text()
    return json.loads(text)


def validate_schema(name: str, obj) -> None:
    import jsonschema

    jsonschema.validate(obj, load_schema(name))
