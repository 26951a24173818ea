"""Monte Carlo oracles: configuration-model sampling and the kinetic growth
process, plus weak-component extraction.

The configuration sampler draws N degree pairs i.i.d. from the table,
conditioned on the least stub imbalance their lattice allows, by rejection
from Poisson counts of its n - k groups, or from a table of the exact law
where the proposals run out.  Both samplers are deterministic given a seed.
Streams come from numpy's PCG64 generator; independent replicas derive
from (master seed, replica index) through ``SeedSequence`` spawn keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degdist import BivariateDegreeDist, _checked_count
from .errors import Exhausted, ValidationError
from .evolution import BoundDist, _fill


def replica_rng(master_seed: int, replica: int = 0) -> np.random.Generator:
    """Independent, reproducible stream for one replica of an experiment."""
    seed = np.random.SeedSequence(_checked_seed(master_seed), spawn_key=(_checked_seed(replica),))
    return np.random.default_rng(seed)


def _checked_seed(seed):
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValidationError(f"seed {seed} is negative")
    return seed


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_checked_seed(seed))


@dataclass
class DirectedMultigraph:
    """Vertices 0..vertex_count-1 and an array of (source, target) edges.

    Self-loops and parallel edges are legal; the configuration model
    produces both with vanishing density.
    """

    vertex_count: int
    edges: np.ndarray  # shape (E, 2), int64


def _checked_edges(g: DirectedMultigraph) -> np.ndarray:
    """The edges of g as an int64 (E, 2) array whose endpoints are vertices."""
    if _checked_count(g.vertex_count, "vertex count") < 0:
        raise ValidationError(f"vertex count {g.vertex_count} is negative")
    edges = np.asarray(g.edges)
    if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
        raise ValidationError(
            f"edges must be an integer array of shape (E, 2), got {edges.dtype} {edges.shape}"
        )
    if edges.size and (edges.min() < 0 or edges.max() >= g.vertex_count):
        row = int(np.flatnonzero(((edges < 0) | (edges >= g.vertex_count)).any(axis=1))[0])
        raise ValidationError(
            f"edge {row} {tuple(edges[row].tolist())} has an endpoint outside "
            f"[0, {g.vertex_count})"
        )
    return edges.astype(np.int64, copy=False)


def _pointer_jumped(parent: np.ndarray) -> np.ndarray:
    """``parent`` with every vertex pointed at the root of its chain."""
    while True:
        jumped = parent[parent]
        if np.array_equal(jumped, parent):
            return parent
        parent = jumped


def weak_component_sizes(g: DirectedMultigraph) -> np.ndarray:
    """Multiset of weak-component sizes (directions ignored), sorted; sums to
    the vertex count.

    Min-label hooking with pointer jumping (Shiloach & Vishkin, J.
    Algorithms 3 (1982)), all in array operations.  ``parent`` maps every
    vertex to a smaller label of its component, or to itself at a root.
    Each round takes edges between roots: the larger end of each is hooked
    to the least smaller root it meets.  Only the hooked roots moved, so
    only they are pointer-jumped, each until it points at a root; the edges
    then move to their endpoints' roots, and those inside one component are
    dropped.  Labels only fall, so no cycle forms, and every round with
    edges left hooks at least one root.  Other vertices sink at most one
    level per round, so no chain is longer than the number of rounds, and
    pointer jumping over all vertices at the end points every vertex at its
    component's least vertex.

    Each round compacts its survivors by an index from ``np.flatnonzero``,
    several times faster than a random boolean mask (0.16 against 1.03 ms
    on 90k entries).  The known slow input is a chain labelled in
    ascending order, such as the path 0-1-2-...: round 1 hooks it into one
    chain of depth N - 1, and jumping its N - 1 hooked roots takes 14 /
    300-390 ms at N = 1e5 / 1e6, against 5 / 90-120 ms under random labels
    (numpy 2.4, 2 vCPU, min of 25 / 5 calls).  Neither sampler here builds
    such chains.
    """
    edges = _checked_edges(g)
    n_vertices = g.vertex_count
    parent = np.arange(n_vertices, dtype=np.int64)
    # parent is the identity, so in round 1 every endpoint is a root; a
    # self-loop hooks nothing, since parent[r] <= r
    u, v = edges[:, 0], edges[:, 1]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    while hi.size:
        np.minimum.at(parent, hi, lo)
        hooked = np.zeros(n_vertices, dtype=bool)
        hooked[hi] = True
        moving = np.flatnonzero(hooked)
        while moving.size:
            up = parent[moving]
            jumped = parent[up]
            still = np.flatnonzero(jumped != up)
            moving = moving[still]
            parent[moving] = jumped[still]
        u, v = parent[lo], parent[hi]
        keep = np.flatnonzero(u != v)
        u, v = u[keep], v[keep]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
    parent = _pointer_jumped(parent)
    counts = np.bincount(np.bincount(parent, minlength=n_vertices), minlength=1)
    counts[0] = 0
    return np.repeat(np.arange(counts.size, dtype=np.int64), counts)


def largest_weak_fraction(g: DirectedMultigraph) -> float:
    if g.vertex_count < 1:
        raise ValidationError("graph has no vertices")
    sizes = weak_component_sizes(g)
    return float(sizes.max()) / g.vertex_count


def size_histogram(sizes) -> dict[int, float]:
    """Vertex-weighted component-size law from a multiset of sizes, as a
    dict from size to probability, sorted by size.

    Bin s carries ``s * count(s) / sum(sizes)``: the probability that a
    random vertex lies in a size-s component; each is an exact integer
    ratio, correctly rounded.  ``sizes`` is a nonempty sequence or array of
    integers, or of floats with integral values, each at least 1.
    """
    sizes = np.asarray(sizes)
    if sizes.dtype.kind == "f":
        bad = np.flatnonzero(~(np.isfinite(sizes) & (sizes == np.trunc(sizes))))
        if bad.size:
            raise ValidationError(f"component size {sizes[bad[0]]} is not an integer")
    sizes = sizes.astype(np.int64)
    if not sizes.size:
        raise ValidationError("no component sizes given")
    values, counts = np.unique(sizes, return_counts=True)
    if values[0] < 1:
        raise ValidationError(f"component size {values[0]} is below 1")
    weights = {s: s * c for s, c in zip(values.tolist(), counts.tolist())}
    total = sum(weights.values())
    return {s: w / total for s, w in weights.items()}


def _shuffled_slots(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Slots 0..K-1, each repeated by its count, in uniformly random order."""
    slots = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    if counts.size > 1:
        rng.shuffle(slots)
    return slots


def _draw_slots(probs: np.ndarray, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. draws of a slot 0..K-1 with probabilities ``probs``, and
    their counts per slot.

    The counts of the n draws are multinomial, and given the counts every
    order is equally likely; so the slots repeated by their multinomial
    counts and shuffled have the law of the i.i.d. draws.
    """
    counts = rng.multinomial(n, probs)
    return _shuffled_slots(counts, rng), counts


def _sample_keys(P: BoundDist, n: int, rng: np.random.Generator):
    first, second, probs = P.support
    if probs.size == 1:
        # the draw of one class takes nothing from the stream; skipping the
        # multinomial and repeat of _draw_slots halves its time
        return np.full(n, first[0]), np.full(n, second[0])
    idx = _draw_slots(probs / probs.sum(), n, rng)[0]
    return first[idx], second[idx]


#: Cells of the exact table that a degree draw may fill once its proposals
#: run out (8 bytes each).
_MAX_CELLS = 1 << 22


def _log_pois(c: int, lam: float) -> float:
    return c * math.log(lam) - lam - math.lgamma(c + 1)


def _log_mode_ratio(c: int, lam: float) -> float:
    """log of Poisson(c; lam) over the Poisson pmf at its mode."""
    mode = math.floor(lam)
    return (c - mode) * math.log(lam) + math.lgamma(mode + 1) - math.lgamma(c + 1)


def _exact_group_counts(mass: np.ndarray, steps: np.ndarray, total: int, n: int, rng: np.random.Generator):
    """Counts of n i.i.d. draws of groups 0..G-1 with masses ``mass``, given
    that their ``steps`` (nonnegative integers) sum to ``total``; None where
    no draw does.

    Row m of the table is log P(m draws sum to s), less its maximum, for
    s = 0..m * max(steps).  The draws are taken back from the last: with m
    left, group j comes with probability proportional to
    mass_j P(m - 1 draws sum to total - steps_j).
    """
    log_mass = np.log(mass)
    rows = [np.zeros(1)]
    for m in range(1, n):
        prev = rows[-1]
        row = np.full(prev.size + int(steps[-1]), -np.inf)
        for s, lm in zip(steps.tolist(), log_mass):
            np.logaddexp(row[s : s + prev.size], prev + lm, out=row[s : s + prev.size])
        rows.append(row - row.max())
    counts = np.zeros(mass.size, dtype=np.int64)
    for row in reversed(rows):
        at = total - steps
        inside = (at >= 0) & (at < row.size)
        weight = np.full(mass.size, -np.inf)
        weight[inside] = log_mass[inside] + row[at[inside]]
        if weight.max() == -np.inf:
            return None
        weight = np.cumsum(np.exp(weight - weight.max()))
        j = int(np.searchsorted(weight, rng.random() * weight[-1], side="right"))
        counts[j] += 1
        total -= int(steps[j])
    return counts


def _balanced_counts(probs: np.ndarray, diff: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Class counts of n i.i.d. draws from ``probs``, conditioned on the stub
    imbalance Delta = sum(counts * diff) being Delta*: the least |Delta|,
    +g/2 on a tie, with Delta = n * d_0 mod g, d_0 the least value of
    ``diff`` and g the gcd of the differences of its values.  A single value
    needs no conditioning: the counts are one multinomial.

    Else the counts of the groups of equal ``diff`` come by rejection from
    the Poissonized draw, whose independent Poisson(n q) counts, q being
    group masses, are multinomial given that they sum to n.  The groups
    other than the two heaviest a > b get their Poisson counts, and the two
    take the count and imbalance left, when those are whole and
    nonnegative.  The proposal is kept with probability
    Pois(c_a; n q_a) Pois(c_b; n q_b) over the product of the two Poisson
    modes; at once when the two groups hold all the mass, as the
    constraints then fix both counts.  Any two groups give this law; the
    rate of keeping, P(sum = n, Delta = Delta*) over the product of the
    two modes, is highest for the heaviest groups.
    By the local limit theorem, P(Delta = Delta* | sum = n) is near
    g / sqrt(2 pi n Var d); the proposals stop at 50 over the rate this
    gives, so a rate within 20% of it runs out with odds below e^-40.

    Where they run out (a tiny n, a rare class that alone closes the
    lattice, a Delta* far from the mean), the group counts come from the
    exact law (:func:`_exact_group_counts`) if its table has at most
    ``_MAX_CELLS`` cells.  Each group's count is then split over its
    classes by a multinomial.  Raises :class:`ValidationError` where no
    draw reaches Delta*, or where the proposals ran out and the table is
    too large.
    """
    dvals, group = np.unique(diff, return_inverse=True)
    if dvals.size == 1:
        return rng.multinomial(n, probs)
    lattice = int(np.gcd.reduce(dvals[1:] - dvals[0]))
    residue = n * int(dvals[0]) % lattice
    target = residue if 2 * residue <= lattice else residue - lattice
    mass = np.bincount(group, weights=probs)
    b, a = np.sort(np.argsort(mass, kind="stable")[-2:])
    d_a, d_b = int(dvals[a]), int(dvals[b])
    rest = np.flatnonzero((dvals != d_a) & (dvals != d_b))
    lam, d_rest = n * mass[rest], dvals[rest]
    cap = 1
    if rest.size:
        var = float(probs @ (diff - probs @ diff) ** 2)
        log_rate = (_log_pois(n, n) + math.log(lattice) - 0.5 * math.log(2 * math.pi * n * var)
                    - _log_pois(math.floor(n * mass[a]), n * mass[a])
                    - _log_pois(math.floor(n * mass[b]), n * mass[b]))
        cap = math.ceil(50 * math.exp(max(-log_rate, 0.0)))
    for _ in range(cap):
        drawn = rng.poisson(lam)
        left = n - int(drawn.sum())
        c_a, off = divmod(target - int(drawn @ d_rest) - d_b * left, d_a - d_b)
        if off or not 0 <= c_a <= left:
            continue
        log_weight = _log_mode_ratio(c_a, n * mass[a]) + _log_mode_ratio(left - c_a, n * mass[b])
        if rest.size and not -rng.standard_exponential() < log_weight:
            continue
        totals = np.zeros(dvals.size, dtype=np.int64)
        totals[rest], totals[a], totals[b] = drawn, c_a, left - c_a
        break
    else:
        steps = (dvals - dvals[0]) // lattice
        if rest.size and (n * (n * int(steps[-1]) + 1)) // 2 > _MAX_CELLS:
            raise ValidationError(f"no draw of N = {n} degree pairs with stub imbalance {target} "
                                  f"was kept in {cap} proposals")
        # two groups make every proposal alike: none is kept where no draw
        # reaches Delta*
        step_sum = (target - n * int(dvals[0])) // lattice
        totals = _exact_group_counts(mass, steps, step_sum, n, rng) if rest.size else None
        if totals is None:
            raise ValidationError(f"no draw of N = {n} degree pairs has stub imbalance {target}")
    by_group = np.argsort(group, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(group))))
    counts = np.zeros(probs.size, dtype=np.int64)
    for j in np.flatnonzero(totals).tolist():
        members = by_group[starts[j] : starts[j + 1]]
        counts[members] = rng.multinomial(totals[j], probs[members] / probs[members].sum())
    return counts


def sample_configuration(
    d: BivariateDegreeDist, n_vertices: int, seed
) -> DirectedMultigraph:
    """Directed configuration model: N degree pairs in the support of d,
    i.i.d. given the stub imbalance Delta = sum(n) - sum(k) = Delta*, the
    least |Delta| the support's lattice allows (:func:`_balanced_counts`),
    then uniform matching of out-stubs to in-stubs.

    Delta* is 0 for most laws; the fork's n - k values 1 and -2 leave
    Delta* = 1 or -1 when 3 does not divide N.  A law with one n - k value
    is not conditioned.  Then |Delta| uniformly random stubs of the surplus
    side are deleted, so the graph has min(sum(n), sum(k)) edges.  Raises
    :class:`ValidationError` when no draw reaches Delta* (some tiny N), or
    when Delta* is too improbable to draw at a large N (a table far from
    edge balance).
    """
    if _checked_count(n_vertices, "vertex count") < 1:
        raise ValidationError(f"need at least 1 vertex, got {n_vertices}")
    rng = _as_rng(seed)
    n_of, k_of, probs = d.support
    probs = probs / probs.sum()
    idx = _shuffled_slots(_balanced_counts(probs, n_of - k_of, n_vertices, rng), rng)

    vertex_ids = np.arange(n_vertices, dtype=np.int64)
    in_stubs = np.repeat(vertex_ids, n_of[idx])
    out_stubs = np.repeat(vertex_ids, k_of[idx])
    rng.shuffle(out_stubs)
    src = out_stubs[: in_stubs.size]
    surplus = in_stubs.size - src.size
    if surplus:
        in_stubs = np.delete(in_stubs, rng.choice(in_stubs.size, surplus, replace=False))
    edges = np.empty((src.size, 2), dtype=np.int64)
    edges[:, 0] = src
    edges[:, 1] = in_stubs
    return DirectedMultigraph(n_vertices, edges)


@dataclass
class KmcState:
    """Per-vertex capacities and final clock of one kinetic run; realized
    degrees are read from the run's graph.

    ``restarts`` counts the rejected same-vertex proposals after which the
    run went on (see :func:`kmc_simulate`).
    """

    n_max: np.ndarray
    k_max: np.ndarray
    t: float
    events: int
    restarts: int = 0


@dataclass
class KmcResult:
    graph: DirectedMultigraph
    times: np.ndarray
    state: KmcState


#: Proposals per chunk of the clock.  Bounds the clock's temporaries; the
#: law of the run does not depend on it.
_CLOCK_CHUNK = 8192
#: Standard deviations of slack in the prefix of a ``t_end`` run.
_PREFIX_SIGMAS = 6


def _spots_left(caps: np.ndarray, prefix: np.ndarray) -> np.ndarray:
    """Spots per vertex not drawn in ``prefix``."""
    left = np.bincount(prefix, minlength=caps.size)
    np.subtract(caps, left, out=left)
    return left


def _drawn_on(prefix: np.ndarray, caps: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """``prefix`` drawn on to ``size`` spots, in uniformly random order from
    the spots not yet drawn, listed by vertex.

    An empty prefix leaves the capacities as they are.  Counting it anyway
    costs an N-entry array whose page faults made a (2,2)-atom run at
    N = 1e5 and c_n = 0.44 take 13-16 ms instead of 9-10 ms (in-process).
    """
    left = _spots_left(caps, prefix) if prefix.size else caps
    rest = np.repeat(np.arange(caps.size, dtype=prefix.dtype), left)
    return np.concatenate([prefix, rest[rng.choice(rest.size, size - prefix.size, replace=False)]])


def _repair(prefix: np.ndarray, caps: np.ndarray, p: int, u: int) -> None:
    """Swap the spot at position p of ``prefix`` with the one at position
    u >= p of ``prefix`` followed by the spots not yet drawn, listed by
    vertex; past ``prefix``, the old spot rejoins those by leaving it."""
    if u < prefix.size:
        prefix[p], prefix[u] = prefix[u], prefix[p]
    else:
        ends = _spots_left(caps, prefix)
        np.cumsum(ends, out=ends)
        prefix[p] = np.searchsorted(ends, u - prefix.size, side="right")


def _first_same(src: np.ndarray, dst: np.ndarray, start: int, end: int) -> int:
    """Least position p in [start, end) with ``src[p] == dst[p]``, or end.

    Windows grow fourfold, so the scan costs O(p - start) and a few calls.
    """
    width = 256
    while start < end:
        stop = min(start + width, end)
        hit = np.flatnonzero(src[start:stop] == dst[start:stop])
        if hit.size:
            return start + int(hit[0])
        start, width = stop, 4 * width
    return end


def _prefix_end(events, t, t_end, v_in, v_out, n_vertices, last) -> int:
    """Spots per side to draw, from ``events`` events at time ``t``, for a
    run that ends at ``last`` events or at ``t_end``.

    For ``t_end`` the count is the mean number of events by ``t_end`` under
    the proposal clock de/dt = (v_in - e)(v_out - e)/N, which counts the
    run's own spots and bounds its event rate, plus ``_PREFIX_SIGMAS``
    standard deviations of a Poisson count.  In units of N that clock is
    the growth law's mu' = (a - mu)(b - mu), with a and b the vacant spots
    per vertex.  A prefix of ``last`` spots would shuffle and gather the
    spots the run never reaches: on the gate-6 table it takes 1.2-2.2x as
    long and 1.3-1.5x the memory.
    """
    if t_end is None or t_end == math.inf:
        return last
    mean = n_vertices * _fill((v_out - events) / n_vertices, (v_in - events) / n_vertices, t_end - t)
    return min(last, events + math.ceil(mean + _PREFIX_SIGMAS * math.sqrt(mean)) + 1)


def _clock(rng, t, first, count, v_in, v_out, n_vertices, t_end, times):
    """Times of the proposals ``first`` .. ``first + count - 1`` after time
    ``t``; the proposal at e events waits an exponential time at rate
    (v_in - e)(v_out - e)/N.

    Writes the times into ``times`` unless it is None.  Returns the last
    time and None, or, at the first proposal later than ``t_end``, ``t_end``
    and that proposal's position.
    """
    end = first + count
    for start in range(first, end, _CLOCK_CHUNK):
        stop = min(start + _CLOCK_CHUNK, end)
        step = np.arange(start, stop)
        clock = rng.standard_exponential(stop - start) / ((v_in - step) * (v_out - step) / n_vertices)
        clock[0] += t
        np.cumsum(clock, out=clock)
        if t_end is not None and clock[-1] > t_end:
            stop = start + int(np.searchsorted(clock, t_end, side="right"))
            if times is not None:
                times[start:stop] = clock[: stop - start]
            return t_end, stop
        if times is not None:
            times[start:stop] = clock
        t = float(clock[-1])
    return t, None


def _grow(n_max, k_max, rng, target_events, t_end, record):
    """Event loop of :func:`kmc_simulate` on vertices with in-capacities
    ``n_max`` and out-capacities ``k_max``.

    Returns the sources and the targets of the events, their times (None
    unless ``record``), the final time and the number of restarts; raises
    :class:`Exhausted` if ``target_events`` cannot be reached.
    """
    n_vertices = n_max.size
    v_out, v_in = int(k_max.sum()), int(n_max.sum())
    last = min(v_out, v_in) if target_events is None else min(v_out, v_in, target_events)
    # each side's spot order: the vertex of each spot drawn, in draw order;
    # at e events the spots from position e on are the vacant ones.  Both
    # start empty, so the extension branch below draws the first prefix.
    src = dst = np.empty(0, dtype=np.int32 if n_vertices < 2**31 else np.int64)
    times = np.empty(last) if record else None

    t = 0.0
    events = 0
    restarts = 0
    while True:
        p = _first_same(src, dst, events, src.size)
        rejected = p < src.size
        stuck = False
        if rejected:
            # no admissible pair is left iff every vacant spot sits on the
            # rejected pair's vertex; the capacities rule that out in O(1)
            x = src[p]
            stuck = (
                v_out - p <= k_max[x]
                and v_in - p <= n_max[x]
                and v_out - p == k_max[x] - np.count_nonzero(src[:p] == x)
                and v_in - p == n_max[x] - np.count_nonzero(dst[:p] == x)
            )
        # every proposal, the rejected one too, waits at the rate of all
        # spot pairs left; a dead end ends the run at its last event
        t, cut = _clock(rng, t, events, p - events + (rejected and not stuck),
                        v_in, v_out, n_vertices, t_end, times)
        if cut is not None:
            events = cut
            break
        events = p
        if stuck or p == last:
            break
        if rejected:
            u_out, u_in = rng.integers(p, (v_out, v_in)).tolist()
            _repair(src, k_max, p, u_out)
            _repair(dst, n_max, p, u_in)
            restarts += 1
        else:
            size = _prefix_end(events, t, t_end, v_in, v_out, n_vertices, last)
            src = _drawn_on(src, k_max, size, rng)
            dst = _drawn_on(dst, n_max, size, rng)
    if target_events is not None and events < target_events:
        raise Exhausted(
            f"no admissible pair after {events} events; target was {target_events}"
        )
    if times is not None and events < last:
        times = times[:events].copy()
    return src[:events], dst[:events], times, t, restarts


def kmc_simulate(
    P: BoundDist,
    n_vertices: int,
    seed,
    *,
    t_end: float | None = None,
    c_n_target: float | None = None,
    record_trajectory: bool = True,
) -> KmcResult:
    """Exact stochastic simulation of the bounded growth process.

    Each step picks a uniformly random admissible ordered pair (distinct
    vertices, vacant out-spot on the tail, vacant in-spot on the head) and
    waits an exponential time at total rate (#admissible pairs)/N, counting
    spot pairs.  Stop at ``t_end``, or at the in-conversion ``c_n_target``
    (raising :class:`Exhausted` if the target cannot be reached), or, with
    neither given, when no admissible pair remains.

    The run is a rejection sampler with its own clock (thinning: Lewis &
    Shedler, Naval Res. Logist. Q. 26 (1979)).  Each proposal is a uniform
    pair of a vacant out-spot and a vacant in-spot and waits an exponential
    time at rate ``v_in * v_out / N``, with ``v_in``, ``v_out`` the vacant
    spots.  A same-vertex proposal is rejected, and its wait still counts;
    ``state.restarts`` counts these.  The geometric sum of the waits up to
    an accepted proposal is exponential at the admissible rate, so pairs and
    times have the law above.

    Each side draws the order of its vacant spots once per run, as a
    uniformly random ordered prefix of distinct spots, and proposal e pairs
    the two sides' spots at position e.  The prefix holds ``c_n_target``'s
    event count, or every spot the smaller side has; a ``t_end`` run sizes it
    from the mean event count by ``t_end`` under its own proposal clock,
    plus slack.  The prefix starts empty, and every draw, the first one
    and a ``t_end`` run's extension should it fall short, appends a
    uniformly random ordered sample of the spots not yet drawn, listed by
    vertex.  The pairs are scanned in bulk for the first same-vertex pair,
    at position p.  Its rejection repairs the order in place: each side
    swaps its spot at p with the one at a uniform position u in [p, v), v
    its spot count, where positions past the prefix index the spots not yet
    drawn, listed by vertex.  Given the history, the spots from p on are in
    uniformly random order, so the swap makes the new spot at p uniform
    over the vacant spots; when it differs from the old one, the old one
    takes its place, a uniform position after p, so the spots after p stay
    exchangeable.  Every proposal is thus again a
    uniform pair of vacant spots given the pairs before it.  At a rejection
    the run checks for a dead end: no admissible pair is left when every
    vacant spot sits on the rejected pair's vertex, and then the run ends at
    its last event, even below ``t_end``.  The vertex's capacities rule a
    dead end out in O(1) at almost every rejection.  A ``t_end`` stop ends
    the run before the first proposal later than ``t_end``.  The work is
    O(v) per run, plus per rejection besides the scan O(1) inside the
    prefix and O(N + L) past it, L the prefix size.
    """
    if _checked_count(n_vertices, "vertex count") < 2:
        raise ValidationError(f"need at least 2 vertices, got {n_vertices}")
    if t_end is not None and c_n_target is not None:
        raise ValidationError("give at most one of t_end and c_n_target")
    if t_end is not None and not t_end >= 0:
        raise ValidationError(f"t_end = {t_end!r} is negative or not a number")
    if c_n_target is not None and not 0.0 <= c_n_target <= 1.0:
        raise ValidationError(f"c_n_target = {c_n_target!r} outside [0, 1]")

    rng = _as_rng(seed)
    n_max, k_max = _sample_keys(P, n_vertices, rng)

    target_events = None
    if c_n_target is not None:
        target_events = int(round(c_n_target * int(n_max.sum())))
    src, dst, times, t, restarts = _grow(n_max, k_max, rng, target_events, t_end, record_trajectory)
    edges = np.empty((src.size, 2), dtype=np.int64)
    edges[:, 0] = src
    edges[:, 1] = dst
    del src, dst
    graph = DirectedMultigraph(n_vertices, edges)
    traj_t = times if times is not None else np.empty(0)
    state = KmcState(n_max=n_max, k_max=k_max, t=t, events=edges.shape[0], restarts=restarts)
    return KmcResult(graph=graph, times=traj_t, state=state)
