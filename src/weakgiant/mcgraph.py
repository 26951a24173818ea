"""Monte Carlo oracles: configuration-model sampling and the kinetic growth
process, plus weak-component extraction.

Both samplers are deterministic given a seed.  Streams come from numpy's
PCG64 generator; independent replicas derive from (master seed, replica
index) through ``SeedSequence`` spawn keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degdist import BivariateDegreeDist, UnivariateDegreeDist, _checked_count
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


def size_histogram(sizes) -> UnivariateDegreeDist:
    """Vertex-weighted component-size law from a multiset of sizes.

    Bin s carries ``s * count(s) / sum(sizes)``: the probability that a
    random vertex lies in a size-s component.  ``sizes`` is a sequence or an
    integer array; each probability is an exact integer ratio, correctly
    rounded.
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
    weights = [s * c for s, c in zip(values.tolist(), counts.tolist())]
    total = sum(weights)
    return UnivariateDegreeDist._validated(values, [w / total for w in weights])


def _draw_slots(probs: np.ndarray, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. draws of a slot 0..K-1 with probabilities ``probs``, and
    their counts per slot.

    The counts of the n draws are multinomial, and given the counts every
    order is equally likely; so the slots repeated by their multinomial
    counts and shuffled have the law of the i.i.d. draws.
    """
    counts = rng.multinomial(n, probs)
    slots = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    if counts.size > 1:
        rng.shuffle(slots)
    return slots, counts


def _sample_keys(P: BoundDist, n: int, rng: np.random.Generator):
    first, second, probs = P.support
    if probs.size == 1:
        # the draw of one class takes nothing from the stream
        return np.full(n, first[0]), np.full(n, second[0])
    idx = _draw_slots(probs / probs.sum(), n, rng)[0]
    return first[idx], second[idx]


#: Redraw candidates per batch of the stub balance.
_REDRAW_BATCH = 4096
#: Redraw candidates per vertex after which the stub balance stops and
#: deletes what imbalance remains.  Reached only by laws whose every
#: shrinking redraw has negligible probability; redraws otherwise end far
#: sooner, after O(sqrt(N)) candidates.
_REDRAW_CANDIDATES_PER_VERTEX = 8


def _can_shrink(delta: int, dvals: np.ndarray, present: np.ndarray) -> bool:
    """Whether redrawing some vertex can shrink the stub imbalance ``|delta|``.

    ``dvals`` are the distinct values of n - k over the support, sorted, and
    ``present`` marks those carried by at least one vertex.  Moving a vertex
    from d to s shrinks ``|delta|`` iff ``0 < sign(delta) * (d - s) <
    2 |delta|``, so each present d need only be tried against its neighbour in
    ``dvals`` on the shrinking side.
    """
    gaps = np.diff(dvals) < 2 * abs(delta)
    if delta > 0:
        return bool((present[1:] & gaps).any())
    return bool((present[:-1] & gaps).any())


def _balance_by_redraw(idx, counts, diff, probs, rng) -> None:
    """Redraw support slots ``idx`` of uniformly random vertices from
    ``probs`` in place, keeping a redraw only when it shrinks the imbalance
    ``|sum(diff[idx])|``; ``counts`` are the slot counts of ``idx``.

    Stops at zero, when no redraw can shrink the imbalance, or after
    ``_REDRAW_CANDIDATES_PER_VERTEX`` candidates per vertex.

    Candidates come in batches of ``_REDRAW_BATCH``.  Each batch reads the
    slots of its vertices from ``idx`` in one gather, keeps the redraws it
    accepts in a dict (a vertex drawn again starts from its kept redraw)
    and the class counts in a list, and writes ``idx`` back once; per
    candidate this is plain Python, with no numpy scalar access.
    """
    n_vertices = idx.size
    dvals, dclass = np.unique(diff, return_inverse=True)
    class_count = np.bincount(dclass, weights=counts, minlength=dvals.size).astype(np.int64).tolist()
    delta = int(np.dot(class_count, dvals))
    diff_of = diff.tolist()
    class_of = dclass.tolist()
    budget = _REDRAW_CANDIDATES_PER_VERTEX * n_vertices
    tried = 0
    while delta and tried < budget and _can_shrink(delta, dvals, np.array(class_count) > 0):
        vertices = rng.integers(0, n_vertices, size=_REDRAW_BATCH)
        slots = _draw_slots(probs, _REDRAW_BATCH, rng)[0].tolist()
        tried += _REDRAW_BATCH
        redrawn = {}
        for v, old, new in zip(vertices.tolist(), idx[vertices].tolist(), slots):
            old = redrawn.get(v, old)
            after = delta + diff_of[new] - diff_of[old]
            if abs(after) < abs(delta):
                redrawn[v] = new
                class_count[class_of[old]] -= 1
                class_count[class_of[new]] += 1
                delta = after
                if not delta:
                    break
        idx[list(redrawn)] = list(redrawn.values())


def sample_configuration(
    d: BivariateDegreeDist, n_vertices: int, seed
) -> DirectedMultigraph:
    """Directed configuration model: degree pairs drawn from d and balanced,
    then uniform matching of out-stubs to in-stubs.

    For an edge-balanced d, the i.i.d. draw of N degree pairs leaves a stub
    imbalance Delta = sum(n) - sum(k) of order sqrt(N).  It is balanced by
    redraw: the pair of a uniformly random vertex is redrawn from d, and the
    redraw is kept only when it shrinks |Delta|, until Delta = 0.  Every
    vertex keeps a pair in the support of d; the degree sequence departs
    from the i.i.d. law by the O(sqrt(N)) redrawn vertices.

    Stubs are deleted only where no redraw can shrink |Delta|, or where
    redraws stopped after 8N candidates.  A redraw moves Delta by a
    difference of two n - k values of the support, so a lattice can bar
    the last steps: the fork's values 1 and -2 move it by 3, and with N
    not divisible by 3 it ends at |Delta| = 1.  Then |Delta| uniformly
    random stubs of the surplus side are deleted, so the graph has
    min(sum(n), sum(k)) edges.
    """
    if _checked_count(n_vertices, "vertex count") < 1:
        raise ValidationError(f"need at least 1 vertex, got {n_vertices}")
    rng = _as_rng(seed)
    n_of, k_of, probs = d.support
    probs = probs / probs.sum()
    idx, counts = _draw_slots(probs, n_vertices, rng)
    _balance_by_redraw(idx, counts, n_of - k_of, probs, rng)

    vertex_ids = np.arange(n_vertices, dtype=np.int64)
    in_stubs = np.repeat(vertex_ids, n_of[idx])
    out_stubs = np.repeat(vertex_ids, k_of[idx])
    src = rng.permutation(out_stubs)[: in_stubs.size]
    surplus = in_stubs.size - src.size
    if surplus:
        in_stubs = np.delete(in_stubs, rng.choice(in_stubs.size, surplus, replace=False))
    edges = np.column_stack([src, in_stubs])
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
