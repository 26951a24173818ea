"""Monte Carlo oracles: configuration-model sampling and the kinetic growth
process, plus weak-component extraction.

Both samplers are deterministic given a seed.  Streams come from numpy's
PCG64 generator; independent replicas derive from (master seed, replica
index) through ``SeedSequence`` spawn keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degdist import BivariateDegreeDist, UnivariateDegreeDist
from .errors import Exhausted, Unrealizable, ValidationError
from .evolution import BoundDist


def replica_rng(master_seed: int, replica: int = 0) -> np.random.Generator:
    """Independent, reproducible stream for one replica of an experiment."""
    seed = np.random.SeedSequence(_checked_seed(master_seed), spawn_key=(replica,))
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


def weak_component_sizes(g: DirectedMultigraph) -> np.ndarray:
    """Multiset of weak-component sizes (directions ignored), sorted; sums to
    the vertex count.

    Min-label hooking with pointer jumping (Shiloach & Vishkin, J.
    Algorithms 3 (1982)), all in array operations.  ``parent`` maps every
    vertex to the least label of its component found so far, and every
    entry points at a root (``parent[r] == r``).  Each round replaces the
    edges by their endpoints' roots and drops those inside one component;
    each root that is the larger end of a remaining edge is hooked to the
    least smaller root it meets, then the chains are compressed fully.
    Labels only fall, so no cycle forms, and every round with edges left
    hooks at least one root.
    """
    parent = np.arange(g.vertex_count, dtype=np.int64)
    u, v = g.edges[:, 0], g.edges[:, 1]
    while True:
        u, v = parent[u], parent[v]
        keep = u != v
        if not keep.any():
            break
        u, v = u[keep], v[keep]
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    counts = np.bincount(parent, minlength=g.vertex_count)
    return np.sort(counts[counts > 0])


def largest_weak_fraction(g: DirectedMultigraph) -> float:
    if g.vertex_count < 1:
        raise ValidationError("graph has no vertices")
    sizes = weak_component_sizes(g)
    return float(sizes.max()) / g.vertex_count


def size_histogram(sizes, vertex_weighted: bool = True) -> UnivariateDegreeDist:
    """Component-size law from a multiset of sizes.

    Vertex-weighted, bin s carries ``s * count(s) / sum(sizes)``: the
    probability that a random vertex lies in a size-s component.  Otherwise
    bins are component-weighted, ``count(s) / len(sizes)``.  ``sizes`` is a
    sequence or an integer array; each probability is an exact integer
    ratio, correctly rounded.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if not sizes.size:
        raise ValidationError("no component sizes given")
    values, counts = np.unique(sizes, return_counts=True)
    bins = list(zip(values.tolist(), counts.tolist()))
    if vertex_weighted:
        total = sum(s * c for s, c in bins)
        pairs = [(s, s * c / total) for s, c in bins]
    else:
        pairs = [(s, c / sizes.size) for s, c in bins]
    return UnivariateDegreeDist.from_entries(pairs)


def _sample_keys(P: BoundDist, n: int, rng: np.random.Generator):
    first, second, probs = P.support
    idx = rng.choice(len(probs), size=n, p=probs / probs.sum())
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


def _balance_by_redraw(idx: np.ndarray, diff: np.ndarray, probs: np.ndarray, rng) -> None:
    """Redraw support slots ``idx`` of uniformly random vertices from
    ``probs`` in place, keeping a redraw only when it shrinks the imbalance
    ``|sum(diff[idx])|``.

    Stops at zero, when no redraw can shrink the imbalance, or after
    ``_REDRAW_CANDIDATES_PER_VERTEX`` candidates per vertex.
    """
    n_vertices = idx.size
    dvals, dclass = np.unique(diff, return_inverse=True)
    class_count = np.bincount(dclass[idx], minlength=dvals.size)
    delta = int(class_count @ dvals)
    diff_of = diff.tolist()
    class_of = dclass.tolist()
    budget = _REDRAW_CANDIDATES_PER_VERTEX * n_vertices
    tried = 0
    while delta and tried < budget and _can_shrink(delta, dvals, class_count > 0):
        vertices = rng.integers(0, n_vertices, size=_REDRAW_BATCH).tolist()
        slots = rng.choice(len(probs), size=_REDRAW_BATCH, p=probs).tolist()
        tried += _REDRAW_BATCH
        for v, new in zip(vertices, slots):
            old = int(idx[v])
            after = delta + diff_of[new] - diff_of[old]
            if abs(after) < abs(delta):
                idx[v] = new
                class_count[class_of[old]] -= 1
                class_count[class_of[new]] += 1
                delta = after
                if not delta:
                    break


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
    if n_vertices < 1:
        raise ValidationError(f"need at least 1 vertex, got {n_vertices}")
    rng = _as_rng(seed)
    n_of, k_of, probs = d.support
    probs = probs / probs.sum()
    idx = rng.choice(len(probs), size=n_vertices, p=probs)
    _balance_by_redraw(idx, n_of - k_of, probs, rng)

    vertex_ids = np.arange(n_vertices, dtype=np.int64)
    in_stubs = np.repeat(vertex_ids, n_of[idx])
    out_stubs = np.repeat(vertex_ids, k_of[idx])
    if in_stubs.size > out_stubs.size:
        in_stubs = rng.permutation(in_stubs)[: out_stubs.size]
    elif out_stubs.size > in_stubs.size:
        out_stubs = rng.permutation(out_stubs)[: in_stubs.size]
    if in_stubs.size != out_stubs.size:
        raise Unrealizable("stub repair failed to balance sides")

    src = rng.permutation(out_stubs)
    edges = np.column_stack([src, in_stubs]).astype(np.int64)
    return DirectedMultigraph(n_vertices, edges)


@dataclass
class KmcState:
    """Final per-vertex state of one kinetic run.

    ``restarts`` counts the re-permutations of the vacant spots that
    same-vertex pairs forced (see :func:`kmc_simulate`).
    """

    n_max: np.ndarray
    k_max: np.ndarray
    vacant_in: np.ndarray
    vacant_out: np.ndarray
    t: float
    events: int
    seed: object
    restarts: int = 0

    @property
    def in_degrees(self) -> np.ndarray:
        return self.n_max - self.vacant_in

    @property
    def out_degrees(self) -> np.ndarray:
        return self.k_max - self.vacant_out


@dataclass
class KmcResult:
    graph: DirectedMultigraph
    times: np.ndarray
    empirical: BivariateDegreeDist
    state: KmcState


#: Events per block of the kinetic sampler.  Bounds the block's temporaries;
#: the law of the run does not depend on it.
_KMC_BLOCK = 8192


def _blocked_drops(src, dst, vin, vout) -> np.ndarray:
    """Fall of the same-vertex spot-pair count at each event of a block.

    Event j takes an out-spot of ``src[j]`` and an in-spot of ``dst[j]``
    (distinct vertices), so the count falls by the vacant in-count of
    ``src[j]`` plus the vacant out-count of ``dst[j]`` just before it: their
    values at the block start, ``vin`` and ``vout``, less the earlier events
    of the block that took an in-spot of ``src[j]`` or an out-spot of
    ``dst[j]``.  Those counts come from one sort of the interleaved stream
    src[0], dst[0], src[1], ..., keyed by (vertex, position).
    """
    size = 2 * src.size
    stream = np.empty(size, dtype=np.int64)
    stream[0::2] = src
    stream[1::2] = dst
    keys = np.sort(stream * size + np.arange(size))
    vertex, pos = np.divmod(keys, size)
    is_dst = pos & 1
    # exclusive running counts of dst and src entries, then taken within
    # each vertex's run of the sorted stream
    dsts = np.cumsum(is_dst) - is_dst
    srcs = np.arange(size) - dsts
    new_run = np.ones(size, dtype=bool)
    np.not_equal(vertex[1:], vertex[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    run_start = np.repeat(starts, np.diff(starts, append=size))
    earlier = np.empty(size, dtype=np.int64)
    earlier[pos] = np.where(is_dst, srcs - srcs[run_start], dsts - dsts[run_start])
    return vin[src] - earlier[0::2] + vout[dst] - earlier[1::2]


def _grow(vin, vout, edges, times, rng, target_events, t_end) -> tuple[int, float, int]:
    """Event loop of :func:`kmc_simulate`: convert spot pairs from the vacant
    counts ``vin``, ``vout`` (updated in place) and write each event's
    (source, target) into ``edges`` and its time into ``times``, unless
    ``times`` is None.

    Returns the number of events, the final time and the number of
    restarts.  The spot arrays live only here, so they are freed before
    the caller builds its outputs.
    """
    n_vertices = vin.size
    total_in = int(vin.sum())
    total_out = int(vout.sum())
    # After e events the vacant spots are out_spots[e:] and in_spots[e:],
    # each in uniformly random order.
    out_spots = np.repeat(np.arange(n_vertices, dtype=np.int64), vout)
    in_spots = np.repeat(np.arange(n_vertices, dtype=np.int64), vin)
    rng.shuffle(out_spots)
    rng.shuffle(in_spots)
    blocked = int((vin * vout).sum())  # same-vertex spot pairs

    t = 0.0
    events = 0
    restarts = 0
    rejected = False
    while True:
        if target_events is not None and events >= target_events:
            break
        v_in = total_in - events
        v_out = total_out - events
        if v_in * v_out - blocked <= 0:
            if target_events is not None:
                raise Exhausted(
                    f"no admissible pair after {events} events; "
                    f"target was {target_events}"
                )
            break
        if rejected:
            rng.shuffle(out_spots[events:])
            rng.shuffle(in_spots[events:])
            restarts += 1

        span = min(_KMC_BLOCK, v_in, v_out)
        if target_events is not None:
            span = min(span, target_events - events)
        src = out_spots[events : events + span]
        dst = in_spots[events : events + span]
        same = np.flatnonzero(src == dst)
        rejected = same.size > 0
        if rejected:
            src, dst = src[: same[0]], dst[: same[0]]
        if not src.size:
            continue

        drops = _blocked_drops(src, dst, vin, vout)
        step = np.arange(src.size)
        blocked_before = blocked - (np.cumsum(drops) - drops)
        rate = ((v_in - step) * (v_out - step) - blocked_before) / n_vertices
        dt = rng.standard_exponential(src.size) / rate
        dt[0] += t
        block_t = np.cumsum(dt)
        cut = t_end is not None and block_t[-1] > t_end
        if cut:
            count = int(np.searchsorted(block_t, t_end, side="right"))
            src, dst, drops, block_t = src[:count], dst[:count], drops[:count], block_t[:count]

        np.subtract.at(vout, src, 1)
        np.subtract.at(vin, dst, 1)
        blocked -= int(drops.sum())
        end = events + src.size
        edges[events:end, 0] = src
        edges[events:end, 1] = dst
        if times is not None:
            times[events:end] = block_t
        events = end
        if cut:
            return events, t_end, restarts
        t = float(block_t[-1])
    return events, t, restarts


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

    The pairs come from permutation prefixes.  The vacant out-spots and the
    vacant in-spots are each put in uniformly random order and paired
    position by position.  Given the pairs before it, each pair is uniform
    over the remaining spots, so each accepted pair is uniform over the
    admissible ones.  The run takes pairs up to the first same-vertex pair,
    then puts all vacant spots in a fresh random order, which is exactly the
    redraw of a rejection sampler; ``state.restarts`` counts these.  The
    rate before event e is ``((v_in - e)(v_out - e) - blocked_e)/N``, with
    ``v_in``, ``v_out`` the vacant spots and ``blocked_e`` the same-vertex
    spot pairs before e.  Pairs and times are taken in blocks of at most
    ``_KMC_BLOCK`` events; a ``t_end`` stop cuts the block at the first
    event later than ``t_end``.
    """
    if n_vertices < 2:
        raise ValidationError(f"need at least 2 vertices, got {n_vertices}")
    if t_end is not None and c_n_target is not None:
        raise ValidationError("give at most one of t_end and c_n_target")
    if t_end is not None and not t_end >= 0:
        raise ValidationError(f"t_end = {t_end!r} is negative or not a number")
    if c_n_target is not None and not 0.0 <= c_n_target <= 1.0:
        raise ValidationError(f"c_n_target = {c_n_target!r} outside [0, 1]")

    rng = _as_rng(seed)
    n_max, k_max = _sample_keys(P, n_vertices, rng)
    vin = n_max.copy()
    vout = k_max.copy()

    total_in = int(vin.sum())
    target_events = None
    if c_n_target is not None:
        target_events = int(round(c_n_target * total_in))
    capacity = min(total_in, int(vout.sum())) if target_events is None else target_events
    edges = np.empty((max(capacity, 0), 2), dtype=np.int64)
    times = np.empty(max(capacity, 0), dtype=float) if record_trajectory else None
    events, t, restarts = _grow(vin, vout, edges, times, rng, target_events, t_end)

    graph = DirectedMultigraph(n_vertices, edges[:events].copy())
    traj_t = times[:events].copy() if record_trajectory else np.empty(0)
    in_deg = n_max - vin
    out_deg = k_max - vout
    base = int(out_deg.max()) + 1
    codes, counts = np.unique(in_deg * base + out_deg, return_counts=True)
    empirical = BivariateDegreeDist.from_entries(
        [
            (n, k, c / n_vertices)
            for n, k, c in zip((codes // base).tolist(), (codes % base).tolist(), counts.tolist())
        ]
    )
    state = KmcState(
        n_max=n_max,
        k_max=k_max,
        vacant_in=vin,
        vacant_out=vout,
        t=t,
        events=events,
        seed=seed,
        restarts=restarts,
    )
    return KmcResult(graph=graph, times=traj_t, empirical=empirical, state=state)
