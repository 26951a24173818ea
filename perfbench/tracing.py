"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces module attributes (and one classmethod) with
wrappers that record a span per call: name, start, end, parent span and
job id, plus a work count read from the arguments or the returned value.
Callers inside the library look these attributes up at call time, so nested
calls such as ``criteria_report -> giant_weak_fraction ->
interior_fixed_point`` become child spans.  ``uninstall`` puts the original
objects back.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

from weakgiant import cli, criteria, evolution, gfsolver, mcgraph, tableio
from weakgiant.degdist import BivariateDegreeDist

#: (owner, attribute, span name, count(args, result) or None)
TARGETS = [
    (cli, "main", "cli", None),
    (tableio, "parse_records", "tableio.parse_records", None),
    (BivariateDegreeDist, "from_entries", "degdist.from_entries", None),
    (criteria, "criteria_report", "criteria.criteria_report", None),
    (gfsolver, "interior_fixed_point", "gfsolver.interior_fixed_point", lambda a, r: r.iterations),
    (gfsolver, "giant_weak_fraction", "gfsolver.giant_weak_fraction", None),
    # table entries x truncation order: the series coefficients produced
    (gfsolver, "weak_size_distribution", "gfsolver.weak_size_distribution",
     lambda a, r: len(a[0].entries) * a[1]),
    (evolution, "degree_state_at_conversion", "evolution.degree_state_at_conversion",
     lambda a, r: len(r.entries)),
    (evolution, "marginal_degree_dist", "evolution.marginal_degree_dist", None),
    (mcgraph, "kmc_simulate", "mcgraph.kmc_simulate", lambda a, r: r.state.events),
    (mcgraph, "sample_configuration", "mcgraph.sample_configuration", lambda a, r: r.edges.shape[0]),
    (mcgraph, "weak_component_sizes", "mcgraph.weak_component_sizes", lambda a, r: a[0].edges.shape[0]),
    (mcgraph, "size_histogram", "mcgraph.size_histogram", None),
]

NAME, START, END, PARENT, JOB, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.saved: list[tuple] = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.job, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, count in TARGETS:
            original = owner.__dict__[attr]
            self.saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(self._wrap(original.__func__, name, count)))
            else:
                setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(("name", "start", "end", "parent", "job", "count"), span))) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list], job_round: dict, rounds: list[int], jobs: int) -> dict:
    """Per-layer metrics over the traced rounds.

    Self times and counts are medians over rounds of per-round sums; rates
    are total work over total time inside the layer.
    """
    own = self_times(spans)
    per_round = {r: {} for r in rounds}
    totals: dict = {}
    for s, t in zip(spans, own):
        acc = per_round[job_round[s[JOB]]]
        name = s[NAME]
        acc[name] = acc.get(name, 0.0) + t
        acc[name + "#count"] = acc.get(name + "#count", 0) + s[COUNT]
        work, busy, calls = totals.get(name, (0, 0.0, 0))
        totals[name] = (work + s[COUNT], busy + s[END] - s[START], calls + 1)

    def median(key):
        return statistics.median(acc.get(key, 0.0) for acc in per_round.values())

    def rate(name):
        work, busy, _calls = totals.get(name, (0, 0.0, 0))
        return work / busy if busy > 0.0 else 0.0

    metrics = {f"{name}.self_s": (median(name), "s") for _owner, _attr, name, _count in TARGETS}
    metrics.update({
        "gfsolver.fp_iterations": (median("gfsolver.interior_fixed_point#count"), "count"),
        "gfsolver.fp_solves_per_job": (
            totals.get("gfsolver.interior_fixed_point", (0, 0.0, 0))[2] / jobs, "count"),
        "gfsolver.series_coeffs_per_s": (rate("gfsolver.weak_size_distribution"), "1/s"),
        "evolution.state_entries": (median("evolution.degree_state_at_conversion#count"), "count"),
        "mcgraph.kmc_events": (median("mcgraph.kmc_simulate#count"), "count"),
        "mcgraph.kmc_events_per_s": (rate("mcgraph.kmc_simulate"), "1/s"),
        "mcgraph.config_edges_per_s": (rate("mcgraph.sample_configuration"), "1/s"),
        "mcgraph.components_edges_per_s": (rate("mcgraph.weak_component_sizes"), "1/s"),
    })
    return metrics
