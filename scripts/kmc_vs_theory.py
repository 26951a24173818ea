"""Compare kinetic Monte Carlo runs against the analytic predictions.

Sweeps the in-conversion of a bounded growth process; at each target the
stochastic simulation's largest weak component and per-vertex mean
component size are set against the generating-function giant fraction and
the moment-formula mean size for the analytic degree law.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from weakgiant import WeakGiantError, cli, criteria, evolution, mcgraph
from weakgiant.evolution import BoundDist


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bounds", nargs="?", default=None,
                    help="bound table path (omit for the (2,2)-atom demo)")
    ap.add_argument("--conversions", type=float, nargs=3, default=(0.05, 0.6, 12),
                    metavar=("LO", "HI", "COUNT"))
    ap.add_argument("--vertices", type=int, default=30_000)
    ap.add_argument("--seed", type=int, default=cli.DEFAULT_SEED)
    args = ap.parse_args()
    lo, hi, count = args.conversions
    count = int(count)
    if count < 2:
        ap.error("COUNT must be at least 2")

    P = (BoundDist.from_text(Path(args.bounds).read_text())
         if args.bounds else BoundDist.from_entries([(2, 2, 1.0)]))
    sup_cn, _ = evolution.conversion_sup(P)

    print("# c_n\tt\tfraction_theory\tfraction_mc\tmean_theory\tmean_mc")
    for i in range(count):
        c = lo + (hi - lo) * i / (count - 1)
        if not c < sup_cn:
            break
        state = evolution.degree_state_at_conversion(P, c)
        marginal = evolution.marginal_degree_dist(state)
        report = criteria.criteria_report(marginal)
        frac_theory = report.giant_weak_fraction or 0.0
        mean_theory = "" if report.mean_weak_size is None else f"{report.mean_weak_size:.6g}"

        res = mcgraph.kmc_simulate(P, args.vertices, mcgraph.replica_rng(args.seed, i),
                                   c_n_target=c, record_trajectory=False)
        sizes = mcgraph.weak_component_sizes(res.graph)
        frac_mc = sizes.max() / args.vertices
        # size of the component holding a random vertex
        mean_mc = float(np.sum(sizes.astype(float) ** 2) / args.vertices)
        print(f"{c:.4f}\t{state.t:.6g}\t{frac_theory:.6g}\t{frac_mc:.6g}\t"
              f"{mean_theory}\t{mean_mc:.6g}")


if __name__ == "__main__":
    try:
        main()
    except (WeakGiantError, OSError) as exc:
        code = cli.failure_code(exc)
        if code is None:
            raise
        sys.exit(code)
