"""Sweep the directed Erdos-Renyi family across its phase transition.

For each lambda the in- and out-degrees are independent Poisson(lambda)
(truncated at a cutoff), the determinant criterion gives the phase, and a
configuration-model sample gives the empirical largest weak component.
Writes one TSV row per lambda.
"""

import argparse
import sys

from weakgiant import WeakGiantError, cli, criteria, mcgraph, truncated_double_poisson


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambdas", type=float, nargs=3, default=(0.1, 0.9, 17),
                    metavar=("LO", "HI", "COUNT"), help="sweep range (default 0.1 0.9 17)")
    ap.add_argument("--vertices", type=int, default=50_000)
    ap.add_argument("--cutoff", type=int, default=30)
    ap.add_argument("--seed", type=int, default=cli.DEFAULT_SEED)
    args = ap.parse_args()

    lo, hi, count = args.lambdas
    count = int(count)
    if count < 2:
        ap.error("COUNT must be at least 2")
    print("# lambda\tD\tmean_size\tfraction_theory\tlargest_mc")
    for i in range(count):
        lam = lo + (hi - lo) * i / (count - 1)
        d = truncated_double_poisson(lam, args.cutoff)
        report = criteria.criteria_report(d)
        D = report.determinant_D
        # mean diverges at and past the transition; fraction is 0 below it
        mean = "" if report.mean_weak_size is None else f"{report.mean_weak_size:.6g}"
        frac = report.giant_weak_fraction or 0.0
        g = mcgraph.sample_configuration(d, args.vertices, mcgraph.replica_rng(args.seed, i))
        largest = mcgraph.largest_weak_fraction(g)
        print(f"{lam:.5f}\t{D:.6g}\t{mean}\t{frac:.6g}\t{largest:.6g}")
        sys.stdout.flush()


if __name__ == "__main__":
    try:
        main()
    except (WeakGiantError, OSError) as exc:
        code = cli.failure_code(exc)
        if code is None:
            raise
        sys.exit(code)
