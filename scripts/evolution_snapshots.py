"""Trace a bounded growth process analytically over time.

Reads a bound table ('n_max k_max prob' lines), reports its rate moments
and transition class, then tabulates mu(t), the conversions, and the
connectivity verdict of the analytic degree law on a time grid spanning
the transition.
"""

import argparse
import sys
from pathlib import Path

from weakgiant import WeakGiantError, cli, criteria, evolution
from weakgiant.evolution import BoundDist

DEMO = "10 10 0.333333333333333315\n5 10 0.333333333333333315\n10 4 0.33333333333333337\n"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bounds", nargs="?", default=None,
                    help="bound table path (omit for a built-in three-class demo)")
    ap.add_argument("--points", type=int, default=12)
    ap.add_argument("--t-max", type=float, default=None,
                    help="default: 40x the transition time, or 5.0 if never")
    args = ap.parse_args()
    if args.points < 1:
        ap.error("--points must be at least 1")

    text = Path(args.bounds).read_text() if args.bounds else DEMO
    P = BoundDist.from_text(text)
    nu = evolution.nu_moments(P)
    sup_cn, sup_ck = evolution.conversion_sup(P)
    tc = evolution.transition_class(P)

    print(f"# nu10={nu.nu10:.6g} nu01={nu.nu01:.6g} nu20={nu.nu20:.6g} "
          f"nu02={nu.nu02:.6g} nu11={nu.nu11:.6g}", file=sys.stderr)
    print(f"# conversion sup: c_n -> {sup_cn:.6g}, c_k -> {sup_ck:.6g}", file=sys.stderr)
    if tc.kind == "finite":
        print(f"# transition: finite at t={tc.t_crit:.6g} "
              f"(c_n={tc.c_n_crit:.6g}, c_k={tc.c_k_crit:.6g})", file=sys.stderr)
    else:
        print(f"# transition: {tc.kind}", file=sys.stderr)

    t_max = args.t_max
    if t_max is None:
        t_max = 40.0 * tc.t_crit if tc.kind == "finite" else 5.0
    print("# t\tmu\tc_n\tc_k\tD\tgiant_weak")
    for i in range(args.points + 1):
        state = evolution.degree_state_at(P, t_max * i / args.points)
        marginal = evolution.marginal_degree_dist(state)
        report = criteria.criteria_report(marginal)
        print(f"{state.t:.6g}\t{state.mu:.6g}\t{state.c_n:.6g}\t{state.c_k:.6g}\t"
              f"{report.determinant_D:.6g}\t{int(report.giant_weak)}")


if __name__ == "__main__":
    try:
        main()
    except (WeakGiantError, OSError) as exc:
        code = cli.failure_code(exc)
        if code is None:
            raise
        sys.exit(code)
