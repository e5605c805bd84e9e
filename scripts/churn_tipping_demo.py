#!/usr/bin/env python3
"""Show how stimulated churning tips a two-supplier market.

With purely stimulated churning the only stable outcomes are monopolies;
this sweep integrates the market from a range of initial splits and
reports which supplier ends up with everything, then contrasts the
mixed (spontaneous + stimulated) case, where an interior split survives.
"""

import argparse

from marketdyn import competition as comp
from marketdyn.scenario import format_value
from marketdyn.trajectory import time_grid


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--b1", type=float, default=2.0,
                        help="stimulation strength of supplier 1")
    parser.add_argument("--b2", type=float, default=1.0)
    parser.add_argument("--horizon", type=float, default=40.0)
    args = parser.parse_args()

    churn = comp.ChurnMatrix.from_rows([[0.0, 1.0], [1.0, 0.0]])
    pure = comp.StimulatedChurnSpec(churn=churn, b=(args.b1, args.b2), eps=(0, 0))

    print("u1_start,u1_final,winner")
    for k in range(1, 10):
        u1 = k / 10.0
        market = comp.BassCompetition(m=(0.0, 0.0), r=(1.0, 1.0), u0=(u1, 1.0 - u1))
        traj = comp.competitive_path_numeric(market, pure, time_grid(0.0, args.horizon, 11))
        u1_end, u2_end = traj.channel("u1")[-1], traj.channel("u2")[-1]
        winner = "supplier1" if u1_end > u2_end else "supplier2"
        print(f"{format_value(u1)},{format_value(u1_end)},{winner}")

    mixed = comp.StimulatedChurnSpec(churn=churn, b=(args.b1, args.b2), eps=(1, 1))
    fp = comp.stimulated_fixed_point(mixed)
    print(f"\nmixed churning settles at u1 = {format_value(fp.u[0])} "
          f"({fp.classification})")


if __name__ == "__main__":
    main()
