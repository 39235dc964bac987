#!/usr/bin/env python3
"""Qualitative shape report for the solved models.

Checks three behaviors directly from freshly solved tables and prints a
short textual report:
  - expensive persuasion: both-elite inaction regions on both sides of 1/2
    that absorb the state,
  - cheap persuasion: whichever elite dislikes the standing policy flips
    it to exactly 1/2 within two mover turns,
  - single elite: the value function is an inverted U peaking at 1/2.

Exits 1 if a behavior is missing: no inaction block on either side of
1/2 at k = 200, more than two mover turns to reach 1/2 at k = 0.5, or a
value peak away from 1/2.
"""

import sys

import numpy as np

import polarsolve as ps


def main() -> int:
    params = ps.ModelParams(pi=0.5, beta=0.9, H=1.0)
    grid = ps.build_grid(501)
    pts = grid.points

    print("== expensive persuasion (k = 200): lock-in ==")
    sol = ps.mpe_solve(params, ps.CostSpec.quadratic(200.0), grid)
    inaction = np.ones(grid.n, dtype=bool)
    for sigma in (sol.sigmaA0, sol.sigmaA1, sol.sigmaB0, sol.sigmaB1):
        inaction &= sigma == pts
    left = pts[inaction & (pts < 0.5)]
    right = pts[inaction & (pts > 0.5)]
    print(f"  inaction points: {int(inaction.sum())} of {grid.n}")
    blocks = bool(left.size and right.size)
    if blocks:
        print(f"  left block  [{left.min():.3f}, {left.max():.3f}]")
        print(f"  right block [{right.min():.3f}, {right.max():.3f}]")
    else:
        print("  FAIL: no inaction block on both sides of 1/2")

    print("== cheap persuasion (k = 0.5): pull to 1/2 ==")
    sol = ps.mpe_solve(params, ps.CostSpec.quadratic(0.5), grid)
    worst_turns = 0
    for s in (0, 1):
        for first in ("A", "B"):
            second = "B" if first == "A" else "A"
            p1 = sol.moves(first, s)
            i1 = np.rint(p1 * (grid.n - 1)).astype(int)
            p2 = sol.moves(second, s)[i1]
            turns = np.where(p1 == 0.5, 1, np.where(p2 == 0.5, 2, 99)).max()
            worst_turns = max(worst_turns, int(turns))
    print(f"  every starting point reaches 1/2 within {worst_turns} mover turns")
    if worst_turns > 2:
        print("  FAIL: more than two mover turns")

    print("== single elite (k = 10): inverted-U value ==")
    single = ps.solve_infinite(params, ps.CostSpec.quadratic(10.0), grid)
    mid = grid.mid
    peaks = True
    for s in (0, 1):
        v = single.value.values(s)
        peak = bool(v[mid] >= v.max() - 1e-12)
        peaks = peaks and peak
        print(
            f"  s={s}: V(0)={v[0]:.4f}  V(1/2)={v[mid]:.4f}  V(1)={v[-1]:.4f}  "
            f"peak at 1/2: {peak}"
        )
    return 0 if blocks and worst_turns <= 2 and peaks else 1


if __name__ == "__main__":
    sys.exit(main())
