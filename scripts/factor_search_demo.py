#!/usr/bin/env python3
"""Print a table of unit-ball factor-search results for a target word.

Usage: factor_search_demo.py [WORD] [RESTARTS] [SEED] [DEGREE]
with WORD like "z1 z2" (default), RESTARTS 16, SEED 7, DEGREE |WORD| by
default.  Factors whose top degree equals the cap snap cleanly; shorter
targets searched with a larger cap tend to crawl in flat valleys instead.
Bad input is reported in one line on stderr with exit code 2.
"""

import sys

from fockalg.calculus import search_ball_factorizations
from fockalg.words import BasisCapExceeded, Word


def main():
    try:
        search()
    except (ValueError, BasisCapExceeded) as exc:
        print(f"factor_search_demo: error: {exc}", file=sys.stderr)
        sys.exit(2)


def search():
    w = Word.parse(sys.argv[1]) if len(sys.argv) > 1 else Word((1, 2))
    if not w:
        raise ValueError("need a nonempty word w, got '': L_w = I factors only into unimodular "
                         "scalars, which the search does not reach")
    restarts = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 7
    degree = int(sys.argv[4]) if len(sys.argv) > 4 else max(1, len(w))
    N = max(2 * degree, len(w)) + 1
    cands = search_ball_factorizations(w, degree=degree, n=2, N=N, restarts=restarts, seed=seed)
    print(f"target L_[{w}]  restarts={restarts}  seed={seed}  degree={degree}  N={N}")
    print(f"{'restart':>7}  {'residual':>12}  {'dist-to-splits':>14}  {'best split':>16}  iters")
    for c in cands:
        split = f"{c.split[0]}|{c.split[1]}"
        print(f"{c.restart:7d}  {c.residual:12.3e}  {c.manifold_distance:14.3e}  {split:>16}  {c.iterations}")


if __name__ == "__main__":
    main()
