#!/usr/bin/env python3
"""Survey: how tight are the head-term bounds on random quasi-stable ideals?

Samples random quasi-stable ideals, resolves a random marked basis over
each, minimizes, and tabulates the predicted level ranks against the actual
Betti numbers plus the regularity/pdim gaps.  A Betti number above its
bound is a bug: the case is printed and the exit status is 1.  Usage:

    python scripts/random_survey.py [count] [nvars] [seed]
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from marked_bases import (
    basis_invariants,
    free_resolution,
    invariant_bounds,
    minimize_resolution,
)
from marked_bases.randgen import random_marked_basis, random_quasi_stable_basis


def survey(count: int, nvars: int, seed: int) -> None:
    rng = random.Random(seed)
    n = nvars - 1
    reg_gaps = []
    pdim_gaps = []
    betti_excess = []
    print(f"{'#':>3} {'|P|':>4} {'reg<=':>6} {'reg':>4} {'pd<=':>5} {'pd':>3} {'sum r':>6} {'sum b':>6}")
    for k in range(count):
        basis = random_quasi_stable_basis(rng, n, max_deg=4, max_terms=18)
        bounds = invariant_bounds(basis)
        marked = random_marked_basis(rng, basis)
        minimal = minimize_resolution(free_resolution(marked))
        betti = minimal.rank_pairs()
        actual_pdim = minimal.length
        actual_reg = max(j - i for i, degs in enumerate(minimal.degrees) for j in degs)
        total_r = sum(bounds.betti_bound_table.values())
        total_b = sum(betti.values())
        over = {key: c for key, c in betti.items() if c > bounds.betti_bound_table.get(key, 0)}
        if over:
            sys.exit(f"case {k}: Betti numbers {over} exceed the bound table "
                     f"{bounds.betti_bound_table} on the heads {', '.join(map(str, basis.sorted_terms()))}")
        reg_gaps.append(bounds.regularity_bound - actual_reg)
        pdim_gaps.append(bounds.pdim_bound - actual_pdim)
        betti_excess.append(total_r - total_b)
        print(
            f"{k:>3} {len(basis.terms):>4} {bounds.regularity_bound:>6} {actual_reg:>4} "
            f"{bounds.pdim_bound:>5} {actual_pdim:>3} {total_r:>6} {total_b:>6}"
        )
    print()
    print(f"regularity bound sharp in {reg_gaps.count(0)}/{count} cases "
          f"(mean gap {sum(reg_gaps) / count:.2f})")
    print(f"pdim bound sharp in {pdim_gaps.count(0)}/{count} cases "
          f"(mean gap {sum(pdim_gaps) / count:.2f})")
    print(f"mean excess of predicted over minimal total Betti numbers: "
          f"{sum(betti_excess) / count:.2f}")


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    nvars = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0
    survey(count, nvars, seed)
