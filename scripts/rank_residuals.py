#!/usr/bin/env python3
"""Profile the alternating-least-squares rank probe on reference states.

Prints each state's proven lower bound on the product-term count and the rule
that proves it, then the best residual at each probed rank, with the rule
that stopped the probe, the sweeps it ran and its wall time, so the
convergence cliff is visible: the residual stays large up to one below the
product-term count and collapses at the count itself.  Ranks below the proven
bound are marked excluded; a product-term scan runs no fit there.  The flat
triple's rank-2 row shows the border-rank plateau (small but firmly above the
convergence tolerance).
"""

import argparse

from loccsim.errors import ConstraintViolation
from loccsim.invariants import PartyTensor, ProbeConfig, cp_rank_probe, proven_lower_bound
from loccsim.prebuilt import bipartite_catalysis_pair
from loccsim.states import Register, ghz, w_state

ABC = Register.of([(1, "A"), (2, "B"), (3, "C")])


def profile(name: str, state, max_rank: int, config: ProbeConfig) -> None:
    t = PartyTensor.from_state(state)
    bound, rule = proven_lower_bound(t)
    print(f"=== {name}: proven bound {bound} ({rule}) ===")
    for r in range(1, max_rank + 1):
        probe = cp_rank_probe(t, r, config)
        marker = "excluded" if r < bound else "converged" if probe.converged else ""
        print(
            f"  r={r}: residual {probe.best_residual:.3e}  "
            f"stop {probe.stop_reason:<9} after {probe.sweeps:>4} sweeps in {probe.wall_s:6.3f} s  {marker}"
        )
    print()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--restarts", type=int, default=ProbeConfig().restarts)
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=ProbeConfig().seed)
    args = ap.parse_args()

    try:
        config = ProbeConfig(restarts=args.restarts, seed=args.seed)
    except ConstraintViolation as exc:
        ap.error(str(exc))
    profile("flat triple", w_state(ABC), 3, config)
    profile("balanced triple", ghz(ABC), 2, config)

    source, target = bipartite_catalysis_pair()
    profile("flat triple + pair", source, 6, config)
    profile("balanced triple + pair", target, 4, config)


if __name__ == "__main__":
    main()
