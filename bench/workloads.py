"""Inputs of the three workloads: fixed anchors plus draws from the seed.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  `make_pass(workload, seed)` gives the
operations of one pass; a run repeats whole passes, so every pass of a run
does the same work and a traced pass gives exact counts.

ground_state   `nucshoot ground-state` in-process on supercritical pairs,
               each with its own kappa = b/a.  All search: seeding,
               bisection, event localization, dense output, then the audit
               and the two artifact writers once per search.
nonexistence   `shooting.classify_grid` on each of a set of subcritical
               pairs (a <= 2b); one operation classifies the whole set.
               No bisection; the (3, 2) grid is raw stepping to r_max.
sweep          `nucshoot sweep --jobs 2` on a product grid with repeated
               kappa, subcritical rows and two pairs whose audits fail.
               The only workload through the process pool and CSV writer.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

GS_ANCHORS = ((9.0, 4.0), (4.0, 1.0), (12.0, 1.0), (9.0, 2.0), (10.0, 4.5))
GS_KAPPAS = tuple(k / 100 for k in range(2, 46))    # lattice for the draws
GS_DRAWS = 5
GS_A_RANGE = (4.0, 12.0)                            # the anchors' span of a

NE_ANCHORS = ((3.0, 2.0), (4.0, 4.0), (1.0, 4.0))   # acceptance criterion 5
NE_XS = tuple(np.linspace(0.01, 0.99, 50).tolist())
NE_DRAW_XS = tuple(np.linspace(0.05, 0.95, 10).tolist())
NE_R_MAX = 200.0
# a/b ranges: one draw below a = b (shots blow up at once) and one in
# b < a < 2b (shots spiral to r_max), with b near the (3, 2) anchor's, so
# every pass has the same mix of shot kinds at a similar cost
NE_DRAW_RATIOS = ((0.25, 1.0), (1.3, 1.7))
NE_DRAW_B = (1.5, 2.5)

SW_A = (2.0, 8.0, 40.0)
SW_B = (0.1, 0.5, 2.0, 5.0)
SW_EXTRA_A = (12.0, 16.0, 20.0, 24.0, 32.0)         # > 2 max(SW_B): all supercritical
SW_JOBS = 2

WORKLOADS = ("ground_state", "nonexistence", "sweep")


@dataclass(frozen=True)
class Op:
    """One operation: the program input plus what the checks need."""

    label: str
    argv: tuple = ()          # cli.main arguments without --out
    kappa: float = 0.0        # reference key for ground_state
    grids: tuple = ()         # (label, a, b, xs) per pair for nonexistence


def kappa_key(kappa: float) -> str:
    return f"{kappa:.12g}"


def _ground_state(rng: random.Random) -> list[Op]:
    ops = [Op(f"{a:g},{b:g}", ("ground-state", "--a", repr(a), "--b", repr(b)), b / a)
           for a, b in GS_ANCHORS]
    taken = {kappa_key(op.kappa) for op in ops}
    lattice = [k for k in GS_KAPPAS if kappa_key(k) not in taken]
    for kappa in rng.sample(lattice, GS_DRAWS):
        a = rng.uniform(*GS_A_RANGE)
        b = kappa * a
        ops.append(Op(f"{a:.6g},{b:.6g}", ("ground-state", "--a", repr(a), "--b", repr(b)),
                      kappa))
    return ops


def _nonexistence(rng: random.Random) -> list[Op]:
    grids = [(f"{a:g},{b:g}", a, b, NE_XS) for a, b in NE_ANCHORS]
    for lo, hi in NE_DRAW_RATIOS:
        b = rng.uniform(*NE_DRAW_B)
        a = b * rng.uniform(lo, hi)
        grids.append((f"{a:.6g},{b:.6g}", a, b, NE_DRAW_XS))
    return [Op(f"{len(grids)} grids", grids=tuple(grids))]


def _sweep(rng: random.Random) -> list[Op]:
    a_grid, b_grid = tuple(sorted(SW_A + (rng.choice(SW_EXTRA_A),))), SW_B
    argv = ("sweep", "--a-grid", ",".join(map(repr, a_grid)),
            "--b-grid", ",".join(map(repr, b_grid)), "--jobs", str(SW_JOBS))
    return [Op(f"{len(a_grid)}x{len(b_grid)}", argv)]


def make_pass(workload: str, seed: int) -> list[Op]:
    rng = random.Random(seed)
    return {"ground_state": _ground_state, "nonexistence": _nonexistence,
            "sweep": _sweep}[workload](rng)


def reference_kappas() -> set[float]:
    """Every kappa whose x* a run may check: anchors, lattice, sweep grid."""
    kappas = {b / a for a, b in GS_ANCHORS} | set(GS_KAPPAS)
    kappas |= {b / a for a in SW_A + SW_EXTRA_A for b in SW_B if a - 2 * b > 0}
    return kappas
