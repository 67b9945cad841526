"""Cross-module check suite behind `nucshoot verify`.

Each check solves a case whose answer is known independently (a closed
form, a conservation law, a theorem) and returns one number; the check
passes when that number is at most its threshold.  Every check takes the
same inputs: the integrator settings, a random seed for the checks that
draw start points, and the bracket width for the ground-state search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .integrator import (R_START, IntegratorConfig, integrate_conservative,
                         integrate_radial, integrate_shifted)
from .model import ModelParams, PhasePoint, exact_coth
from .portrait import admissible_contains
from .shooting import (ShotClass, bisect_ground_state, classify_shot,
                       dissipation_residual)

__all__ = ["Check", "CHECKS", "run_checks"]


@dataclass(frozen=True)
class Check:
    name: str
    run: Callable[[IntegratorConfig, int, float], float]
    threshold: float


def _eval_on(traj, grid) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray([traj.sample_at(float(r)) for r in grid])
    return arr[:, 0], arr[:, 1]


def _coth_oracle(config: IntegratorConfig, seed: int, x_tol: float) -> float:
    """Sup error of the x = 1 shot against the closed-form g == 1 profile."""
    params = ModelParams(2.5, 1.0)
    config = replace(config, r_max=10.0)
    traj = integrate_radial(1.0, params, config)
    grid = np.linspace(R_START, 10.0, 2001)
    fs, gs = _eval_on(traj, grid)
    exact = [exact_coth(float(r), params) for r in grid]
    fe = np.asarray([p.f for p in exact])
    ge = np.asarray([p.g for p in exact])
    return float(max(np.max(np.abs(fs - fe)), np.max(np.abs(gs - ge))))


def _energy_drift(config: IntegratorConfig, seed: int, x_tol: float) -> float:
    """Worst relative drift of H along 20 admissible companion orbits."""
    params = ModelParams(9.0, 4.0)
    rng = np.random.default_rng(seed)
    config = replace(config, r_max=50.0)
    f_corner = math.sqrt(params.a - params.b)
    worst = 0.0
    n = 0
    while n < 20:
        p0 = PhasePoint(rng.uniform(-f_corner, f_corner), rng.uniform(-1, 1))
        if not admissible_contains(p0, params):
            continue
        n += 1
        traj = integrate_conservative(p0, params, config)
        h0 = traj.H[0]
        worst = max(worst, float(np.max(np.abs(traj.H - h0)) / (1.0 + abs(h0))))
    return worst


def _dissipation(config: IntegratorConfig, seed: int, x_tol: float) -> float:
    """Worst dissipation-identity residual over 20 radial shots."""
    params = ModelParams(9.0, 4.0)
    rng = np.random.default_rng(seed + 1)
    config = replace(config, r_max=20.0)
    worst = 0.0
    for _ in range(20):
        traj = integrate_radial(rng.uniform(0.05, 0.95), params, config)
        worst = max(worst, dissipation_residual(traj))
    return worst


def _nonexistence(config: IntegratorConfig, seed: int, x_tol: float) -> float:
    """Number of decaying or undecided shots on grids where a <= 2b forbids
    decay; every shot there must end in a certified non-decaying class."""
    config = replace(config, r_max=200.0)
    bad = 0
    for a, b in ((4.0, 4.0), (1.0, 4.0), (3.0, 2.0)):
        params = ModelParams(a, b)
        for x in np.linspace(0.0, 1.0, 52)[1:-1]:
            out = classify_shot(float(x), params, config)
            bad += out.shot_class in (ShotClass.DECAYED, ShotClass.UNDETERMINED)
    return float(bad)


def _shifted(config: IntegratorConfig, seed: int, x_tol: float) -> float:
    """Distance of the rho = 1000 shifted orbit to the companion orbit on
    [0, 5]; inf unless the distance falls monotonically in rho."""
    params = ModelParams(9.0, 4.0)
    p0 = PhasePoint(0.3, 0.5)
    config = replace(config, r_max=5.0)
    grid = np.linspace(0.0, 5.0, 501)
    rf, rg = _eval_on(integrate_conservative(p0, params, config), grid)
    dists = []
    for rho in (10.0, 100.0, 1000.0):
        sf, sg = _eval_on(integrate_shifted(p0, rho, params, config), grid)
        dists.append(float(max(np.max(np.abs(sf - rf)), np.max(np.abs(sg - rg)))))
    return dists[2] if dists[0] > dists[1] > dists[2] else math.inf


def _ground_state(config: IntegratorConfig, seed: int, x_tol: float) -> float:
    """Bracket width of the (9, 4) search; inf unless its audit passes and
    the bracket lies inside (sqrt(2b/a), 1)."""
    gs = bisect_ground_state(ModelParams(9.0, 4.0), config, x_tol=x_tol)
    lo, hi = gs.bracket
    ok = gs.lemma_report.passed and math.sqrt(8.0 / 9.0) < lo < hi < 1.0
    return hi - lo if ok else math.inf


CHECKS = (
    Check("coth_oracle", _coth_oracle, 1e-6),
    Check("conservative_energy_drift", _energy_drift, 1e-8),
    Check("dissipation_identity", _dissipation, 1e-4),
    Check("nonexistence_grids", _nonexistence, 0.0),
    Check("shifted_convergence", _shifted, 1e-2),
    Check("ground_state_9_4_audit", _ground_state, 1e-10),
)


def run_checks(config: IntegratorConfig, seed: int, x_tol: float):
    """Run the suite, yielding one result dict {name, passed, value,
    threshold} per check as it finishes."""
    for check in CHECKS:
        value = check.run(config, seed, x_tol)
        yield {"name": check.name, "passed": bool(value <= check.threshold),
               "value": value, "threshold": check.threshold}
