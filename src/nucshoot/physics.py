"""Physical observables along radial trajectories.

Spinor densities, meson potentials and plateau shape diagnostics, all
derived from the dimensionless (f, g) profile.  The potentials use the
nucleon mass m = 1 and the speed-of-light display scale c = 10; c enters
display quantities only and never feeds back into the ODE.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrator import Trajectory
from .model import ModelParams, PhasePoint

__all__ = [
    "PlateauMetrics",
    "InsufficientHorizonError",
    "densities",
    "potentials",
    "plateau_metrics",
    "profile_table",
]

_M = 1.0                   # nucleon mass
_C = 10.0                  # speed-of-light display scale


class InsufficientHorizonError(RuntimeError):
    """g^2 never falls below 10% of its peak within the horizon."""


@dataclass(frozen=True)
class PlateauMetrics:
    """Threshold radii of the g^2 profile and the derived plateau score.

    r90/r50/r10 are where g^2 first falls to 90%/50%/10% of its peak;
    surface_thickness = r10 - r90 and plateau_score = r50 / thickness.
    The score is a repo-defined metric calibrated against a Saxon-Woods
    oracle in the tests; larger means a flatter interior and a sharper
    surface.
    """

    r90: float
    r50: float
    r10: float
    surface_thickness: float
    plateau_score: float
    gsq_max: float


def densities(p: PhasePoint | Trajectory) -> tuple[float, float]:
    """Scalar and baryon densities (rho_s, rho_0) = (g^2 - f^2, g^2 + f^2).

    Like `potentials`, takes anything with f and g attributes: a phase
    point gives floats, a trajectory gives arrays along its samples.
    """
    fsq = p.f * p.f
    gsq = p.g * p.g
    return gsq - fsq, gsq + fsq


def potentials(p: PhasePoint | Trajectory,
               params: ModelParams) -> tuple[float, float, float, float]:
    """Leading-order meson potentials (S, V, V+S, V-S) at a phase point.

    S = -m c^2 g^2 + f^2/(4m) and V = m c^2 g^2 - a g^2/(2m) + f^2/(4m);
    the sum and difference channels are returned from their own reduced
    formulas, which agree with S + V and V - S to roundoff.
    """
    m, c = _M, _C
    fsq = p.f * p.f
    gsq = p.g * p.g
    s_pot = -m * c * c * gsq + fsq / (4.0 * m)
    v_pot = m * c * c * gsq - params.a * gsq / (2.0 * m) + fsq / (4.0 * m)
    v_plus_s = fsq / (2.0 * m) - params.a * gsq / (2.0 * m)
    v_minus_s = 2.0 * m * c * c * gsq - params.a * gsq / (2.0 * m)
    return s_pot, v_pot, v_plus_s, v_minus_s


def _cross_down(traj: Trajectory, start: int, level: float) -> float | None:
    """First radius at or after sample index start where g^2 falls to
    level.  Between the two samples that bracket it, g^2 is sampled on 64
    equal parts of the trajectory's dense output and interpolated linearly
    there, which cuts the interpolation error of the step spacing 4096-fold."""
    r, y = traj.r, traj.g ** 2
    below = np.nonzero(y[start:] <= level)[0]
    if len(below) == 0:
        return None
    j = start + int(below[0])
    if j == start or y[j] == level:
        return float(r[j])
    rs = np.linspace(r[j - 1], r[j], 65)
    ys = traj.sample_on(rs)[1] ** 2
    k = int(np.nonzero(ys <= level)[0][0])
    r0, r1 = rs[k - 1], rs[k]
    y0, y1 = ys[k - 1], ys[k]
    return float(r0 + (r1 - r0) * (y0 - level) / (y0 - y1))


def plateau_metrics(traj: Trajectory) -> PlateauMetrics:
    """Threshold radii of g^2 relative to its peak sample, on the dense output.

    Raises InsufficientHorizonError when g^2 never drops below 10% of
    its maximum inside the integrated horizon (non-decaying profile or
    horizon too short), and for degenerate profiles where the 90% and
    10% radii coincide.
    """
    gsq = traj.g ** 2
    imax = int(np.argmax(gsq))
    gmax = float(gsq[imax])
    if gmax <= 0.0:
        raise InsufficientHorizonError("g^2 is identically zero")
    radii = []
    for frac in (0.9, 0.5, 0.1):
        rq = _cross_down(traj, imax, frac * gmax)
        if rq is None:
            raise InsufficientHorizonError(
                f"g^2 stays above {frac:.0%} of its peak up to r = {traj.r_end:.6g}")
        radii.append(rq)
    r90, r50, r10 = radii
    thickness = r10 - r90
    if thickness <= 0.0:
        raise InsufficientHorizonError(
            "degenerate profile: 90% and 10% radii coincide")
    return PlateauMetrics(r90, r50, r10, thickness, r50 / thickness, gmax)


def profile_table(traj: Trajectory, params: ModelParams) -> dict[str, np.ndarray]:
    """Column table of the physics profile along the trajectory samples."""
    f, g = traj.f, traj.g
    rho_s, rho_0 = densities(traj)
    s_pot, v_pot, v_plus_s, v_minus_s = potentials(traj, params)
    return {
        "r": traj.r,
        "f": f,
        "g": g,
        "f_squared": f * f,
        "g_squared": g * g,
        "rho_s": rho_s,
        "rho_0": rho_0,
        "S": s_pot,
        "V": v_pot,
        "V_plus_S": v_plus_s,
        "V_minus_S": v_minus_s,
        "H": traj.H,
    }
