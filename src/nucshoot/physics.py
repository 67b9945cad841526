"""Physical observables along radial trajectories.

Spinor densities, meson potentials, plateau shape diagnostics, and
radial norms, all derived from the dimensionless (f, g) profile.  The
speed-of-light scale c enters display quantities only; it never feeds
back into the ODE.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrator import Trajectory
from .model import ModelParams, PhasePoint
from .shooting import NotDecayingError, fit_decay_rate

__all__ = [
    "PhysicalScales",
    "PlateauMetrics",
    "InsufficientHorizonError",
    "DivergentNormError",
    "densities",
    "potentials",
    "plateau_metrics",
    "radial_norm",
    "profile_table",
    "DEFAULT_SCALES",
]


class InsufficientHorizonError(RuntimeError):
    """g^2 never falls below 10% of its peak within the horizon."""


class DivergentNormError(RuntimeError):
    """Radial norm requested for a trajectory with no decaying tail."""


@dataclass(frozen=True)
class PhysicalScales:
    """Nucleon mass m and speed-of-light display scale c."""

    m: float = 1.0
    c: float = 10.0

    def __post_init__(self) -> None:
        if not (self.m > 0.0 and math.isfinite(self.m)):
            raise ValueError("m must be positive and finite")
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ValueError("c must be positive and finite")


DEFAULT_SCALES = PhysicalScales()


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


def potentials(p: PhasePoint | Trajectory, scales: PhysicalScales,
               params: ModelParams) -> tuple[float, float, float, float]:
    """Leading-order meson potentials (S, V, V+S, V-S) at a phase point.

    S = -m c^2 g^2 + f^2/(4m) and V = m c^2 g^2 - a g^2/(2m) + f^2/(4m);
    the sum and difference channels are returned from their own reduced
    formulas, which agree with S + V and V - S to roundoff.
    """
    m, c = scales.m, scales.c
    fsq = p.f * p.f
    gsq = p.g * p.g
    s_pot = -m * c * c * gsq + fsq / (4.0 * m)
    v_pot = m * c * c * gsq - params.a * gsq / (2.0 * m) + fsq / (4.0 * m)
    v_plus_s = fsq / (2.0 * m) - params.a * gsq / (2.0 * m)
    v_minus_s = 2.0 * m * c * c * gsq - params.a * gsq / (2.0 * m)
    return s_pot, v_pot, v_plus_s, v_minus_s


def _cross_down(r: np.ndarray, y: np.ndarray, start: int, level: float) -> float | None:
    """First radius at or after index start where y falls to level."""
    below = np.nonzero(y[start:] <= level)[0]
    if len(below) == 0:
        return None
    j = start + int(below[0])
    if j == start or y[j] == level:
        return float(r[j])
    r0, r1 = r[j - 1], r[j]
    y0, y1 = y[j - 1], y[j]
    return float(r0 + (r1 - r0) * (y0 - level) / (y0 - y1))


def plateau_metrics(traj: Trajectory) -> PlateauMetrics:
    """Threshold radii of g^2 relative to its peak, by linear interpolation.

    Raises InsufficientHorizonError when g^2 never drops below 10% of
    its maximum inside the integrated horizon (non-decaying profile or
    horizon too short), and for degenerate profiles where the 90% and
    10% radii coincide.
    """
    r = traj.r
    gsq = traj.g ** 2
    imax = int(np.argmax(gsq))
    gmax = float(gsq[imax])
    if gmax <= 0.0:
        raise InsufficientHorizonError("g^2 is identically zero")
    radii = []
    for frac in (0.9, 0.5, 0.1):
        rq = _cross_down(r, gsq, imax, frac * gmax)
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


def radial_norm(traj: Trajectory) -> tuple[float, float]:
    """4 pi integral of rho r^2 dr for rho_0 and rho_s, tail-corrected.

    Composite trapezoid on the adaptive samples plus the closed-form
    integral of rho_end * e^{-lambda (r - R)} * r^2 beyond the horizon,
    with lambda = 2 * fitted amplitude decay rate.  The identically zero
    solution has norm (0, 0); any other non-decaying trajectory raises
    DivergentNormError.
    """
    r = traj.r
    rho_s, rho_0 = densities(traj)
    if float(np.max(rho_0)) == 0.0:
        return 0.0, 0.0
    try:
        rate, _C, _resid = fit_decay_rate(traj)
    except NotDecayingError as exc:
        raise DivergentNormError(
            f"no decaying tail to bound the norm: {exc}") from exc
    lam = 2.0 * rate
    r_end = float(r[-1])
    tail_weight = (r_end * r_end / lam + 2.0 * r_end / lam ** 2 + 2.0 / lam ** 3)
    norm_0 = np.trapezoid(rho_0 * r * r, r) + float(rho_0[-1]) * tail_weight
    norm_s = np.trapezoid(rho_s * r * r, r) + float(rho_s[-1]) * tail_weight
    return float(4.0 * math.pi * norm_0), float(4.0 * math.pi * norm_s)


def profile_table(traj: Trajectory, scales: PhysicalScales,
                  params: ModelParams) -> dict[str, np.ndarray]:
    """Column table of the physics profile along the trajectory samples."""
    f, g = traj.f, traj.g
    rho_s, rho_0 = densities(traj)
    s_pot, v_pot, v_plus_s, v_minus_s = potentials(traj, scales, params)
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
