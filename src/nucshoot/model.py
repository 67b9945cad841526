"""Model definitions for the radial two-amplitude nucleon system.

The state is a phase-plane point (f, g) where g is the upper radial
amplitude and f the lower one.  The radial system

    f' + (2/r) f = g (f^2 - a g^2 + b),      g' = f (1 - g^2),

with couplings a, b > 0, has a removable singularity at r = 0 forced by
regularity (f(0) = 0, g(0) = x).  Dropping the 2f/r friction term gives
the autonomous companion system, which is Hamiltonian with energy

    H(f, g) = f^2 (1 - g^2) / 2 + a g^4 / 4 - b g^2 / 2.

This module holds the parameter container with its regime taxonomy, the
vector field, the energy with its trap level, the critical-point catalog
and the two closed-form solutions (the zero solution and the g == 1
hyperbolic-cotangent profile).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "Regime",
    "PointKind",
    "ModelParams",
    "PhasePoint",
    "CriticalPoint",
    "classify_regime",
    "vector_field",
    "energy",
    "trap_energy",
    "critical_points",
    "exact_trivial",
    "exact_coth",
]

# Tolerance band used to flag near-critical coupling combinations; exact
# floating-point equality on a == 2b or a == b would be meaningless.
REGIME_TOL = 1e-12


class Regime(enum.Enum):
    """Coupling regimes of the pair (a, b)."""

    SUPERCRITICAL = "Supercritical"     # a - 2b > 0: decaying states possible
    CRITICAL = "Critical"               # a = 2b
    SUBCRITICAL_AB = "SubcriticalAB"    # b < a < 2b
    DEGENERATE = "Degenerate"           # a = b
    SUBCRITICAL = "Subcritical"         # a < b


class PointKind(enum.Enum):
    LOCAL_MIN = "LocalMin"
    SADDLE = "Saddle"


@dataclass(frozen=True)
class ModelParams:
    """Coupling pair (a, b); a scales the quartic term, b the eigenvalue term."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("couplings must be finite")
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError("couplings a, b must be strictly positive")

    @property
    def decay_rate_bound(self) -> float:
        """Guaranteed exponential decay rate min{b/2, (2a-b)/(2a)}.

        Positive whenever 2a > b; callers in other regimes get the raw
        (possibly nonpositive) value and must check.
        """
        return min(self.b / 2.0, (2.0 * self.a - self.b) / (2.0 * self.a))


@dataclass(frozen=True)
class PhasePoint:
    """Phase-plane point (f, g), optionally tagged with its radius r."""

    f: float
    g: float
    r: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.f) and math.isfinite(self.g)):
            raise ValueError("phase point components must be finite")
        if self.r is not None and not (math.isfinite(self.r) and self.r >= 0.0):
            raise ValueError("radius must be finite and nonnegative")


@dataclass(frozen=True)
class CriticalPoint:
    location: PhasePoint
    kind: PointKind


def classify_regime(params: ModelParams) -> Regime:
    """Bucket (a, b) by the sign structure of a - 2b and a - b.

    A tolerance band of width REGIME_TOL around the degenerate lines makes the
    classification robust to round-off in derived parameter values.
    """
    a, b = params.a, params.b
    d2 = a - 2.0 * b
    if d2 > REGIME_TOL:
        return Regime.SUPERCRITICAL
    if abs(d2) <= REGIME_TOL:
        return Regime.CRITICAL
    d1 = a - b
    if abs(d1) <= REGIME_TOL:
        return Regime.DEGENERATE
    if d1 > REGIME_TOL:
        return Regime.SUBCRITICAL_AB
    return Regime.SUBCRITICAL


def vector_field(params: ModelParams, rho: float = 0.0):
    """The field (f', g') with friction 2/(rho + r), as a closure deriv(r, f, g).

    Exact in IEEE arithmetic for all three flows: rho = 0 is the radial
    system (r > 0), rho > 0 the shifted one, rho = inf the companion one,
    whose field is (-dH/dg, dH/df) with H = `energy`.
    """
    a, b = params.a, params.b

    def deriv(r, f, g):
        return (-(2.0 / (rho + r)) * f + g * (f * f - a * g * g + b),
                f * (1.0 - g * g))

    return deriv


def energy(f, g, params: ModelParams):
    """H(f, g) of the companion system; f and g may be floats or arrays."""
    f2 = f * f
    g2 = g * g
    return 0.5 * f2 * (1.0 - g2) + 0.25 * params.a * g2 * g2 - 0.5 * params.b * g2


# Margin below the trap level, like shooting's set-I energy tolerance: a
# shot whose H only touches the level within round-off is not trapped.
_TRAP_MARGIN = 1e-8


def trap_energy(params: ModelParams) -> float:
    """H_trap = min(0, (a - 2b)/4) minus a 1e-8 margin.

    While g^2 <= 1, H does not increase along radial shots; H >= 0 on the
    line g = 0 and H = (a - 2b)/4 on g^2 = 1.  So a shot inside 0 < g < 1
    whose H falls below H_trap stays in a compact well there for good: it
    never reaches g = 0, never decays to (0, 0) (H = 0) and never blows up.
    The well is empty for a <= b.
    """
    return min(0.0, 0.25 * (params.a - 2.0 * params.b)) - _TRAP_MARGIN


def critical_points(params: ModelParams) -> list[CriticalPoint]:
    """Stationary points of H with their type.

    For a > b: a saddle at the origin, minima at (0, +/-sqrt(b/a)) and
    saddles at (+/-sqrt(a-b), +/-1).  For a == b the outer points collide
    at (0, +/-1); H is constant along g = +/-1 there, so the collided
    points are degenerate and labeled saddles.  For a < b all three
    stationary points are saddles.
    """
    a, b = params.a, params.b
    pts = [CriticalPoint(PhasePoint(0.0, 0.0), PointKind.SADDLE)]
    g_in = math.sqrt(b / a)
    if a > b:
        for s in (+1.0, -1.0):
            pts.append(CriticalPoint(PhasePoint(0.0, s * g_in), PointKind.LOCAL_MIN))
        fc = math.sqrt(a - b)
        for sf in (+1.0, -1.0):
            for sg in (+1.0, -1.0):
                pts.append(CriticalPoint(PhasePoint(sf * fc, sg * 1.0), PointKind.SADDLE))
    elif a == b:
        for s in (+1.0, -1.0):
            pts.append(CriticalPoint(PhasePoint(0.0, s * 1.0), PointKind.SADDLE))
    else:
        for s in (+1.0, -1.0):
            pts.append(CriticalPoint(PhasePoint(0.0, s * g_in), PointKind.SADDLE))
    return pts


def exact_trivial(params: ModelParams, r_max: float = 200.0):
    """The identically-zero solution as a Trajectory, 201 samples on [0, r_max]."""
    from .integrator import Trajectory, Termination, TerminationKind
    import numpy as np

    r = np.linspace(0.0, r_max, 201)
    z = np.zeros_like(r)
    term = Termination(TerminationKind.REACHED_RMAX, r_max)
    return Trajectory(r, z.copy(), z.copy(), params, 0.0, term)


# Switch radius below which 1/r - sqrt(a-b)*coth(...) is evaluated by its
# Taylor form; direct evaluation suffers catastrophic cancellation there.
_COTH_TAYLOR_RADIUS = 1e-4


def exact_coth(r: float, params: ModelParams) -> PhasePoint:
    """Closed-form non-decaying solution with g == 1 (requires a > b).

    f(r) = 1/r - sqrt(a-b) * coth(sqrt(a-b) * r), continuously extended by
    f(0) = 0; f tends to -sqrt(a-b) as r grows.
    """
    a, b = params.a, params.b
    if a - b <= 0.0:
        raise ValueError("the g == 1 profile requires a > b")
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    k = math.sqrt(a - b)
    if r < _COTH_TAYLOR_RADIUS:
        # 1/r - k*coth(k r) = -(k^2) r / 3 + k^4 r^3 / 45 + O(r^5)
        k2 = a - b
        f = -k2 * r / 3.0 + k2 * k2 * r ** 3 / 45.0
    else:
        f = 1.0 / r - k / math.tanh(k * r)
    return PhasePoint(f, 1.0, r)
