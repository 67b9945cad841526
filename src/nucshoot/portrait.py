"""Phase-plane analytics for the companion system.

Level sets of the energy H(f, g) = C form the quartic curve

    a g^4 - 2 (f^2 + b) g^2 + 2 f^2 - 4 C = 0,

solvable for g^2 by the quadratic formula.  This module samples those
branches on their exact domains, builds the admissible region

    A = { (f, g) : 2 f^2 - a g^2 - (a - 2b) <= 0,  g^2 <= 1 },

and provides the winding-number diagnostic used to certify that a
trajectory never rotates around the origin.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, PhasePoint, Regime, classify_regime, energy

__all__ = [
    "Branch",
    "LevelSetCurve",
    "UndefinedLiftError",
    "discriminant",
    "branch_functions",
    "branch_domains",
    "level_curves",
    "zero_contour",
    "admissible_contains",
    "admissible_region",
    "winding_count",
    "energy_sign_grid",
]


class Branch(enum.Enum):
    H1_PLUS = "H1Plus"
    H1_MINUS = "H1Minus"
    H2_PLUS = "H2Plus"
    H2_MINUS = "H2Minus"


class UndefinedLiftError(RuntimeError):
    """Angle lift requested along a trajectory that meets the origin."""


@dataclass(frozen=True)
class LevelSetCurve:
    level: float
    branch: Branch
    samples: np.ndarray            # shape (n, 2), columns (f, g)
    domain: tuple[tuple[float, float], ...]


def discriminant(f: float, level: float, params: ModelParams) -> float:
    """h_C(f) = (f^2+b)^2 - 2a(f^2 - 2C); branches are real iff >= 0."""
    s = f * f
    return (s + params.b) ** 2 - 2.0 * params.a * (s - 2.0 * level)


def branch_functions(f: float, level: float, params: ModelParams):
    """g >= 0 branch values (h1, h2) of the level-C curve at abscissa f.

    h1 carries the + root of the quadratic in g^2 and h2 the - root.
    Returns None when the discriminant is negative (no real branch);
    h2 alone is None when its radicand f^2 + b - sqrt(h_C) is negative,
    which happens exactly for f^2 < 2C.
    """
    hc = discriminant(f, level, params)
    if hc < 0.0:
        return None
    root = math.sqrt(hc)
    s = f * f
    h1 = math.sqrt((s + params.b + root) / params.a)
    inner = s + params.b - root
    h2 = math.sqrt(max(0.0, inner) / params.a) if inner >= -1e-12 * (1.0 + abs(s)) else None
    return h1, h2


def _disc_roots(level: float, params: ModelParams):
    """Roots in s = f^2 of h_C = 0, or None when h_C > 0 for all f."""
    a, b = params.a, params.b
    rad = a * (a - 2.0 * b - 4.0 * level)
    if rad <= 0.0:
        return None
    root = math.sqrt(rad)
    return (a - b) - root, (a - b) + root


def branch_domains(level: float, params: ModelParams):
    """f >= 0 intervals where each branch is real: (h1 intervals, h2 intervals).

    Mirrored to f < 0 by symmetry.  Intervals are exact from the
    closed-form roots of the discriminant, so thin slivers near double
    roots are never lost to sampling.
    """
    roots = _disc_roots(level, params)
    if roots is None:
        h1_iv = ((0.0, math.inf),)
    else:
        s_lo, s_hi = roots
        if s_lo <= 0.0:
            h1_iv = ((math.sqrt(max(0.0, s_hi)), math.inf),)
        else:
            h1_iv = ((0.0, math.sqrt(s_lo)), (math.sqrt(s_hi), math.inf))
    # h2 additionally needs f^2 >= 2C
    f_min2 = math.sqrt(2.0 * level) if level > 0.0 else 0.0
    h2_iv = tuple((max(lo, f_min2), hi) for lo, hi in h1_iv if hi > f_min2)
    return h1_iv, h2_iv


def _sample_branch(level, params, branch, lo, hi, n):
    fs = np.linspace(lo, hi, n)
    pts = []
    for f in fs:
        pair = branch_functions(float(f), level, params)
        if pair is None:
            continue
        h1, h2 = pair
        if branch in (Branch.H1_PLUS, Branch.H1_MINUS):
            g = h1
        else:
            if h2 is None:
                continue
            g = h2
        if branch in (Branch.H1_MINUS, Branch.H2_MINUS):
            g = -g
        pts.append((f, g))
    return np.array(pts) if pts else np.empty((0, 2))


def level_curves(params: ModelParams, levels, resolution: int = 200) -> list[LevelSetCurve]:
    """Sampled branches of the level curves for each requested C.

    Unbounded branches are cut at |f| = 1.25 max(sqrt(a), finite domain
    ends) + 0.5, past every feature of the curve.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2 samples")
    curves: list[LevelSetCurve] = []
    for level in levels:
        level = float(level)
        h1_iv, h2_iv = branch_domains(level, params)
        finite = [iv[0] for iv in h1_iv] + [iv[1] for iv in h1_iv if math.isfinite(iv[1])]
        cap = max(finite + [math.sqrt(params.a)]) * 1.25 + 0.5
        for branch, ivs in ((Branch.H1_PLUS, h1_iv), (Branch.H1_MINUS, h1_iv),
                            (Branch.H2_PLUS, h2_iv), (Branch.H2_MINUS, h2_iv)):
            dom = []
            for lo, hi in ivs:
                hi_eff = min(hi, cap)
                if hi_eff <= lo:
                    continue
                dom.append((lo, hi_eff))
            # mirror to negative f; each connected piece is its own curve
            pieces = [(-hi, -lo) for lo, hi in reversed(dom) if lo > 0.0] + \
                     [(-hi, hi) if lo == 0.0 else (lo, hi) for lo, hi in dom]
            dom_t = tuple(pieces)
            for lo, hi in pieces:
                pts = _sample_branch(level, params, branch, lo, hi, resolution)
                if len(pts):
                    curves.append(LevelSetCurve(level, branch, pts, dom_t))
    return curves


def zero_contour(params: ModelParams, resolution: int = 200) -> list[LevelSetCurve]:
    """Branches of the zero-energy curve.

    At a = 2b the quartic factors as (b g^2 - f^2)(g^2 - 1) = 0 and the
    generic branch formulas develop a corner where the factors cross, so
    the four lines g = +-1, g = +-f/sqrt(b) are emitted directly, for
    |f| <= 1.25 sqrt(a) + 0.5.
    """
    if classify_regime(params) is Regime.CRITICAL:
        cap = math.sqrt(params.a) * 1.25 + 0.5
        fs = np.linspace(-cap, cap, max(2, resolution))
        rb = math.sqrt(params.b)
        dom = ((-cap, cap),)
        flat = np.ones_like(fs)
        return [
            LevelSetCurve(0.0, Branch.H1_PLUS, np.column_stack([fs, flat]), dom),
            LevelSetCurve(0.0, Branch.H1_MINUS, np.column_stack([fs, -flat]), dom),
            LevelSetCurve(0.0, Branch.H2_PLUS, np.column_stack([fs, fs / rb]), dom),
            LevelSetCurve(0.0, Branch.H2_MINUS, np.column_stack([fs, -fs / rb]), dom),
        ]
    return level_curves(params, [0.0], resolution)


def admissible_contains(p: PhasePoint, params: ModelParams) -> bool:
    """Membership in A; defined for the Supercritical regime only.

    The boundary comparison carries a relative epsilon so that corner
    points like (sqrt(a-b), 1), whose margin is a rounding residual away
    from zero, test as members.
    """
    if classify_regime(params) is not Regime.SUPERCRITICAL:
        raise ValueError("admissible set is defined only for a - 2b > 0")
    f2 = 2.0 * p.f * p.f
    ag2 = params.a * p.g * p.g
    gap = params.a - 2.0 * params.b
    margin = f2 - ag2 - gap
    scale = f2 + ag2 + gap
    return margin <= 1e-12 * scale and p.g * p.g <= 1.0 + 1e-14


def admissible_region(params: ModelParams, resolution: int = 200) -> np.ndarray:
    """Closed boundary polyline of A, columns (f, g), corners at (+-sqrt(a-b), +-1).

    The left/right edges are the hyperbola 2f^2 = a g^2 + (a - 2b) for
    g in [-1, 1]; the top/bottom edges are the segments g = +-1 with
    |f| <= sqrt(a-b).
    """
    if classify_regime(params) is not Regime.SUPERCRITICAL:
        raise ValueError("admissible set is defined only for a - 2b > 0")
    a, b = params.a, params.b
    fc = math.sqrt(a - b)
    n = max(2, resolution)
    gs = np.linspace(-1.0, 1.0, n)
    f_arc = np.sqrt((a * gs * gs + (a - 2.0 * b)) / 2.0)
    right = np.column_stack([f_arc, gs])                    # g: -1 -> 1
    top = np.column_stack([np.linspace(fc, -fc, n), np.ones(n)])
    left = np.column_stack([-f_arc[::-1], gs[::-1]])        # g: 1 -> -1
    bottom = np.column_stack([np.linspace(-fc, fc, n), -np.ones(n)])
    return np.vstack([right, top, left, bottom, right[:1]])


_MAX_REFINE = 16           # winding_count's midpoint-refinement rounds
_SIGN_GRID_N = 64          # energy_sign_grid's points per axis


def winding_count(traj, r1: float, r2: float):
    """Winding diagnostic on [r1, r2]: (N, lift) with lift columns (r, theta).

    theta(r) = -arctan(f/g) lifted continuously; N is the lifted
    increment over pi, which equals the number of g-roots crossed.  The
    sample set is refined through the dense interpolant (at most
    _MAX_REFINE times) until, on every interval, traj.drift_bound is
    below the distance of the farther end from the origin: the orbit then
    stays inside a disc about that end that the origin sees under less
    than pi, so it turns by less than pi/2 there.  np.unwrap folds a turn
    of more than pi between two samples into a short jump of the other
    sign, so the jumps of the samples alone cannot show a coarse sampling
    of a fast turn.
    """
    mask = (traj.r >= r1 - 1e-15) & (traj.r <= r2 + 1e-15)
    if mask.sum() < 2:
        raise ValueError("window [r1, r2] must contain at least two samples")
    rs, fs, gs = traj.r[mask], traj.f[mask], traj.g[mask]

    for _ in range(_MAX_REFINE):
        if np.min(np.abs(fs) + np.abs(gs)) <= 1e-10:
            raise UndefinedLiftError(
                "trajectory passes within 1e-10 of the origin; angle lift undefined")
        size = np.hypot(fs, gs)
        bad = np.nonzero(traj.drift_bound(rs) >= np.maximum(size[:-1], size[1:]))[0]
        if len(bad) == 0:
            theta = np.unwrap(np.arctan2(-fs, gs))
            n = int(round((theta[-1] - theta[0]) / math.pi))
            return n, np.column_stack([rs, theta])
        # insert a midpoint into every interval that may turn too far and retry
        r_mid = 0.5 * (rs[bad] + rs[bad + 1])
        f_mid, g_mid = traj.sample_on(r_mid)
        rs = np.insert(rs, bad + 1, r_mid)
        fs = np.insert(fs, bad + 1, f_mid)
        gs = np.insert(gs, bad + 1, g_mid)
    raise RuntimeError("winding lift did not stabilize under refinement")


def energy_sign_grid(params: ModelParams, f_range: tuple[float, float],
                     g_range: tuple[float, float]):
    """H on a regular 64 x 64 grid, for sign shading in plots."""
    fs = np.linspace(f_range[0], f_range[1], _SIGN_GRID_N)
    gs = np.linspace(g_range[0], g_range[1], _SIGN_GRID_N)
    F, G = np.meshgrid(fs, gs)
    return fs, gs, energy(F, G, params)
