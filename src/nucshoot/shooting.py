"""Shooting construction of the decaying ground state.

The regular radial solution is parametrized by x = g(0) (f(0) = 0 is
forced).  Shots are classified by which phase-plane event occurs first;
the set I collects shots whose f vanishes (from below) strictly before
g does.  The ground state sits at x* = sup I and is approached by
bisection on the indicator "x in I", which is numerically decidable on
either side of x* but not at it: the deliverable is a bracket of width
x_tol plus a certified trajectory at the inner endpoint.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (ModelParams, Regime, classify_regime, energy, exact_trivial,
                    trap_energy)
from .integrator import (IntegratorConfig, DEFAULT_CONFIG, EventKind,
                         TerminationKind, Trajectory, integrate_radial)
from .portrait import winding_count, UndefinedLiftError

__all__ = [
    "ShotClass",
    "ShotOutcome",
    "GroundState",
    "LemmaCheck",
    "LemmaReport",
    "BracketFailureError",
    "PrecisionExhaustedError",
    "NotDecayingError",
    "default_events",
    "classify_shot",
    "classify_grid",
    "seed_bracket",
    "bisect_ground_state",
    "fit_decay_rate",
    "dissipation_residual",
    "audit_lemmas",
]


class BracketFailureError(RuntimeError):
    """The seed scan found no bracket: x_lo left I, or every shot up to an
    ulp below 1 stayed in I, so sup I is not resolvable in double precision."""


class PrecisionExhaustedError(RuntimeError):
    """Bisection exhausted its horizon budget without a certifiable shot."""


class NotDecayingError(RuntimeError):
    """Trajectory tail is not monotonically decreasing; no rate to fit."""


class ShotClass(enum.Enum):
    TRIVIAL_ZERO = "TrivialZero"
    IN_SET_I = "InSetI"
    G_VANISHED_FIRST = "GVanishedFirst"
    TRAPPED = "Trapped"
    ENERGY_TRAPPED = "EnergyTrapped"
    DECAYED = "Decayed"
    BLOWUP = "Blowup"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class ShotOutcome:
    """A classified shot.  r_x, g_at_rx and H_at_rx are the radius, g and H
    at the trajectory's end when the shot stopped on an event, else None."""

    x0: float
    shot_class: ShotClass
    trajectory: Trajectory

    def _at_event(self, value):
        if self.trajectory.termination.kind is TerminationKind.EVENT:
            return float(value[-1])
        return None

    @property
    def r_x(self) -> float | None:
        return self._at_event(self.trajectory.r)

    @property
    def g_at_rx(self) -> float | None:
        return self._at_event(self.trajectory.g)

    @property
    def H_at_rx(self) -> float | None:
        return self._at_event(self.trajectory.H)


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    value: float
    threshold: float
    note: str = ""


@dataclass(frozen=True)
class LemmaReport:
    checks: tuple[LemmaCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> LemmaCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class GroundState:
    x_star: float
    bracket: tuple[float, float]
    trajectory: Trajectory
    decay_rate: float
    decay_C: float
    lemma_report: LemmaReport | None


_SIGN_TOL = 1e-10
_F_EVENT_TOL = 1e-9
_SET_I_G_TOL = 1e-8
_SET_I_H_TOL = 1e-8
_TRAP_TOL = 1e-10


def default_events(x0: float, params: ModelParams) -> tuple[EventKind, ...]:
    """Event set for classification at initial value x0 (assumed >= 0).

    FCrossesZero is armed only where membership in I is possible at all,
    i.e. sqrt(b/a) < x0 < 1 where f starts out negative; elsewhere a
    rising f-zero carries no information.  GSquaredReachesOne is armed
    for 0 < x0 < 1 (starting on or beyond g^2 = 1 makes it meaningless).
    EnergyBarrier is armed only where no ground state exists but the trap
    well does (b < a <= 2b) and FCrossesZero is not armed (0 < x0 <=
    sqrt(b/a)), so it never pre-empts the I / non-I decision of a search.
    """
    sb = math.sqrt(params.b / params.a)
    events = [EventKind.G_CROSSES_ZERO, EventKind.DECAY_DETECTED]
    if sb < x0 < 1.0:
        events.append(EventKind.F_CROSSES_ZERO)
    if 0.0 < x0 < 1.0:
        events.append(EventKind.G_SQUARED_REACHES_ONE)
    if params.b < params.a <= 2.0 * params.b and 0.0 < x0 <= sb:
        events.append(EventKind.ENERGY_BARRIER)
    return tuple(events)


def _verify_set_i(traj: Trajectory) -> bool:
    """Sample-wise sign conditions for InSetI: f < 0, g > 0 on (0, r_x)."""
    f, g = traj.f, traj.g
    if len(f) < 3:
        return False
    interior_f = f[1:-1]
    interior_g = g[1:-1]
    if interior_f.size and (interior_f.max() >= 0.0 or interior_g.min() <= 0.0):
        return False
    return abs(f[-1]) <= _F_EVENT_TOL and g[-1] >= -1e-15


def classify_shot(x0: float, params: ModelParams,
                  config: IntegratorConfig | None = None) -> ShotOutcome:
    """Integrate one shot with the full event set and name what happened.

    Negative x0 is classified through the sign map (f, g) -> (-f, -g),
    which sends solutions to solutions; class names refer to the mapped
    (g > 0) representative.
    """
    cfg = config or DEFAULT_CONFIG
    x0 = float(x0)
    if x0 == 0.0:
        traj = exact_trivial(params, cfg.r_max)
        return ShotOutcome(0.0, ShotClass.TRIVIAL_ZERO, traj)
    if x0 < 0.0:
        out = classify_shot(-x0, params, cfg)
        return ShotOutcome(x0, out.shot_class, out.trajectory.mirrored())
    traj = integrate_radial(x0, params, cfg, default_events(x0, params))
    return ShotOutcome(x0, _shot_class(traj, params), traj)


def _shot_class(traj: Trajectory, params: ModelParams) -> ShotClass:
    """The class of a shot with g(0) > 0 from how its trajectory ended."""
    term = traj.termination
    if term.kind is not TerminationKind.EVENT:
        if float(np.min(traj.g ** 2)) >= 1.0 - _TRAP_TOL:
            return ShotClass.TRAPPED
        if term.kind is TerminationKind.BLOWUP:
            return ShotClass.BLOWUP
        return ShotClass.UNDETERMINED
    if len(term.event_kinds) != 1:
        # simultaneous f- and g-zeros cannot happen away from the origin,
        # so a localization tie is numerical ambiguity
        return ShotClass.UNDETERMINED
    kind = term.event_kinds[0]
    g_rx = float(traj.g[-1])
    H_rx = float(traj.H[-1])
    if kind is EventKind.F_CROSSES_ZERO:
        sb = math.sqrt(params.b / params.a)
        ok = (_verify_set_i(traj)
              and -1e-15 <= g_rx <= sb + _SET_I_G_TOL
              and H_rx <= _SET_I_H_TOL)
        return ShotClass.IN_SET_I if ok else ShotClass.UNDETERMINED
    if kind is EventKind.G_CROSSES_ZERO:
        return ShotClass.G_VANISHED_FIRST
    if kind is EventKind.G_SQUARED_REACHES_ONE:
        return ShotClass.TRAPPED
    if kind is EventKind.DECAY_DETECTED:
        return ShotClass.DECAYED
    # the kind left is EnergyBarrier, certified by H at or below the trap
    # level inside the strip
    ok = 0.0 < g_rx < 1.0 and H_rx <= trap_energy(params)
    return ShotClass.ENERGY_TRAPPED if ok else ShotClass.UNDETERMINED


def classify_grid(params: ModelParams, xs,
                  config: IntegratorConfig | None = None) -> list[ShotOutcome]:
    return [classify_shot(float(x), params, config) for x in xs]


_SEED_NON_I = (ShotClass.G_VANISHED_FIRST, ShotClass.TRAPPED,
               ShotClass.BLOWUP, ShotClass.DECAYED)
_SCAN_STEP = 1e-2      # first linear seed-scan step, refined tenfold twice
_SCAN_DELTA = 1e-6     # the linear scan stops at 1 - _SCAN_DELTA
_FIT_WINDOW = 0.5      # decay fit: trailing fraction of the decreasing tail


def seed_bracket(params: ModelParams,
                 config: IntegratorConfig | None = None) -> tuple[ShotOutcome, float]:
    """Initial bisection bracket (lo_out, x_hi): the InSetI shot at x_lo =
    lo_out.x0, and x_hi not in I.

    x_lo is the midpoint of (sqrt(b/a), sqrt(2b/a)), which lies in I for
    every Supercritical parameter pair; x_hi is found by scanning upward
    from sqrt(2b/a) toward 1 - _SCAN_DELTA in steps of _SCAN_STEP,
    refining the step tenfold (twice) if no definitive non-I shot appears.
    Each refinement resumes at the largest InSetI abscissa already seen.

    Near-critical pairs (2b/a close to 1) push sup I so close to 1 that
    no fixed-step scan below 1 - _SCAN_DELTA can see past it; when the
    linear scan comes up empty the search switches to a geometric
    approach, probing x = 1 - _SCAN_DELTA/10^k until the class flips or
    the probes run out of floats strictly below 1.
    """
    if classify_regime(params) is not Regime.SUPERCRITICAL:
        raise ValueError("ground-state bracketing requires a - 2b > 0")
    cfg = config or DEFAULT_CONFIG
    sb = math.sqrt(params.b / params.a)
    s2b = math.sqrt(2.0 * params.b / params.a)
    x_lo = 0.5 * (sb + s2b)
    lo_out = classify_shot(x_lo, params, cfg)
    if lo_out.shot_class is not ShotClass.IN_SET_I:
        raise BracketFailureError(
            f"seed x_lo = {x_lo:.6g} classified {lo_out.shot_class.value}, "
            "expected InSetI; integrator settings are likely too loose")
    step = _SCAN_STEP
    fallback = None
    resume = s2b
    for _ in range(3):
        x = resume + step
        while x < 1.0 - _SCAN_DELTA:
            out = classify_shot(x, params, cfg)
            if out.shot_class in _SEED_NON_I:
                return lo_out, x
            if out.shot_class is ShotClass.IN_SET_I:
                resume = x
            elif fallback is None:
                fallback = x
            x += step
        step /= 10.0
    gap = _SCAN_DELTA
    prev = resume
    while True:
        gap /= 10.0
        x = 1.0 - gap
        if not prev < x < 1.0:
            break
        out = classify_shot(x, params, cfg)
        if out.shot_class in _SEED_NON_I:
            return lo_out, x
        if out.shot_class is ShotClass.UNDETERMINED and fallback is None:
            fallback = x
        prev = x
    if fallback is not None:
        return lo_out, fallback
    raise BracketFailureError(
        "every shot up to one ulp below 1 stayed in I: sup I is closer to 1 "
        "than double precision resolves")


def _classify_escalating(x0: float, params: ModelParams,
                         cfg: IntegratorConfig) -> ShotOutcome:
    """Classify, doubling r_max (up to 4x) while the horizon is the blocker."""
    out = classify_shot(x0, params, cfg)
    factor = 2
    while (out.shot_class is ShotClass.UNDETERMINED
           and out.trajectory.termination.kind is TerminationKind.REACHED_RMAX
           and factor <= 4):
        out = classify_shot(x0, params, replace(cfg, r_max=cfg.r_max * factor))
        factor *= 2
    return out


def bisect_ground_state(params: ModelParams,
                        config: IntegratorConfig | None = None,
                        x_tol: float = 1e-12) -> GroundState:
    """Bracket sup I to width x_tol and certify the inner trajectory.

    The loop invariant is classify(x_lo) = InSetI and classify(x_hi) is
    anything else; Undetermined midpoints get a doubled horizon (to 4x)
    and go to the x_hi side if still undecided.  x* itself is not
    numerically attainable, so unless the final midpoint shot decays
    outright, the returned state sits at the final x_lo whose InSetI
    trajectory is the certificate.
    """
    if x_tol <= 0.0:
        raise ValueError("x_tol must be positive")
    cfg = config or DEFAULT_CONFIG
    lo_out, x_hi = seed_bracket(params, cfg)
    x_lo = lo_out.x0

    for _ in range(200):
        if x_hi - x_lo <= x_tol:
            break
        mid = 0.5 * (x_lo + x_hi)
        if not (x_lo < mid < x_hi):
            break
        out = _classify_escalating(mid, params, cfg)
        if out.shot_class is ShotClass.IN_SET_I:
            x_lo, lo_out = mid, out
        else:
            x_hi = mid

    mid = 0.5 * (x_lo + x_hi)
    ver = _classify_escalating(mid, params, cfg) if x_lo < mid < x_hi else None
    if ver is not None and ver.shot_class is ShotClass.DECAYED:
        x_star, cert = mid, ver
    elif ver is not None and ver.shot_class is ShotClass.IN_SET_I:
        x_lo, lo_out = mid, ver
        x_star, cert = x_lo, lo_out
    else:
        x_star, cert = x_lo, lo_out
    if cert.shot_class not in (ShotClass.IN_SET_I, ShotClass.DECAYED):
        raise PrecisionExhaustedError(
            f"no certifiable trajectory inside bracket ({x_lo!r}, {x_hi!r})")

    rate, prefactor, _residual = fit_decay_rate(cert.trajectory)
    gs = GroundState(x_star, (x_lo, x_hi), cert.trajectory, rate, prefactor, None)
    return replace(gs, lemma_report=audit_lemmas(gs, params))


def fit_decay_rate(traj: Trajectory):
    """Log-linear tail fit of |f| + |g|: returns (rate, prefactor, residual).

    The fit window is the trailing half (in radius) of the maximal
    strictly-decreasing suffix of |f| + |g|; at least 20 samples must
    land in it.
    """
    r = traj.r
    amp = np.abs(traj.f) + np.abs(traj.g)
    if amp.max() == 0.0:
        raise NotDecayingError("trajectory is identically zero")
    k0 = _tail_start(r, amp)
    rs = r[k0:]
    ls = np.log(amp[k0:])
    if len(rs) < 20:
        raise NotDecayingError(
            f"fit window holds only {len(rs)} samples (need 20)")
    slope, intercept = np.polyfit(rs, ls, 1)
    if slope >= 0.0:
        raise NotDecayingError("tail fit slope is nonnegative")
    resid = float(np.sqrt(np.mean((ls - (slope * rs + intercept)) ** 2)))
    return float(-slope), float(math.exp(intercept)), resid


def _tail_start(r: np.ndarray, amp: np.ndarray) -> int:
    """First index of the trailing _FIT_WINDOW fraction (in radius) of the
    maximal strictly-decreasing suffix of amp, the decay-fit window."""
    k = len(amp) - 1
    while k > 0 and amp[k - 1] > amp[k]:
        k -= 1
    if len(amp) - k < 20:
        raise NotDecayingError(
            f"decreasing tail has only {len(amp) - k} samples (need 20)")
    cut = r[-1] - _FIT_WINDOW * (r[-1] - r[k])
    return k + int(np.searchsorted(r[k:], cut))


def dissipation_residual(traj: Trajectory) -> float:
    """Sup-norm ratio of d/dr H against -(2/r) f^2 (1 - g^2).

    Measured on a uniform resampling with central differences, masked to
    |f| > 1e-6: below that the identity's terms sit at the double-
    precision roundoff floor of H itself and pointwise ratios are noise.
    """
    span = traj.r_end - float(traj.r[0])
    if span <= 0.0:
        return 0.0
    dr = min(5e-3, span / 400.0)
    rs, fs, gs = traj.resample(dr)
    if len(rs) < 5:
        return 0.0
    H = energy(fs, gs, traj.params)
    dH = (H[2:] - H[:-2]) / (2.0 * dr)
    r_mid = rs[1:-1]
    f_mid = fs[1:-1]
    g_mid = gs[1:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs = np.where(r_mid > 0.0, -(2.0 / r_mid) * f_mid ** 2 * (1.0 - g_mid ** 2), 0.0)
    mask = (np.abs(f_mid) > 1e-6) & (r_mid > 0.0)
    if not mask.any():
        return 0.0
    scale = np.max(np.abs(rhs[mask]))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(dH[mask] - rhs[mask])) / scale)


def audit_lemmas(gs: GroundState, params: ModelParams) -> LemmaReport:
    """Named verification checks along a (candidate) ground-state trajectory.

    Failures are report entries, never exceptions; auditing the exact
    non-decaying solutions is legitimate and reports their violations.
    """
    traj = gs.trajectory
    a, b = params.a, params.b
    f, g, H, r = traj.f, traj.g, traj.H, traj.r
    gsq = g * g
    fsq = f * f
    amp = np.abs(f) + np.abs(g)
    zero = bool(amp.max() == 0.0)
    checks: list[LemmaCheck] = []

    v = dissipation_residual(traj)
    checks.append(LemmaCheck("energy_dissipation", v <= 1e-4, v, 1e-4))

    v = float(gsq.max())
    checks.append(LemmaCheck("g_squared_below_one", v < 1.0, v, 1.0))

    v = float(fsq.max())
    checks.append(LemmaCheck("f_squared_bounded", v < a - b if a > b else False,
                             v, a - b))

    if classify_regime(params) is Regime.SUPERCRITICAL:
        margin = float(np.max(2.0 * fsq - a * gsq - (a - 2.0 * b)))
        ok = margin <= 1e-10 and float(gsq.max()) <= 1.0 + 1e-12
        checks.append(LemmaCheck("admissible_membership", ok, margin, 1e-10))
    else:
        checks.append(LemmaCheck("admissible_membership", False, math.nan, 1e-10,
                                 note="admissible set undefined for a <= 2b"))

    v = float(np.max(np.diff(H))) if len(H) > 1 else 0.0
    checks.append(LemmaCheck("energy_nonincreasing", v <= 1e-10, v, 1e-10))

    worst_sign = float(max(f[1:].max() if len(f) > 1 else 0.0, -g.min()))
    checks.append(LemmaCheck("sign_conditions", worst_sign <= _SIGN_TOL,
                             worst_sign, _SIGN_TOL))

    v = float(np.max(np.abs(f) - math.sqrt(a / 2.0) * g))
    checks.append(LemmaCheck("spinor_ratio_bound", v <= 1e-10, v, 1e-10,
                             note="|f| <= sqrt(a/2) g"))

    K = params.decay_rate_bound
    if zero:
        checks.append(LemmaCheck("decay_bound", True, 0.0, 1.0,
                                 note="identically zero; C = 0"))
        checks.append(LemmaCheck("decay_rate_bound", True, math.inf, K - 0.05,
                                 note="vacuous for the zero solution"))
    else:
        try:
            rate, _pref, resid = fit_decay_rate(traj)
            # the pointwise bound amp <= C e^{-K r} always holds with the
            # witnessed constant C = max(amp e^{K r}); the content is that
            # the tail cannot force C to grow, i.e. the envelope amp e^{K r}
            # must not increase across the fitted tail window
            env = amp * np.exp(K * r)
            c_global = float(np.max(env))
            tail = env[_tail_start(r, amp):]
            if len(tail) > 1:
                growth = float(np.max(np.diff(tail) / np.maximum(tail[:-1], 1e-300)))
            else:
                growth = 0.0
            v = max(growth, 0.0)
            checks.append(LemmaCheck("decay_bound", v <= 1e-6, v, 1e-6,
                                     note=f"holds with C = {c_global:.6g}; "
                                          f"fit residual {resid:.2e}"))
            checks.append(LemmaCheck("decay_rate_bound", rate >= K - 0.05,
                                     rate, K - 0.05))
        except NotDecayingError as exc:
            checks.append(LemmaCheck("decay_bound", False, math.inf, 1e-6,
                                     note=str(exc)))
            checks.append(LemmaCheck("decay_rate_bound", False, math.nan,
                                     K - 0.05, note=str(exc)))

    if zero:
        checks.append(LemmaCheck("winding_zero", True, 0.0, 0.0,
                                 note="vacuous for the zero solution"))
    else:
        try:
            n_wind, _ = winding_count(traj, float(r[1]), float(r[-1]))
            checks.append(LemmaCheck("winding_zero", n_wind == 0, float(n_wind), 0.0))
        except UndefinedLiftError as exc:
            checks.append(LemmaCheck("winding_zero", False, math.nan, 0.0,
                                     note=str(exc)))

    return LemmaReport(tuple(checks))
