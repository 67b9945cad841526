"""Shooting construction of the decaying ground state.

The regular radial solution is parametrized by x = g(0) (f(0) = 0 is
forced).  Shots are classified by which phase-plane event occurs first;
the set I collects shots whose f vanishes (from below) strictly before
g does.  The ground state sits at x* = sup I.  The indicator "x in I" is
numerically decidable on either side of x* but not at it, so the search
keeps a bracket with x_lo in I and x_hi outside it.  Its first pair is
placed by a law for t* = -ln(1 - x*) against kappa = b/a that joins the
thin-wall limit kappa -> 1/2 to the cubic-NLS limit kappa -> 0
(seed_bracket), and the shots' classes prove it.  ITP root-finding
(_itp) on the miss r_x^2 H(r_x) at the first event, which is linear in
x - x* near x* (see _miss), closes it; the deliverable is a bracket of
width x_tol plus a certified trajectory at the inner endpoint.  Near the
critical line a - 2b = 0, x* lies within an ulp of 1 and the float
bracket is (1 - 2^-53, 1) from the start; the same ITP then goes on
below the float grid in -ln u0, u = 1 - g, from that bracket's InSetI
end, by shots solved in (f, u) (see bisect_ground_state).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .model import (ModelParams, Regime, classify_regime, exact_trivial,
                    trap_energy)
from .integrator import (IntegratorConfig, DEFAULT_CONFIG, EventKind,
                         TerminationKind, Trajectory, integrate_radial,
                         integrate_wall)
from .portrait import winding_count, UndefinedLiftError

__all__ = [
    "ShotClass",
    "ShotOutcome",
    "GroundState",
    "LemmaCheck",
    "LemmaReport",
    "BracketFailureError",
    "default_events",
    "classify_shot",
    "classify_grid",
    "seed_bracket",
    "bisect_ground_state",
    "tail_amplitude",
    "dissipation_residual",
    "audit_lemmas",
]


class BracketFailureError(RuntimeError):
    """The seed found no bracket: its lowest probe, the midpoint of
    (sqrt(b/a), sqrt(2b/a)), was not in I."""


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
    """A bracketed ground state.  decay_rate is the tail's exact rate
    sqrt(b) and decay_C the amplitude of its decaying mode (tail_amplitude)."""

    x_star: float
    bracket: tuple[float, float]
    trajectory: Trajectory
    decay_rate: float
    decay_C: float
    lemma_report: LemmaReport | None

    @property
    def u_star(self) -> float | None:
        """u* = 1 - x*, the certificate's u0 when the search went on below
        the float grid of x (bisect_ground_state) and its trajectory is on
        the (f, u) chart, else None."""
        u = self.trajectory.u
        return None if u is None else float(u[0])


_SIGN_TOL = 1e-10
_F_EVENT_TOL = 1e-9
_SET_I_G_TOL = 1e-8
_SET_I_H_TOL = 1e-8
_TRAP_TOL = 1e-10


def default_events(x0: float, params: ModelParams) -> tuple[EventKind, ...]:
    """Event set for classification at initial value x0 (assumed >= 0).

    FCrossesZero is armed only where membership in I is possible at all,
    i.e. sqrt(b/a) < x0 < 1 where f starts out negative; elsewhere a
    rising f-zero carries no information.  GSquaredReachesOne and
    BlowupCertain are armed for 0 < x0 < 1 (starting on or beyond g^2 = 1
    makes the first meaningless, and the second's proof needs g < 1); a
    shot in BlowupCertain's region would otherwise only reach the Blowup
    threshold later, since no other kind can fire first from there.
    EnergyBarrier is armed only where no ground state exists but the trap
    well does (b < a <= 2b) and FCrossesZero is not armed (0 < x0 <=
    sqrt(b/a)), so it never pre-empts the I / non-I decision of a search.
    """
    sb = math.sqrt(params.b / params.a)
    events = [EventKind.G_CROSSES_ZERO, EventKind.DECAY_DETECTED]
    if sb < x0 < 1.0:
        events.append(EventKind.F_CROSSES_ZERO)
    if 0.0 < x0 < 1.0:
        events += [EventKind.G_SQUARED_REACHES_ONE, EventKind.BLOWUP_CERTAIN]
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


def _classify_wall_shot(u0: float, params: ModelParams,
                       config: IntegratorConfig | None = None) -> ShotOutcome:
    """Classify the shot from g(0) = 1 - u0, 0 < u0 < 1, solved in
    (f, u = 1 - g) by integrate_wall, with the events of a shot from
    sqrt(b/a) < x0 < 1; its x0 is 1 - u0 rounded."""
    traj = integrate_wall(u0, params, config or DEFAULT_CONFIG, _WALL_EVENTS)
    return ShotOutcome(traj.x0, _shot_class(traj, params), traj)


_WALL_EVENTS = (EventKind.F_CROSSES_ZERO, EventKind.G_CROSSES_ZERO,
                EventKind.G_SQUARED_REACHES_ONE)


def _shot_class(traj: Trajectory, params: ModelParams) -> ShotClass:
    """The class of a shot with g(0) > 0 from how its trajectory ended."""
    term = traj.termination
    if (term.kind is not TerminationKind.EVENT
            or term.event_kinds == (EventKind.BLOWUP_CERTAIN,)):
        # a shot that rode within _TRAP_TOL of g^2 = 1 all along is
        # Trapped, whether it reached r_max or blew up
        if float(np.min(traj.g ** 2)) >= 1.0 - _TRAP_TOL:
            return ShotClass.TRAPPED
        if term.kind is TerminationKind.REACHED_RMAX:
            return ShotClass.UNDETERMINED
        return ShotClass.BLOWUP
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


# the constants of _t_law and the seed's spread in t, about twice the
# law's worst error (0.024)
_Q0 = 4.33738768
_LAW_C = (-1.1418, -0.1378, -0.6111)
_LAW_SPREAD = 0.05
_T_WALL = 53.0 * math.log(2.0)      # -ln 2^-53: x = 1 - e^-t rounds to 1 beyond


def _t_law(kappa: float) -> float:
    """Predicted t* = -ln(1 - x*) at kappa = b/a, 0 < kappa < 1/2.

    t_law = 4/e - 2 ln(2 sqrt(2)/e) + Q(0) sqrt(kappa) + c0 + c1 e + c2 e^2
    with e = 1 - 2 kappa.  The first two terms are the thin-wall bounce
    (Coleman, Phys. Rev. D 15, 2929, 1977), which gives t* as kappa -> 1/2;
    the third is the kappa -> 0 limit, where the model reduces to
    g'' + (2/r) g' = b g - a g^3 and x* -> Q(0) sqrt(kappa) with Q the
    3-D cubic NLS ground state.  c0, c1, c2 are a least-squares fit of
    the remainder to the scipy oracle's t* at the 66 kappa of
    bench/reference.json (0.0025 ... 0.45); the law is within 0.024 of
    t* there.
    """
    e = 1.0 - 2.0 * kappa
    c0, c1, c2 = _LAW_C
    return (4.0 / e - 2.0 * math.log(2.0 * math.sqrt(2.0) / e)
            + _Q0 * math.sqrt(kappa) + c0 + c1 * e + c2 * e * e)


def seed_bracket(params: ModelParams,
                 config: IntegratorConfig | None = None
                 ) -> tuple[ShotOutcome, ShotOutcome]:
    """Initial search bracket (lo_out, hi_out): an InSetI shot at lo_out.x0
    and the first shot above it that is not in I.

    The pair is placed by _t_law in t = -ln(1 - x): x = -expm1(-t) at
    t = _t_law(b/a) - d, then at _t_law(b/a) + d, d = _LAW_SPREAD.  The
    lower probe is clamped to [x_floor, 1 - 2^-53], x_floor the midpoint
    of (sqrt(b/a), sqrt(2b/a)), which lies in I for every Supercritical
    pair; the upper probe is x = 1, the exact g == 1 solution and never
    in I, once t passes -ln 2^-53.  A probe on the wrong side of x*
    becomes the other end of the bracket and doubles d on its own side,
    so the classes prove the bracket and a bad law costs shots, never an
    answer.  Every probe is classified like a search shot (horizon
    escalation, then anything but InSetI counts as outside I).
    Near-critical pairs (2b/a close to 1) put sup I within an ulp of 1,
    and the bracket is then (1 - 2^-53, 1) in two shots.
    """
    if classify_regime(params) is not Regime.SUPERCRITICAL:
        raise ValueError("ground-state bracketing requires a - 2b > 0")
    cfg = config or DEFAULT_CONFIG
    kappa = params.b / params.a
    x_floor = 0.5 * (math.sqrt(kappa) + math.sqrt(2.0 * kappa))
    t = _t_law(kappa)
    lo_out = hi_out = None
    d = _LAW_SPREAD
    while lo_out is None:
        x = min(max(-math.expm1(-(t - d)), x_floor), math.nextafter(1.0, 0.0))
        d *= 2.0
        if hi_out is not None and x >= hi_out.x0:
            continue
        out = _classify_escalating(x, params, cfg)
        if out.shot_class is ShotClass.IN_SET_I:
            lo_out = out
        elif x == x_floor:
            raise BracketFailureError(
                f"seed x_lo = {x:.6g} classified {out.shot_class.value}, "
                "expected InSetI; integrator settings are likely too loose")
        else:
            hi_out = out
    d = _LAW_SPREAD
    while hi_out is None:
        x = 1.0 if t + d > _T_WALL else -math.expm1(-(t + d))
        d *= 2.0
        if x <= lo_out.x0:
            continue
        out = _classify_escalating(x, params, cfg)
        if out.shot_class is ShotClass.IN_SET_I:
            lo_out = out
        else:
            hi_out = out
    return lo_out, hi_out


def _classify_escalating(x0: float, params: ModelParams, cfg: IntegratorConfig,
                         shoot=None) -> ShotOutcome:
    """Classify by `shoot` (classify_shot by default, or _classify_wall_shot
    with x0 read as u0), doubling r_max (up to 4x) while the horizon is the
    blocker."""
    shoot = shoot or classify_shot
    out = shoot(x0, params, cfg)
    factor = 2
    while (out.shot_class is ShotClass.UNDETERMINED
           and out.trajectory.termination.kind is TerminationKind.REACHED_RMAX
           and factor <= 4):
        out = shoot(x0, params, replace(cfg, r_max=cfg.r_max * factor))
        factor *= 2
    return out


def _miss(out: ShotOutcome) -> float | None:
    """Signed miss r_x^2 H(r_x) of a shot: negative in I, positive past it.

    Near the origin saddle g solves g'' + (2/r) g' = b g, with solutions
    e^{+-sqrt(b) r}/r, so the first event comes at r_x ~ c + ln(1/|x -
    x*|)/(2 sqrt(b)) and H there scales like (x - x*)/r_x^2; the r_x^2
    factor leaves a miss that is linear in x - x* to about 1%.  A Decayed
    shot sits at x* itself.  Other classes carry no miss (None).
    """
    if out.shot_class in (ShotClass.IN_SET_I, ShotClass.G_VANISHED_FIRST):
        return out.r_x ** 2 * out.H_at_rx
    if out.shot_class is ShotClass.DECAYED:
        return 0.0
    return None


def _itp(lo: float, hi: float, lo_out: ShotOutcome, hi_out: ShotOutcome,
         shoot, tol: float) -> tuple[float, ShotOutcome, float]:
    """Close the bracket lo < hi, shoot(lo) = lo_out in I and shoot(hi) =
    hi_out not, to a width tol by ITP (Oliveira and Takahashi, ACM TOMS
    47(1), 2020) on _miss in the coordinate shoot takes; (lo, lo_out, hi).

    Each step is regula falsi between the ends, truncated toward the
    midpoint and kept tol/4 inside both ends, then projected into the
    ball around the midpoint that bounds the loop at ceil(log2(w0/tol))
    + 1 shots, one more than bisection; the midpoint when an end has no
    miss.  The closing width may exceed tol by two ulps of the bracket's
    larger end, the rounding of the shot points.
    """
    m_lo, m_hi = _miss(lo_out), _miss(hi_out)
    # ITP constants: kappa1 = 0.2/w0, kappa2 = 2, n0 = 1, epsilon = tol/2
    w0 = hi - lo
    n_max = math.ceil(math.log2(w0 / tol)) + 1
    margin = 0.25 * tol
    # each shot point rounds by up to an ulp of the bracket, which the
    # projection passes on; with rho never negative the width after n_max
    # shots is within two such ulps of tol, which the stop test allows
    stop = tol + 2.0 * math.ulp(max(abs(lo), abs(hi)))

    for j in range(200):
        width = hi - lo
        if width <= stop:
            break
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        x = mid
        if m_lo is not None and m_hi is not None and m_lo < m_hi:
            x_f = (m_hi * lo - m_lo * hi) / (m_hi - m_lo)
            sigma = math.copysign(1.0, mid - x_f)
            delta = 0.2 / w0 * width * width
            x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
            x_t = min(max(x_t, lo + margin), hi - margin)
            rho = max(0.5 * tol * 2.0 ** (n_max - j) - 0.5 * width, 0.0)
            x = x_t if abs(x_t - mid) <= rho else mid - sigma * rho
            if not (lo < x < hi):
                x = mid
        out = shoot(x)
        if out.shot_class is ShotClass.IN_SET_I:
            lo, lo_out, m_lo = x, out, _miss(out)
        else:
            hi, m_hi = x, _miss(out)
    return lo, lo_out, hi


def bisect_ground_state(params: ModelParams,
                        config: IntegratorConfig | None = None,
                        x_tol: float = 1e-12) -> GroundState:
    """Bracket sup I to width x_tol (and the two ulps _itp allows for
    rounding) and certify the inner trajectory.

    The search starts from seed_bracket's pair, placed by the law for
    t* = -ln(1 - x*) and proved by the two shots' classes, and closes the
    bracket in x by _itp.  The loop invariant is classify(x_lo) = InSetI
    and classify(x_hi) is anything else; Undetermined shots get a doubled
    horizon (to 4x) and go to the x_hi side if still undecided.  When the
    seed pair is already narrower than x_tol, nothing is shot before the
    final verification shot at the midpoint.  x* itself is not
    numerically attainable, so unless that shot decays with its tail
    departing toward f = 0 (_departs_toward_f_zero), the returned state
    sits at the final x_lo whose InSetI trajectory is the certificate; a
    verification shot outside I, a Decayed one whose tail departs toward
    g = 0 included, becomes x_hi.  The verification shot stays although
    it costs a shot: ITP's last InSetI end may lie nearly a bracket width
    below x*, and at (8, 3.52), where 1 - x* is a third of x_tol,
    certifying that end moved the certificate from 3% to 88% of 1 - x*
    away from x* and its plateau_score from 8.4e-3 to 0.17 off the scipy
    shot from x* (7.52).

    When the bracket is (1 - 2^-53, 1), with no float between, the search
    goes on below the float grid in t = -ln u0, u = 1 - g, by shots solved
    in (f, u) (_classify_wall_shot).  Its one end shot, from the smallest
    normal double, is the certificate, unrefined, if it is in I; else _itp
    closes t to a width x_tol, the relative width x_tol in u, from x_lo's
    own InSetI shot, whose g(0) = 1 - 2^-53 is the same (solved in (f, g),
    its miss is a few percent off, which only steers ITP's first step).
    The certificate is then its last InSetI shot in (f, u), whose u0 is
    u_star, or x_lo's shot if it lands none.
    """
    if x_tol <= 0.0:
        raise ValueError("x_tol must be positive")
    cfg = config or DEFAULT_CONFIG
    lo_out, hi_out = seed_bracket(params, cfg)
    x_lo, cert, x_hi = _itp(lo_out.x0, hi_out.x0, lo_out, hi_out,
                            lambda x: _classify_escalating(x, params, cfg), x_tol)

    x_star = x_lo
    mid = 0.5 * (x_lo + x_hi)
    if x_lo < mid < x_hi:
        ver = _classify_escalating(mid, params, cfg)
        if ver.shot_class is ShotClass.IN_SET_I:
            x_lo = x_star = mid
            cert = ver
        elif ver.shot_class is ShotClass.DECAYED and _departs_toward_f_zero(ver):
            x_star, cert = mid, ver
        else:
            x_hi = mid
    elif x_hi == 1.0:       # the bracket is (1 - 2^-53, 1)
        def shoot(u0):
            return _classify_escalating(u0, params, cfg, _classify_wall_shot)

        u_in, u_out = 2.0 ** -53, sys.float_info.min
        hi_out = shoot(u_out)
        if hi_out.shot_class is ShotClass.IN_SET_I:
            cert = hi_out
        else:
            _, cert, _ = _itp(-math.log(u_in), -math.log(u_out), cert, hi_out,
                              lambda t: shoot(math.exp(-t)), x_tol)

    traj = cert.trajectory
    gs = GroundState(x_star, (x_lo, x_hi), traj, math.sqrt(params.b),
                     tail_amplitude(traj), None)
    return replace(gs, lemma_report=audit_lemmas(gs, params))


def _tail_modes(traj: Trajectory, rows) -> tuple[np.ndarray, np.ndarray]:
    """(k y - y', k y + y') at traj's rows, k = sqrt(b), y = r g.

    Linearized at (0, 0) the flow gives y'' = b y, with y' = g + r f (1 -
    g^2), so y = C e^{-k r} + A e^{k r}, and the two are 2k C e^{-k r}, the
    decaying mode, and 2k A e^{k r}, the growing one, wherever the
    linearization holds.
    """
    k = math.sqrt(traj.params.b)
    r, f, g = traj.r[rows], traj.f[rows], traj.g[rows]
    y = r * g
    dy = g + r * f * (1.0 - g * g)
    return k * y - dy, k * y + dy


def tail_amplitude(traj: Trajectory) -> float:
    """Amplitude C of the decaying mode g ~ C e^{-sqrt(b) r} / r of the tail
    (_tail_modes), whatever the growing mode holds: the median of C over
    the samples with a g^2 <= b/100, where the linearization holds; NaN
    with fewer than two.
    """
    tail = traj.params.a * traj.g ** 2 <= traj.params.b / 100.0
    if np.count_nonzero(tail) < 2:
        return math.nan
    k = math.sqrt(traj.params.b)
    decaying, _ = _tail_modes(traj, tail)
    return float(np.median(decaying / (2.0 * k) * np.exp(k * traj.r[tail])))


def _departs_toward_f_zero(out: ShotOutcome) -> bool:
    """Whether a Decayed shot's growing mode (_tail_modes) is >= 0 at its
    decay event: g then turns back up and f returns to zero from below,
    as from a shot in I, so the shot lies at or below x*; with a negative
    growing mode g goes to zero first and the shot lies past x*."""
    _, growing = _tail_modes(out.trajectory, slice(-1, None))
    return bool(growing[0] >= 0.0)


def _tail_start(r: np.ndarray, amp: np.ndarray) -> int | None:
    """First index of the trailing half (in radius) of the maximal
    strictly-decreasing suffix of amp, decay_bound's window; None when
    that suffix holds fewer than 20 samples."""
    k = len(amp) - 1
    while k > 0 and amp[k - 1] > amp[k]:
        k -= 1
    if len(amp) - k < 20:
        return None
    cut = r[-1] - 0.5 * (r[-1] - r[k])
    return k + int(np.searchsorted(r[k:], cut))


# 5-point Gauss-Legendre nodes and weights on [-1, 1]
_GAUSS_IN = math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_GAUSS_OUT = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_GAUSS_NODES = np.array([-_GAUSS_OUT, -_GAUSS_IN, 0.0, _GAUSS_IN, _GAUSS_OUT])
_W_IN = (322.0 + 13.0 * math.sqrt(70.0)) / 900.0
_W_OUT = (322.0 - 13.0 * math.sqrt(70.0)) / 900.0
_GAUSS_WEIGHTS = np.array([_W_OUT, _W_IN, 128.0 / 225.0, _W_IN, _W_OUT])


def dissipation_residual(traj: Trajectory) -> float:
    """Worst step residual of the dissipation identity over the largest
    step integral.

    Along the radial flow H(r_{i+1}) - H(r_i) = -int (2/r) f^2 (1 - g^2) dr
    exactly between any two rows; each step's integral is summed by
    5-point Gauss-Legendre on the trajectory's interpolant.
    """
    r = traj.r
    if len(r) < 2:
        return 0.0
    half = 0.5 * np.diff(r)
    nodes = ((r[:-1] + half)[:, None] + half[:, None] * _GAUSS_NODES).ravel()
    fs, gs = traj.sample_on(nodes)
    rate = ((2.0 / nodes) * fs * fs * (1.0 - gs * gs)).reshape(-1, len(_GAUSS_NODES))
    loss = half * (rate @ _GAUSS_WEIGHTS)
    scale = float(np.max(np.abs(loss)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(np.diff(traj.H) + loss))) / scale


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
    checks.append(LemmaCheck("energy_dissipation", v <= 1e-8, v, 1e-8))

    # judged on 1 - g^2, which keeps u's precision on the wall chart
    v = float(gsq.max())
    checks.append(LemmaCheck("g_squared_below_one",
                             bool(traj.one_minus_g2.min() > 0.0), v, 1.0))

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

    v = float(np.max(np.abs(f) / math.sqrt(a / 2.0) - g))
    checks.append(LemmaCheck("spinor_ratio_bound", v <= 1e-10, v, 1e-10,
                             note="|f| / sqrt(a/2) <= g"))

    k0 = None if zero else _tail_start(r, amp)
    if zero:
        checks.append(LemmaCheck("decay_bound", True, 0.0, 1.0,
                                 note="identically zero; C = 0"))
    elif k0 is None:
        checks.append(LemmaCheck("decay_bound", False, math.inf, 1e-6,
                                 note="decreasing tail has fewer than 20 samples"))
    else:
        # the pointwise bound amp <= C e^{-K r} always holds with the
        # witnessed constant C = max(amp e^{K r}); the content is that
        # the tail cannot force C to grow, i.e. the envelope amp e^{K r}
        # must not increase across the tail window
        K = params.decay_rate_bound
        env = amp * np.exp(K * r)
        tail = env[k0:]
        if len(tail) > 1:
            growth = float(np.max(np.diff(tail) / np.maximum(tail[:-1], 1e-300)))
        else:
            growth = 0.0
        v = max(growth, 0.0)
        checks.append(LemmaCheck("decay_bound", v <= 1e-6, v, 1e-6,
                                 note=f"holds with C = {float(np.max(env)):.6g}"))

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
