"""Adaptive embedded Runge-Kutta integration for the radial system.

A classic Dormand-Prince 5(4) pair drives all three flows (singular
radial, autonomous companion, shifted-friction): they are the one field
`model.vector_field` at friction shift rho = 0, inf and rho > 0.  Step
size is governed by a proportional-integral controller on the embedded
error estimate; every accepted step stores a quartic dense-output
segment so events can be localized by bracketed root solving on the
interpolant and trajectories can be resampled at arbitrary radii.  The
step is straight-line float arithmetic: the quartic's coefficients are
explicit sums over the nonzero entries of the dense-output matrix _P.

Every event fires on the first accepted step where its value falls
through zero (see EventKind).  Events are scanned at the step's ends and
three quarter points of the quartic.  The quartic moves f by at most
e_f = h (|qf0| + |qf1| + |qf2| + |qf3|) inside the step, and g by e_g
likewise; from that box each event kind has a spread, a bound on how far
its value moves.  A kind's quarter-point probes are skipped where its
value keeps one strict sign at both ends and exceeds 4 spreads at the
start, since no probe can then change its sign; the probes are computed
only if some kind is not skipped.  The skip changes no result bit.

The r = 0 singularity of the radial system is never evaluated: the run
starts at the hand-off radius R_START = 1e-6 from the second-order Taylor
state of the regular solution,

    f(r) = f'(0) r + O(r^3),        f'(0) = x (b - a x^2) / 3,
    g(r) = x + f'(0) (1 - x^2) r^2 / 2 + O(r^4),

whose truncation error there sits far below the absolute tolerance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import ModelParams, PhasePoint, energy, trap_energy, vector_field

__all__ = [
    "IntegratorConfig",
    "EventKind",
    "TerminationKind",
    "Termination",
    "Trajectory",
    "StiffnessError",
    "series_start",
    "integrate_radial",
    "integrate_conservative",
    "integrate_shifted",
    "DEFAULT_CONFIG",
    "R_START",
    "BLOWUP_THRESHOLD",
]

# Radius of the Taylor hand-off; radial runs start here.
R_START = 1e-6
# A run ends as Blowup where |f| + |g| first reaches this level.
BLOWUP_THRESHOLD = 1e3
_H_INIT = 1e-3             # first trial step
_H_MAX = 10.0              # largest step the controller may take


class StiffnessError(RuntimeError):
    """Step size underflowed; carries the radius where control failed."""

    def __init__(self, radius: float, message: str | None = None):
        self.radius = radius
        super().__init__(message or f"step size underflow near r = {radius:.6g}")


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-9
    atol: float = 1e-12
    r_max: float = 200.0

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0.0
                   for v in (self.rtol, self.atol, self.r_max)):
            raise ValueError("rtol, atol and r_max must be positive and finite")
        if self.rtol < 1e-14:
            raise ValueError("rtol below 1e-14 is not resolvable in double precision")
        if self.r_max <= R_START:
            raise ValueError(f"r_max must exceed the hand-off radius {R_START:g}")


DEFAULT_CONFIG = IntegratorConfig()


class EventKind(enum.Enum):
    """Terminal events of a radial shot; each kind's rule is fixed.

    An event fires on the first accepted step where its value falls
    through zero, from > 0 to <= 0:

        FCrossesZero         -f
        GCrossesZero         g
        GSquaredReachesOne   1 - g^2
        DecayDetected        |f| + |g| - 1e-8
        EnergyBarrier        H - model.trap_energy; a level event, so it
                             fires already at the start radius if the
                             initial state is there

    Each kind's spread bounds how far its value can move inside a step
    whose quartic moves f by at most e_f and g by at most e_g:

        FCrossesZero         e_f
        GCrossesZero         e_g
        GSquaredReachesOne   e_g (2|g| + e_g)
        DecayDetected        e_f + e_g + 2^-52 * 1e-8
        EnergyBarrier        inf, so it is always scanned

    A step skips a kind's probes when the value at both ends is nonzero
    with one sign and exceeds 4 spreads in size at the start.
    """

    F_CROSSES_ZERO = "FCrossesZero"
    G_CROSSES_ZERO = "GCrossesZero"
    G_SQUARED_REACHES_ONE = "GSquaredReachesOne"
    DECAY_DETECTED = "DecayDetected"
    ENERGY_BARRIER = "EnergyBarrier"


class TerminationKind(enum.Enum):
    REACHED_RMAX = "ReachedRmax"
    EVENT = "Event"
    BLOWUP = "Blowup"


@dataclass(frozen=True)
class Termination:
    kind: TerminationKind
    r: float
    event_kinds: tuple[EventKind, ...] = ()

    def describe(self) -> str:
        if self.kind is TerminationKind.EVENT:
            names = "+".join(k.value for k in self.event_kinds)
            return f"Event({names}, r={self.r:.12g})"
        return f"{self.kind.value}(r={self.r:.12g})"


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) tableau, error weights, and quartic dense-output matrix.

_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                                49.0 / 176.0, -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
# fifth-order weights minus fourth-order weights
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                                -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

# Dense-output coefficients: y(r0 + t*h) = y0 + h * sum_s k_s * P_s(t),
# P_s(t) = sum_j P[s][j] * t^(j+1).  Fourth-order accurate on the step.
_P = (
    (1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0, -12715105075.0 / 11282082432.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0, 87487479700.0 / 32700410799.0),
    (0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0, -10690763975.0 / 1880347072.0),
    (0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0, 701980252875.0 / 199316789632.0),
    (0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0, -1453857185.0 / 822651844.0),
    (0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0, 69997945.0 / 29380423.0),
)
# The same matrix as scalars for the step kernel, named _Psj for stage s and
# power t^j; the k2 row and the t^1 entries of rows k3..k7 are zero.
_P11, _P12, _P13, _P14 = _P[0]
((_P32, _P33, _P34), (_P42, _P43, _P44), (_P52, _P53, _P54),
 (_P62, _P63, _P64), (_P72, _P73, _P74)) = (row[1:] for row in _P[2:])

# PI controller constants (error exponent 1/5 split into P and I parts).
# Safety 0.65 runs ~35% more steps than the textbook 0.9 but holds the
# conservative-flow energy drift under 1e-8 over r in [0,50] at default
# tolerances, which the energy-conservation contract requires.
_SAFETY = 0.65
_PI_ALPHA = 0.17
_PI_BETA = 0.04
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_MAX_STEPS = 5_000_000
_EVENT_DR = 1e-12          # bisection width target, beats the 1e-10 contract
_TIE_DR = 1e-12            # simultaneous-event ambiguity threshold


def _segment_eval(seg: tuple, r: float) -> tuple[float, float]:
    """Evaluate one dense segment (r0, h, f0, g0, qf0..qf3, qg0..qg3) at r."""
    r0, h, f0, g0, qf0, qf1, qf2, qf3, qg0, qg1, qg2, qg3 = seg
    t = (r - r0) / h
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    t2 = t * t
    t3 = t2 * t
    t4 = t3 * t
    f = f0 + h * (qf0 * t + qf1 * t2 + qf2 * t3 + qf3 * t4)
    g = g0 + h * (qg0 * t + qg1 * t2 + qg2 * t3 + qg3 * t4)
    return f, g


class Trajectory:
    """Dense sampled solution with termination cause.

    r, f, g and H hold the samples at strictly increasing radii; for the
    radial flow the first sample is the exact initial state (0, 0, x0, H0)
    and the second the Taylor hand-off state at R_START.  Dense-output
    segments, when present, let sample_on / resample recover the solution
    between accepted steps to interpolation order 4.
    """

    def __init__(self, r, f, g, params: ModelParams, x0: float,
                 termination: Termination, segments=None):
        self.r = np.asarray(r, dtype=float)
        self.f = np.asarray(f, dtype=float)
        self.g = np.asarray(g, dtype=float)
        self.params = params
        self.x0 = float(x0)
        self.termination = termination
        self._segments = segments or []
        self.H = energy(self.f, self.g, params)

    @property
    def r_end(self) -> float:
        return float(self.r[-1])

    @cached_property
    def _dense(self) -> np.ndarray:
        """The segments as rows r0, h, f0, g0, qf0..qf3, qg0..qg3 of one
        array, built when the trajectory is first sampled."""
        return np.array(self._segments).T.copy()

    def sample_on(self, radii) -> tuple[np.ndarray, np.ndarray]:
        """Interpolated (f, g) at a 1-D array of radii.

        Radii at or beyond either end take that end's sample; inside, the
        dense segment holding the radius is evaluated with _segment_eval's
        arithmetic.  Below the first segment (a synthetic trajectory, or the
        radial span from the origin to the hand-off, where f is linear to
        O(r^3)) the samples are interpolated linearly.
        """
        rs = np.asarray(radii, dtype=float)
        fs = np.interp(rs, self.r, self.f)
        gs = np.interp(rs, self.r, self.g)
        hi = rs >= self.r[-1]
        lo = rs <= self.r[0]
        fs[hi], gs[hi] = self.f[-1], self.g[-1]
        fs[lo], gs[lo] = self.f[0], self.g[0]
        if self._segments:
            dense = self._dense
            on = ~(lo | hi) & (rs >= dense[0, 0])
            x = rs[on]
            idx = np.minimum(np.searchsorted(dense[0], x, side="right") - 1,
                             dense.shape[1] - 1)
            r0, h, f0, g0, qf0, qf1, qf2, qf3, qg0, qg1, qg2, qg3 = dense[:, idx]
            t = (x - r0) / h
            t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
            t2 = t * t
            t3 = t2 * t
            t4 = t3 * t
            fs[on] = f0 + h * (qf0 * t + qf1 * t2 + qf2 * t3 + qf3 * t4)
            gs[on] = g0 + h * (qg0 * t + qg1 * t2 + qg2 * t3 + qg3 * t4)
        return fs, gs

    def resample(self, dr: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Uniform-grid (r, f, g) over the computed range with spacing dr."""
        if dr <= 0.0:
            raise ValueError("resample spacing must be positive")
        n = int(math.floor((self.r_end - float(self.r[0])) / dr)) + 1
        grid = float(self.r[0]) + dr * np.arange(n)
        fs, gs = self.sample_on(grid)
        return grid, fs, gs

    def mirrored(self) -> "Trajectory":
        """The sign-mapped trajectory (f, g) -> (-f, -g), same radii."""
        segs = [seg[:2] + tuple(-v for v in seg[2:]) for seg in self._segments] or None
        return Trajectory(self.r.copy(), -self.f, -self.g, self.params, -self.x0,
                          self.termination, segs)


def series_start(x0: float, params: ModelParams, r_start: float) -> PhasePoint:
    """Second-order Taylor state of the regular radial solution at r_start."""
    if r_start <= 0.0:
        raise ValueError("series handoff radius must be positive")
    c1 = x0 * (params.b - params.a * x0 * x0) / 3.0     # f'(0)
    d2 = 0.5 * c1 * (1.0 - x0 * x0)                     # g''(0) / 2
    return PhasePoint(c1 * r_start, x0 + d2 * r_start * r_start, r_start)


def _quarter_probes(seg: tuple, lo: float, hi: float):
    """Scan radii lo, three quarter points, hi of [lo, hi] inside seg, and
    the segment's (f, g) at the three quarter points."""
    d = hi - lo
    xs = (lo, lo + 0.25 * d, lo + 0.5 * d, lo + 0.75 * d, hi)
    return xs, [_segment_eval(seg, p) for p in xs[1:4]]


def _bisect_root(fun, lo: float, hi: float, xtol: float) -> float:
    """First radius in [lo, hi] where fun falls to <= 0, given fun(lo) > 0
    and fun(hi) <= 0."""
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if fun(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _run_dopri(deriv, r0: float, f0: float, g0: float,
               cfg: IntegratorConfig, event_fns=()):
    """Core stepper from r0 to cfg.r_max.  Returns (rs, fs, gs, segments, termination).

    deriv(r, f, g) -> (df, dg); event_fns is a list of
    (kind, value_fn(f, g), level, spread(e_f, e_g, g)) tuples evaluated on
    accepted steps.  A level event whose value is already <= 0 at r0 ends
    the run there, before the first step.
    """
    rtol, atol, r_end = cfg.rtol, cfg.atol, cfg.r_max
    h_max, blowup_threshold = _H_MAX, BLOWUP_THRESHOLD
    h = min(_H_INIT, h_max, (r_end - r0))
    if h <= 0.0:
        raise ValueError("empty integration span")

    rs = [r0]
    fs = [f0]
    gs = [g0]
    segments = []

    r, f, g = r0, f0, g0
    prev_vals = [vfn(f, g) for _, vfn, _, _ in event_fns]
    at_start = tuple(kind for (kind, _, level, _), v in zip(event_fns, prev_vals)
                     if level and v <= 0.0)
    if at_start:
        return rs, fs, gs, segments, Termination(TerminationKind.EVENT, r0, at_start)
    kf1, kg1 = deriv(r, f, g)

    err_prev = 1e-4
    n_reject = 0

    for _ in range(_MAX_STEPS):
        if r_end - r <= 1e-12 * max(1.0, r_end):
            return rs, fs, gs, segments, Termination(TerminationKind.REACHED_RMAX, r)
        if h < 1e-13 * max(1.0, abs(r)):
            raise StiffnessError(r)
        h = min(h, h_max, r_end - r)

        # -- seven stages (FSAL: stage 7 becomes stage 1 of the next step)
        kf2, kg2 = deriv(r + _C2 * h, f + h * (_A21 * kf1), g + h * (_A21 * kg1))
        kf3, kg3 = deriv(r + _C3 * h,
                         f + h * (_A31 * kf1 + _A32 * kf2),
                         g + h * (_A31 * kg1 + _A32 * kg2))
        kf4, kg4 = deriv(r + _C4 * h,
                         f + h * (_A41 * kf1 + _A42 * kf2 + _A43 * kf3),
                         g + h * (_A41 * kg1 + _A42 * kg2 + _A43 * kg3))
        kf5, kg5 = deriv(r + _C5 * h,
                         f + h * (_A51 * kf1 + _A52 * kf2 + _A53 * kf3 + _A54 * kf4),
                         g + h * (_A51 * kg1 + _A52 * kg2 + _A53 * kg3 + _A54 * kg4))
        kf6, kg6 = deriv(r + h,
                         f + h * (_A61 * kf1 + _A62 * kf2 + _A63 * kf3 + _A64 * kf4 + _A65 * kf5),
                         g + h * (_A61 * kg1 + _A62 * kg2 + _A63 * kg3 + _A64 * kg4 + _A65 * kg5))
        f5 = f + h * (_B1 * kf1 + _B3 * kf3 + _B4 * kf4 + _B5 * kf5 + _B6 * kf6)
        g5 = g + h * (_B1 * kg1 + _B3 * kg3 + _B4 * kg4 + _B5 * kg5 + _B6 * kg6)
        r1 = r + h
        kf7, kg7 = deriv(r1, f5, g5)

        err_f = h * (_E1 * kf1 + _E3 * kf3 + _E4 * kf4 + _E5 * kf5 + _E6 * kf6 + _E7 * kf7)
        err_g = h * (_E1 * kg1 + _E3 * kg3 + _E4 * kg4 + _E5 * kg5 + _E6 * kg6 + _E7 * kg7)

        bad = not (math.isfinite(f5) and math.isfinite(g5)
                   and math.isfinite(err_f) and math.isfinite(err_g))
        if bad:
            h *= 0.25
            n_reject += 1
            if n_reject > 60:
                raise StiffnessError(r, "repeated nonfinite steps")
            continue

        sc_f = atol + rtol * max(abs(f), abs(f5))
        sc_g = atol + rtol * max(abs(g), abs(g5))
        # products, not **2: a hopeless trial step must saturate to inf
        # (and get rejected) rather than raise OverflowError
        q_f = err_f / sc_f
        q_g = err_g / sc_g
        err = math.sqrt(0.5 * (q_f * q_f + q_g * q_g))

        if err > 1.0:
            h *= max(0.1, _SAFETY * err ** (-0.2))
            n_reject += 1
            if n_reject > 100:
                raise StiffnessError(r, "persistent step rejection")
            continue
        n_reject = 0

        # dense-output polynomial for this step, summed left to right; the
        # trailing + 0.0 turns a -0.0 sum into +0.0, so a rest orbit on
        # f = +0.0 samples +0.0 and its mirrored() twin -0.0
        qf0 = kf1 * _P11 + 0.0
        qf1 = kf1 * _P12 + kf3 * _P32 + kf4 * _P42 + kf5 * _P52 + kf6 * _P62 + kf7 * _P72 + 0.0
        qf2 = kf1 * _P13 + kf3 * _P33 + kf4 * _P43 + kf5 * _P53 + kf6 * _P63 + kf7 * _P73 + 0.0
        qf3 = kf1 * _P14 + kf3 * _P34 + kf4 * _P44 + kf5 * _P54 + kf6 * _P64 + kf7 * _P74 + 0.0
        qg0 = kg1 * _P11 + 0.0
        qg1 = kg1 * _P12 + kg3 * _P32 + kg4 * _P42 + kg5 * _P52 + kg6 * _P62 + kg7 * _P72 + 0.0
        qg2 = kg1 * _P13 + kg3 * _P33 + kg4 * _P43 + kg5 * _P53 + kg6 * _P63 + kg7 * _P73 + 0.0
        qg3 = kg1 * _P14 + kg3 * _P34 + kg4 * _P44 + kg5 * _P54 + kg6 * _P64 + kg7 * _P74 + 0.0
        seg = (r, h, f, g, qf0, qf1, qf2, qf3, qg0, qg1, qg2, qg3)

        # -- event scan on the accepted step.  The quarter-point probes
        # catch a double crossing inside one step; those from r are
        # computed once, for the first kind that is not skipped.  Why
        # |v_lo| > 4 spread keeps every probe's value on v_lo's side: a
        # probe is y + d, d = h * (q0 t + q1 t^2 + ...) with 0 <= t <= 1,
        # summed in the same order as e_y, and rounding is monotone, so
        # |d| <= e_y holds exactly and the rounded probe is within 2 e_y of
        # y.  For f and g the value is the probe itself, so |v_lo| > e_y
        # already suffices.  The computed sign of 1 - g*g is that of 1 - |g|
        # for every double g, and |v_lo| > 4 spread keeps |g| more than
        # 2 e_g from 1, or else e_g so far under an ulp of g that every
        # probe rounds back to g itself.  |f| + |g| is rounded before 1e-8
        # is taken off; the spread's 2^-52 * 1e-8 term covers that
        # rounding, without which a sum within an ulp of the level could
        # round onto it at a probe.
        candidates = []
        if event_fns:
            e_f = h * (abs(qf0) + abs(qf1) + abs(qf2) + abs(qf3))
            e_g = h * (abs(qg0) + abs(qg1) + abs(qg2) + abs(qg3))
            probes = None
        for i, (_, vfn, _, spread) in enumerate(event_fns):
            v_lo, v_hi = prev_vals[i], vfn(f5, g5)
            prev_vals[i] = v_hi
            if (((v_lo > 0.0 and v_hi > 0.0) or (v_lo < 0.0 and v_hi < 0.0))
                    and abs(v_lo) > 4.0 * spread(e_f, e_g, g)):
                continue
            if probes is None:
                xs, probes = _quarter_probes(seg, r, r1)
            vs = (v_lo, *(vfn(*s) for s in probes), v_hi)
            for j in range(4):
                if vs[j] > 0.0 >= vs[j + 1]:
                    def ev(rv, _vfn=vfn):
                        return _vfn(*_segment_eval(seg, rv))
                    candidates.append((_bisect_root(ev, xs[j], xs[j + 1], _EVENT_DR), i))
                    break

        if abs(f5) + abs(g5) > blowup_threshold:
            def ev_blow(rv):
                fv, gv = _segment_eval(seg, rv)
                return blowup_threshold - (abs(fv) + abs(gv))
            if blowup_threshold - (abs(f) + abs(g)) > 0.0:
                r_loc = _bisect_root(ev_blow, r, r1, _EVENT_DR)
            else:
                r_loc = r
            candidates.append((r_loc, None))

        if candidates:
            candidates.sort(key=lambda c: c[0])
            r_stop = candidates[0][0]
            tied = [i for (rv, i) in candidates if rv - r_stop <= _TIE_DR]
            f_stop, g_stop = _segment_eval(seg, r_stop)
            segments.append(seg)
            rs.append(r_stop)
            fs.append(f_stop)
            gs.append(g_stop)
            ev_kinds = tuple(event_fns[i][0] for i in tied if i is not None)
            if ev_kinds:
                term = Termination(TerminationKind.EVENT, r_stop, ev_kinds)
            else:
                term = Termination(TerminationKind.BLOWUP, r_stop)
            return rs, fs, gs, segments, term

        # -- accept
        segments.append(seg)
        rs.append(r1)
        fs.append(f5)
        gs.append(g5)
        r, f, g = r1, f5, g5
        kf1, kg1 = kf7, kg7

        if err == 0.0:
            fac = _FAC_MAX
        else:
            fac = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** _PI_BETA
            fac = min(_FAC_MAX, max(_FAC_MIN, fac))
        h *= fac
        err_prev = max(err, 1e-10)
    raise StiffnessError(r, "step budget exhausted")


_DECAY_EPS = 1e-8
# twice the rounding unit of |f| + |g| at the decay level
_DECAY_SLACK = _DECAY_EPS * 2.0 ** -52


def _event_functions(events, params: ModelParams):
    """(kind, value(f, g), level, spread(e_f, e_g, g)) per kind; see EventKind."""
    h_trap = trap_energy(params)
    table = {
        EventKind.F_CROSSES_ZERO: (lambda f, g: -f, False, lambda e_f, e_g, g: e_f),
        EventKind.G_CROSSES_ZERO: (lambda f, g: g, False, lambda e_f, e_g, g: e_g),
        EventKind.G_SQUARED_REACHES_ONE: (lambda f, g: 1.0 - g * g, False,
                                          lambda e_f, e_g, g: e_g * (2.0 * abs(g) + e_g)),
        EventKind.DECAY_DETECTED: (lambda f, g: abs(f) + abs(g) - _DECAY_EPS, False,
                                   lambda e_f, e_g, g: e_f + e_g + _DECAY_SLACK),
        EventKind.ENERGY_BARRIER: (lambda f, g: energy(f, g, params) - h_trap, True,
                                   lambda e_f, e_g, g: math.inf),
    }
    return [(kind,) + table[kind] for kind in events]


def integrate_radial(x0: float, params: ModelParams,
                     config: IntegratorConfig | None = None,
                     events=()) -> Trajectory:
    """Solve the singular radial system from g(0) = x0, f(0) = 0.

    Runs until r_max, blowup, or the first of the armed `EventKind`s
    (`events`) to fire; simultaneous
    events localized within 1e-12 of each other are reported together
    (the flow cannot vanish two components at once away from the origin,
    so a tie flags numerical ambiguity, not physics).
    """
    cfg = config or DEFAULT_CONFIG
    p1 = series_start(x0, params, R_START)
    rs, fs, gs, segs, term = _run_dopri(vector_field(params), R_START, p1.f, p1.g,
                                        cfg, _event_functions(events, params))
    rs = [0.0] + rs
    fs = [0.0] + fs
    gs = [x0] + gs
    return Trajectory(rs, fs, gs, params, x0, term, segs)


def integrate_conservative(p0: PhasePoint, params: ModelParams,
                           config: IntegratorConfig | None = None) -> Trajectory:
    """Solve the autonomous companion system from an arbitrary point.

    This is the shifted system at rho = inf, where the friction vanishes.
    """
    return integrate_shifted(p0, math.inf, params, config)


def integrate_shifted(p0: PhasePoint, rho: float, params: ModelParams,
                      config: IntegratorConfig | None = None) -> Trajectory:
    """Solve the friction-shifted system f' + 2/(rho + r) f = ... from r = 0.

    The shift removes the singularity, so arbitrary initial f is allowed;
    as rho grows the flow approaches the companion system uniformly on
    bounded spans.
    """
    if rho <= 0.0:
        raise ValueError("shift rho must be positive")
    cfg = config or DEFAULT_CONFIG
    rs, fs, gs, segs, term = _run_dopri(vector_field(params, rho), 0.0,
                                        p0.f, p0.g, cfg)
    return Trajectory(rs, fs, gs, params, p0.g, term, segs)
