"""Adaptive embedded Runge-Kutta integration for the radial system.

A classic Dormand-Prince 5(4) pair drives all three flows (singular
radial, autonomous companion, shifted-friction): they are the one field
`model.vector_field` at friction shift rho = 0, inf and rho > 0.  Step
size is governed by a proportional-integral controller on the embedded
error estimate; every accepted step stores a quartic dense-output
segment so events can be localized by bracketed root solving on the
interpolant and trajectories can be sampled at arbitrary radii.  The
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

The r = 0 singularity of the radial system is never evaluated.  The
regular solution is a power series, f odd and g even in r, whose
coefficients follow from (r^2 f)' = r^2 N and g' = M by Cauchy products:

    (k + 2) f_k = N_{k-1},   N = g (f^2 - a g^2 + b),
        k g_k = M_{k-1},     M = f (1 - g^2),

from f_0 = 0, g_0 = x.  A radial run sums it to order 40 in units of x
(Hairer, Norsett and Wanner, Solving ODEs I, the Taylor-series start)
and hands off to the stepper at the radius r_h where the last two terms
of g / x fall below 1e-16 and those of f / x below 1e-16 sqrt(a); under
the scaling (a, b) -> (l^2 a, l^2 b), f_k -> l^(k+1) f_k and g_k -> l^k
g_k, so r_h -> r_h / l.  The span [0, r_h] is scanned for events on the
series (see _series_span).  That tail rule puts r_h near 0.4 of the
series' radius of convergence rho (1e-16^(1/40) = 0.4), and a
fifth-order step h errs about (h/rho)^5, so the stepper's first trial
step, r_h rtol^(1/5), errs about rtol/100: the run starts without a
rejected step and resolves the core below the tolerance.
"""

from __future__ import annotations

import bisect
import enum
import math
import operator
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
    "BLOWUP_THRESHOLD",
]

# A run ends as Blowup where |f| + |g| first reaches this level.
BLOWUP_THRESHOLD = 1e3
_H_INIT = 1e-3             # first trial step of the unsingular flows
_H_MAX = 10.0              # largest step the controller may take
_SERIES_ORDER = 20         # f through r^(2*20 - 1), g through r^(2*20)
_SERIES_TAIL = 1e-16       # bound on the last terms at the hand-off
_SERIES_ROWS = 4           # samples kept on (0, r_h]; 4 probes per row


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
                             fires already at r = 0 if the initial state
                             (0, x0) is there

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

    r, f, g and H hold the samples at strictly increasing radii.  For the
    radial flow the first sample is the exact initial state (0, 0, x0, H0),
    the next _SERIES_ROWS are sums of the power series at the origin on
    (0, r_h], and each further one is an accepted step.  `series` is then
    (r_h, coefficients as from _series_coefficients, in units of x0), and
    sample_on sums it on [0, r_h]; the dense-output segments recover
    the solution between accepted steps to interpolation order 4.
    """

    def __init__(self, r, f, g, params: ModelParams, x0: float,
                 termination: Termination, segments=None, series=None):
        self.r = np.asarray(r, dtype=float)
        self.f = np.asarray(f, dtype=float)
        self.g = np.asarray(g, dtype=float)
        self.params = params
        self.x0 = float(x0)
        self.termination = termination
        self._segments = segments or []
        self._series = series
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
        series is summed up to r_h, and beyond it the dense segment holding
        the radius is evaluated with _segment_eval's arithmetic.  A
        trajectory with neither (a synthetic one) is interpolated linearly.
        """
        rs = np.asarray(radii, dtype=float)
        fs = np.interp(rs, self.r, self.f)
        gs = np.interp(rs, self.r, self.g)
        hi = rs >= self.r[-1]
        lo = rs <= self.r[0]
        fs[hi], gs[hi] = self.f[-1], self.g[-1]
        fs[lo], gs[lo] = self.f[0], self.g[0]
        if self._series is not None:
            r_h, coef = self._series
            on = ~(lo | hi) & (rs <= r_h)
            fs[on], gs[on] = _series_eval(coef, self.x0, rs[on])
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

    @cached_property
    def _pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """(start radii, speed bounds) of the pieces of the interpolant: the
        series span, whose bound is _series_speed's, then one per dense
        segment, whose quartic y0 + h sum q_j t^(j+1) moves each component
        at most sum (j + 1) |q_j| per unit r; a synthetic trajectory is
        linear between its samples, at the chord's speed."""
        starts, speeds = [], []
        if self._series is not None:
            r_h, coef = self._series
            starts.append(0.0)
            speeds.append(_series_speed(coef, self.x0, r_h))
        if self._segments:
            dense = self._dense
            w = np.arange(1.0, 5.0)[:, None]
            starts.extend(dense[0])
            speeds.extend(np.hypot(np.sum(w * np.abs(dense[4:8]), axis=0),
                                   np.sum(w * np.abs(dense[8:12]), axis=0)))
        if not starts:
            starts, dr = self.r[:-1], np.diff(self.r)
            speeds = np.hypot(np.diff(self.f), np.diff(self.g)) / dr
        return np.asarray(starts, dtype=float), np.asarray(speeds, dtype=float)

    def drift_bound(self, radii) -> np.ndarray:
        """For each interval between consecutive increasing radii, a bound on
        the distance (f, g) can move from its value at either end while r
        crosses it: the width times the largest speed bound of the pieces
        of the interpolant (see _pieces) that the interval meets."""
        rs = np.asarray(radii, dtype=float)
        starts, speeds = self._pieces
        first = np.maximum(np.searchsorted(starts, rs, side="right") - 1, 0)
        last = np.maximum(np.searchsorted(starts, rs[1:], side="left") - 1, first[:-1])
        # reduceat spans pieces first[i] .. first[i + 1] - 1, or first[i]
        # alone; the piece holding the right end is added explicitly
        top = np.maximum(np.maximum.reduceat(speeds, first)[:-1], speeds[last])
        return np.diff(rs) * top

    def mirrored(self) -> "Trajectory":
        """The sign-mapped trajectory (f, g) -> (-f, -g), same radii."""
        segs = [seg[:2] + tuple(-v for v in seg[2:]) for seg in self._segments] or None
        return Trajectory(self.r.copy(), -self.f, -self.g, self.params, -self.x0,
                          self.termination, segs, self._series)


def _cauchy(u: list, v: list) -> float:
    """Coefficient m of the product of two power series known through
    their coefficients 0 .. m (len(u) = len(v) = m + 1)."""
    return sum(map(operator.mul, u, reversed(v)))


def _series_coefficients(x0: float, params: ModelParams) -> np.ndarray:
    """The regular radial solution from g(0) = x0 in units of x0, as
    polynomials in s = r^2: f = x0 r U(s) and g = x0 V(s), V(0) = 1.  Row 0
    holds U_0 .. U_{n-1} and a final 0, row 1 V_0 .. V_n.  In these units
    (r^2 u)' = r^2 v P and v' = u Q with P = x0^2 (u^2 - a v^2) + b and
    Q = 1 - x0^2 v^2, so U_m = (V P)_m / (2m + 3) and V_{m+1} = (U Q)_m /
    (2m + 2).  The coefficients depend on x0 only through x0^2 and do not
    shrink with it, so none underflows for a tiny x0 and the tail test of
    _handoff_radius is relative to |x0|."""
    a, b, k = params.a, params.b, x0 * x0
    cu, cv = [], [1.0]
    uu, vv, pp, qq = [], [], [], []     # (u/r)^2, v^2, P, Q
    for m in range(_SERIES_ORDER):
        vv.append(_cauchy(cv, cv))
        pp.append((k * uu[m - 1] if m else b) - k * a * vv[m])
        cu.append(_cauchy(cv, pp) / (2 * m + 3))
        uu.append(_cauchy(cu, cu))
        qq.append((0.0 if m else 1.0) - k * vv[m])
        cv.append(_cauchy(cu, qq) / (2 * m + 2))
    return np.array([cu + [0.0], cv])


def _handoff_radius(coef: np.ndarray, params: ModelParams) -> float:
    """Largest r at which the last two terms of V are below _SERIES_TAIL and
    those of r U below _SERIES_TAIL sqrt(a), so the truncation is relative
    to |x0|; inf if those coefficients are 0.  Since f_k -> l^(k+1) f_k,
    g_k -> l^k g_k and sqrt(a) -> l sqrt(a) under (a, b) -> (l^2 a, l^2 b),
    the radius scales as 1/l."""
    n = _SERIES_ORDER
    tail_f = _SERIES_TAIL * math.sqrt(params.a)
    (*_, f1, f2, _), (*_, g1, g2) = coef.tolist()
    terms = ((f1, 2 * n - 3, tail_f), (f2, 2 * n - 1, tail_f),
             (g1, 2 * n - 2, _SERIES_TAIL), (g2, 2 * n, _SERIES_TAIL))
    return min(((tail / abs(c)) ** (1.0 / k) for c, k, tail in terms if c != 0.0),
               default=math.inf)


def _series_eval(coef: np.ndarray, x0: float, r: np.ndarray):
    """(f, g) of the series at the radii r, a 1-D array, by Horner's rule
    in s = r^2 on both rows at once; U's trailing 0 leaves its sum as if
    its Horner loop started one term later."""
    s = r * r
    p = np.zeros((2, len(r)))
    for c in coef.T[::-1, :, None]:
        p *= s
        p += c
    return x0 * (r * p[0]), x0 * p[1]


def _series_speed(coef: np.ndarray, x0: float, r_h: float) -> float:
    """Bound on |(f', g')| over [0, r_h]: the derivatives' series summed
    with absolute coefficients at r_h."""
    m = np.arange(coef.shape[1])
    s = r_h * r_h
    df = np.sum((2 * m + 1) * np.abs(coef[0]) * s ** m)
    dg = np.sum(2 * m[1:] * np.abs(coef[1, 1:]) * r_h ** (2 * m[1:] - 1))
    return abs(x0) * math.hypot(df, dg)


def series_start(x0: float, params: ModelParams, r_start: float) -> PhasePoint:
    """State of the regular radial solution at r_start > 0 by its power
    series at the origin, summed to the order a radial run hands off with."""
    if r_start <= 0.0:
        raise ValueError("series handoff radius must be positive")
    f, g = _series_eval(_series_coefficients(x0, params), x0, np.array([float(r_start)]))
    return PhasePoint(float(f[0]), float(g[0]), r_start)


def _series_span(coef: np.ndarray, x0: float, r_h: float, event_fns):
    """Samples of the series on [0, r_h] and the first event there.

    Probes sit at r_h j / (4 _SERIES_ROWS), j = 0, 1, ..., the origin
    state (0, x0) first; every fourth is kept as a row.  Blowup is a level
    event on BLOWUP_THRESHOLD - (|f| + |g|).  A level event fires at the
    origin where its value there is <= 0; any event fires between the
    first two probes where its value falls through zero, localized on the
    series by bisection.  Returns (rs, fs, gs, termination or None); the
    rows stop at an event.
    """
    n = 4 * _SERIES_ROWS
    pr = r_h * (np.arange(n + 1) / n)
    pf, pg = _series_eval(coef, x0, pr)
    pf[0], pg[0] = 0.0, x0
    threshold = BLOWUP_THRESHOLD
    rows = [*event_fns, (None, lambda f, g: threshold - (abs(f) + abs(g)), True, None)]
    candidates = []
    for kind, vfn, level, _ in rows:
        v = vfn(pf, pg)
        if level and v[0] <= 0.0:
            candidates.append((0.0, kind))
            continue
        falls = (v[:-1] > 0.0) & (v[1:] <= 0.0)
        if falls.any():
            def ev(rv, _vfn=vfn):
                return _vfn(*_series_eval(coef, x0, np.array([rv])))[0]
            j = int(falls.argmax())
            candidates.append((_bisect_root(ev, float(pr[j]), float(pr[j + 1]), _EVENT_DR),
                               kind))
    keep = slice(0, n + 1, 4)
    rs, fs, gs = pr[keep].tolist(), pf[keep].tolist(), pg[keep].tolist()
    if not candidates:
        return rs, fs, gs, None
    term = _stop(candidates)
    if term.r == 0.0:
        return rs[:1], fs[:1], gs[:1], term
    k = bisect.bisect_left(rs, term.r)
    f_stop, g_stop = (float(v[0]) for v in _series_eval(coef, x0, np.array([term.r])))
    return rs[:k] + [term.r], fs[:k] + [f_stop], gs[:k] + [g_stop], term


def _stop(candidates) -> Termination:
    """Termination at the earliest (r, kind) candidate; events localized
    within _TIE_DR of it are reported together, and blowup (kind None)
    only when no event ties with it."""
    candidates.sort(key=lambda c: c[0])
    r_stop = candidates[0][0]
    kinds = tuple(kind for rv, kind in candidates
                  if rv - r_stop <= _TIE_DR and kind is not None)
    if kinds:
        return Termination(TerminationKind.EVENT, r_stop, kinds)
    return Termination(TerminationKind.BLOWUP, r_stop)


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
               cfg: IntegratorConfig, event_fns=(), h_init: float | None = None):
    """Core stepper from r0 to cfg.r_max.  Returns (rs, fs, gs, segments, termination).

    deriv(r, f, g) -> (df, dg); event_fns is a list of
    (kind, value_fn(f, g), level, spread(e_f, e_g, g)) tuples evaluated on
    accepted steps, where every kind fires where its value falls through
    zero.  The first trial step is h_init, by default _H_INIT.
    """
    rtol, atol, r_end = cfg.rtol, cfg.atol, cfg.r_max
    h_max, blowup_threshold = _H_MAX, BLOWUP_THRESHOLD
    h = min(_H_INIT if h_init is None else h_init, h_max, (r_end - r0))
    if h <= 0.0:
        raise ValueError("empty integration span")

    rs = [r0]
    fs = [f0]
    gs = [g0]
    segments = []

    r, f, g = r0, f0, g0
    prev_vals = [vfn(f, g) for _, vfn, _, _ in event_fns]
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
        for i, (kind, vfn, _, spread) in enumerate(event_fns):
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
                    candidates.append((_bisect_root(ev, xs[j], xs[j + 1], _EVENT_DR), kind))
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
            term = _stop(candidates)
            f_stop, g_stop = _segment_eval(seg, term.r)
            segments.append(seg)
            rs.append(term.r)
            fs.append(f_stop)
            gs.append(g_stop)
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

    The power series at the origin covers [0, r_h] (see the module
    docstring), where a run that r_max or an event ends early stops; the
    stepper takes over from r_h.  Runs until r_max, blowup, or the first
    of the armed `EventKind`s (`events`) to fire; simultaneous events
    localized within 1e-12 of each other are reported together (the flow
    cannot vanish two components at once away from the origin, so a tie
    flags numerical ambiguity, not physics).
    """
    cfg = config or DEFAULT_CONFIG
    coef = _series_coefficients(x0, params)
    r_h = min(_handoff_radius(coef, params), cfg.r_max)
    if not r_h > 0.0:
        raise StiffnessError(0.0, "power series at the origin overflows")
    event_fns = _event_functions(events, params)
    rs, fs, gs, term = _series_span(coef, x0, r_h, event_fns)
    segs = []
    if term is None and r_h < cfg.r_max:
        out = _run_dopri(vector_field(params), r_h, fs[-1], gs[-1], cfg, event_fns,
                         h_init=r_h * cfg.rtol ** 0.2)
        rs += out[0][1:]
        fs += out[1][1:]
        gs += out[2][1:]
        segs, term = out[3], out[4]
    elif term is None:
        term = Termination(TerminationKind.REACHED_RMAX, r_h)
    return Trajectory(rs, fs, gs, params, x0, term, segs, (r_h, coef))


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
