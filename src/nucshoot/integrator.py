"""Adaptive embedded Runge-Kutta integration for the radial system.

Hairer's DOP853, the Dormand-Prince 8(5,3) pair (Hairer, Norsett and
Wanner, Solving ODEs I, II.10; Prince and Dormand, J. Comput. Appl. Math.
7, 1981), drives all three flows (singular radial, autonomous companion,
shifted-friction): they are the one field `model.vector_field` at
friction shift rho = 0, inf and rho > 0.  Twelve stages give the
eighth-order step, and the derivative at the new point is the next
step's first stage.  The local error is Hairer's blend of the fifth- and
third-order estimates, and an I-controller with exponent 1/8 and safety
0.9 sets the next step from it; no absolute length caps a step, only
the span left to r_max.  Three more stages give a seventh-order
interpolant on every accepted step, stored in power form as
y0 + h (q0 t + q1 t^2 + ... + q6 t^7), 0 <= t <= 1, and summed by
Horner's rule; events are localized by bracketed root solving on it and
trajectories sampled at arbitrary radii.  Each accepted step adds _ROWS
= 3 trajectory rows at t = 1/3, 2/3 of its interpolant and at its end,
the last the step's end state itself.  The step is straight-line float
arithmetic over the nonzero entries of the tableau.

The default tolerances, rtol 1e-12 and atol 1e-15, hold the accuracy
that the search and the certificate need: x* within 1e-11 of an
independent oracle, and the dissipation identity on the interpolated
rows to 1e-8 of the largest step integral.  The interpolant errs up to
about 50 times the step's own error inside a step, so at rtol 1e-9 both
fail (x* off by up to 1e-9, residuals up to 4e-7).

Every event fires on the first accepted step where its value falls
through zero (see EventKind).  One routine, _scan, scans each segment
of a run, the series span and every accepted step, for every armed kind
and for the blowup threshold: at the segment's ends and at its probes,
for a step t = j/6, the rows and the points halfway between them.  The
interpolant moves f by at most e_f = h (|qf6| + |qf5| + ... + |qf0|)
inside the step, and g by e_g likewise; a kind's probes are skipped
where its value keeps one strict sign at both ends and the kind's
margin proves from e_f and e_g that no probe can take it across zero.
The probes are computed once, and only if some kind is not skipped.
The skip changes no result bit.

The r = 0 singularity of the radial system is never evaluated.  The
regular solution is a power series, f odd and g even in r, whose
coefficients follow from (r^2 f)' = r^2 N and g' = M by Cauchy products:

    (k + 2) f_k = N_{k-1},   N = g (f^2 - a g^2 + b),
        k g_k = M_{k-1},     M = f (1 - g^2),

from f_0 = 0, g_0 = x.  A radial run that leaves the origin (see
_radial_run) sums it to order 40 in units of x (Hairer, Norsett and
Wanner, Solving ODEs I, the Taylor-series start) and hands off to
the stepper at the radius r_h where the last two terms
of g / x fall below 1e-16 and those of f / x below 1e-16 sqrt(a); under
the scaling (a, b) -> (l^2 a, l^2 b), f_k -> l^(k+1) f_k and g_k -> l^k
g_k, so r_h -> r_h / l.  The span [0, r_h] is scanned for events on the
series, as one segment (see _series_span).  That tail rule puts r_h near
0.4 of the series' radius of convergence rho (1e-16^(1/40) = 0.4), and an
eighth-order step h errs about (h/rho)^8, so the stepper's first trial
step, r_h rtol^(1/8), errs about rtol/1500: the run starts without a
rejected step and resolves the core below the tolerance.  The stepper
measures the error in the same units as the series, against absolute
tolerances atol u sqrt(a) for f and atol u for g, u = min(1, |x|): a shot
from a tiny x is resolved, and the error test reads the same on a shot
and on its image under the scaling.

integrate_wall solves the same radial shot in the chart (f, u = 1 - g),
from its own series in u, so that a shot from g(0) = 1 - u0 keeps u0's
relative precision far below the 2^-53 float step of g under 1.
"""

from __future__ import annotations

import bisect
import enum
import functools
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
    "integrate_radial",
    "integrate_wall",
    "integrate_conservative",
    "integrate_shifted",
    "DEFAULT_CONFIG",
    "BLOWUP_THRESHOLD",
]

# A run ends as Blowup where |f| + |g| first reaches this level.
BLOWUP_THRESHOLD = 1e3
_H_INIT = 1e-3             # first trial step of the unsingular flows
_SERIES_ORDER = 20         # f through r^(2*20 - 1), g through r^(2*20)
_SERIES_TAIL = 1e-16       # bound on the last terms at the hand-off
_SERIES_ROWS = 4           # samples kept on (0, r_h]; 4 probes per row
_ROWS = 3                  # rows per accepted step, at t = j/3
_ROW_T = tuple(j / _ROWS for j in range(1, _ROWS))
# event probes inside a step, at its rows and halfway between them
_PROBE_T = tuple(j / (2 * _ROWS) for j in range(1, 2 * _ROWS))


class StiffnessError(RuntimeError):
    """Step size underflowed; carries the radius where control failed."""

    def __init__(self, radius: float, message: str | None = None):
        self.radius = radius
        super().__init__(message or f"step size underflow near r = {radius:.6g}")


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-12
    atol: float = 1e-15
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
        DecayDetected        |f| + |g| - 1e-8
        EnergyBarrier        H - model.trap_energy

    No kind watches g^2 = 1: g' = f (1 - g^2) makes the lines g = +-1
    invariant, so no solution crosses them (shooting._origin_decision).
    The Blowup end, |f| + |g| reaching L = BLOWUP_THRESHOLD, is scanned
    the same way as the kind None with value L - (|f| + |g|), and alone
    ends a run at its start, if that value is <= 0 there (see _start).

    A probe of a step is y + d rounded, d = h (t (q0 + t (q1 + ... + t
    q6))), 0 < t <= 5/6.  Rounding is monotone and |t| <= 1, so |d| <= e,
    e = h (|q6| + |q5| + ... + |q0|) summed in Horner's order, holds
    exactly; the rounded probe is within 2 e of y, since y is itself a
    double |d| from y + d, and within e + u |y + d|, u = 2^-53.  A kind
    skips a step's probes where its value v is nonzero with one sign at
    both ends and its margin holds at the start state (f, g): then no
    probe takes v from > 0 to <= 0 or from < 0 to > 0, so no result bit
    changes.  The margins and their proofs:

        FCrossesZero, GCrossesZero: |v| > e.  When |d| <= e < |y|, y + d
            keeps the sign of y exactly, and so does its rounding.
        DecayDetected and Blowup: |v| > 2 (e_f + e_g) + ulp(l), l = 1e-8
            or L.  v has the sign of A - l, A = |f| + |g| rounded, and
            |f| + |g| moves by at most 2 (e_f + e_g) to a probe.  While A
            lies in l's binade, rounding A at the start and at the probe
            adds at most half an ulp of l each.  Outside it |v| > l/50,
            and a probe whose A could reach l has coordinates below l,
            whose rounding moves |f| + |g| by under ulp(l): |v| could then
            be at most e_f + e_g plus a few ulps of l, under the margin.
        EnergyBarrier: |v| > e_f F m_f + e_g G m_g + 2^-49 (F^2 (1 + G^2)
            + a G^4 + b G^2), F = |f| + e_f, G = |g| + e_g, G0 = max(0,
            |g| - e_g), m_f = max(|1 - G0^2|, |G^2 - 1|) and m_g = max(|a
            G0^2 - b - F^2|, |a G^2 - b|).  Before rounding a probe lies
            in the box |f'| <= F, G0 <= |g'| <= G, within (e_f, e_g) of
            (f, g), where |H_f| = |f' (1 - g'^2)| <= F m_f and |H_g| = |g'
            (a g'^2 - b - f'^2)| <= G m_g; so H moves by at most the first
            two terms.  Rounding the probe's coordinates, by u |f'| and u
            |g'|, moves H by at most 2 u (F^2 (1 + G^2) + a G^4 + b G^2),
            and model.energy rounds H by at most 6 u (f^2 (1 + g^2) / 2 +
            a g^4 / 4 + b g^2 / 2) at the start and at the probe; the
            last term covers both.

    A margin is evaluated in floats.  Its own rounding is covered by the
    probes' t <= 5/6, which keeps |d| below about 5/6 e, and by v lying
    on the grid of ulp(l) near l.  The series span is scanned with e = inf,
    where no margin holds, so every kind is probed there.

    BlowupCertain is a region, not a value: it fires at the first accepted
    step end of the stepper (never on the series span) where f g > 0,
    0 < |g| < 1 and, with eps = _BLOWUP_EPS = 1e-3,

        |g| r |f| > (1 + eps) (1 + r sqrt(|g| c+)),
        c+ = max(0, c'),  c' = max(-phi(|g|), a - b),  phi(s) = s (b - a s^2).

    It has no probes, no bisection and no margin, since any point of the
    region provably blows up.

    Take g > 0; the sign map covers g < 0.  F = r^2 f obeys F' = r^2 (g
    f^2 + phi(g)): the friction -(2/r) f cancels exactly.  From a step end
    (r0, f0, g0) with f0 > 0 and 0 < g0 < 1, g' = f (1 - g^2) > 0 while f >
    0, and g = 1 is invariant, so g stays in (g0, 1).  phi is concave for s
    >= 0, so on [g0, 1] it is at least its smaller end value, -c'.  So for
    r >= r0, while f > 0,

        F' >= g0 F^2 / r^2 - c+ r^2.

    The comparison equation Phi' = g0 Phi^2 / r^2 - c+ r^2, Phi(r0) = r0^2
    f0, becomes w'' = k^2 w, k = sqrt(g0 c+), under Phi = (r - r^2 w'/w) /
    g0, with w(r0) = 1 and w'(r0) = q = (1 - g0 r0 f0) / r0.  So w = cosh(k
    s) + (q/k) sinh(k s), s = r - r0, reaches 0, and Phi blows up, iff q <
    -k, that is g0 r0 f0 > 1 + r0 sqrt(g0 c+); it does so at

        T = artanh(-k/q) / k   (T = -1/q when k = 0)

    past r0.  Until then w' < 0 < w, so Phi > r / g0 > 0, and by the
    comparison theorem (Hartman, Ordinary Differential Equations, ch. III)
    F >= Phi: f > 1/(g0 r) > 0, the assumption f > 0 holds throughout, and
    F, so f, blows up no later than r0 + T.

    The margin eps is relative, so it is far above the step's error in
    (f0, g0) and the rounding of the test, and the test is invariant under
    (a, b) -> (l^2 a, l^2 b), r -> r / l, f -> l f, up to rounding.  For a
    >= b, c+ = c', and the region contains that of the bound that holds
    the friction 2/r at r0, f0 > (1/r0 + sqrt(1/r0^2 + g0 c')) / g0, whose
    threshold on f lies above this one, (1/r0 + sqrt(g0 c+)) / g0.  For a
    <= b shooting._origin_decision decides every shot that could reach
    the region, since |g| = 1 is invariant and x0 = 0 keeps g = 0.  No
    other kind fires first: f > 1/(g0 r) > 0 and g stays in (g0, 1), so
    neither FCrossesZero nor GCrossesZero can fire; |f| + |g| > g0 + 1/(g0
    r) >= 2 / sqrt(r) > 1e-8 for r < 4e16, so DecayDetected cannot fire;
    and by the trap lemma (model.trap_energy) H cannot fall below the trap
    level on a shot that blows up.
    """

    F_CROSSES_ZERO = "FCrossesZero"
    G_CROSSES_ZERO = "GCrossesZero"
    DECAY_DETECTED = "DecayDetected"
    ENERGY_BARRIER = "EnergyBarrier"
    BLOWUP_CERTAIN = "BlowupCertain"


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
# DOP853: the doubles nearest Hairer's dop853 coefficients, named by their
# stages, numbered from 1.  Stage 13 is the derivative at the new point
# (its row of A is B); stages 14-16 serve only the interpolant.  Nodes _Ci,
# stage weights _Ai_j, eighth-order weights _Bj, the fifth-order error
# weights _Ej and the third-order embedded weights _BHHj (sum 1), and rows
# 4-7 of the dense-output coefficients _Di_j.

_C2, _C3, _C4 = 0.05260015195876773, 0.0789002279381516, 0.1183503419072274
_C5, _C6, _C7 = 0.2816496580927726, 0.3333333333333333, 0.25
_C8, _C9, _C10 = 0.3076923076923077, 0.6512820512820513, 0.6
_C11, _C14, _C15, _C16 = 0.8571428571428571, 0.1, 0.2, 0.7777777777777778
_A2_1 = 0.05260015195876773
_A3_1, _A3_2 = 0.0197250569845379, 0.0591751709536137
_A4_1, _A4_3 = 0.02958758547680685, 0.08876275643042054
_A5_1, _A5_3, _A5_4 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
_A6_1, _A6_4, _A6_5 = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
_A7_1, _A7_4, _A7_5 = 0.037109375, 0.17025221101954405, 0.06021653898045596
_A7_6 = -0.017578125
_A8_1, _A8_4, _A8_5 = 0.03709200011850479, 0.17038392571223998, 0.10726203044637328
_A8_6, _A8_7 = -0.015319437748624402, 0.008273789163814023
_A9_1, _A9_4, _A9_5 = 0.6241109587160757, -3.3608926294469414, -0.868219346841726
_A9_6, _A9_7, _A9_8 = 27.59209969944671, 20.154067550477894, -43.48988418106996
_A10_1, _A10_4, _A10_5 = 0.47766253643826434, -2.4881146199716677, -0.590290826836843
_A10_6, _A10_7, _A10_8 = 21.230051448181193, 15.279233632882423, -33.28821096898486
_A10_9 = -0.020331201708508627
_A11_1, _A11_4, _A11_5 = -0.9371424300859873, 5.186372428844064, 1.0914373489967295
_A11_6, _A11_7, _A11_8 = -8.149787010746927, -18.52006565999696, 22.739487099350505
_A11_9, _A11_10 = 2.4936055526796523, -3.0467644718982196
_A12_1, _A12_4, _A12_5 = 2.273310147516538, -10.53449546673725, -2.0008720582248625
_A12_6, _A12_7, _A12_8 = -17.9589318631188, 27.94888452941996, -2.8589982771350235
_A12_9, _A12_10, _A12_11 = -8.87285693353063, 12.360567175794303, 0.6433927460157636
_A14_1, _A14_7, _A14_8 = 0.056167502283047954, 0.25350021021662483, -0.2462390374708025
_A14_9, _A14_10, _A14_11 = -0.12419142326381637, 0.15329179827876568, 0.00820105229563469
_A14_12, _A14_13 = 0.007567897660545699, -0.008298
_A15_1, _A15_6, _A15_7 = 0.03183464816350214, 0.028300909672366776, 0.053541988307438566
_A15_8, _A15_11, _A15_12 = -0.05492374857139099, -0.00010834732869724932, 0.0003825710908356584
_A15_13, _A15_14 = -0.00034046500868740456, 0.1413124436746325
_A16_1, _A16_6, _A16_7 = -0.42889630158379194, -4.697621415361164, 7.683421196062599
_A16_8, _A16_9, _A16_13 = 4.06898981839711, 0.3567271874552811, -0.0013990241651590145
_A16_14, _A16_15 = 2.9475147891527724, -9.15095847217987
_B1, _B6, _B7 = 0.054293734116568765, 4.450312892752409, 1.8915178993145003
_B8, _B9, _B10 = -5.801203960010585, 0.3111643669578199, -0.1521609496625161
_B11, _B12 = 0.20136540080403034, 0.04471061572777259
_E1, _E6, _E7 = 0.01312004499419488, -1.2251564463762044, -0.4957589496572502
_E8, _E9, _E10 = 1.6643771824549864, -0.35032884874997366, 0.3341791187130175
_E11, _E12 = 0.08192320648511571, -0.022355307863886294
_D4_1, _D4_6, _D4_7 = -8.428938276109013, 0.5667149535193777, -3.0689499459498917
_D4_8, _D4_9, _D4_10 = 2.38466765651207, 2.117034582445028, -0.871391583777973
_D4_11, _D4_12, _D4_13 = 2.2404374302607883, 0.6315787787694688, -0.08899033645133331
_D4_14, _D4_15, _D4_16 = 18.148505520854727, -9.194632392478356, -4.436036387594894
_D5_1, _D5_6, _D5_7 = 10.427508642579134, 242.28349177525817, 165.20045171727028
_D5_8, _D5_9, _D5_10 = -374.5467547226902, -22.113666853125306, 7.733432668472264
_D5_11, _D5_12, _D5_13 = -30.674084731089398, -9.332130526430229, 15.697238121770845
_D5_14, _D5_15, _D5_16 = -31.139403219565178, -9.35292435884448, 35.81684148639408
_D6_1, _D6_6, _D6_7 = 19.985053242002433, -387.0373087493518, -189.17813819516758
_D6_8, _D6_9, _D6_10 = 527.8081592054236, -11.57390253995963, 6.8812326946963
_D6_11, _D6_12, _D6_13 = -1.0006050966910838, 0.7777137798053443, -2.778205752353508
_D6_14, _D6_15, _D6_16 = -60.19669523126412, 84.32040550667716, 11.99229113618279
_D7_1, _D7_6, _D7_7 = -25.69393346270375, -154.18974869023643, -231.5293791760455
_D7_8, _D7_9, _D7_10 = 357.6391179106141, 93.40532418362432, -37.45832313645163
_D7_11, _D7_12, _D7_13 = 104.0996495089623, 29.8402934266605, -43.53345659001114
_D7_14, _D7_15, _D7_16 = 96.32455395918828, -39.17726167561544, -149.72683625798564
_BHH1, _BHH9, _BHH12 = 0.2440944881889764, 0.7338466882816118, 0.022058823529411766

# I-controller on the error norm, as in Hairer's dop853: exponent 1/8,
# safety 0.9, step ratio clamped to [1/3, 6] and at most 1 right after a
# rejection.
_SAFETY = 0.9
_FAC_MIN = 1.0 / 3.0
_FAC_MAX = 6.0
_MAX_STEPS = 5_000_000
_EVENT_DR = 1e-12          # bisection width target, beats the 1e-10 contract
_BLOWUP_EPS = 1e-3         # BlowupCertain's relative margin (see EventKind)
_TIE_DR = 1e-12            # simultaneous-event ambiguity threshold


def _interpolant(seg: tuple, t: float) -> tuple[float, float]:
    """(f, g) of a dense segment (r0, h, f0, g0, qf0..qf6, qg0..qg6) at the
    fraction t of its step, y0 + h (t (q0 + t (q1 + ... + t q6)))."""
    _, h, f0, g0, qf0, qf1, qf2, qf3, qf4, qf5, qf6, qg0, qg1, qg2, qg3, qg4, qg5, qg6 = seg
    return (f0 + h * (t * (qf0 + t * (qf1 + t * (qf2 + t * (qf3 + t * (qf4 + t * (
                qf5 + t * qf6))))))),
            g0 + h * (t * (qg0 + t * (qg1 + t * (qg2 + t * (qg3 + t * (qg4 + t * (
                qg5 + t * qg6))))))))


def _segment_eval(seg: tuple, r: float) -> tuple[float, float]:
    """Evaluate one dense segment at r, clamped to its step."""
    t = (r - seg[0]) / seg[1]
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return _interpolant(seg, t)


class Trajectory:
    """Dense sampled solution with termination cause.

    r, f, g and H hold the samples at strictly increasing radii.  For the
    radial flow the first sample is the exact initial state (0, 0, x0, H0),
    the only one of a shot that stops at r = 0, which has no series;
    otherwise the next _SERIES_ROWS are sums of the power series at the
    origin on (0, r_h], and each accepted step adds _ROWS more, the last at
    its end.  `series` is then (r_h, coefficients, sf, sy): f = sf r
    F(r^2) and the second state component y = sy Y(r^2) there, as from
    _series_coefficients (sf = sy = x0), and sample_on sums it on [0, r_h]
    as the rows were summed; the dense-output segments, one per accepted
    step, recover the solution between rows to interpolation order 7.

    A trajectory of integrate_wall is solved in (f, u = 1 - g): u holds its
    rows of u, g = 1 - u, and its series and segments are in (f, u).
    Otherwise u is None and they are in (f, g).
    """

    def __init__(self, r, f, g, params: ModelParams, x0: float,
                 termination: Termination, segments=None, series=None, u=None):
        self.r = np.asarray(r, dtype=float)
        self.f = np.asarray(f, dtype=float)
        self.g = np.asarray(g, dtype=float)
        self.u = None if u is None else np.asarray(u, dtype=float)
        self.params = params
        self.x0 = float(x0)
        self.termination = termination
        self._segments = segments or []
        self._series = series
        self.H = energy(self.f, self.g, params)

    @property
    def one_minus_g2(self) -> np.ndarray:
        """1 - g^2 at the rows; u (2 - u) on the wall chart, where g rounds
        to 1 while u is below an ulp of 1."""
        if self.u is not None:
            return self.u * (2.0 - self.u)
        return 1.0 - self.g * self.g

    @property
    def r_end(self) -> float:
        return float(self.r[-1])

    @cached_property
    def _dense(self) -> np.ndarray:
        """The segments as rows r0, h, f0, g0, qf0..qf6, qg0..qg6 of one
        array, built when the trajectory is first sampled."""
        return np.array(self._segments).T.copy()

    def sample_on(self, radii) -> tuple[np.ndarray, np.ndarray]:
        """Interpolated (f, g) at a 1-D array of radii.

        Radii at or beyond either end take that end's sample; inside, the
        series is summed by _series_point up to r_h, and beyond it the
        dense segment holding the radius is evaluated with _segment_eval's
        arithmetic.  A trajectory with neither (a synthetic one) is
        interpolated linearly.
        """
        rs = np.asarray(radii, dtype=float)
        fs = np.interp(rs, self.r, self.f)
        gs = np.interp(rs, self.r, self.g)
        hi = rs >= self.r[-1]
        lo = rs <= self.r[0]
        fs[hi], gs[hi] = self.f[-1], self.g[-1]
        fs[lo], gs[lo] = self.f[0], self.g[0]
        wall = self.u is not None
        if self._series is not None:
            r_h, coef, sf, sy = self._series
            cols = _series_cols(coef)
            for i in np.flatnonzero(~(lo | hi) & (rs <= r_h)).tolist():
                fs[i], y = _series_point(cols, sf, sy, float(rs[i]))
                gs[i] = 1.0 - y if wall else y
        if self._segments:
            dense = self._dense
            on = ~(lo | hi) & (rs >= dense[0, 0])
            x = rs[on]
            idx = np.minimum(np.searchsorted(dense[0], x, side="right") - 1,
                             dense.shape[1] - 1)
            r0, h, f0, g0 = dense[:4, idx]
            qf, qg = dense[4:11, idx], dense[11:18, idx]
            t = (x - r0) / h
            t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
            pf, pg = qf[6], qg[6]
            for j in range(5, -1, -1):
                pf = qf[j] + t * pf
                pg = qg[j] + t * pg
            fs[on] = f0 + h * (t * pf)
            gs[on] = g0 + h * (t * pg)
            if wall:
                gs[on] = 1.0 - gs[on]
        return fs, gs

    @cached_property
    def _pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """(start radii, speed bounds) of the pieces of the interpolant: the
        series span, whose bound is _series_speed's, then one per dense
        segment, whose septic y0 + h sum q_j t^(j+1) moves each component
        at most sum (j + 1) |q_j| per unit r; a synthetic trajectory is
        linear between its samples, at the chord's speed."""
        starts, speeds = [], []
        if self._series is not None:
            r_h, coef, sf, sy = self._series
            starts.append(0.0)
            speeds.append(_series_speed(coef, sf, sy, r_h))
        if self._segments:
            dense = self._dense
            w = np.arange(1.0, 8.0)[:, None]
            starts.extend(dense[0])
            speeds.extend(np.hypot(np.sum(w * np.abs(dense[4:11]), axis=0),
                                   np.sum(w * np.abs(dense[11:18]), axis=0)))
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
        """The sign-mapped trajectory (f, g) -> (-f, -g), same radii; only
        in (f, g), since u = 1 - g has no sign-mapped twin."""
        if self.u is not None:
            raise ValueError("a trajectory in (f, u = 1 - g) has no mirror in u")
        segs = [seg[:2] + tuple(-v for v in seg[2:]) for seg in self._segments] or None
        series = None
        if self._series is not None:
            r_h, coef, sf, sy = self._series
            series = (r_h, coef, -sf, -sy)
        return Trajectory(self.r.copy(), -self.f, -self.g, self.params, -self.x0,
                          self.termination, segs, series)


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


def _wall_series_coefficients(u0: float, params: ModelParams) -> np.ndarray:
    """The regular radial solution from g(0) = 1 - u0 in (f, u = 1 - g), as
    polynomials in s = r^2: f = r F(s) and u = u0 W(s), W(0) = 1, laid out
    like _series_coefficients.  With G = 1 - u0 W, (r^2 f)' = r^2 G P and
    u' = -f u (2 - u) give F_m = (G P)_m / (2m + 3), P = s F^2 - a G^2 + b,
    and W_{m+1} = -(F R)_m / (2m + 2), R = W (2 - u0 W).  W does not shrink
    with u0, so u keeps its relative precision however far below an ulp
    of 1 it starts."""
    a, b = params.a, params.b
    cf, cw = [], [1.0]
    cg, ff, gg, pp, ww, rr = [], [], [], [], [], []     # G, F^2, G^2, P, W^2, R
    for m in range(_SERIES_ORDER):
        cg.append(1.0 - u0 if m == 0 else -u0 * cw[m])
        gg.append(_cauchy(cg, cg))
        pp.append((ff[m - 1] if m else b) - a * gg[m])
        cf.append(_cauchy(cg, pp) / (2 * m + 3))
        ff.append(_cauchy(cf, cf))
        ww.append(_cauchy(cw, cw))
        rr.append(2.0 * cw[m] - u0 * ww[m])
        cw.append(-_cauchy(cf, rr) / (2 * m + 2))
    return np.array([cf + [0.0], cw])


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


def _series_speed(coef: np.ndarray, sf: float, sy: float, r_h: float) -> float:
    """Bound on |(f', y')| over [0, r_h]: the derivatives' series summed
    with absolute coefficients at r_h."""
    m = np.arange(coef.shape[1])
    s = r_h * r_h
    df = np.sum((2 * m + 1) * np.abs(coef[0]) * s ** m)
    dy = np.sum(2 * m[1:] * np.abs(coef[1, 1:]) * r_h ** (2 * m[1:] - 1))
    return math.hypot(abs(sf) * df, abs(sy) * dy)


def _series_cols(coef: np.ndarray) -> tuple:
    """The columns (F_m, Y_m) of coef, highest m first, for _series_point."""
    return tuple(zip(coef[0].tolist()[::-1], coef[1].tolist()[::-1]))


def _series_point(cols, sf: float, sy: float, r: float) -> tuple[float, float]:
    """(f, y) = (sf r F(s), sy Y(s)) of the series at the radius r by
    Horner's rule in s = r^2 over its _series_cols; F's trailing 0 leaves
    its sum as if its Horner loop started one term later."""
    s = r * r
    pf = py = 0.0
    for cf, cy in cols:
        pf = pf * s + cf
        py = py * s + cy
    return sf * (r * pf), sy * py


def _series_span(coef: np.ndarray, sf: float, sy: float, r_h: float, rows, vals):
    """Samples of the series (f, y) = (sf r F, sy Y) on [0, r_h] and the
    first event there.

    Probes sit at r_h j / (4 _SERIES_ROWS), j = 0, 1, ..., the origin
    state (0, sy) first; every fourth is kept as a row.  The span is one
    segment of _scan, from the rows' values vals at the origin, with e =
    inf and the series as its evaluator, summed by _series_point one
    radius at a time.  Returns (rs, fs, ys, termination or None); the
    rows stop at an event.
    """
    n = 4 * _SERIES_ROWS
    point = functools.partial(_series_point, _series_cols(coef), sf, sy)
    pr = [r_h * (j / n) for j in range(n + 1)]
    probes = [(0.0, sy)] + [point(rv) for rv in pr[1:]]
    candidates = _scan(rows, vals, probes[-1], math.inf, math.inf, 0.0, sy,
                       lambda: (pr, probes[1:-1], point))
    rs, fs, ys = pr[::4], [p[0] for p in probes[::4]], [p[1] for p in probes[::4]]
    return _cut(rs, fs, ys, candidates, point) if candidates else (rs, fs, ys, None)


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


def _cut(rs, fs, ys, candidates, point):
    """The rows rs, fs, ys of a segment cut before the earliest candidate,
    whose state from the evaluator point ends them, and the termination
    (see _stop)."""
    term = _stop(candidates)
    k = bisect.bisect_left(rs, term.r)
    f, y = point(term.r)
    return rs[:k] + [term.r], fs[:k] + [f], ys[:k] + [y], term


def _start(rows, r: float, f: float, g: float):
    """The rows' values at a run's start (r, f, g), and the Blowup
    termination there if the threshold row's value is <= 0, else None."""
    vals = [vfn(f, g) for _, vfn, _ in rows]
    if any(kind is None and v <= 0.0 for (kind, _, _), v in zip(rows, vals)):
        return vals, Termination(TerminationKind.BLOWUP, r)
    return vals, None


def _scan(rows, vals, end, e_f: float, e_g: float, f: float, g: float, probe):
    """(r, kind) candidates of the rows that fire on one segment, the
    series span or an accepted step, from the start state (f, g).

    vals holds each row's value at the start and is set to its value at
    the state end.  A row skips the probes where its value has one
    strict sign at both ends and its margin holds for e_f and e_g (see
    EventKind); probe() gives the segment's radii xs, its states at
    xs[1:-1] and its evaluator, once.  A row fires at the first fall
    through zero, from > 0 to <= 0, bisected on the evaluator.
    """
    candidates, seen = [], None
    for i, (kind, vfn, margin) in enumerate(rows):
        v_lo, v_hi = vals[i], vfn(*end)
        vals[i] = v_hi
        if (((v_lo > 0.0 and v_hi > 0.0) or (v_lo < 0.0 and v_hi < 0.0))
                and margin(v_lo, e_f, e_g, f, g)):
            continue
        xs, states, point = seen = seen or probe()
        vs = (v_lo, *(vfn(*p) for p in states), v_hi)
        j = next((j for j in range(len(xs) - 1) if vs[j] > 0.0 >= vs[j + 1]), None)
        if j is not None:
            candidates.append((_bisect_root(lambda rv: vfn(*point(rv)), xs[j], xs[j + 1],
                                            _EVENT_DR), kind))
    return candidates


def _step_probes(seg: tuple, row_f: list, row_g: list):
    """Scan radii r0, r0 + t h for t in _PROBE_T, and r0 + h of a segment's
    step, its (f, g) at the interior ones and its evaluator.  The probes
    at t = 2/6 and 4/6 are the step's rows row_f, row_g at t = 1/3 and
    2/3: the same t, so the same doubles."""
    r0, h = seg[0], seg[1]
    xs = [r0, *(r0 + t * h for t in _PROBE_T), r0 + h]
    states = [_interpolant(seg, t) if j % 2 else (row_f[j // 2 - 1], row_g[j // 2 - 1])
              for j, t in enumerate(_PROBE_T, 1)]
    return xs, states, functools.partial(_segment_eval, seg)


def _bisect_root(fun, lo: float, hi: float, xtol: float) -> float:
    """First radius in [lo, hi] where fun falls to <= 0, given fun(lo) > 0
    and fun(hi) <= 0, to a width xtol or adjacent doubles (past r = 8192
    they are wider than 1e-12)."""
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if fun(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _in_blowup_region(r: float, f: float, g: float, a: float, b: float) -> bool:
    """Whether the state (f, g) at r > 0 lies in BlowupCertain's region:
    f g > 0, 0 < |g| < 1 and |g| r |f| > (1 + eps) (1 + r sqrt(|g| c+)),
    c+ = max(0, a - b, -phi(|g|)) (see EventKind)."""
    ag = abs(g)
    if not (f * g > 0.0 and ag < 1.0):
        return False
    c = max(0.0, a - b, ag * (a * ag * ag - b))
    return ag * r * abs(f) > (1.0 + _BLOWUP_EPS) * (1.0 + r * math.sqrt(ag * c))


def _run_dopri(deriv, r0: float, f0: float, g0: float, cfg: IntegratorConfig,
               rows=(), h_init: float | None = None, units=(1.0, 1.0),
               blowup_ab: tuple[float, float] | None = None):
    """Core stepper from r0 to cfg.r_max.  Returns (rs, fs, gs, segments, termination).

    deriv(r, f, g) -> (df, dg); rows is a list of (kind, value_fn(f, g),
    margin(v, e_f, e_g, f, g)) tuples, as from _event_functions, evaluated
    at r0 (see _start) and scanned on every accepted step by _scan.
    BlowupCertain is armed by the couplings blowup_ab = (a, b) and fires at
    a step end in its region (see EventKind).  The first trial step is
    h_init, by default _H_INIT; only the error test and r_max bound a step.
    The absolute tolerance of f and g is cfg.atol times their units; an
    error scale atol + rtol |y| that underflows to 0 reads 5e-324.
    """
    rtol, r_end = cfg.rtol, cfg.r_max
    atol_f, atol_g = cfg.atol * units[0], cfg.atol * units[1]
    h = min(_H_INIT if h_init is None else h_init, r_end - r0)
    if h <= 0.0:
        raise ValueError("empty integration span")

    rs = [r0]
    fs = [f0]
    gs = [g0]
    segments = []

    r, f, g = r0, f0, g0
    vals, term = _start(rows, r, f, g)
    if term is not None:
        return rs, fs, gs, segments, term
    kf1, kg1 = deriv(r, f, g)
    n_reject = 0

    for _ in range(_MAX_STEPS):
        if r_end - r <= 1e-12 * max(1.0, r_end):
            return rs, fs, gs, segments, Termination(TerminationKind.REACHED_RMAX, r)
        if h < 1e-13 * max(1.0, abs(r)):
            raise StiffnessError(r)
        h = min(h, r_end - r)

        # -- twelve stages
        kf2, kg2 = deriv(r + _C2 * h,
                         f + h * (_A2_1 * kf1),
                         g + h * (_A2_1 * kg1))
        kf3, kg3 = deriv(r + _C3 * h,
                         f + h * (_A3_1 * kf1 + _A3_2 * kf2),
                         g + h * (_A3_1 * kg1 + _A3_2 * kg2))
        kf4, kg4 = deriv(r + _C4 * h,
                         f + h * (_A4_1 * kf1 + _A4_3 * kf3),
                         g + h * (_A4_1 * kg1 + _A4_3 * kg3))
        kf5, kg5 = deriv(r + _C5 * h,
                         f + h * (_A5_1 * kf1 + _A5_3 * kf3 + _A5_4 * kf4),
                         g + h * (_A5_1 * kg1 + _A5_3 * kg3 + _A5_4 * kg4))
        kf6, kg6 = deriv(r + _C6 * h,
                         f + h * (_A6_1 * kf1 + _A6_4 * kf4 + _A6_5 * kf5),
                         g + h * (_A6_1 * kg1 + _A6_4 * kg4 + _A6_5 * kg5))
        kf7, kg7 = deriv(r + _C7 * h,
                         f + h * (_A7_1 * kf1 + _A7_4 * kf4 + _A7_5 * kf5 + _A7_6 * kf6),
                         g + h * (_A7_1 * kg1 + _A7_4 * kg4 + _A7_5 * kg5 + _A7_6 * kg6))
        kf8, kg8 = deriv(r + _C8 * h,
                         f + h * (_A8_1 * kf1 + _A8_4 * kf4 + _A8_5 * kf5 + _A8_6 * kf6
                                  + _A8_7 * kf7),
                         g + h * (_A8_1 * kg1 + _A8_4 * kg4 + _A8_5 * kg5 + _A8_6 * kg6
                                  + _A8_7 * kg7))
        kf9, kg9 = deriv(r + _C9 * h,
                         f + h * (_A9_1 * kf1 + _A9_4 * kf4 + _A9_5 * kf5 + _A9_6 * kf6
                                  + _A9_7 * kf7 + _A9_8 * kf8),
                         g + h * (_A9_1 * kg1 + _A9_4 * kg4 + _A9_5 * kg5 + _A9_6 * kg6
                                  + _A9_7 * kg7 + _A9_8 * kg8))
        kf10, kg10 = deriv(r + _C10 * h,
                           f + h * (_A10_1 * kf1 + _A10_4 * kf4 + _A10_5 * kf5 + _A10_6 * kf6
                                    + _A10_7 * kf7 + _A10_8 * kf8 + _A10_9 * kf9),
                           g + h * (_A10_1 * kg1 + _A10_4 * kg4 + _A10_5 * kg5 + _A10_6 * kg6
                                    + _A10_7 * kg7 + _A10_8 * kg8 + _A10_9 * kg9))
        kf11, kg11 = deriv(r + _C11 * h,
                           f + h * (_A11_1 * kf1 + _A11_4 * kf4 + _A11_5 * kf5 + _A11_6 * kf6
                                    + _A11_7 * kf7 + _A11_8 * kf8 + _A11_9 * kf9
                                    + _A11_10 * kf10),
                           g + h * (_A11_1 * kg1 + _A11_4 * kg4 + _A11_5 * kg5 + _A11_6 * kg6
                                    + _A11_7 * kg7 + _A11_8 * kg8 + _A11_9 * kg9
                                    + _A11_10 * kg10))
        kf12, kg12 = deriv(r + h,
                           f + h * (_A12_1 * kf1 + _A12_4 * kf4 + _A12_5 * kf5 + _A12_6 * kf6
                                    + _A12_7 * kf7 + _A12_8 * kf8 + _A12_9 * kf9
                                    + _A12_10 * kf10 + _A12_11 * kf11),
                           g + h * (_A12_1 * kg1 + _A12_4 * kg4 + _A12_5 * kg5 + _A12_6 * kg6
                                    + _A12_7 * kg7 + _A12_8 * kg8 + _A12_9 * kg9
                                    + _A12_10 * kg10 + _A12_11 * kg11))
        # eighth-order increment per unit r, then the fifth-order error
        # and the third-order one (increment minus _BHH weights)
        bf = (_B1 * kf1 + _B6 * kf6 + _B7 * kf7 + _B8 * kf8 + _B9 * kf9 + _B10 * kf10
              + _B11 * kf11 + _B12 * kf12)
        bg = (_B1 * kg1 + _B6 * kg6 + _B7 * kg7 + _B8 * kg8 + _B9 * kg9 + _B10 * kg10
              + _B11 * kg11 + _B12 * kg12)
        f1 = f + h * bf
        g1 = g + h * bg
        err_f = (_E1 * kf1 + _E6 * kf6 + _E7 * kf7 + _E8 * kf8 + _E9 * kf9 + _E10 * kf10
                 + _E11 * kf11 + _E12 * kf12)
        err_g = (_E1 * kg1 + _E6 * kg6 + _E7 * kg7 + _E8 * kg8 + _E9 * kg9 + _E10 * kg10
                 + _E11 * kg11 + _E12 * kg12)
        err3_f = bf - _BHH1 * kf1 - _BHH9 * kf9 - _BHH12 * kf12
        err3_g = bg - _BHH1 * kg1 - _BHH9 * kg9 - _BHH12 * kg12

        # on a shot from a subnormal x0 both terms can underflow to 0; the
        # scale is then floored at the least subnormal, 5e-324
        sc_f = atol_f + rtol * max(abs(f), abs(f1)) or 5e-324
        sc_g = atol_g + rtol * max(abs(g), abs(g1)) or 5e-324
        # products, not **2: a hopeless trial step must saturate to inf
        # (and get rejected) rather than raise OverflowError
        q_f, q_g = err_f / sc_f, err_g / sc_g
        err5 = q_f * q_f + q_g * q_g
        q_f, q_g = err3_f / sc_f, err3_g / sc_g
        deno = err5 + 0.01 * (q_f * q_f + q_g * q_g)
        err = h * err5 / math.sqrt(2.0 * deno) if deno != 0.0 else 0.0

        if not (math.isfinite(f1) and math.isfinite(g1) and math.isfinite(err)):
            h *= 0.25
            n_reject += 1
            if n_reject > 60:
                raise StiffnessError(r, "repeated nonfinite steps")
            continue
        if err > 1.0:
            h *= max(_FAC_MIN, _SAFETY * err ** -0.125)
            n_reject += 1
            if n_reject > 100:
                raise StiffnessError(r, "persistent step rejection")
            continue

        # -- the derivative at the new point and three interpolation stages
        r1 = r + h
        kf13, kg13 = deriv(r1, f1, g1)
        kf14, kg14 = deriv(r + _C14 * h,
                           f + h * (_A14_1 * kf1 + _A14_7 * kf7 + _A14_8 * kf8 + _A14_9 * kf9
                                    + _A14_10 * kf10 + _A14_11 * kf11 + _A14_12 * kf12
                                    + _A14_13 * kf13),
                           g + h * (_A14_1 * kg1 + _A14_7 * kg7 + _A14_8 * kg8 + _A14_9 * kg9
                                    + _A14_10 * kg10 + _A14_11 * kg11 + _A14_12 * kg12
                                    + _A14_13 * kg13))
        kf15, kg15 = deriv(r + _C15 * h,
                           f + h * (_A15_1 * kf1 + _A15_6 * kf6 + _A15_7 * kf7 + _A15_8 * kf8
                                    + _A15_11 * kf11 + _A15_12 * kf12 + _A15_13 * kf13
                                    + _A15_14 * kf14),
                           g + h * (_A15_1 * kg1 + _A15_6 * kg6 + _A15_7 * kg7 + _A15_8 * kg8
                                    + _A15_11 * kg11 + _A15_12 * kg12 + _A15_13 * kg13
                                    + _A15_14 * kg14))
        kf16, kg16 = deriv(r + _C16 * h,
                           f + h * (_A16_1 * kf1 + _A16_6 * kf6 + _A16_7 * kf7 + _A16_8 * kf8
                                    + _A16_9 * kf9 + _A16_13 * kf13 + _A16_14 * kf14
                                    + _A16_15 * kf15),
                           g + h * (_A16_1 * kg1 + _A16_6 * kg6 + _A16_7 * kg7 + _A16_8 * kg8
                                    + _A16_9 * kg9 + _A16_13 * kg13 + _A16_14 * kg14
                                    + _A16_15 * kg15))

        # seventh-order interpolant y0 + h sum q_j t^(j+1): with the
        # increment b per unit r, d1 = k1 - b, d2 = b - k13 - d1 and
        # d_i = sum_s _Di_s k_s, Hairer's y0 + h t (b + (1-t) (d1 + t (d2
        # + (1-t) (d4 + t (d5 + (1-t) (d6 + t d7)))))) in powers of t,
        # whose t coefficient b + d1 is k1.  The trailing + 0.0 turns a
        # -0.0 sum into +0.0, so a rest orbit on f = +0.0 samples +0.0 and
        # its mirrored() twin -0.0
        d4f = (_D4_1 * kf1 + _D4_6 * kf6 + _D4_7 * kf7 + _D4_8 * kf8 + _D4_9 * kf9
               + _D4_10 * kf10 + _D4_11 * kf11 + _D4_12 * kf12 + _D4_13 * kf13
               + _D4_14 * kf14 + _D4_15 * kf15 + _D4_16 * kf16)
        d5f = (_D5_1 * kf1 + _D5_6 * kf6 + _D5_7 * kf7 + _D5_8 * kf8 + _D5_9 * kf9
               + _D5_10 * kf10 + _D5_11 * kf11 + _D5_12 * kf12 + _D5_13 * kf13
               + _D5_14 * kf14 + _D5_15 * kf15 + _D5_16 * kf16)
        d6f = (_D6_1 * kf1 + _D6_6 * kf6 + _D6_7 * kf7 + _D6_8 * kf8 + _D6_9 * kf9
               + _D6_10 * kf10 + _D6_11 * kf11 + _D6_12 * kf12 + _D6_13 * kf13
               + _D6_14 * kf14 + _D6_15 * kf15 + _D6_16 * kf16)
        d7f = (_D7_1 * kf1 + _D7_6 * kf6 + _D7_7 * kf7 + _D7_8 * kf8 + _D7_9 * kf9
               + _D7_10 * kf10 + _D7_11 * kf11 + _D7_12 * kf12 + _D7_13 * kf13
               + _D7_14 * kf14 + _D7_15 * kf15 + _D7_16 * kf16)
        d4g = (_D4_1 * kg1 + _D4_6 * kg6 + _D4_7 * kg7 + _D4_8 * kg8 + _D4_9 * kg9
               + _D4_10 * kg10 + _D4_11 * kg11 + _D4_12 * kg12 + _D4_13 * kg13
               + _D4_14 * kg14 + _D4_15 * kg15 + _D4_16 * kg16)
        d5g = (_D5_1 * kg1 + _D5_6 * kg6 + _D5_7 * kg7 + _D5_8 * kg8 + _D5_9 * kg9
               + _D5_10 * kg10 + _D5_11 * kg11 + _D5_12 * kg12 + _D5_13 * kg13
               + _D5_14 * kg14 + _D5_15 * kg15 + _D5_16 * kg16)
        d6g = (_D6_1 * kg1 + _D6_6 * kg6 + _D6_7 * kg7 + _D6_8 * kg8 + _D6_9 * kg9
               + _D6_10 * kg10 + _D6_11 * kg11 + _D6_12 * kg12 + _D6_13 * kg13
               + _D6_14 * kg14 + _D6_15 * kg15 + _D6_16 * kg16)
        d7g = (_D7_1 * kg1 + _D7_6 * kg6 + _D7_7 * kg7 + _D7_8 * kg8 + _D7_9 * kg9
               + _D7_10 * kg10 + _D7_11 * kg11 + _D7_12 * kg12 + _D7_13 * kg13
               + _D7_14 * kg14 + _D7_15 * kg15 + _D7_16 * kg16)
        d1f = kf1 - bf
        d2f = bf - kf13 - d1f
        d1g = kg1 - bg
        d2g = bg - kg13 - d1g
        qf0 = kf1 + 0.0
        qf1 = d2f - d1f + d4f + 0.0
        qf2 = d5f + d6f - d2f - 2.0 * d4f + 0.0
        qf3 = d4f - 2.0 * d5f - 3.0 * d6f + d7f + 0.0
        qf4 = d5f + 3.0 * d6f - 3.0 * d7f + 0.0
        qf5 = 3.0 * d7f - d6f + 0.0
        qf6 = 0.0 - d7f
        qg0 = kg1 + 0.0
        qg1 = d2g - d1g + d4g + 0.0
        qg2 = d5g + d6g - d2g - 2.0 * d4g + 0.0
        qg3 = d4g - 2.0 * d5g - 3.0 * d6g + d7g + 0.0
        qg4 = d5g + 3.0 * d6g - 3.0 * d7g + 0.0
        qg5 = 3.0 * d7g - d6g + 0.0
        qg6 = 0.0 - d7g
        seg = (r, h, f, g, qf0, qf1, qf2, qf3, qf4, qf5, qf6,
               qg0, qg1, qg2, qg3, qg4, qg5, qg6)

        # -- rows at t = j/3, the last the end state itself
        row_r, row_f, row_g = [], [], []
        for t in _ROW_T:
            row_r.append(r + t * h)
            fv, gv = _interpolant(seg, t)
            row_f.append(fv)
            row_g.append(gv)
        row_r.append(r1)
        row_f.append(f1)
        row_g.append(g1)

        # -- the event scan of the accepted step, the probes at t = j/6
        # catching a double zero inside it
        candidates = []
        if rows:
            e_f = h * (abs(qf6) + abs(qf5) + abs(qf4) + abs(qf3) + abs(qf2) + abs(qf1)
                       + abs(qf0))
            e_g = h * (abs(qg6) + abs(qg5) + abs(qg4) + abs(qg3) + abs(qg2) + abs(qg1)
                       + abs(qg0))
            candidates = _scan(rows, vals, (f1, g1), e_f, e_g, f, g,
                               lambda: _step_probes(seg, row_f, row_g))

        # -- the proved blowup region, at the step end only: one product
        # and one compare on a step with f g <= 0
        if (blowup_ab is not None and f1 * g1 > 0.0
                and _in_blowup_region(r1, f1, g1, *blowup_ab)):
            candidates.append((r1, EventKind.BLOWUP_CERTAIN))

        segments.append(seg)
        if candidates:
            row_r, row_f, row_g, term = _cut(row_r, row_f, row_g, candidates,
                                             functools.partial(_segment_eval, seg))
            return rs + row_r, fs + row_f, gs + row_g, segments, term

        # -- accept
        rs += row_r
        fs += row_f
        gs += row_g
        r, f, g = r1, f1, g1
        kf1, kg1 = kf13, kg13

        fac = _FAC_MAX if err == 0.0 else min(_FAC_MAX, _SAFETY * err ** -0.125)
        if n_reject:
            fac = min(fac, 1.0)
        n_reject = 0
        h *= fac
    raise StiffnessError(r, "step budget exhausted")


_DECAY_EPS = 1e-8


def _event_functions(events, params: ModelParams, wall: bool = False):
    """(kind, value(f, g), margin(v, e_f, e_g, f, g)) per armed kind with
    a value, then Blowup's row, kind None; see EventKind.
    BlowupCertain has no value and is left out.

    On the wall chart the functions take (f, u) and evaluate the kind's
    rule at g = 1 - u, and the margins read e_g = e_u + 2^-51 (1 + |u| +
    e_u), which also covers the rounding of 1 - u at the start and at a
    probe.  Blowup reads |f| + |u| there.
    """
    a, b, h_trap = params.a, params.b, trap_energy(params)
    level = BLOWUP_THRESHOLD
    ulp_level, ulp_decay = math.ulp(level), math.ulp(_DECAY_EPS)

    def energy_margin(v, e_f, e_g, f, g):
        fm, gm, gl = abs(f) + e_f, abs(g) + e_g, max(0.0, abs(g) - e_g)
        f2, g2, l2 = fm * fm, gm * gm, gl * gl
        return abs(v) > (e_f * fm * max(abs(1.0 - l2), abs(g2 - 1.0))
                         + e_g * gm * max(abs(a * l2 - b - f2), abs(a * g2 - b))
                         + 2.0 ** -49 * (f2 * (1.0 + g2) + a * g2 * g2 + b * g2))

    table = {
        EventKind.F_CROSSES_ZERO: (lambda f, g: -f, lambda v, ef, eg, f, g: abs(v) > ef),
        EventKind.G_CROSSES_ZERO: (lambda f, g: g, lambda v, ef, eg, f, g: abs(v) > eg),
        EventKind.DECAY_DETECTED: (
            lambda f, g: abs(f) + abs(g) - _DECAY_EPS,
            lambda v, ef, eg, f, g: abs(v) > 2.0 * (ef + eg) + ulp_decay),
        EventKind.ENERGY_BARRIER: (lambda f, g: energy(f, g, params) - h_trap, energy_margin),
    }
    if wall:
        table = {kind: (lambda f, u, _v=v: _v(f, 1.0 - u), lambda v, ef, eu, f, u, _m=m:
                        _m(v, ef, eu + 2.0 ** -51 * (1.0 + abs(u) + eu), f, 1.0 - u))
                 for kind, (v, m) in table.items()}
    return [(kind,) + table[kind] for kind in events if kind in table] + [
        (None, lambda f, g: level - (abs(f) + abs(g)),
         lambda v, ef, eg, f, g: abs(v) > 2.0 * (ef + eg) + ulp_level)]


def _wall_field(params: ModelParams):
    """The radial field in (f, u = 1 - g): u' = -g' = -f u (2 - u)."""
    a, b = params.a, params.b

    def deriv(r, f, u):
        g = 1.0 - u
        return -(2.0 / r) * f + g * (f * f - a * g * g + b), -f * u * (2.0 - u)

    return deriv


def _radial_run(coefficients, sf: float, sy: float, deriv, units, rows,
                params: ModelParams, cfg: IntegratorConfig, blowup_ab=None):
    """The series span and the stepper from r_h, with BlowupCertain's
    region armed there by blowup_ab = (a, b) (see _run_dopri); returns
    (rs, fs, ys, segments, termination, series).  A shot that starts at
    the Blowup threshold stops at r = 0 (see _start) with one row and no
    series; only a shot that leaves the origin calls coefficients() and
    finds its hand-off radius r_h.
    """
    vals, term = _start(rows, 0.0, 0.0, sy)
    if term is not None:
        return [0.0], [0.0], [sy], [], term, None
    coef = coefficients()
    r_h = min(_handoff_radius(coef, params), cfg.r_max)
    if not r_h > 0.0:
        raise StiffnessError(0.0, "power series at the origin overflows")
    series = (r_h, coef, sf, sy)
    rs, fs, ys, term = _series_span(coef, sf, sy, r_h, rows, vals)
    segs = []
    if term is None and r_h < cfg.r_max:
        out = _run_dopri(deriv, r_h, fs[-1], ys[-1], cfg, rows,
                         h_init=r_h * cfg.rtol ** 0.125, units=units, blowup_ab=blowup_ab)
        rs += out[0][1:]
        fs += out[1][1:]
        ys += out[2][1:]
        segs, term = out[3], out[4]
    elif term is None:
        term = Termination(TerminationKind.REACHED_RMAX, r_h)
    return rs, fs, ys, segs, term, series


def integrate_radial(x0: float, params: ModelParams,
                     config: IntegratorConfig | None = None,
                     events=()) -> Trajectory:
    """Solve the singular radial system from g(0) = x0, f(0) = 0.

    A shot from |x0| >= BLOWUP_THRESHOLD ends at r = 0 with one row (see
    _radial_run).  Otherwise the power series at the origin covers [0,
    r_h] (see the module docstring), where a run that r_max or an event
    ends early stops; the stepper takes over from r_h, with the absolute
    tolerance atol min(1, |x0|) (atol at x0 = 0) so the error is measured
    in units of x0 like the series, and the error of a shot from a tiny x0
    is not lost under atol.  Where the error scale underflows to 0, on a
    shot from a subnormal x0, it is floored at the least subnormal.  Runs
    until r_max, blowup, or the first of the armed `EventKind`s (`events`)
    to fire; simultaneous events localized within 1e-12 of each other are
    reported together (the flow cannot vanish two components at once away
    from the origin, so a tie flags numerical ambiguity, not physics).
    Blowup is the threshold |f| + |g| = BLOWUP_THRESHOLD, or, if
    BlowupCertain is armed, the first step end of the stepper inside its
    region, which the couplings (a, b) set (see EventKind); no event
    fires at r = 0 (shooting._origin_decision decides shots there).  A
    non-finite x0 raises ValueError.
    """
    if not math.isfinite(x0):
        raise ValueError(f"x0 = g(0) must be finite, got {x0!r}")
    cfg = config or DEFAULT_CONFIG
    unit = min(1.0, abs(x0)) or 1.0
    rs, fs, gs, segs, term, series = _radial_run(
        functools.partial(_series_coefficients, x0, params), x0, x0, vector_field(params),
        (unit * math.sqrt(params.a), unit), _event_functions(events, params), params, cfg,
        (params.a, params.b) if EventKind.BLOWUP_CERTAIN in events else None)
    return Trajectory(rs, fs, gs, params, x0, term, segs, series)


def integrate_wall(u0: float, params: ModelParams,
                   config: IntegratorConfig | None = None,
                   events=()) -> Trajectory:
    """Solve the radial system from g(0) = 1 - u0, f(0) = 0 in the chart
    (f, u = 1 - g).

    Below x = 1 the float grid of x = g(0) has steps of 2^-53, but the
    invariant line g = 1 is u = 0 here, and u keeps its relative precision
    however small it is: the series (_wall_series_coefficients) and the
    stepper carry u itself, whose absolute tolerance is atol min(1, u0)
    (f's is atol sqrt(a), as at x = 1).  The returned trajectory has x0 =
    1 - u0 (1.0 once u0 is below half an ulp), g = 1 - u, and u at its
    rows.  Events and r_max act as in integrate_radial; blowup is
    |f| + |u| >= BLOWUP_THRESHOLD, within 1 of the (f, g) level; u = 0 is
    invariant, so no event watches it.  BlowupCertain is not available on
    this chart.
    """
    if not 0.0 <= u0 < math.inf:
        raise ValueError("u0 = 1 - g(0) must be finite and nonnegative")
    if EventKind.BLOWUP_CERTAIN in events:
        raise ValueError("BlowupCertain is tested in (f, g) only")
    cfg = config or DEFAULT_CONFIG
    unit = min(1.0, u0) or 1.0
    rs, fs, us, segs, term, series = _radial_run(
        functools.partial(_wall_series_coefficients, u0, params), 1.0, u0, _wall_field(params),
        (math.sqrt(params.a), unit), _event_functions(events, params, wall=True),
        params, cfg)
    us = np.asarray(us, dtype=float)
    return Trajectory(rs, fs, 1.0 - us, params, 1.0 - u0, term, segs, series, u=us)


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
                                        p0.f, p0.g, cfg, _event_functions((), params))
    return Trajectory(rs, fs, gs, params, p0.g, term, segs)
