"""Adaptive integration: accuracy, events, terminations, dense output."""
import bisect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucshoot import integrator
from nucshoot.integrator import (BLOWUP_THRESHOLD, EventKind,
                                 IntegratorConfig, StiffnessError, Termination,
                                 TerminationKind, integrate_conservative,
                                 integrate_radial, integrate_shifted,
                                 integrate_wall)
from nucshoot.model import (ModelParams, PhasePoint, energy, exact_coth,
                            vector_field)
from nucshoot.shooting import (ShotClass, bisect_ground_state, classify_grid,
                               classify_shot, default_events)

P94 = ModelParams(9.0, 4.0)
P41 = ModelParams(4.0, 1.0)
P32 = ModelParams(3.0, 2.0)

# frozen at defaults: first rising f-zero for x0 = 0.8 at (9, 4)
RX_08_94 = 2.13940806222205
# frozen at defaults: first falling g-zero for x0 = 0.95 at (9, 1)
RX_095_91 = 2.719237514944339


def _sample(traj, r):
    """(f, g) at one radius through Trajectory.sample_on."""
    fs, gs = traj.sample_on([r])
    return fs[0], gs[0]


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=1e-16)
    with pytest.raises(ValueError):
        IntegratorConfig(atol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(r_max=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(r_max=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(r_max=math.inf)


def test_radial_initial_row_and_rmax_snap():
    cfg = IntegratorConfig(r_max=10.0)
    traj = integrate_radial(0.5, P94, cfg)
    assert traj.r[0] == 0.0 and traj.f[0] == 0.0 and traj.g[0] == 0.5
    assert np.all(np.diff(traj.r) > 0.0)
    assert traj.termination.kind is TerminationKind.REACHED_RMAX
    assert traj.r_end == 10.0  # exact endpoint, not merely close
    assert traj.termination.describe() == "ReachedRmax(r=10)"
    assert traj.f.shape == traj.g.shape == traj.H.shape == traj.r.shape


def test_radial_tracks_coth_profile():
    """x0 = 1 rides the invariant g = 1 line; f follows the closed form."""
    params = ModelParams(2.5, 1.0)
    traj = integrate_radial(1.0, params, IntegratorConfig(r_max=10.0))
    rs = np.linspace(0.0, 10.0, 501)
    fs, gs = traj.sample_on(rs)
    worst = 0.0
    for r, f, g in zip(rs, fs, gs):
        ex = exact_coth(float(r), params)
        worst = max(worst, abs(f - ex.f), abs(g - ex.g))
    assert worst <= 1e-6


def test_conservative_energy_drift():
    starts = [PhasePoint(0.3, 0.4), PhasePoint(-0.4, 0.5), PhasePoint(0.2, -0.55)]
    cfg = IntegratorConfig(r_max=50.0)
    for p0 in starts:
        traj = integrate_conservative(p0, P94, cfg)
        assert traj.termination.kind is TerminationKind.REACHED_RMAX
        drift = np.max(np.abs(traj.H - traj.H[0]))
        assert drift <= 1e-8


def test_dense_output_conserves_energy_between_nodes():
    cfg = IntegratorConfig(r_max=10.0)
    traj = integrate_conservative(PhasePoint(0.3, 0.4), P94, cfg)
    fs, gs = traj.sample_on(np.linspace(0.0, 10.0, 1001))
    h = energy(fs, gs, P94)
    assert np.max(np.abs(h - traj.H[0])) <= 1e-7


def _tableau():
    """The kernel's DOP853 coefficients by name: nodes c, stage weights
    a[(i, j)], weights b, fifth-order error weights e and the embedded
    third-order weights bhh, stages numbered from 1; stages 12 and 13 sit
    at the step's end, and stage 13's row of a is b."""
    names = vars(integrator)
    def table(pattern):
        return {tuple(map(int, m.groups())): float(v) for k, v in names.items()
                if (m := re.fullmatch(pattern, k))}
    c = {i: v for (i,), v in table(r"_C(\d+)").items()}
    c.update({1: 0.0, 12: 1.0, 13: 1.0})
    a = table(r"_A(\d+)_(\d+)")
    b = {i: v for (i,), v in table(r"_B(\d+)").items()}
    a.update({(13, j): v for j, v in b.items()})
    e = {i: v for (i,), v in table(r"_E(\d+)").items()}
    bhh = {i: v for (i,), v in table(r"_BHH(\d+)").items()}
    return c, a, b, e, bhh


def test_dop853_tableau_order_conditions():
    """The quadrature conditions sum b_i c_i^k = 1/(k + 1) of order 8, the
    row sums sum_j a_ij = c_i of all 16 stages, and error weights that
    vanish on a constant field, all to 1e-14."""
    c, a, b, e, bhh = _tableau()
    assert sorted(c) == list(range(1, 17)) and len(b) == 8
    for k in range(8):
        assert abs(sum(w * c[i] ** k for i, w in b.items()) - 1.0 / (k + 1)) <= 1e-14
    for i in range(2, 17):
        assert abs(sum(v for (row, _), v in a.items() if row == i) - c[i]) <= 1e-14
    assert abs(sum(e.values())) <= 1e-14
    assert abs(sum(b.values()) - sum(bhh.values())) <= 1e-14


def test_step_matches_scipy_dop853():
    """One radial step of the kernel from a fixed state and h, against
    scipy's DOP853 step from the same state: the new state and the dense
    output at t = 1/4, 1/2, 3/4 agree to 1e-14."""
    scipy_dop853 = pytest.importorskip("scipy.integrate").DOP853
    deriv = vector_field(P94)
    r0, f0, g0, h = 0.5, -0.3, 0.8, 0.25
    # sky-high tolerances accept the first trial step
    rs, fs, gs, segs, term = integrator._run_dopri(
        deriv, r0, f0, g0, IntegratorConfig(rtol=10.0, atol=10.0, r_max=r0 + h), h_init=h)
    assert len(segs) == 1 and term.kind is TerminationKind.REACHED_RMAX
    ref = scipy_dop853(lambda r, y: np.array(deriv(r, *y)), r0, np.array([f0, g0]),
                       r0 + h, first_step=h, rtol=10.0, atol=10.0)
    ref.step()
    assert ref.t == rs[-1] == r0 + h
    assert np.max(np.abs(ref.y - [fs[-1], gs[-1]])) <= 1e-14
    dense = ref.dense_output()
    for t in (0.25, 0.5, 0.75):
        r = r0 + t * h
        assert np.max(np.abs(dense(r) - integrator._segment_eval(segs[0], r))) <= 1e-14


def test_rows_tile_the_segments():
    """Past the series rows, each accepted step adds _ROWS rows at t = j/_ROWS
    of its segment, the last its end state, where the interpolant ends."""
    traj = integrate_radial(0.8, P94, IntegratorConfig(r_max=5.0))
    segments = traj._segments
    k = integrator._ROWS
    rows = 1 + integrator._SERIES_ROWS       # the origin and the series rows
    assert k * len(segments) == len(traj.r) - rows > 100
    assert segments[0][0] == traj.r[rows - 1] == traj._series[0]
    for n, seg in enumerate(segments):
        end = rows + k * n + k - 1
        assert traj.r[end] == seg[0] + seg[1]
        f, g = integrator._segment_eval(seg, seg[0] + seg[1])
        assert abs(f - traj.f[end]) <= 4e-16 * max(1.0, abs(f))
        assert abs(g - traj.g[end]) <= 4e-16 * max(1.0, abs(g))
        for j, t in enumerate(integrator._ROW_T):
            f, g = integrator._segment_eval(seg, traj.r[end - k + 1 + j])
            assert abs(f - traj.f[end - k + 1 + j]) <= 4e-16 * max(1.0, abs(f))
            assert abs(g - traj.g[end - k + 1 + j]) <= 4e-16 * max(1.0, abs(g))


def _series_at(x0, params, r):
    """(f, g) of the regular solution's power series at the origin,
    summed at the radius r to the order a radial run hands off with."""
    cols = integrator._series_cols(integrator._series_coefficients(x0, params))
    return integrator._series_point(cols, x0, x0, float(r))


def _sample_reference(traj, r):
    """One radius the long way: end clamps, then the segment whose start
    is the last one at or below r, evaluated by _segment_eval, or below
    the first segment the sum of the series."""
    if r <= traj.r[0]:
        return traj.f[0], traj.g[0]
    if r >= traj.r[-1]:
        return traj.f[-1], traj.g[-1]
    starts = [seg[0] for seg in traj._segments]
    if starts and r >= starts[0]:
        return integrator._segment_eval(traj._segments[bisect.bisect_right(starts, r) - 1], r)
    return _series_at(traj.x0, traj.params, r)


def test_sample_on_equals_segment_eval_loop():
    """The array sampler matches a per-point evaluation bit for bit: on
    radial shots from the origin clamp through the series span to the end
    clamp, one of them ending inside that span, and on a conservative
    orbit with no series; on a uniform grid and on the nodes, where a
    segment starts and the one before it ends."""
    short = integrate_radial(0.8, P94, IntegratorConfig(r_max=0.25))
    assert short._series[0] == short.r_end == 0.25 and not short._segments
    cases = [
        (short, 257),
        (integrate_radial(0.8, P94, IntegratorConfig(r_max=5.0)), 1001),
        (integrate_conservative(PhasePoint(0.3, 0.4), P94,
                                IntegratorConfig(r_max=10.0)), 1001),
    ]
    for traj, n in cases:
        grid = np.linspace(traj.r[0], traj.r_end, n)
        fs, gs = traj.sample_on(grid)
        loop = np.array([_sample_reference(traj, float(r)) for r in grid])
        assert np.array_equal(fs, loop[:, 0])
        assert np.array_equal(gs, loop[:, 1])
        node_fs, node_gs = traj.sample_on(traj.r)
        nodes = np.array([_sample_reference(traj, float(r)) for r in traj.r])
        assert np.array_equal(node_fs, nodes[:, 0])
        assert np.array_equal(node_gs, nodes[:, 1])


def test_sample_at_nodes_and_clamping():
    traj = integrate_radial(0.8, P94, IntegratorConfig(r_max=5.0))
    k = len(traj.r) // 2
    f, g = _sample(traj, float(traj.r[k]))
    assert f == pytest.approx(traj.f[k], rel=0, abs=1e-12)
    assert g == pytest.approx(traj.g[k], rel=0, abs=1e-12)
    assert _sample(traj, 99.0) == (traj.f[-1], traj.g[-1])
    assert _sample(traj, 0.0) == (0.0, 0.8)


def test_sample_at_series_region():
    """On [0, r_h] sample_on sums the series: it equals the series summed
    point by point, and near the origin the leading terms f'(0) r and
    x + g''(0) r^2 / 2."""
    x0 = 0.8
    traj = integrate_radial(x0, P94, IntegratorConfig(r_max=2.0))
    r_h = traj._series[0]
    assert traj.r[integrator._SERIES_ROWS] == r_h < 2.0
    rs = np.linspace(0.0, r_h, 97)[1:]
    fs, gs = traj.sample_on(rs)
    for r, f, g in zip(rs, fs, gs):
        assert (f, g) == _series_at(x0, P94, float(r))
    r = 1e-7
    f, g = _sample(traj, r)
    c1 = x0 * (P94.b - P94.a * x0 * x0) / 3.0
    assert f == pytest.approx(c1 * r, rel=1e-12)
    assert g == pytest.approx(x0 + 0.5 * c1 * (1.0 - x0 * x0) * r * r, rel=1e-15)


def test_series_start_matches_taylor():
    """The state at the hand-off radius matches a 20-digit mpmath shot:
    the Taylor-method ODE solver odefun from r = 1e-5, started on the
    second-order state there, whose error decays along the regular
    solution; at r_h it is 3e-22 from the same shot at 30 digits, which
    takes four times as long."""
    mp = pytest.importorskip("mpmath")
    x0 = 0.8
    r_h = integrate_radial(x0, P94, IntegratorConfig(r_max=2.0))._series[0]
    f, g = _series_at(x0, P94, r_h)
    with mp.workdps(20):
        a, b, x, r0 = mp.mpf(P94.a), mp.mpf(P94.b), mp.mpf(x0), mp.mpf("1e-5")
        c1 = x * (b - a * x * x) / 3
        shot = mp.odefun(lambda r, y: [-2 * y[0] / r + y[1] * (y[0] ** 2 - a * y[1] ** 2 + b),
                                       y[0] * (1 - y[1] ** 2)],
                         r0, [c1 * r0, x + c1 * (1 - x * x) * r0 ** 2 / 2])
        f_ref, g_ref = shot(mp.mpf(r_h))
        assert abs(f - f_ref) <= 1e-13 and abs(g - g_ref) <= 1e-13


@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize("x0", [0.8, 0.99, 1.0 - 3e-14])
def test_series_is_scale_covariant(lam, x0):
    """(f, g)(r) -> (l f(l r), g(l r)) maps solutions at (a, b) onto
    solutions at (l^2 a, l^2 b), so f_k -> l^(k+1) f_k and g_k -> l^k g_k,
    exactly for a power of two l, and the hand-off radius r_h -> r_h / l."""
    scaled = ModelParams(lam * lam * P94.a, lam * lam * P94.b)
    coef = integrator._series_coefficients(x0, P94)
    m = np.arange(coef.shape[1])
    factor = lam ** np.array([2 * m + 2, 2 * m])     # f_(2m+1) and g_(2m)
    assert np.array_equal(integrator._series_coefficients(x0, scaled), factor * coef)
    r_h = integrator._handoff_radius(coef, P94)
    assert (integrator._handoff_radius(factor * coef, scaled)
            == pytest.approx(r_h / lam, rel=1e-14))


def test_event_inside_series_span_is_localized():
    """Just above the center sqrt(b/a) every coefficient is small and r_h
    would reach past the rising zero of f; the event is localized on the
    series, where f(r_x) = 0 and the rows stop, and it agrees with a scipy
    DOP853 shot from r = 1e-6."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    x0 = 2.0 / 3.0 + 1e-6
    r_h = integrator._handoff_radius(integrator._series_coefficients(x0, P94), P94)
    traj = integrate_radial(x0, P94, events=default_events(x0, P94))
    term = traj.termination
    assert term.event_kinds == (EventKind.F_CROSSES_ZERO,)
    assert term.r < r_h and not traj._segments
    assert len(traj.r) <= 2 + integrator._SERIES_ROWS
    assert abs(traj.f[-1]) <= 1e-15 and np.all(traj.f[1:-1] < 0.0)

    def rhs(r, y):
        return [-2.0 * y[0] / r + y[1] * (y[0] ** 2 - 9.0 * y[1] ** 2 + 4.0),
                y[0] * (1.0 - y[1] ** 2)]

    def f_rises(r, y):
        return y[0]
    f_rises.terminal, f_rises.direction = True, 1.0
    c1 = x0 * (4.0 - 9.0 * x0 * x0) / 3.0
    r0 = 1e-6
    sol = solve_ivp(rhs, (r0, 10.0), [c1 * r0, x0 + 0.5 * c1 * (1.0 - x0 * x0) * r0 * r0],
                    method="DOP853", rtol=1e-12, atol=1e-16, events=f_rises)
    assert term.r == pytest.approx(float(sol.t_events[0][0]), rel=0, abs=1e-8)


def test_series_span_on_floats_is_bit_identical(gs94):
    """The series span sums its probes, bisection steps and stop state
    with _series_point: at (3, 2) from 0.55 EnergyBarrier fires inside the
    span (r = 0.780), and on that shot and on a (9, 4) search shot every
    series row after the origin equals _series_point at its radius; from
    0.58 it fires at r = 0, before any series is summed."""
    shots = [(0.55, P32), (0.58, P32), (gs94.bracket[0], P94)]
    ends = []
    for x0, params in shots:
        traj = classify_shot(x0, params).trajectory
        if traj._series is None:
            ends.append((traj.termination.r, len(traj.r)))
            continue
        r_h = traj._series[0]
        on = traj.r[1:] <= r_h
        span = zip(traj.r[1:][on].tolist(), traj.f[1:][on].tolist(),
                   traj.g[1:][on].tolist())
        assert all((f, g) == _series_at(x0, params, r) for r, f, g in span)
        ends.append((traj.termination.r, r_h))
    (r_in, r_h), (r_origin, rows), (r_search, r_h94) = ends
    assert r_in == pytest.approx(0.780, abs=1e-3) and r_in < r_h
    assert r_origin == 0.0 and rows == 1 and r_search > r_h94


def test_sample_on_returns_the_series_rows(gs94):
    """sample_on sums the series with the evaluator that summed its rows,
    so at each series row's radius it returns that row bit for bit: on a
    (9, 4) search shot, on its mirror, and on the (9, 4.4) certificate,
    solved in (f, u = 1 - g) by integrate_wall."""
    shot = classify_shot(gs94.bracket[0], P94).trajectory
    wall = bisect_ground_state(ModelParams(9.0, 4.4)).trajectory
    assert shot.u is None and wall.u is not None
    rows = slice(1, 1 + integrator._SERIES_ROWS)
    for traj in (shot, shot.mirrored(), wall):
        assert traj.r[rows][-1] == traj._series[0]
        fs, gs = traj.sample_on(traj.r[rows])
        assert np.array_equal(fs, traj.f[rows]) and np.array_equal(gs, traj.g[rows])


@pytest.mark.parametrize("x0", [1e-30, 1e-100, 1e-300])
def test_series_start_for_tiny_x0(x0):
    """For x0^2 below an ulp the regular solution at (9, 4) is x0 times
    the linear one, g = x0 sinh(2r) / (2r) and f = g', to rounding; the
    series in units of x0 hands off at one radius for all such x0, where
    its state matches that oracle, and no coefficient underflows."""
    coef = integrator._series_coefficients(x0, P94)
    assert np.array_equal(coef, integrator._series_coefficients(0.0, P94))
    assert np.all(coef[:, :-1] != 0.0)
    r_h = integrator._handoff_radius(coef, P94)
    assert 2.0 < r_h < 4.0
    f, g = _series_at(x0, P94, r_h)
    z = 2.0 * r_h
    assert g == pytest.approx(x0 * math.sinh(z) / z, rel=1e-14)
    assert f == pytest.approx(x0 * 2.0 * (z * math.cosh(z) - math.sinh(z)) / (z * z),
                                rel=1e-14)


@pytest.mark.parametrize("x0", [1e-30, 1e-100, 1e-300])
def test_tiny_x0_shot_is_resolved_at_default_tolerances(x0):
    """The stepper's absolute tolerance is in units of x0, like the series,
    so under the default config a tiny shot at (9, 4) runs out to r_max
    undecided, as with an absolute tolerance scaled by hand below, instead
    of ending on a spurious g-zero near r = 7.8 with its error under atol."""
    out = classify_shot(x0, P94)
    assert out.shot_class.name == "UNDETERMINED"
    assert out.trajectory.termination.kind is TerminationKind.REACHED_RMAX
    assert out.trajectory.r_end == integrator.DEFAULT_CONFIG.r_max


@pytest.mark.parametrize("x0, r_max", [(1e-30, 60.0), (1e-100, 150.0)])
def test_tiny_x0_shot_matches_scipy(x0, r_max):
    """A shot from a tiny x0 at (9, 4) grows like x0 e^(2r) / r until g
    is of order one near r = ln(1/x0) / 2, then circles without an armed
    event.  With the absolute tolerance scaled to x0, its class and end
    state agree with a scipy DOP853 shot from the second-order state at
    r = 1e-6 under the same events."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    cfg = IntegratorConfig(atol=1e-12 * x0, r_max=r_max)
    out = classify_shot(x0, P94, cfg)
    assert out.shot_class.name == "UNDETERMINED"
    assert out.trajectory.termination.kind is TerminationKind.REACHED_RMAX
    assert out.trajectory._series[0] < 4.0

    def rhs(r, y):
        return [-2.0 * y[0] / r + y[1] * (y[0] ** 2 - 9.0 * y[1] ** 2 + 4.0),
                y[0] * (1.0 - y[1] ** 2)]

    def g_falls(r, y):
        return y[1]

    def g_squared_reaches_one(r, y):
        return 1.0 - y[1] ** 2

    def decays(r, y):
        return abs(y[0]) + abs(y[1]) - 1e-8
    for ev in (g_falls, g_squared_reaches_one, decays):
        ev.terminal, ev.direction = True, -1.0
    c1 = x0 * 4.0 / 3.0
    r0 = 1e-6
    sol = solve_ivp(rhs, (r0, r_max), [c1 * r0, x0 + 0.5 * c1 * r0 * r0], method="DOP853",
                    rtol=1e-12, atol=1e-14 * x0,
                    events=(g_falls, g_squared_reaches_one, decays))
    assert sol.status == 0
    assert max(abs(out.trajectory.f[-1] - sol.y[0, -1]),
               abs(out.trajectory.g[-1] - sol.y[1, -1])) <= 1e-7


def test_drift_bound_equals_piece_loop():
    """drift_bound's reduceat equals a loop that takes, per interval, the
    largest speed of the pieces [start_k, start_(k+1)) it meets, on radii
    that fall inside pieces, on their starts and across many of them."""
    traj = integrate_radial(0.8, P94, IntegratorConfig(r_max=5.0))
    starts, speeds = traj._pieces
    assert starts[0] == 0.0 and starts[1] == traj._series[0]
    rs = np.unique(np.concatenate([np.linspace(0.0, 5.0, 7), traj.r[::37],
                                   [0.5 * traj._series[0]]]))
    ref = []
    for lo, hi in zip(rs[:-1], rs[1:]):
        met = [v for k, v in enumerate(speeds)
               if starts[k] < hi and (k + 1 == len(starts) or starts[k + 1] > lo)]
        ref.append((hi - lo) * max(met))
    assert np.array_equal(traj.drift_bound(rs), ref)


def test_mirrored_trajectory():
    traj = integrate_radial(0.8, P94, IntegratorConfig(r_max=3.0))
    m = traj.mirrored()
    assert m.x0 == -0.8
    assert np.array_equal(m.f, -traj.f) and np.array_equal(m.g, -traj.g)
    for r in (0.3, 1.1, 2.7):
        f, g = _sample(traj, r)
        mf, mg = _sample(m, r)
        assert mf == -f and mg == -g
    # sign for sign: the mirror of the rest orbit on f = +0.0 samples -0.0
    rest = integrate_conservative(PhasePoint(0.0, -0.5), P41, IntegratorConfig(r_max=3.0))
    for r in (0.1, 2.5):
        assert math.copysign(1.0, _sample(rest, r)[0]) == 1.0
        assert math.copysign(1.0, _sample(rest.mirrored(), r)[0]) == -1.0


def test_convergence_order_at_least_seven():
    """Fixed-step endpoint errors against the tightest reference, at steps
    whose errors (about 5e-7 down to 3e-12) stay far above its error (about
    4e-15 against 200 fixed steps); the log2 slopes of an eighth-order step
    are at least 7."""
    ref = integrate_conservative(PhasePoint(0.3, 0.4), P94,
                                 IntegratorConfig(rtol=1e-14, atol=1e-17, r_max=2.0))
    rf, rg = ref.f[-1], ref.g[-1]
    errs = []
    deriv = vector_field(P94, math.inf)
    for h in (0.4, 0.2, 0.1):
        # one-step runs of length h, each accepted at sky-high tolerances
        f, g = 0.3, 0.4
        for k in range(round(2.0 / h)):
            cfg = IntegratorConfig(rtol=10.0, atol=10.0, r_max=(k + 1) * h)
            rs, fs, gs, _, _ = integrator._run_dopri(deriv, k * h, f, g, cfg, h_init=h)
            assert len(rs) == 1 + integrator._ROWS
            f, g = fs[-1], gs[-1]
        errs.append(math.hypot(f - rf, g - rg))
    assert errs[-1] > 100.0 * 4e-15
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(slopes) >= 7.0


def test_event_bisection_ends_on_adjacent_doubles():
    """Past r = 8192 adjacent doubles lie more than the 1e-12 bisection
    target apart: a one-ulp bracket returns its upper end, and the InSetI
    shot from x = 0.004337355250841844 at (1, 1e-6) is localized near
    r = 8695.  Both run in a child process, so a bisection that never
    ends fails the test by its timeout instead of hanging the suite."""
    code = (
        "import math\n"
        "from nucshoot.integrator import IntegratorConfig, _bisect_root\n"
        "from nucshoot.model import ModelParams\n"
        "from nucshoot.shooting import classify_shot\n"
        "hi = math.nextafter(8192.0, math.inf)\n"
        "assert _bisect_root(lambda r: hi - r, 8192.0, hi, 1e-12) == hi\n"
        "out = classify_shot(0.004337355250841844, ModelParams(1.0, 1e-6),\n"
        "                    IntegratorConfig(r_max=12000.0))\n"
        "print(out.shot_class.value, out.r_x)\n")
    src = str(Path(integrator.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    cls, r_x = run.stdout.split()
    assert cls == "InSetI" and 8192.0 < float(r_x) < 12000.0


def test_event_f_crosses_zero_rising():
    traj = integrate_radial(0.8, P94, events=(EventKind.F_CROSSES_ZERO,))
    term = traj.termination
    assert term.kind is TerminationKind.EVENT
    assert term.event_kinds == (EventKind.F_CROSSES_ZERO,)
    assert term.r == pytest.approx(RX_08_94, rel=0, abs=1e-9)
    assert abs(traj.f[-1]) <= 1e-9
    assert np.all(traj.f[1:-1] < 0.0)  # rising crossing, from below
    assert term.describe().startswith("Event(FCrossesZero")


def test_event_g_crosses_zero_falling():
    traj = integrate_radial(0.95, ModelParams(9.0, 1.0),
                            events=(EventKind.G_CROSSES_ZERO,))
    term = traj.termination
    assert term.kind is TerminationKind.EVENT
    assert term.event_kinds == (EventKind.G_CROSSES_ZERO,)
    assert term.r == pytest.approx(RX_095_91, rel=0, abs=1e-9)
    assert abs(traj.g[-1]) <= 1e-9
    assert np.all(traj.g[:-1] > 0.0)


def test_event_decay_detected_threshold(decayed21):
    """A (2, 0.1) shot that close to x* decays outright: the detector
    fires on the |f| + |g| = 1e-8 level, far out past r = 5."""
    out = decayed21
    term = out.trajectory.termination
    assert term.kind is TerminationKind.EVENT
    assert term.event_kinds == (EventKind.DECAY_DETECTED,)
    assert term.r >= 5.0
    amp = abs(out.trajectory.f[-1]) + abs(out.trajectory.g[-1])
    assert amp == pytest.approx(1e-8, rel=1e-6)


def test_simultaneous_events_reported_together():
    ev = (EventKind.F_CROSSES_ZERO, EventKind.F_CROSSES_ZERO)
    traj = integrate_radial(0.8, P94, events=ev)
    term = traj.termination
    assert term.kind is TerminationKind.EVENT
    assert len(term.event_kinds) == 2
    assert "+" in term.describe()


def test_blowup_rides_below_the_invariant_line_g_one():
    """g = 1 is invariant: blowup rides it asymptotically, no crossing."""
    traj = integrate_radial(0.8, ModelParams(1.0, 4.0), events=())
    assert traj.termination.kind is TerminationKind.BLOWUP
    assert float(np.max(traj.g)) < 1.0


def test_blowup_termination():
    traj = integrate_radial(0.8, ModelParams(1.0, 4.0))
    term = traj.termination
    assert term.kind is TerminationKind.BLOWUP
    assert term.r == pytest.approx(1.8787038, abs=1e-3)
    # the final row is bisected onto the threshold surface |f| + |g| = B
    size = abs(traj.f[-1]) + abs(traj.g[-1])
    assert size == pytest.approx(BLOWUP_THRESHOLD, rel=1e-6)


def test_blowup_certain_ends_at_a_step_end_in_its_region():
    """Armed, BlowupCertain stops the (3, 2) shot from 0.01 at the end of
    its 33rd accepted step, r = 6.04900666575, the first step end where g
    r f > (1 + eps) (1 + r sqrt(g c+)), c+ = a - b = 1; there the bound
    that held the friction 2/r fixed, R(F*) > eps (...), still fails.  Its
    sign-mapped twin from -0.01 stops at the same radius.  At (1, 4),
    where a < b, classify_shot stops the shot from 0.8 at r = 0, and so
    the (4, 4) shots from +-0.5, where a = b; the integrator holds no
    origin rule, so armed it steps each of them to a step end in the
    region.  From 1.2 the (1, 4) shot keeps g > 1, outside the lemma, and
    ends at the threshold."""
    armed = (EventKind.BLOWUP_CERTAIN,)
    origin = Termination(TerminationKind.EVENT, 0.0, armed)
    P14 = ModelParams(1.0, 4.0)
    above = integrate_radial(1.2, P14, events=armed)
    assert above.termination.kind is TerminationKind.BLOWUP
    for x0, params in ((0.8, P14), (0.5, ModelParams(4.0, 4.0)), (-0.5, ModelParams(4.0, 4.0))):
        at_origin = classify_shot(x0, params).trajectory
        assert at_origin.termination == origin
        assert at_origin.r.tolist() == [0.0] and at_origin._series is None
        stepped = integrate_radial(x0, params, events=armed)
        assert stepped.termination.event_kinds == armed and stepped.r_end > 0.0
        assert stepped._series is not None and len(stepped._segments) >= 1
    traj = integrate_radial(0.01, P32, events=armed)
    term = traj.termination
    assert term.event_kinds == armed
    assert len(traj._segments) == 33
    assert term.r == pytest.approx(6.04900666575, rel=1e-10)
    eps = integrator._BLOWUP_EPS

    def region(r, f, g):
        c = max(0.0, 3.0 - 2.0, g * (3.0 * g * g - 2.0))
        return f > 0.0 and 0.0 < g < 1.0 and g * r * f > (1.0 + eps) * (
            1.0 + r * math.sqrt(g * c))

    ends = [r0 + h for r0, h in (seg[:2] for seg in traj._segments)]
    at = np.searchsorted(traj.r, ends)
    assert traj.r[at].tolist() == ends and ends[-1] == term.r == traj.r[-1]
    inside = [region(traj.r[i], traj.f[i], traj.g[i]) for i in at]
    assert inside == [False] * 32 + [True]
    assert not _friction_fixed_region(term.r, traj.f[-1], traj.g[-1], 3.0, 2.0)
    assert integrate_radial(-0.01, P32, events=armed).termination == term
    with pytest.raises(ValueError, match="BlowupCertain"):
        integrate_wall(0.2, P14, events=armed)


@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize("a, b", [(1.0, 4.0), (4.0, 4.0), (7.0, 8.0), (2.5, 2.0)])
def test_blowup_certain_stop_is_scale_covariant(a, b, lam):
    """BlowupCertain's region is invariant under (a, b) -> (l^2 a, l^2 b),
    r -> r / l, f -> l f, so every shot of criterion 5's grid at the
    scaled pair, run to r_max / l, gets the same class and the same number
    of accepted steps, and a BlowupCertain stop comes at r / l to 1e-3
    relative; the sign-mapped twin of each stop, classified, stops at the
    same radius."""
    grid = np.linspace(0.01, 0.99, 50)
    base = classify_grid(ModelParams(a, b), grid, IntegratorConfig(r_max=200.0))
    scaled = classify_grid(ModelParams(lam * lam * a, lam * lam * b), grid,
                           IntegratorConfig(r_max=200.0 / lam))
    stops = 0
    for one, two in zip(base, scaled):
        assert one.shot_class is two.shot_class
        assert len(one.trajectory._segments) == len(two.trajectory._segments)
        term = one.trajectory.termination
        assert (term.event_kinds == (EventKind.BLOWUP_CERTAIN,)) == (
            two.trajectory.termination.event_kinds == (EventKind.BLOWUP_CERTAIN,))
        if term.event_kinds == (EventKind.BLOWUP_CERTAIN,):
            stops += 1
            assert two.trajectory.termination.r * lam == pytest.approx(term.r, rel=1e-3)
            twin = classify_shot(-one.x0, two.trajectory.params,
                                 IntegratorConfig(r_max=200.0 / lam)).trajectory
            assert twin.termination == two.trajectory.termination
    assert stops >= 9


def _friction_fixed_region(r, f, g, a, b):
    """The BlowupCertain region of the bound that holds the friction 2/r
    fixed at r: R(F*) > eps (|g| F*^2 + (2/r) F* + |c'|), R(F) = |g| F^2 -
    (2/r) F - c', F* = max(|f|, 1/(|g| r)), c' = -min(|g| (b - a g^2), b
    - a)."""
    ag = abs(g)
    if not (f * g > 0.0 and ag < 1.0):
        return False
    c = -min(ag * (b - a * ag * ag), b - a)
    fv = max(abs(f), 1.0 / ag / r)
    quad, lin = ag * fv * fv, (2.0 / r) * fv
    return quad - lin - c > integrator._BLOWUP_EPS * (quad + lin + abs(c))


@settings(max_examples=500, deadline=None)
@given(st.floats(-6.0, 6.0), st.floats(0.0, 6.0), st.floats(-6.0, 6.0),
       st.floats(-12.0, 12.0), st.floats(1e-12, 1.0, exclude_max=True), st.booleans())
def test_blowup_region_contains_the_friction_fixed_region(lb, lt, lr, lf, g, neg):
    """For a >= b, wherever the bound with the friction 2/r fixed at r
    proves blowup, the exact comparison for r^2 f does too: its threshold
    on f, (1/r + sqrt(|g| c+)) / |g|, lies below (1/r + sqrt(1/r^2 + |g|
    c')) / |g|, with a relative gap beyond the margin eps and rounding.
    For a < b the origin decides every shot (see the origin test)."""
    b = 10.0 ** lb
    a = b * 10.0 ** lt
    r, f = 10.0 ** lr, 10.0 ** lf
    if neg:
        f, g = -f, -g
    if _friction_fixed_region(r, f, g, a, b):
        assert integrator._in_blowup_region(r, f, g, a, b)


@pytest.mark.parametrize("x0", [5e-324, 1e-6, 0.5, 1.0 - 2.0 ** -53])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_blowup_certain_decides_a_below_b_at_the_origin(x0, sign):
    """For a < b and 0 < |x0| < 1, phi(g) >= g (b - a) > 0 makes r^2 f
    rise and blow up from r = 0 on (shooting._origin_decision): the (1, 4)
    shot ends at the origin with one row and no series, as BlowupCertain,
    and classifies as Blowup, from the least subnormal to the largest
    double below 1 and their sign-mapped twins."""
    x0 *= sign
    origin = Termination(TerminationKind.EVENT, 0.0, (EventKind.BLOWUP_CERTAIN,))
    out = classify_shot(x0, ModelParams(1.0, 4.0))
    traj = out.trajectory
    assert traj.termination == origin
    assert traj.r.tolist() == [0.0] and traj.g.tolist() == [x0] and traj._series is None
    assert out.shot_class is ShotClass.BLOWUP
    assert traj.termination.describe() == "Event(BlowupCertain, r=0)"


@pytest.mark.parametrize("x0", [1e-4, 0.3, 0.9, 0.999])
def test_a_equal_b_shot_meets_the_origin_proof(x0):
    """The a = b proof of EventKind, checked on the (4, 4) shot run with
    no event to the Blowup threshold: with w = 1 - g^2, y = g r f, T = a
    g^2 w r^2 and s = ln r, central differences in s on 4,000 radii match
    dy/ds = y^2 - y + w y^2 / g^2 + T, f > 0 and g rises inside (x0, 1),
    Z = ln T + 2 y rises, and y passes 1 + eps before the threshold."""
    traj = integrate_radial(x0, ModelParams(4.0, 4.0))
    assert traj.termination.kind is TerminationKind.BLOWUP
    s = np.linspace(math.log(1e-2), math.log(traj.termination.r), 4001)[:-1]
    r = np.exp(s)
    f, g = traj.sample_on(r)
    assert np.all(f > 0.0) and np.all(np.diff(g) > 0.0) and x0 <= g[0] and g[-1] < 1.0
    w = 1.0 - g * g
    y, T = g * r * f, 4.0 * g * g * w * r * r
    terms = (y * y, -y, w * y * y / (g * g), T)
    dy_ds = (y[2:] - y[:-2]) / (2.0 * (s[1] - s[0]))
    rel = np.abs(dy_ds - sum(terms)[1:-1]) / sum(np.abs(t) for t in terms)[1:-1]
    assert np.median(rel) < 1e-5 and rel[y[1:-1] < 10.0].max() < 1e-3
    assert np.all(np.diff(np.log(T) + 2.0 * y) > 0.0)
    assert y.max() > 1.0 + integrator._BLOWUP_EPS


def test_origin_rule_is_exact_at_a_equal_b():
    """a <= b is compared exactly, not within model.REGIME_TOL: one ulp
    above a = b the (4, 4) shot from 0.5 leaves the origin and stops at
    the step end where it enters BlowupCertain's region."""
    traj = integrate_radial(0.5, ModelParams(math.nextafter(4.0, math.inf), 4.0),
                            events=(EventKind.BLOWUP_CERTAIN,))
    assert traj.termination.event_kinds == (EventKind.BLOWUP_CERTAIN,)
    assert len(traj._segments) >= 1 and traj._series is not None
    r0, h = traj._segments[-1][:2]
    assert traj.termination.r == r0 + h == traj.r[-1]


@pytest.mark.parametrize("x0", [1e-315, 5e-324, -5e-324])
def test_subnormal_shot_keeps_a_positive_error_scale(x0):
    """From a subnormal x0 at (9, 4) both atol min(1, |x0|) and rtol |f|
    underflow to 0; the error scale is floored at 5e-324, so the shot
    runs to r_max and gets the class of the shot from 1e-300."""
    out = classify_shot(x0, P94)
    assert out.trajectory.termination.kind is TerminationKind.REACHED_RMAX
    assert out.shot_class is classify_shot(1e-300, P94).shot_class


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_non_finite_x0_is_rejected(x0):
    """A non-finite x0 raises ValueError naming x0, directly and through
    classify_shot, instead of a StiffnessError from the series (nan) or a
    Blowup at r = 0 with a RuntimeWarning (+-inf); so does a non-finite u0
    in the wall chart."""
    with pytest.raises(ValueError, match="x0"):
        integrate_radial(x0, P94)
    with pytest.raises(ValueError, match="x0"):
        classify_shot(x0, P94)
    with pytest.raises(ValueError, match="u0"):
        integrate_wall(abs(x0), P94)


def test_stiffness_error_carries_radius(monkeypatch):
    monkeypatch.setattr(integrator, "BLOWUP_THRESHOLD", 1e300)
    with pytest.raises(StiffnessError) as exc:
        integrate_radial(5.0, P94)
    assert 0.0 < exc.value.radius < 1.0
    assert "step size underflow" in str(exc.value)


@pytest.mark.parametrize("a,b,f0,g0", [
    (5.0, 1.0, 2.0, 1.0),
    (5.0, 1.0, -2.0, -1.0),
    (8.0, 4.0, -2.0, 1.0),
    (4.0, 1.0, 0.0, 0.5),
    (1.0, 4.0, 0.0, 2.0),
    (3.0, 2.0, 1.0, 1.0),
])
def test_rest_points_are_fixed(a, b, f0, g0):
    """Stationary states representable exactly in binary stay put exactly."""
    cfg = IntegratorConfig(r_max=20.0)
    traj = integrate_conservative(PhasePoint(f0, g0), ModelParams(a, b), cfg)
    assert traj.termination.kind is TerminationKind.REACHED_RMAX
    assert np.all(traj.f == f0)
    assert np.all(traj.g == g0)


def test_center_perturbation_stays_small():
    cfg = IntegratorConfig(r_max=20.0)
    traj = integrate_conservative(PhasePoint(0.0, 0.5 + 1e-12), P41, cfg)
    assert np.max(np.abs(traj.g - 0.5)) <= 1e-9
    assert np.max(np.abs(traj.f)) <= 1e-9


def test_shifted_requires_positive_rho():
    with pytest.raises(ValueError):
        integrate_shifted(PhasePoint(0.3, 0.5), 0.0, P94)
    with pytest.raises(ValueError):
        integrate_shifted(PhasePoint(0.3, 0.5), -2.0, P94)


def test_shifted_approaches_conservative_flow():
    cfg = IntegratorConfig(r_max=5.0)
    ref = integrate_conservative(PhasePoint(0.3, 0.5), P94, cfg)
    grid = np.linspace(0.0, 5.0, 201)

    def supdiff(rho):
        t = integrate_shifted(PhasePoint(0.3, 0.5), rho, P94, cfg)
        fs, gs = t.sample_on(grid)
        fc, gc = ref.sample_on(grid)
        return max(np.max(np.abs(fs - fc)), np.max(np.abs(gs - gc)))

    d10, d1000 = supdiff(10.0), supdiff(1000.0)
    assert d1000 < d10
    assert d1000 <= 1e-2


def test_oversized_initial_step_is_clipped(monkeypatch):
    monkeypatch.setattr(integrator, "_H_INIT", 50.0)
    traj = integrate_conservative(PhasePoint(0.3, 0.4), P94, IntegratorConfig(r_max=10.0))
    assert traj.r_end == 10.0
    assert np.max(np.abs(traj.H - traj.H[0])) <= 1e-7


# -- the event-scan gate: a kind skips its probes on a step only where no
# probe could change its sign, so scanning every step changes nothing

_EVENT_FUNCTIONS = integrator._event_functions


def _probe_every_step(events, params, wall=False):
    """_event_functions with no margin ever holding: every kind and the
    Blowup threshold compute their probes on every step, as they do on
    the series span."""
    return [row[:2] + (lambda v, e_f, e_g, f, g: False,)
            for row in _EVENT_FUNCTIONS(events, params, wall)]


def _fingerprint(out):
    traj = out.trajectory
    return (traj.r.tobytes(), traj.f.tobytes(), traj.g.tobytes(),
            repr(traj._segments), traj.termination, out.shot_class)


def _assert_gate_changes_nothing(x0, params):
    gated = _fingerprint(classify_shot(x0, params))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_event_functions", _probe_every_step)
        every = _fingerprint(classify_shot(x0, params))
    assert gated == every


_SIGN = st.sampled_from((1.0, -1.0))
_GATE_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@_GATE_SETTINGS
@given(pair=st.sampled_from(("gs94", "gs41")), exponent=st.floats(-12.0, -2.0),
       side=_SIGN, sign=_SIGN)
def test_gate_is_bit_identical_near_x_star(request, pair, exponent, side, sign):
    """Supercritical shots around x*, where f- and g-zeros compete."""
    gs = request.getfixturevalue(pair)
    x0 = gs.x_star + side * 10.0 ** exponent
    _assert_gate_changes_nothing(sign * x0, gs.trajectory.params)


@_GATE_SETTINGS
@given(b=st.floats(0.5, 3.0), ratio=st.floats(1.0, 2.0, exclude_min=True),
       x0=st.floats(0.02, 0.98), sign=_SIGN)
def test_gate_is_bit_identical_with_energy_barrier(b, ratio, x0, sign):
    """b < a <= 2b: EnergyBarrier is armed below sqrt(b/a)."""
    _assert_gate_changes_nothing(sign * x0, ModelParams(ratio * b, b))


@_GATE_SETTINGS
@given(b=st.floats(0.5, 4.0), ratio=st.floats(0.25, 1.0), x0=st.floats(0.05, 1.5),
       sign=_SIGN)
def test_gate_is_bit_identical_for_blowups(b, ratio, x0, sign):
    """a <= b: shots blow up or ride out to r_max."""
    _assert_gate_changes_nothing(sign * x0, ModelParams(ratio * b, b))


@pytest.mark.parametrize("x0, params, end", [
    (0.55, P32, "Event(EnergyBarrier, r=0.780123343433)"),
    (0.58, P32, "Event(EnergyBarrier, r=0)"),
    (1.2, P94, "Blowup(r=0.616568118404)"),
    (-1.2, P94, "Blowup(r=0.616568118404)"),
    (40.0, P94, "Blowup(r=0.000338840562362)"),
])
def test_gate_is_bit_identical_on_the_series_span_and_the_threshold(x0, params, end):
    """From 0.55 at (3, 2) EnergyBarrier fires inside the series span (r_h
    = 1.138), from 0.58 at r = 0; from +-1.2 and 40 at (9, 4) the shot
    ends on the Blowup threshold in the stepper."""
    assert classify_shot(x0, params).trajectory.termination.describe() == end
    _assert_gate_changes_nothing(x0, params)


def _rows(kind, gated=True):
    return (_EVENT_FUNCTIONS if gated else _probe_every_step)([kind], P94)


_P42 = ModelParams(4.0, 2.0)
_ULP_DECAY = math.ulp(1e-8)
_ULP_BLOWUP = math.ulp(BLOWUP_THRESHOLD)
_G_NEAR_TRAP = float.fromhex("0x1.ffffffd50ce24p-1")    # (4, 2): H 1.7e-16 above the trap
# (kind, params, wall, (f0, y0), (qf0, qy0)): a step of length 1 whose
# linear interpolant y0 + t q0 takes the kind's value across zero at a
# probe, though its start value exceeds half the kind's margin (see
# EventKind), or for the edges that round, the margin without its
# rounding term; y is g, or u = 1 - g on the wall chart
_MARGIN_EDGES = {
    "f-zero": (EventKind.F_CROSSES_ZERO, P94, False, (-0.5, 0.5), (0.7, 0.0)),
    "g-zero": (EventKind.G_CROSSES_ZERO, P94, False, (0.5, 0.5), (0.0, -0.7)),
    # |f| + |g| rounds up to 1e-8 + ulp at the start and onto 1e-8 at a
    # probe that moves f by 2^-100
    "decay-rounding": (EventKind.DECAY_DETECTED, P94, False,
                       (2.0 ** -80 + 2.0 ** -100, 1e-8), (-2.0 ** -97, 0.0)),
    # the ties 1e-8 + 1.5 ulp and 1e-8 + 0.5 ulp round to even, 2 ulps
    # apart, while the probe rounds f 0.58 ulp down onto a whole ulp
    "decay-ties": (EventKind.DECAY_DETECTED, P94, False, (1e-8, 1.5 * _ULP_DECAY),
                   (-0.7 * _ULP_DECAY, 0.0)),
    "blowup-rounding": (None, P94, False, (0.5 * _ULP_BLOWUP - 2.0 ** -70,
                                           BLOWUP_THRESHOLD - _ULP_BLOWUP), (2.0 ** -67, 0.0)),
    "blowup-ties": (None, P94, False, (BLOWUP_THRESHOLD - 2.0 * _ULP_BLOWUP,
                                       0.5 * _ULP_BLOWUP), (0.7 * _ULP_BLOWUP, 0.0)),
    # H 0.5e-8 above the trap level, where |H_g| = 1
    "energy": (EventKind.ENERGY_BARRIER, P32, False, (0.0, 1.0 - 0.5e-8), (0.0, -0.7e-8)),
    # g moves 0.58 ulp, rounded to a whole one
    "energy-rounding": (EventKind.ENERGY_BARRIER, _P42, False, (0.0, _G_NEAR_TRAP),
                        (0.0, -0.7 * (_G_NEAR_TRAP - math.nextafter(_G_NEAR_TRAP, 0.0)))),
    # u one ulp below 1, a probe 0.58 ulp up rounds onto u = 1, g = 0
    "wall-g-zero-ulp": (EventKind.G_CROSSES_ZERO, P94, True, (0.0, 1.0 - 2.0 ** -53),
                        (0.0, 0.7 * 2.0 ** -53)),
}


def _scan_hand_step(kind, params, wall, y0, q0, gated):
    """_scan of one hand-built step whose end state is its start state, so
    that only a probe can fire; the kind's row alone, Blowup's if None."""
    rows = [row for row in (_EVENT_FUNCTIONS if gated else _probe_every_step)(
        [kind], params, wall) if row[0] is kind]
    seg = (0.0, 1.0, *y0, q0[0], *[0.0] * 6, q0[1], *[0.0] * 6)
    row_f, row_g = zip(*(integrator._interpolant(seg, t) for t in integrator._ROW_T))
    return integrator._scan(rows, [rows[0][1](*y0)], y0, abs(q0[0]), abs(q0[1]), *y0,
                            lambda: integrator._step_probes(seg, row_f, row_g))


@pytest.mark.parametrize("name", _MARGIN_EDGES)
def test_gate_at_each_margin(name):
    """Each step sits inside its kind's margin and a probe fires: the
    gated scan probes it and equals the probe-every-step scan.  Halving a
    kind's margin, or dropping its rounding term, fails one of its edges
    at least."""
    kind, *step = _MARGIN_EDGES[name]
    every = _scan_hand_step(kind, *step, gated=False)
    assert [k for _, k in every] == [kind]
    assert _scan_hand_step(kind, *step, gated=True) == every


def test_anchor_searches_probe_few_steps(monkeypatch):
    """The five bench anchor searches compute probes on at most 300 of
    their 2,693 accepted steps (140 measured; 883 with a uniform margin
    of 4 spreads)."""
    probes = []
    real_probes = integrator._step_probes

    def counted(*args):
        probes.append(args)
        return real_probes(*args)

    monkeypatch.setattr(integrator, "_step_probes", counted)
    for a, b in ((9.0, 4.0), (4.0, 1.0), (12.0, 1.0), (9.0, 2.0), (10.0, 4.5)):
        bisect_ground_state(ModelParams(a, b))
    assert len(probes) <= 300


# (kind, (f', g') at r, (f, g) at r = 27.02, first radius where the
# kind's value falls through zero): each value dips through zero and back
# around r = 32
_DOUBLE_ZEROS = [
    (EventKind.F_CROSSES_ZERO, lambda r: (2.0 * (r - 32.0), 0.0),
     (4.98 ** 2 - 0.25, 0.5), 32.5),
    (EventKind.G_CROSSES_ZERO, lambda r: (0.0, 2.0 * (r - 32.0)),
     (0.5, 4.98 ** 2 - 0.25), 31.5),
    (EventKind.DECAY_DETECTED, lambda r: (0.0, 4e-9 * (r - 32.0)),
     (0.0, 2e-9 * 4.98 ** 2 + 5e-9), 32.0 - math.sqrt(2.5)),
]


@pytest.mark.parametrize("kind,field,y0,root", _DOUBLE_ZEROS,
                         ids=[k.value for k, *_ in _DOUBLE_ZEROS])
def test_double_zero_inside_one_step_is_localized(kind, field, y0, root):
    """The value is quadratic in r and integrated exactly, so the first
    trial step, [27.02, 37.02], is accepted; it starts and ends on the far
    side of zero, and its probes at sixths of the step see the dip: for
    the f- and g-zeros only the one at t = 1/2 (r = 32.02), which is not
    a row."""
    def deriv(r, f, g):
        return field(r)

    cfg = IntegratorConfig(r_max=100.0)
    out = integrator._run_dopri(deriv, 27.02, *y0, cfg, _rows(kind), h_init=10.0)
    rs, fs, gs, segs, term = out
    seg, = segs
    vfn = _rows(kind)[0][1]
    assert seg[1] == 10.0 and seg[0] < root < seg[0] + seg[1]
    v_end = vfn(*integrator._segment_eval(seg, seg[0] + seg[1]))
    assert vfn(seg[2], seg[3]) * v_end > 0.0
    assert term.event_kinds == (kind,)
    assert term.r == pytest.approx(root, rel=0, abs=1e-9)
    every = integrator._run_dopri(deriv, 27.02, *y0, cfg, _rows(kind, gated=False),
                                  h_init=10.0)
    assert repr(out) == repr(every)


def test_step_ending_exactly_on_zero_fires():
    """g' = -1 from the g0 that the first step takes to 0.0 exactly."""
    def deriv(r, f, g):
        return 0.0, -1.0

    dg = integrator._run_dopri(deriv, 0.0, 0.0, 0.0, IntegratorConfig(r_max=1e-3))[2][-1]
    one_step = integrator._run_dopri(deriv, 0.0, 0.0, -dg, IntegratorConfig(r_max=1e-3))
    assert one_step[2][-1] == 0.0
    *_, term = integrator._run_dopri(deriv, 0.0, 0.0, -dg, IntegratorConfig(r_max=1.0),
                                     _rows(EventKind.G_CROSSES_ZERO))
    assert term.event_kinds == (EventKind.G_CROSSES_ZERO,)
    assert term.r == pytest.approx(1e-3, rel=0, abs=1e-12)


# -- the wall chart (f, u = 1 - g)

_SHOT_EVENTS = (EventKind.F_CROSSES_ZERO, EventKind.G_CROSSES_ZERO)


@pytest.mark.parametrize("x0", [0.75, 0.9])
def test_wall_chart_matches_radial(x0):
    """A shot from g(0) = x0 solved in (f, u) is the shot solved in (f, g):
    same event and radius, same profile through sample_on."""
    a = integrate_radial(x0, P94, events=_SHOT_EVENTS)
    w = integrate_wall(1.0 - x0, P94, events=_SHOT_EVENTS)
    assert w.termination.event_kinds == a.termination.event_kinds
    assert w.r_end == pytest.approx(a.r_end, abs=1e-9)
    assert np.max(np.abs(w.g - (1.0 - w.u))) == 0.0
    rs = np.linspace(0.01, a.r_end, 200)
    for ys_a, ys_w in zip(a.sample_on(rs), w.sample_on(rs)):
        assert np.max(np.abs(ys_a - ys_w)) <= 1e-10


def test_wall_series_is_the_radial_series():
    """f = x0 r U = r F and g = x0 V = 1 - u0 W: the two recursions give
    one function at u0 = 1 - x0."""
    x0 = 0.75
    cg = integrator._series_coefficients(x0, P94)
    cw = integrator._wall_series_coefficients(1.0 - x0, P94)
    assert np.allclose(x0 * cg[0], cw[0], rtol=1e-13, atol=0.0)
    assert np.allclose(-x0 * cg[1, 1:], (1.0 - x0) * cw[1, 1:], rtol=1e-13, atol=0.0)


def test_wall_shot_below_an_ulp_matches_scipy():
    """From u0 = 2^-53 at (9, 4.3), where g(0) is the largest float below 1,
    the first f-zero agrees with a scipy DOP853 shot in (f, u); the (f, g)
    shot from that float stays on g = 1 about 1.2 longer, as its steps add
    less than half an ulp to g."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    params, u0 = ModelParams(9.0, 4.3), 2.0 ** -53
    w = integrate_wall(u0, params, events=_SHOT_EVENTS)
    assert w.termination.event_kinds == (EventKind.F_CROSSES_ZERO,)

    def rhs(r, y):
        f, u = y
        g = 1.0 - u
        return (-(2.0 / r) * f + g * (f * f - 9.0 * g * g + 4.3), -f * u * (2.0 - u))

    def f_zero(r, y):
        return y[0]
    f_zero.terminal, f_zero.direction = True, 1.0
    r0 = 1e-6
    c1 = (1.0 - u0) * (4.3 - 9.0 * (1.0 - u0) ** 2) / 3.0      # f'(0)
    sol = solve_ivp(rhs, (r0, 40.0), (c1 * r0, u0), method="DOP853", rtol=1e-13,
                    atol=(1e-16, 1e-300), events=f_zero)
    assert w.r_end == pytest.approx(sol.t_events[0][0], abs=1e-8)
    g_shot = integrate_radial(1.0 - u0, params, events=_SHOT_EVENTS)
    assert g_shot.r_end - w.r_end > 1.0


def test_wall_trajectory_has_no_mirror():
    w = integrate_wall(0.25, P94, IntegratorConfig(r_max=1.0))
    with pytest.raises(ValueError):
        w.mirrored()
    with pytest.raises(ValueError):
        integrate_wall(-1e-3, P94)
