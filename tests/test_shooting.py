"""Shot taxonomy, bracketing, bisection, tail amplitudes, lemma audits."""
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucshoot import shooting
from nucshoot.integrator import (BLOWUP_THRESHOLD, EventKind,
                                 IntegratorConfig, Termination,
                                 TerminationKind, Trajectory, integrate_radial,
                                 integrate_shifted)
from nucshoot.model import (ModelParams, PhasePoint, energy, exact_trivial,
                            trap_energy, vector_field)
from nucshoot.physics import plateau_metrics
from nucshoot.shooting import (BracketFailureError, ShotClass, audit_lemmas,
                               bisect_ground_state, classify_grid,
                               classify_shot, default_events,
                               dissipation_residual, seed_bracket,
                               tail_amplitude)

P94 = ModelParams(9.0, 4.0)
P41 = ModelParams(4.0, 1.0)
P121 = ModelParams(12.0, 1.0)
P32 = ModelParams(3.0, 2.0)
R200 = IntegratorConfig(r_max=200.0)
GRID = np.linspace(0.01, 0.99, 50)     # acceptance criterion 5's grid

RX_08 = 2.13940806222205
G_RX_08 = 0.6334209942120211
# x* by scipy's DOP853 in (f, u = 1 - g) with bisection on log u0
# (bench/oracle.py, bench/reference.json; kappa = 1/9 by oracle.x_star,
# outside the reference table), keyed by kappa = b/a
X_STAR_SCIPY = {4.0 / 9.0: 1.0 - 2.6201263381153694e-14,
                0.44: 0.9999999999996699,
                0.45: 0.9999999999999994,
                0.25: 0.9951810790321023,
                1.0 / 12.0: 0.856300090760454,
                1.0 / 9.0: 0.9090888273369584,
                2.0 / 9.0: 0.989753343958761}
X_STAR_41_INDEPENDENT = 0.995181079032138   # independent reference solve

AUDIT_NAMES = (
    "energy_dissipation", "g_squared_below_one", "f_squared_bounded",
    "admissible_membership", "energy_nonincreasing", "sign_conditions",
    "spinor_ratio_bound", "decay_bound", "winding_zero",
)


def _synthetic(r, f, g, params=P41):
    term = Termination(TerminationKind.REACHED_RMAX, float(r[-1]))
    return Trajectory(r, f, g, params, float(g[0]), term)


def test_classify_trivial_zero():
    out = classify_shot(0.0, P94)
    assert out.shot_class is ShotClass.TRIVIAL_ZERO
    assert out.r_x is None and out.g_at_rx is None
    assert out.trajectory.f.max() == 0.0 and out.trajectory.g.max() == 0.0


def test_classify_in_set_i():
    out = classify_shot(0.8, P94)
    assert out.shot_class is ShotClass.IN_SET_I
    assert out.r_x == pytest.approx(RX_08, rel=0, abs=1e-9)
    assert out.g_at_rx == pytest.approx(G_RX_08, rel=0, abs=1e-9)
    assert out.g_at_rx <= math.sqrt(4.0 / 9.0) + 1e-8
    assert out.H_at_rx < 0.0
    # f stays negative and g positive strictly inside (0, r_x)
    assert np.all(out.trajectory.f[1:-1] < 0.0)
    assert np.all(out.trajectory.g[1:-1] > 0.0)


def test_classify_mirror_symmetry():
    pos = classify_shot(0.8, P94)
    neg = classify_shot(-0.8, P94)
    assert neg.shot_class is ShotClass.IN_SET_I
    assert neg.x0 == -0.8
    assert neg.r_x == pos.r_x
    assert neg.g_at_rx == pytest.approx(-pos.g_at_rx, rel=0, abs=0.0)
    assert neg.trajectory.g[0] == -0.8
    assert np.array_equal(neg.trajectory.f, -pos.trajectory.f)


@pytest.mark.parametrize("x0", [1.0, 1.1, 1.5, 2.0])
def test_classify_trapped_at_and_beyond_one(x0):
    cfg = IntegratorConfig(r_max=50.0)
    out = classify_shot(x0, P94, cfg)
    assert out.shot_class is ShotClass.TRAPPED
    assert float(np.min(out.trajectory.g ** 2)) >= 1.0 - 1e-10


def test_classify_g_vanished_first():
    out = classify_shot(0.95, ModelParams(9.0, 1.0))
    assert out.shot_class is ShotClass.G_VANISHED_FIRST
    assert out.r_x == pytest.approx(2.719237514944339, rel=0, abs=1e-9)
    assert abs(out.g_at_rx) <= 1e-9


def test_classify_blowup_subcritical():
    out = classify_shot(0.8, ModelParams(1.0, 4.0))
    assert out.shot_class is ShotClass.BLOWUP


@pytest.mark.parametrize("a, b", [(1.0, 4.0), (0.5, 3.0), (7.0, 8.0)])
def test_blowup_certain_beats_the_trapped_band(a, b):
    """From x = 1 - 2^-52 g stays within 1e-10 of 1 until BlowupCertain
    proves the blowup; the lemma holds for every 0 < |g| < 1, so the shot
    is Blowup, not Trapped."""
    out = classify_shot(1.0 - 2.0 ** -52, ModelParams(a, b))
    assert out.trajectory.termination.event_kinds == (EventKind.BLOWUP_CERTAIN,)
    assert float(np.min(out.trajectory.g ** 2)) >= 1.0 - 1e-10
    assert out.shot_class is ShotClass.BLOWUP


def test_classify_undetermined_low_shot():
    out = classify_shot(0.3, P94)
    assert out.shot_class is ShotClass.UNDETERMINED
    assert out.trajectory.termination.kind is TerminationKind.REACHED_RMAX


def test_energy_trapped_by_crossing():
    out = classify_shot(0.5, P32, R200)
    assert out.shot_class is ShotClass.ENERGY_TRAPPED
    assert out.trajectory.termination.event_kinds == (EventKind.ENERGY_BARRIER,)
    assert out.r_x > 0.0
    assert out.r_x == out.trajectory.r_end
    assert out.H_at_rx <= trap_energy(P32)
    assert np.all(out.trajectory.H[:-1] > trap_energy(P32))
    assert 0.0 < out.g_at_rx < 1.0


def test_energy_trapped_at_origin():
    # H(0, 0.7) = -0.309925 already lies below H_trap = -0.25 - 1e-8, so
    # the level event fires on the initial state itself
    out = classify_shot(0.7, P32, R200)
    assert out.shot_class is ShotClass.ENERGY_TRAPPED
    assert out.trajectory.termination.event_kinds == (EventKind.ENERGY_BARRIER,)
    assert out.trajectory.r.tolist() == [0.0] and out.r_x == 0.0
    assert out.H_at_rx == energy(0.0, 0.7, P32) == pytest.approx(-0.309925, rel=0, abs=1e-15)
    assert out.trajectory.sample_on([0.0, 1.0])[1].tolist() == [0.7, 0.7]


def test_energy_trapped_mirror_symmetry():
    pos = classify_shot(0.5, P32, R200)
    neg = classify_shot(-0.5, P32, R200)
    assert neg.shot_class is ShotClass.ENERGY_TRAPPED
    assert neg.r_x == pos.r_x
    assert neg.g_at_rx == -pos.g_at_rx
    assert neg.H_at_rx == pos.H_at_rx


def test_energy_barrier_armed_only_without_ground_state():
    """Supercritical pairs and a <= b never arm the barrier, and shots
    with FCrossesZero armed (x0 > sqrt(b/a)) do not either; the classes
    of (9, 4) at 0.3 and (1, 4) at 0.8 are checked above."""
    def armed(x, params):
        return EventKind.ENERGY_BARRIER in default_events(x, params)

    assert armed(0.5, P32) and armed(math.sqrt(2.0 / 3.0), P32)
    assert not armed(0.9, P32)
    assert armed(0.5, ModelParams(2.0, 1.0))          # critical pair
    assert not armed(0.3, P94)
    assert not armed(0.8, ModelParams(1.0, 4.0))


@pytest.mark.parametrize("a, b", [(4.0, 4.0), (1.0, 4.0), (3.0, 2.0), (2.0, 1.0)])
def test_nonexistence_grids_have_no_undetermined_shot(a, b):
    outs = classify_grid(ModelParams(a, b), GRID, R200)
    assert not any(o.shot_class is ShotClass.UNDETERMINED for o in outs)


def test_energy_trapped_shots_stay_trapped_under_scipy():
    """Continue every EnergyTrapped shot of the (3, 2) grid from its event
    state with scipy's DOP853: H never rises above its event value, g stays
    in (0, 1), and the shot neither decays nor blows up.

    The shots are stacked into one system in s = r - r_x, so each runs at
    least to r = 200 on a common step sequence.  A shot trapped already
    at r_x = 0 starts from its second-order state at r = 1e-6 instead,
    away from the singular origin.
    """
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    outs = [o for o in classify_grid(P32, GRID, R200)
            if o.shot_class is ShotClass.ENERGY_TRAPPED]
    assert len(outs) == 40
    n = len(outs)
    a, b = P32.a, P32.b
    x = np.array([o.x0 for o in outs])
    at_origin = np.array([o.r_x == 0.0 for o in outs])
    assert 0 < at_origin.sum() < n
    r_x = np.where(at_origin, 1e-6, [o.r_x for o in outs])
    c1 = x * (b - a * x * x) / 3.0          # f'(0)

    def rhs(s, y):
        f, g = y[:n], y[n:]
        return np.concatenate([-2.0 * f / (r_x + s) + g * (f * f - a * g * g + b),
                               f * (1.0 - g * g)])

    y0 = np.concatenate([np.where(at_origin, c1 * 1e-6, [o.trajectory.f[-1] for o in outs]),
                         np.where(at_origin, x + 0.5e-12 * c1 * (1.0 - x * x),
                                  [o.trajectory.g[-1] for o in outs])])
    sol = solve_ivp(rhs, (0.0, 200.0 - r_x.min()), y0, method="DOP853",
                    rtol=1e-10, atol=1e-12)
    assert sol.status == 0
    f, g = sol.y[:n], sol.y[n:]
    H_event = np.array([o.H_at_rx for o in outs])[:, None]
    assert np.all(energy(f, g, P32) <= H_event + 1e-9)
    assert np.all((0.0 < g) & (g < 1.0))
    amp = np.abs(f) + np.abs(g)
    assert amp.min() > 1e-3
    assert amp.max() < BLOWUP_THRESHOLD


def _blowup_certain(out):
    return out.trajectory.termination.event_kinds == (EventKind.BLOWUP_CERTAIN,)


def _blowup_time(r0, f0, g0, c):
    """How far past r0 the comparison solution of Phi' = g0 Phi^2 / r^2 -
    c r^2, Phi(r0) = r0^2 f0, blows up (EventKind), for f0 g0 > 0 and 0 <
    g0 < 1: the first zero of w'' = g0 c w, w(r0) = 1, w'(r0) = q = (1 -
    g0 r0 f0) / r0.  For c >= 0 it asserts that w has one, q < -sqrt(g0 c)."""
    f0, g0 = abs(f0), abs(g0)
    q = (1.0 - g0 * r0 * f0) / r0
    k2 = g0 * c
    if k2 < 0.0:
        w = math.sqrt(-k2)
        return math.atan2(w, -q) / w
    k = math.sqrt(k2)
    assert q < -k
    return math.atanh(-k / q) / k if k > 0.0 else -1.0 / q


def test_blowup_certain_shots_blow_up_under_scipy():
    """Continue every BlowupCertain shot of the criterion-5 grids, of
    (2.5, 2), where b < a < 2b makes c+ = a - b positive, and of (7, 8)
    with scipy's DOP853: f g > 0 and 0 < g < 1 hold until |f| + |g|
    reaches BLOWUP_THRESHOLD, and it is reached before r0 + Delta*, the
    blowup radius of the comparison equation (EventKind).

    A step-end stop continues from its event state, with c = c+: k =
    sqrt(g0 c+) is 0 on (4, 4) and positive on (3, 2) and (2.5, 2).  For a
    < b, on (1, 4) and (7, 8), every stop is at r = 0; it continues from r
    = 1e-3, from the Taylor start f = x0 (b - a x0^2) r / 3 and g = x0 +
    (1 - x0^2) f r / 2, with c = -g0 (b - a), since phi(g) >= g0 (b - a)
    once g >= g0."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    seen, signs = {}, set()
    for params in (ModelParams(4.0, 4.0), ModelParams(1.0, 4.0), P32, ModelParams(2.5, 2.0),
                   ModelParams(7.0, 8.0)):
        a, b = params.a, params.b

        def rhs(r, y):
            f, g = y
            return [-2.0 * f / r + g * (f * f - a * g * g + b), f * (1.0 - g * g)]

        def threshold(r, y):
            return abs(y[0]) + abs(y[1]) - BLOWUP_THRESHOLD

        threshold.terminal = True
        outs = [o for o in classify_grid(params, GRID, R200) if _blowup_certain(o)]
        seen[(a, b)] = len(outs)
        for out in outs:
            assert out.shot_class is ShotClass.BLOWUP
            if a < b:
                assert out.r_x == 0.0 and len(out.trajectory.r) == 1
                r0 = 1e-3
                f0 = out.x0 * (b - a * out.x0 ** 2) * r0 / 3.0
                g0 = out.x0 + 0.5 * (1.0 - out.x0 ** 2) * f0 * r0
                c = -g0 * (b - a)
            else:
                r0, f0, g0 = out.r_x, float(out.trajectory.f[-1]), out.g_at_rx
                c = max(0.0, a - b, g0 * (a * g0 * g0 - b))
            signs.add((c > 0.0) - (c < 0.0))
            sol = solve_ivp(rhs, (r0, r0 + _blowup_time(r0, f0, g0, c)), [f0, g0],
                            method="DOP853", events=threshold, rtol=1e-10, atol=1e-12)
            assert sol.status == 1, (a, b, out.x0, sol.message)
            f, g = sol.y
            assert np.all(f * g > 0.0) and np.all((0.0 < g) & (g < 1.0)), (a, b, out.x0)
    assert seen == {(4.0, 4.0): 50, (1.0, 4.0): 50, (3.0, 2.0): 1, (2.5, 2.0): 9,
                    (7.0, 8.0): 50}
    assert signs == {-1, 0, 1}


def test_blowup_certain_changes_no_class_or_search(monkeypatch):
    """With BlowupCertain armed and disarmed, every shot of the
    criterion-5 grids and of a signed (9, 4) grid gets the same class,
    and the five bench anchor searches return bit-identical x*, brackets
    and certificate rows.  The (9, 4) grid runs to r = 25, not 200: half
    its shots circle the well to r_max, and the classes are compared at
    equal horizons."""
    grids = [(ModelParams(a, b), GRID, R200) for a, b in ((4.0, 4.0), (1.0, 4.0), (3.0, 2.0))]
    grids.append((P94, np.linspace(-1.2, 1.2, 97), IntegratorConfig(r_max=25.0)))
    anchors = [ModelParams(a, b) for a, b in
               ((9.0, 4.0), (4.0, 1.0), (12.0, 1.0), (9.0, 2.0), (10.0, 4.5))]

    def run():
        outs = [classify_grid(*grid) for grid in grids]
        searches = [bisect_ground_state(params) for params in anchors]
        return ([[o.shot_class for o in grid] for grid in outs],
                sum(map(_blowup_certain, sum(outs, []))),
                [(gs.x_star, gs.bracket, gs.trajectory.r.tobytes(),
                  gs.trajectory.f.tobytes(), gs.trajectory.g.tobytes())
                 for gs in searches])

    armed = run()
    events = shooting.default_events
    monkeypatch.setattr(shooting, "default_events", lambda x0, params: tuple(
        k for k in events(x0, params) if k is not EventKind.BLOWUP_CERTAIN))
    disarmed = run()
    assert armed[1] == 101 and disarmed[1] == 0
    assert armed[0] == disarmed[0]
    assert armed[2] == disarmed[2]


def test_classify_grid_matches_pointwise():
    xs = [0.0, 0.8, 1.2]
    outs = classify_grid(P94, xs)
    assert [o.shot_class for o in outs] == [
        ShotClass.TRIVIAL_ZERO, ShotClass.IN_SET_I, ShotClass.TRAPPED]


@pytest.fixture
def shot_xs(monkeypatch):
    """The x of every classify_shot call the shooting module makes."""
    xs = []

    def recording(x0, params, config=None):
        xs.append(float(x0))
        return classify_shot(x0, params, config)

    monkeypatch.setattr(shooting, "classify_shot", recording)
    return xs


@pytest.fixture
def wall_u0s(monkeypatch):
    """The u0 of every _classify_wall_shot call the shooting module makes."""
    u0s = []
    shoot = shooting._classify_wall_shot

    def recording(u0, params, config=None):
        u0s.append(float(u0))
        return shoot(u0, params, config)

    monkeypatch.setattr(shooting, "_classify_wall_shot", recording)
    return u0s


def _reference_t_star():
    """t* = -ln u* at every kappa of the scipy oracle's table, u* the
    geometric midpoint of its u0 bracket (bench/oracle.py)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    table = json.loads(path.read_text())["x_star"]
    return {float(k): -0.5 * math.log(row["u_in"] * row["u_out"])
            for k, row in table.items()}


def test_seed_law_matches_the_oracle():
    """The law is within 0.03 of t* at every kappa of the scipy oracle,
    and refitting c0, c1, c2 by least squares on that table gives the
    shipped constants."""
    ref = _reference_t_star()
    assert len(ref) == 66
    assert max(abs(shooting._t_law(k) - t) for k, t in ref.items()) <= 0.03
    kappa = np.array(list(ref))
    e = 1.0 - 2.0 * kappa
    rest = (np.array(list(ref.values())) - 4.0 / e
            + 2.0 * np.log(2.0 * math.sqrt(2.0) / e) - shooting._Q0 * np.sqrt(kappa))
    fit = np.linalg.lstsq(np.stack([np.ones_like(e), e, e * e], axis=1), rest,
                          rcond=None)[0]
    assert fit == pytest.approx(shooting._LAW_C, abs=1e-4)


def test_seed_law_small_kappa_constant_is_the_nls_ground_state():
    """Q(0) of the 3-D cubic NLS ground state Q'' + (2/s) Q' = Q - Q^3,
    found by a scipy shot bisected on overshoot (Q crosses zero) against
    undershoot (Q turns back up), is the law's constant to 1e-6."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

    def crosses(s, y):
        return y[0]

    def turns(s, y):
        return y[1]

    crosses.terminal = turns.terminal = True
    crosses.direction, turns.direction = -1.0, 1.0

    def overshoots(q):
        c, s0 = (q - q ** 3) / 6.0, 1e-6
        sol = solve_ivp(lambda s, y: (y[1], -2.0 / s * y[1] + y[0] - y[0] ** 3),
                        (s0, 60.0), (q + c * s0 * s0, 2.0 * c * s0),
                        method="DOP853", rtol=1e-12, atol=1e-14,
                        events=(crosses, turns))
        return sol.t_events[0].size > 0

    lo, hi = 4.3, 4.4
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if overshoots(mid) else (mid, hi)
    assert shooting._Q0 == pytest.approx(0.5 * (lo + hi), abs=1e-6)


def _law_probes(params):
    """The law's first pair: x at t_law - 0.05, clamped to [x_floor,
    1 - 2^-53], and at t_law + 0.05, or 1 past -ln 2^-53."""
    kappa = params.b / params.a
    t = shooting._t_law(kappa)
    x_floor = 0.5 * (math.sqrt(kappa) + math.sqrt(2.0 * kappa))
    x_lo = min(max(-math.expm1(-(t - 0.05)), x_floor), math.nextafter(1.0, 0.0))
    x_hi = 1.0 if t + 0.05 > 53.0 * math.log(2.0) else -math.expm1(-(t + 0.05))
    return x_lo, x_hi


def test_seed_bracket_values(shot_xs):
    """The law places the pair and the two classes prove it: x_lo in I
    below the scipy x*, x_hi outside I above it.  Near the critical line
    the pair is (1 - 2^-53, 1)."""
    top = math.nextafter(1.0, 0.0)
    for params in (P94, P41, P121, ModelParams(9.0, 4.4)):
        shot_xs.clear()
        lo_out, hi_out = seed_bracket(params)
        assert shot_xs == list(_law_probes(params)) == [lo_out.x0, hi_out.x0]
        assert lo_out.shot_class is ShotClass.IN_SET_I
        assert hi_out.shot_class is not ShotClass.IN_SET_I
        x_star = X_STAR_SCIPY.get(params.b / params.a, top)
        assert lo_out.x0 <= x_star < hi_out.x0
    assert (lo_out.x0, hi_out.x0) == (top, 1.0)


@pytest.mark.parametrize("a, b", [(9.0, 4.0), (4.0, 1.0), (12.0, 1.0), (9.0, 2.0),
                                  (10.0, 4.5), (9.0, 4.2), (9.0, 4.4), (2.0, 0.975),
                                  (8.0, 3.96)])
def test_seed_bracket_takes_at_most_three_shots(shot_xs, a, b):
    """At the five bench anchors and four near-critical pairs the law's
    pair brackets x* in at most three shots (3 to 18 with the former
    decade scan)."""
    lo_out, hi_out = seed_bracket(ModelParams(a, b))
    assert len(shot_xs) <= 3
    assert lo_out.shot_class is ShotClass.IN_SET_I
    assert hi_out.shot_class is not ShotClass.IN_SET_I


@pytest.mark.parametrize("offset", [-3.0, 3.0, -40.0, 40.0])
def test_seed_bracket_survives_a_wrong_law(shot_xs, monkeypatch, offset):
    """A law off by whole units of t costs shots, not the bracket: the
    failed probe is kept as the other end, the spread doubles on its side,
    no x is shot twice, and the pair still holds the scipy x* at (4, 1)."""
    t_star = -math.log1p(-X_STAR_SCIPY[0.25])
    monkeypatch.setattr(shooting, "_t_law", lambda kappa: t_star + offset)
    lo_out, hi_out = seed_bracket(P41)
    assert len(shot_xs) == len(set(shot_xs))
    assert shot_xs[-1] in (lo_out.x0, hi_out.x0)
    assert shot_xs[-2] in (lo_out.x0, hi_out.x0)
    assert lo_out.shot_class is ShotClass.IN_SET_I
    assert hi_out.shot_class is not ShotClass.IN_SET_I
    assert lo_out.x0 < X_STAR_SCIPY[0.25] < hi_out.x0


def test_seed_bracket_validation():
    with pytest.raises(ValueError):
        seed_bracket(ModelParams(3.0, 2.0))      # a - 2b < 0
    with pytest.raises(ValueError):
        seed_bracket(ModelParams(8.0, 4.0))      # critical is excluded too


def test_seed_failure_names_what_its_probe_did(monkeypatch):
    """When no probe down to the floor x = (sqrt(kappa) + sqrt(2 kappa))/2
    lands in I, BracketFailureError names the floor probe's class and how
    its shot ended."""
    shots = []

    def never_in_i(x0, params, config=None):
        shots.append(replace(classify_shot(x0, params, config),
                             shot_class=ShotClass.UNDETERMINED))
        return shots[-1]

    monkeypatch.setattr(shooting, "classify_shot", never_in_i)
    with pytest.raises(BracketFailureError) as err:
        seed_bracket(P41)
    assert shots[-1].x0 == 0.5 * (math.sqrt(0.25) + math.sqrt(0.5))
    assert str(err.value).endswith(
        "classified Undetermined, expected InSetI; its shot ended "
        + shots[-1].trajectory.termination.describe())


def test_search_shoots_each_x_once(shot_xs):
    """Seed, ITP and verification shots together: the seed pair's shots
    are reused, not shot again; the law's pair alone brackets (9, 4), and
    a search takes at most 13 shots at (4, 1) and (12, 1)."""
    for params, shots, x_abs in ((P94, range(5), 1e-13),     # seed pair alone
                                 (P41, range(14), 1e-11),
                                 (P121, range(14), 1e-11)):
        shot_xs.clear()
        gs = bisect_ground_state(params)
        assert len(shot_xs) == len(set(shot_xs))
        assert len(shot_xs) in shots
        assert gs.x_star == pytest.approx(X_STAR_SCIPY[params.b / params.a],
                                          rel=0, abs=x_abs)


def test_short_horizon_is_lifted_to_the_profile_and_still_certifies(monkeypatch,
                                                                    decayed21):
    """At r_max = 6 on (9, 4) every search shot runs once, to the profile's
    horizon max(6, R + 40/sqrt(b)) = 28.49, R = 2 sqrt(2) / (sqrt(a) (1 -
    2b/a)) its thin-wall radius, and the search lands on the scipy x*.
    A Decayed shot's miss is r_x^2 H(r_x), as at the other events, and not
    0; a Trapped shot carries none."""
    horizons, xs = [], []

    def recording(x0, params, config=None):
        horizons.append(config.r_max)
        xs.append(x0)
        return classify_shot(x0, params, config)

    monkeypatch.setattr(shooting, "classify_shot", recording)
    gs = bisect_ground_state(P94, IntegratorConfig(r_max=6.0))
    wall = 2.0 * math.sqrt(2.0) / (3.0 * (1.0 - 8.0 / 9.0))
    assert len(set(horizons)) == 1
    assert horizons[0] == pytest.approx(wall + 40.0 / 2.0, rel=1e-14)
    assert len(set(xs)) == len(xs)
    assert gs.x_star == pytest.approx(X_STAR_SCIPY[4.0 / 9.0], rel=0, abs=1e-13)
    assert gs.lemma_report.passed
    assert decayed21.shot_class is ShotClass.DECAYED
    assert shooting._miss(decayed21) == decayed21.r_x ** 2 * decayed21.H_at_rx
    assert shooting._miss(decayed21) != 0.0
    trapped = classify_shot(1.1, P94)
    assert trapped.shot_class is ShotClass.TRAPPED
    assert shooting._miss(trapped) is None


@pytest.mark.parametrize("params", [P41, P121, ModelParams(9.0, 2.0)],
                         ids=["4,1", "12,1", "9,2"])
def test_miss_is_linear_in_distance_to_x_star(params):
    """r_x^2 H(r_x) / (x - x*) is flat to 5% over |x - x*| = 1e-8 ... 1e-4
    and equal on both sides of the scipy x*, while raw H / (x - x*)
    drifts by more than 30% over the same range."""
    x_star = X_STAR_SCIPY[params.b / params.a]
    sides = []
    for sign, cls in ((-1.0, ShotClass.IN_SET_I), (1.0, ShotClass.G_VANISHED_FIRST)):
        scaled, raw = [], []
        for k in range(4, 9):
            d = sign * 10.0 ** -k
            out = classify_shot(x_star + d, params)
            assert out.shot_class is cls
            scaled.append(shooting._miss(out) / d)
            raw.append(out.H_at_rx / d)
        assert max(scaled) / min(scaled) < 1.05
        assert raw[0] / raw[-1] > 1.3
        sides.append(sum(scaled) / len(scaled))
    assert sides[0] / sides[1] == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("miss", [
    lambda out: -1e-12 if out.shot_class is ShotClass.IN_SET_I else 1.0,
    lambda out: -1.0 if out.shot_class is ShotClass.IN_SET_I else 1e-12,
    lambda out: None,
], ids=["hugs_lo", "hugs_hi", "none"])
def test_itp_keeps_bisection_worst_case(shot_xs, wall_u0s, monkeypatch, miss):
    """Whatever the miss, the shots after the seed pair stay within
    ceil(log2(w0/x_tol)) + 4 plus the verification shot, and the
    certificate passes the audit; with no miss the closer is plain
    bisection, in x and, below the float grid at (9, 4.3), in t = -ln u0,
    where it stays within bisection's ceil(log2(w0/x_tol)) + 1 after its
    one end shot."""
    lo_out, hi_out = seed_bracket(P41)
    n_seed = len(shot_xs)
    shot_xs.clear()
    monkeypatch.setattr(shooting, "_miss", miss)
    gs = bisect_ground_state(P41)
    w0 = hi_out.x0 - lo_out.x0
    assert len(shot_xs) - n_seed <= math.ceil(math.log2(w0 / 1e-12)) + 5
    assert gs.lemma_report.passed
    if miss(lo_out) is None:     # plain bisection's x* from the same bracket
        lo, hi = lo_out.x0, hi_out.x0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if classify_shot(mid, P41).shot_class is ShotClass.IN_SET_I:
                lo = mid
            else:
                hi = mid
        ver = classify_shot(0.5 * (lo + hi), P41).shot_class
        in_i = ver in (ShotClass.IN_SET_I, ShotClass.DECAYED)
        assert gs.x_star == (0.5 * (lo + hi) if in_i else lo)
        gs = bisect_ground_state(ModelParams(9.0, 4.3))
        assert 0.0 < gs.u_star < 2.0 ** -53 and gs.lemma_report.passed
        w0 = math.log(2.0 ** -53 / sys.float_info.min)
        assert len(wall_u0s) - 1 <= math.ceil(math.log2(w0 / 1e-12)) + 1


def test_itp_worst_case_survives_rounding(monkeypatch):
    """With the miss hugging x_hi the projection stays active to the end,
    and every projected x rounds by up to half an ulp; on this (4, 1)
    bracket the width then closed at 1.000089e-12, above tol, one shot
    past the bound.  _itp keeps ceil(log2(w0/tol)) + 4 shots and ends
    within two ulps of tol."""
    monkeypatch.setattr(shooting, "_miss", lambda out: (
        -1.0 if out.shot_class is ShotClass.IN_SET_I else 1e-12))
    lo, hi = 0.9950691263575249, 0.9952624686785153
    xs = []

    def shoot(x):
        xs.append(x)
        return classify_shot(x, P41)

    lo_out, hi_out = shoot(lo), shoot(hi)
    xs.clear()
    x_lo, cert, x_hi = shooting._itp(lo, hi, lo_out, hi_out, shoot, 1e-12)
    assert len(xs) <= math.ceil(math.log2((hi - lo) / 1e-12)) + 4
    assert x_hi - x_lo <= 1e-12 + 2.0 * math.ulp(hi)
    assert cert.x0 == x_lo and cert.shot_class is ShotClass.IN_SET_I


@pytest.mark.parametrize("a, b", [(2.0, 0.06), (8.0, 0.32)])
def test_decayed_shot_departs_where_its_growing_mode_points(a, b):
    """Decayed shots within 1e-12 of the oracle's x*, continued from their
    decay event by scipy's DOP853, reach f = 0 first exactly when their
    growing mode is >= 0 (the certifiable ones) and g = 0 first when it is
    negative; both kinds occur."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    params = ModelParams(a, b)
    deriv = vector_field(params)

    def f_zero(r, y):
        return y[0]

    def g_zero(r, y):
        return y[1]

    f_zero.terminal = g_zero.terminal = True
    f_zero.direction, g_zero.direction = 1.0, -1.0
    x_star = 1.0 - math.exp(-_reference_t_star()[b / a])
    seen = set()
    for x in np.linspace(x_star - 1e-12, x_star + 1e-12, 21):
        out = classify_shot(float(x), params)
        if out.shot_class is not ShotClass.DECAYED:
            continue
        traj = out.trajectory
        sol = solve_ivp(lambda r, y: deriv(r, *y), (traj.r[-1], traj.r[-1] + 100.0),
                        (traj.f[-1], traj.g[-1]), method="DOP853", rtol=1e-12,
                        atol=1e-24, events=(f_zero, g_zero))
        f_first = sol.t_events[0].size > 0
        assert f_first != (sol.t_events[1].size > 0)
        assert shooting._departs_toward_f_zero(out) is f_first
        seen.add(f_first)
    assert seen == {True, False}


@pytest.mark.parametrize("a, b", [(2.0, 0.06), (8.0, 0.32)])
def test_decayed_miss_is_negative_where_its_tail_departs_toward_f_zero(a, b):
    """On the grids of the test above every Decayed shot's miss r_x^2
    H(r_x) is nonzero, and it is negative, the sign of a shot in I,
    exactly when the shot's growing mode points its tail toward f = 0;
    both signs occur."""
    params = ModelParams(a, b)
    x_star = 1.0 - math.exp(-_reference_t_star()[b / a])
    signs = set()
    for x in np.linspace(x_star - 1e-12, x_star + 1e-12, 21):
        out = classify_shot(float(x), params)
        if out.shot_class is not ShotClass.DECAYED:
            continue
        miss = shooting._miss(out)
        assert miss != 0.0
        assert (miss < 0.0) is shooting._departs_toward_f_zero(out)
        signs.add(miss < 0.0)
    assert signs == {True, False}


@pytest.mark.parametrize("a, b", [(40.0, 0.1), (8.0, 0.02)])
def test_decayed_ends_do_not_stall_the_search(shot_xs, a, b):
    """At kappa = 0.0025 the shots up to about 2e-12 above x* decay.  With
    a Decayed miss of 0 regula falsi landed on that end and the search
    crept down from it by x_tol/4 a shot, 21 shots in all; with its
    r_x^2 H(r_x) miss the search takes at most 12, no shot x_tol/4 from
    the one before, and lands on the oracle's x*."""
    gs = bisect_ground_state(ModelParams(a, b))
    assert len(shot_xs) <= 12
    steps = np.abs(np.diff(shot_xs))
    assert not np.any(np.isclose(steps, 0.25e-12, rtol=1e-3, atol=0.0))
    x_star = 1.0 - math.exp(-_reference_t_star()[b / a])
    assert gs.x_star == pytest.approx(x_star, rel=0, abs=1e-12)
    assert gs.lemma_report.passed


@pytest.mark.parametrize("a, b", [(4.0, 0.098), (6.0, 0.36)])
def test_decayed_verification_shot_past_x_star_becomes_x_hi(a, b):
    """At (4, 0.098) the verification shot decays with a negative growing
    mode, and at (6, 0.36) the closer's last shot does: either becomes
    x_hi, and x_lo's InSetI shot is the certificate and passes the
    audit."""
    params = ModelParams(a, b)
    gs = bisect_ground_state(params)
    lo, hi = gs.bracket
    ver = classify_shot(hi, params)
    assert ver.shot_class is ShotClass.DECAYED
    assert not shooting._departs_toward_f_zero(ver)
    assert gs.x_star == lo == gs.trajectory.x0
    assert gs.lemma_report.passed


def test_bisect_validation():
    with pytest.raises(ValueError):
        bisect_ground_state(P94, x_tol=0.0)
    with pytest.raises(ValueError):
        bisect_ground_state(ModelParams(1.0, 4.0))


def test_bisect_rejects_the_critical_line():
    """On a = 2b the thin-wall radius, and so the search's horizon, is
    infinite; the search refuses the pair by its regime first."""
    with pytest.raises(ValueError, match="a - 2b > 0"):
        bisect_ground_state(ModelParams(8.0, 4.0))


def test_ground_state_near_critical(gs94):
    lo, hi = gs94.bracket
    assert hi - lo <= 1e-12
    assert math.sqrt(8.0 / 9.0) < lo <= gs94.x_star <= hi < 1.0
    assert gs94.x_star == pytest.approx(X_STAR_SCIPY[4.0 / 9.0], rel=0, abs=1e-13)
    assert gs94.decay_rate == 2.0               # sqrt(b), the exact tail rate
    assert gs94.decay_C > 0.0
    rep = gs94.lemma_report
    assert rep.passed
    assert tuple(c.name for c in rep.checks) == AUDIT_NAMES


def test_ground_state_audit_details(gs94):
    rep = gs94.lemma_report
    assert rep.check("g_squared_below_one").value < 1.0
    assert rep.check("g_squared_below_one").value > 0.99   # rides the g = 1 wall
    assert rep.check("spinor_ratio_bound").value < 0.0     # strict margin
    assert rep.check("energy_nonincreasing").value <= 1e-10
    assert rep.check("energy_dissipation").value <= 1e-8
    assert rep.check("winding_zero").value == 0.0
    with pytest.raises(KeyError):
        rep.check("no_such_check")


def test_ground_state_matches_independent_solver(gs41):
    assert abs(gs41.x_star - X_STAR_41_INDEPENDENT) <= 1e-10
    assert gs41.lemma_report.passed
    # the certificate trajectory really is the x_lo / x_star shot
    assert gs41.trajectory.x0 == gs41.x_star


@pytest.mark.parametrize("a, b, kappa", [(8.0, 3.52, 0.44), (10.0, 4.5, 0.45)])
def test_near_critical_x_star_matches_scipy(a, b, kappa):
    gs = bisect_ground_state(ModelParams(a, b))
    assert gs.x_star == pytest.approx(X_STAR_SCIPY[kappa], rel=0, abs=1e-13)


@pytest.mark.parametrize("b", [4.2, 4.25, 4.3])
def test_near_critical_ground_states_certify(b):
    """With a - 2b down to 0.4, sup I lies within an ulp of 1; the law's
    pair is (1 - 2^-53, 1), and the search goes on in u = 1 - g below the
    float grid."""
    gs = bisect_ground_state(ModelParams(9.0, b))
    assert math.sqrt(2.0 * b / 9.0) < gs.x_star < 1.0
    assert gs.x_star == math.nextafter(1.0, 0.0)
    assert 0.0 < gs.u_star < 2.0 ** -53
    assert gs.lemma_report.passed


# u* = 1 - x* by scipy's DOP853 in (f, u), bisected on ln u0 (bench/oracle.py)
U_STAR_SCIPY = {4.2: 2.4862789430145613e-24, 4.3: 4.97578169462204e-37}


@pytest.mark.parametrize("b", [4.2, 4.3])
def test_wall_search_matches_scipy(b):
    """Below the float grid u* matches the independent (f, u) oracle, and
    the certificate is the wall search's own InSetI shot from u*."""
    gs = bisect_ground_state(ModelParams(9.0, b))
    assert gs.u_star == pytest.approx(U_STAR_SCIPY[b], rel=1e-11)
    traj = gs.trajectory
    assert traj.u[0] == gs.u_star and traj.x0 == 1.0
    assert np.all(traj.one_minus_g2 > 0.0) and traj.g.max() == 1.0


@pytest.mark.parametrize("a, b", [(9.0, 4.3), (2.0, 0.975)])
def test_wall_search_shot_count(wall_u0s, a, b):
    """Deterministic cost gate: below the float grid the closer in
    -ln u0 takes at most 20 wall shots per search, escalations included
    (49 and 53 with the former u0 scan and bisection in ln u0), and
    never shoots u0 = 2^-53 again: the x search's shot from 1 - 2^-53
    is its InSetI end."""
    gs = bisect_ground_state(ModelParams(a, b))
    assert gs.u_star is not None and gs.lemma_report.passed
    assert len(wall_u0s) <= 20
    assert 2.0 ** -53 not in wall_u0s
    assert wall_u0s[0] == sys.float_info.min


def test_wall_search_keeps_the_x_shot_without_an_inset_i_wall_shot(monkeypatch):
    """If no shot below the float grid lands in I, the certificate stays
    the x search's InSetI shot from 1 - 2^-53 and there is no u*."""
    shoot = shooting._classify_wall_shot

    def never_in_i(u0, params, config=None):
        return replace(shoot(u0, params, config), shot_class=ShotClass.G_VANISHED_FIRST)

    monkeypatch.setattr(shooting, "_classify_wall_shot", never_in_i)
    gs = bisect_ground_state(ModelParams(9.0, 4.3))
    top = math.nextafter(1.0, 0.0)
    assert gs.bracket == (top, 1.0) and gs.x_star == top
    assert gs.trajectory.x0 == top and gs.u_star is None


def test_search_below_the_float_floor_fails_by_name(wall_u0s):
    """At (8, 3.98) the law puts u* near e^-790, below every double: the
    end shot from the smallest normal u0 is in I, and the search stops
    there with a named BracketFailureError, not a certificate."""
    with pytest.raises(BracketFailureError, match="float floor"):
        bisect_ground_state(ModelParams(8.0, 3.98))
    assert wall_u0s == [sys.float_info.min]


def test_wall_search_is_only_for_the_last_ulp():
    """Away from the wall the search stays in x and reports no u*."""
    gs = bisect_ground_state(ModelParams(10.0, 4.5))
    assert gs.u_star is None and gs.trajectory.u is None


def test_ground_state_bracket_is_sharp(gs41):
    """One step either side of the bracket flips the classification."""
    lo, hi = gs41.bracket
    assert classify_shot(lo - 1e-9, P41).shot_class is ShotClass.IN_SET_I
    assert classify_shot(hi + 1e-9, P41).shot_class is ShotClass.G_VANISHED_FIRST


def test_anchor_searches_step_count(monkeypatch):
    """Deterministic cost gate: the five bench anchor searches take at most
    3,900 accepted steps over all their shots (3,526 measured; 6,182 with
    the former decade seed scan, 20,897 with the former fifth-order
    stepper as well)."""
    steps = []

    def counted(*args, **kwargs):
        traj = integrate_radial(*args, **kwargs)
        steps.append(len(traj._segments))
        return traj

    monkeypatch.setattr(shooting, "integrate_radial", counted)
    for a, b in ((9.0, 4.0), (4.0, 1.0), (12.0, 1.0), (9.0, 2.0), (10.0, 4.5)):
        bisect_ground_state(ModelParams(a, b))
    assert sum(steps) <= 3900


def test_more_ground_states_certify():
    for a, b in ((9.0, 1.0), (12.0, 5.0)):
        gs = bisect_ground_state(ModelParams(a, b))
        assert gs.lemma_report.passed
        assert gs.bracket[1] - gs.bracket[0] <= 1e-12
    # far-from-critical pair lands well inside the unit interval
    gs91 = bisect_ground_state(ModelParams(9.0, 1.0))
    assert gs91.x_star == pytest.approx(X_STAR_SCIPY[1.0 / 9.0], rel=0, abs=1e-12)


def test_interval_interior_is_in_set_i():
    """Shots between the inner and outer separatrix widths stay in I."""
    sb, s2b = math.sqrt(0.25), math.sqrt(0.5)
    for x in np.linspace(sb + 0.01, s2b - 0.01, 5):
        out = classify_shot(float(x), P41)
        assert out.shot_class is ShotClass.IN_SET_I
        assert out.g_at_rx <= sb + 1e-8
        assert out.H_at_rx <= 1e-8


def test_tail_amplitude_separates_the_modes():
    """On the linear tail g = (C e^{-kr} + D e^{kr}) / r, f = g', the
    amplitude is C whatever the growing mode D holds; with no sample in
    the linear regime it is NaN."""
    k = math.sqrt(P41.b)
    r = np.linspace(8.0, 20.0, 400)
    g = (1.5 * np.exp(-k * r) + 1e-12 * np.exp(k * r)) / r
    f = (-k * 1.5 * np.exp(-k * r) + k * 1e-12 * np.exp(k * r)) / r - g / r
    assert tail_amplitude(_synthetic(r, f, g)) == pytest.approx(1.5, rel=1e-7)
    flat = np.full_like(r, 0.5)
    assert math.isnan(tail_amplitude(_synthetic(r, np.zeros_like(r), flat)))


def _same_bits(x, y) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


@pytest.mark.parametrize("values", [
    [3.0, -1.0, 2.0],                          # odd
    [4.0, 1.0, 3.0, 2.0],                      # even: (2 + 3) / 2
    [0.1, 0.7, 0.2, 0.30000000000000004],      # even, rounded mean
    [1.0, 2.0, 2.0, 2.0, 5.0, 1.0],            # tied
    [0.0, -0.0, 1.0, -0.0],                    # signed zeros tie
    [1.0, math.nan, 0.5],                      # NaN
    [math.nan, 2.0, 3.0, 1.0],
    [-math.nan, 2.0],
])
def test_median_is_np_median_bit_for_bit(values):
    xs = np.array(values)
    assert _same_bits(shooting._median(xs), np.median(xs))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(-1e300, 1e300),
                          st.sampled_from((0.0, -0.0, 1.0, math.nan))),
                min_size=1, max_size=40))
def test_median_matches_np_median_on_any_array(values):
    xs = np.array(values)
    assert _same_bits(shooting._median(xs), np.median(xs))


def test_dissipation_residual_flags_the_wrong_flow():
    """Radial shots meet H' = -(2/r) f^2 (1 - g^2) to integration error;
    a shifted orbit, whose friction is 2/(1 + r), misses it by half."""
    cfg = IntegratorConfig(r_max=20.0)
    for x in (0.3, 0.7, 0.9):
        assert dissipation_residual(integrate_radial(x, P94, cfg)) <= 1e-7
    shifted = integrate_shifted(PhasePoint(0.0, 0.8), 1.0, P94, cfg)
    assert dissipation_residual(shifted) >= 0.5


@pytest.mark.parametrize("kappa, c_rel", [
    (0.05, 1e-5), (0.125, 1e-5), (0.25, 1e-5), (0.45, 5e-3), (0.4875, 5e-3),
])
def test_certificate_is_scale_covariant(kappa, c_rel):
    """(f, g)(r) -> (lam f(lam r), g(lam r)) maps the ground state at (a, b)
    to the one at (lam^2 a, lam^2 b): from a = 4, every check passes or
    fails alike at each lam, the dissipation residual stays at integration
    error, and decay_C sqrt(a) and decay_bound's spread are invariant.  At kappa = 0.4875 sup I lies
    far below an ulp of 1 (u* ~ 6e-67) and the certificate is the wall
    search's shot in u.  x* to x_tol, the plateau score and u* are
    invariant too: `sweep` solves each kappa once on these grounds."""
    states = [bisect_ground_state(ModelParams(4.0 * lam ** 2, 4.0 * kappa * lam ** 2))
              for lam in (0.25, 1.0, 2.0, 4.0)]
    xs = [gs.x_star for gs in states]
    assert max(xs) - min(xs) <= 1e-12
    scores = [plateau_metrics(gs.trajectory).plateau_score for gs in states]
    assert all(s == pytest.approx(scores[1], rel=1e-6) for s in scores)
    us = [gs.u_star for gs in states]
    if kappa == 0.4875:
        assert all(u == pytest.approx(us[1], rel=1e-11) for u in us)
    else:
        assert us == [None] * 4
    verdicts = {tuple(c.passed for c in gs.lemma_report.checks) for gs in states}
    assert len(verdicts) == 1
    for gs in states:
        assert gs.lemma_report.check("energy_dissipation").value <= 1e-8
    cs = [gs.decay_C * math.sqrt(gs.trajectory.params.a) for gs in states]
    assert all(c == pytest.approx(cs[1], rel=c_rel) for c in cs)
    spreads = [gs.lemma_report.check("decay_bound").value for gs in states]
    assert all(v == pytest.approx(spreads[1], rel=1e-3) for v in spreads)


@pytest.mark.parametrize("a, b", [(0.1, 0.049), (0.01, 0.0049)])
def test_certificate_is_scale_covariant_at_small_a(a, b):
    """At kappa = 0.49 and a = 0.1 or 0.01 the thin wall R = 2 sqrt(2) /
    (sqrt(a) (1 - 2 kappa)) lies at 447 or 1414, past the default r_max;
    the search's horizon follows it, and the certificate passes the audit
    with the u* of (2, 0.98) to 1e-10 relative."""
    ref = bisect_ground_state(ModelParams(2.0, 0.98)).u_star
    gs = bisect_ground_state(ModelParams(a, b))
    assert gs.lemma_report.passed
    assert gs.u_star == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("kappa", [1e-4, 1e-6])
def test_small_kappa_certificate_does_not_depend_on_a(kappa):
    """No absolute length caps a step, so the steps of the wide profile at
    small a scale with it: the certificate has one row count at a = 0.01,
    1 and 100 (273 and 254 measured), and x* one value to 1e-12."""
    states = [bisect_ground_state(ModelParams(a, kappa * a)) for a in (0.01, 1.0, 100.0)]
    assert len({len(gs.trajectory.r) for gs in states}) == 1
    xs = [gs.x_star for gs in states]
    assert max(xs) - min(xs) <= 1e-12


def test_x_star_approaches_the_nls_limit():
    """As kappa -> 0 at a = 1 the model reduces to the 3-D cubic NLS and
    x* = Q(0) sqrt(kappa) (1 - c kappa + O(kappa^2)), so c(kappa) = (1 -
    x* / (Q(0) sqrt(kappa))) / kappa is linear in kappa near 0: its
    successive differences over kappa = 4e-4, 2e-4, 1e-4, 5e-5 halve, to
    5%, and every certificate passes the audit."""
    cs = []
    for kappa in (4e-4, 2e-4, 1e-4, 5e-5):
        gs = bisect_ground_state(ModelParams(1.0, kappa))
        assert gs.lemma_report.passed
        cs.append((1.0 - gs.x_star / (shooting._Q0 * math.sqrt(kappa))) / kappa)
    d = np.diff(cs)
    assert d[1:] / d[:-1] == pytest.approx([0.5, 0.5], rel=0.05)


def test_audit_flags_the_non_decaying_wall_profile():
    """The g = 1 closed form fails exactly the decay and wall checks; it
    has no tail window for decay_bound."""
    traj = integrate_radial(1.0, ModelParams(2.5, 1.0), IntegratorConfig(r_max=30.0))
    rep = audit_lemmas(traj)
    assert not rep.passed
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {"g_squared_below_one", "spinor_ratio_bound", "decay_bound"}
    assert rep.check("decay_bound").note == "fewer than two rows with a g^2 <= b/100"


def test_audit_trivial_solution_is_vacuously_clean():
    rep = audit_lemmas(exact_trivial(P94, r_max=50.0))
    assert rep.passed
    assert rep.check("decay_bound").note != ""


def test_decay_bound_flags_a_stretched_tail(gs94):
    """The (9, 4) certificate with its radii stretched by 2% (f shrunk to
    match, so g' = f (1 - g^2) still holds) no longer follows
    C e^{-sqrt(b) r} / r: C(r) spreads by 7.4e-2 against 4.0e-3."""
    t = gs94.trajectory
    stretched = Trajectory(t.r * 1.02, t.f / 1.02, t.g, t.params, t.x0, t.termination)
    assert gs94.lemma_report.check("decay_bound").value < 5e-3
    check = audit_lemmas(stretched).check("decay_bound")
    assert not check.passed and check.value > 5e-2
