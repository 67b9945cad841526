"""Shot taxonomy, bracketing, bisection, decay fits, lemma audits."""
import math

import numpy as np
import pytest

from nucshoot import shooting
from nucshoot.integrator import (BLOWUP_THRESHOLD, R_START, EventKind,
                                 IntegratorConfig, Termination,
                                 TerminationKind, Trajectory, integrate_radial)
from nucshoot.model import ModelParams, energy, exact_trivial, trap_energy
from nucshoot.shooting import (GroundState, NotDecayingError, ShotClass,
                               audit_lemmas, bisect_ground_state,
                               classify_grid, classify_shot, default_events,
                               fit_decay_rate, seed_bracket)

P94 = ModelParams(9.0, 4.0)
P41 = ModelParams(4.0, 1.0)
P32 = ModelParams(3.0, 2.0)
R200 = IntegratorConfig(r_max=200.0)
GRID = np.linspace(0.01, 0.99, 50)     # acceptance criterion 5's grid

RX_08 = 2.13940806222205
G_RX_08 = 0.6334209942120211
X_STAR_94 = 0.9999999999996348      # frozen from this build at defaults
X_STAR_41_INDEPENDENT = 0.995181079032138   # independent reference solve

AUDIT_NAMES = (
    "energy_dissipation", "g_squared_below_one", "f_squared_bounded",
    "admissible_membership", "energy_nonincreasing", "sign_conditions",
    "spinor_ratio_bound", "decay_bound", "decay_rate_bound", "winding_zero",
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


def test_classify_undetermined_low_shot():
    out = classify_shot(0.3, P94)
    assert out.shot_class is ShotClass.UNDETERMINED
    assert out.trajectory.termination.kind is TerminationKind.REACHED_RMAX


def test_energy_trapped_by_crossing():
    out = classify_shot(0.5, P32, R200)
    assert out.shot_class is ShotClass.ENERGY_TRAPPED
    assert out.trajectory.termination.event_kinds == (EventKind.ENERGY_BARRIER,)
    assert out.r_x > R_START
    assert out.r_x == out.trajectory.r_end
    assert out.H_at_rx <= trap_energy(P32)
    assert np.all(out.trajectory.H[:-1] > trap_energy(P32))
    assert 0.0 < out.g_at_rx < 1.0


def test_energy_trapped_at_handoff():
    # H(0, 0.7) = -0.309925 already lies below H_trap = -0.25 - 1e-8
    out = classify_shot(0.7, P32, R200)
    assert out.shot_class is ShotClass.ENERGY_TRAPPED
    assert out.trajectory.termination.event_kinds == (EventKind.ENERGY_BARRIER,)
    assert out.r_x == R_START == out.trajectory.r_end
    assert out.H_at_rx == pytest.approx(-0.309925, rel=0, abs=1e-9)


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
    least to r = 200 on a common step sequence.
    """
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    outs = [o for o in classify_grid(P32, GRID, R200)
            if o.shot_class is ShotClass.ENERGY_TRAPPED]
    assert len(outs) == 40
    n = len(outs)
    a, b = P32.a, P32.b
    r_x = np.array([o.r_x for o in outs])

    def rhs(s, y):
        f, g = y[:n], y[n:]
        return np.concatenate([-2.0 * f / (r_x + s) + g * (f * f - a * g * g + b),
                               f * (1.0 - g * g)])

    y0 = np.concatenate([[o.trajectory.f[-1] for o in outs],
                         [o.trajectory.g[-1] for o in outs]])
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


def test_classify_grid_matches_pointwise():
    xs = [0.0, 0.8, 1.2]
    outs = classify_grid(P94, xs)
    assert [o.shot_class for o in outs] == [
        ShotClass.TRIVIAL_ZERO, ShotClass.IN_SET_I, ShotClass.TRAPPED]


def test_seed_bracket_values():
    lo_out, hi = seed_bracket(P94)
    assert lo_out.x0 == pytest.approx(0.804737854124365, rel=0, abs=1e-15)
    assert hi == 0.99999999999999          # geometric phase lands an ulp shy of 1
    assert lo_out.shot_class is ShotClass.IN_SET_I
    assert classify_shot(lo_out.x0, P94).shot_class is ShotClass.IN_SET_I

    lo41_out, hi41 = seed_bracket(P41)
    assert lo41_out.x0 == pytest.approx(0.6035533905932737, rel=0, abs=1e-15)
    assert 0.995 < hi41 < 0.998            # linear scan finds the flip directly
    assert classify_shot(hi41, P41).shot_class is ShotClass.G_VANISHED_FIRST


def test_seed_bracket_refines_step_when_needed():
    # sup I at (3, 1) sits past the coarse grid; round 3 (step 1e-4) finds it
    lo_out, hi = seed_bracket(ModelParams(3.0, 1.0))
    assert 0.9998 < hi < 0.99991
    assert classify_shot(hi, ModelParams(3.0, 1.0)).shot_class is not ShotClass.IN_SET_I
    assert lo_out.x0 == pytest.approx(0.6969234250586759, rel=0, abs=1e-15)


def test_seed_bracket_validation():
    with pytest.raises(ValueError):
        seed_bracket(ModelParams(3.0, 2.0))      # a - 2b < 0
    with pytest.raises(ValueError):
        seed_bracket(ModelParams(8.0, 4.0))      # critical is excluded too


def test_search_shoots_each_x_once(monkeypatch):
    """The seed scan's InSetI shot at x_lo is reused, not shot again."""
    xs = []

    def counting(x0, params, config=None):
        xs.append(float(x0))
        return classify_shot(x0, params, config)

    monkeypatch.setattr(shooting, "classify_shot", counting)
    gs = bisect_ground_state(P94)
    assert len(xs) == len(set(xs)) == 61
    assert gs.x_star == pytest.approx(X_STAR_94, rel=0, abs=5e-13)


def test_bisect_validation():
    with pytest.raises(ValueError):
        bisect_ground_state(P94, x_tol=0.0)
    with pytest.raises(ValueError):
        bisect_ground_state(ModelParams(1.0, 4.0))


def test_ground_state_near_critical(gs94):
    lo, hi = gs94.bracket
    assert hi - lo <= 1e-12
    assert math.sqrt(8.0 / 9.0) < lo <= gs94.x_star <= hi < 1.0
    assert gs94.x_star == pytest.approx(X_STAR_94, rel=0, abs=5e-13)
    assert gs94.decay_rate == pytest.approx(2.207031726389679, rel=1e-6)
    assert gs94.decay_rate >= 7.0 / 9.0 - 0.05
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
    assert rep.check("energy_dissipation").value <= 1e-4
    assert rep.check("winding_zero").value == 0.0
    with pytest.raises(KeyError):
        rep.check("no_such_check")


def test_ground_state_matches_independent_solver(gs41):
    assert abs(gs41.x_star - X_STAR_41_INDEPENDENT) <= 1e-10
    assert gs41.lemma_report.passed
    assert gs41.decay_rate == pytest.approx(1.0824231501509616, rel=1e-6)
    # the certificate trajectory really is the x_lo / x_star shot
    assert gs41.trajectory.x0 == gs41.x_star


def test_ground_state_bracket_is_sharp(gs41):
    """One step either side of the bracket flips the classification."""
    lo, hi = gs41.bracket
    assert classify_shot(lo - 1e-9, P41).shot_class is ShotClass.IN_SET_I
    assert classify_shot(hi + 1e-9, P41).shot_class is ShotClass.G_VANISHED_FIRST


def test_more_ground_states_certify():
    for a, b in ((9.0, 1.0), (12.0, 5.0)):
        gs = bisect_ground_state(ModelParams(a, b))
        assert gs.lemma_report.passed
        assert gs.bracket[1] - gs.bracket[0] <= 1e-12
    # far-from-critical pair lands well inside the unit interval
    gs91 = bisect_ground_state(ModelParams(9.0, 1.0))
    assert gs91.x_star == pytest.approx(0.9090888273408164, rel=0, abs=1e-12)


def test_interval_interior_is_in_set_i():
    """Shots between the inner and outer separatrix widths stay in I."""
    sb, s2b = math.sqrt(0.25), math.sqrt(0.5)
    for x in np.linspace(sb + 0.01, s2b - 0.01, 5):
        out = classify_shot(float(x), P41)
        assert out.shot_class is ShotClass.IN_SET_I
        assert out.g_at_rx <= sb + 1e-8
        assert out.H_at_rx <= 1e-8


def test_fit_decay_rate_pure_exponential():
    r = np.linspace(2.0, 30.0, 600)
    f = -0.5 * np.exp(-2.0 * r)
    g = np.exp(-2.0 * r)
    rate, pref, resid = fit_decay_rate(_synthetic(r, f, g))
    assert rate == pytest.approx(2.0, rel=0, abs=1e-6)
    assert pref == pytest.approx(1.5, rel=1e-4)
    assert resid <= 1e-10


def test_fit_decay_rate_algebraic_correction_within_ten_percent():
    """A Bessel-type e^{-kr}/r tail fits within 10% of the true rate."""
    r = np.linspace(5.0, 50.0, 1000)
    g = np.exp(-2.0 * r) / r
    f = -np.exp(-2.0 * r) / r
    rate, _, _ = fit_decay_rate(_synthetic(r, f, g))
    assert 2.0 < rate <= 2.2   # 1/r bias is upward and small


def test_fit_decay_rate_rejections():
    with pytest.raises(NotDecayingError):
        fit_decay_rate(exact_trivial(P94, r_max=50.0))
    r = np.linspace(0.0, 10.0, 300)
    with pytest.raises(NotDecayingError):
        fit_decay_rate(_synthetic(r, np.zeros_like(r), np.exp(0.1 * r)))
    coth = integrate_radial(1.0, ModelParams(2.5, 1.0), IntegratorConfig(r_max=30.0))
    with pytest.raises(NotDecayingError):
        fit_decay_rate(coth)


def test_audit_flags_the_non_decaying_wall_profile():
    """The g = 1 closed form fails exactly the decay and wall checks."""
    params = ModelParams(2.5, 1.0)
    traj = integrate_radial(1.0, params, IntegratorConfig(r_max=30.0))
    fake = GroundState(1.0, (1.0, 1.0), traj, math.nan, math.nan, None)
    rep = audit_lemmas(fake, params)
    assert not rep.passed
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {"g_squared_below_one", "spinor_ratio_bound",
                      "decay_bound", "decay_rate_bound"}


def test_audit_trivial_solution_is_vacuously_clean():
    traj = exact_trivial(P94, r_max=50.0)
    fake = GroundState(0.0, (0.0, 0.0), traj, math.inf, 0.0, None)
    rep = audit_lemmas(fake, P94)
    assert rep.passed
    assert rep.check("decay_rate_bound").note != ""
