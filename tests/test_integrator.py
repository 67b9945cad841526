"""Adaptive integration: accuracy, events, terminations, dense output."""
import math

import numpy as np
import pytest

from nucshoot import integrator
from nucshoot.integrator import (BLOWUP_THRESHOLD, R_START, EventKind,
                                 IntegratorConfig, StiffnessError,
                                 TerminationKind, integrate_conservative,
                                 integrate_radial, integrate_shifted,
                                 series_start)
from nucshoot.model import ModelParams, PhasePoint, energy, exact_coth
from nucshoot.shooting import bisect_ground_state

P94 = ModelParams(9.0, 4.0)
P41 = ModelParams(4.0, 1.0)

# frozen at defaults: first rising f-zero for x0 = 0.8 at (9, 4)
RX_08_94 = 2.13940806222205
# frozen at defaults: first falling g-zero for x0 = 0.95 at (9, 1)
RX_095_91 = 2.719237514944339


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=1e-16)
    with pytest.raises(ValueError):
        IntegratorConfig(atol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(r_max=1e-7)       # not beyond the hand-off radius
    with pytest.raises(ValueError):
        IntegratorConfig(r_max=R_START)
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
    worst = 0.0
    for r in np.linspace(0.0, 10.0, 501):
        f, g = traj.sample_at(float(r))
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
    grid, fs, gs = traj.resample(0.01)
    assert grid[0] == 0.0 and grid[-1] <= 10.0
    h = energy(fs, gs, P94)
    assert np.max(np.abs(h - traj.H[0])) <= 1e-7


def test_sample_at_nodes_and_clamping():
    traj = integrate_radial(0.8, P94, IntegratorConfig(r_max=5.0))
    k = len(traj.r) // 2
    f, g = traj.sample_at(float(traj.r[k]))
    assert f == pytest.approx(traj.f[k], rel=0, abs=1e-12)
    assert g == pytest.approx(traj.g[k], rel=0, abs=1e-12)
    assert traj.sample_at(99.0) == (traj.f[-1], traj.g[-1])
    assert traj.sample_at(0.0) == (0.0, 0.8)


def test_sample_at_series_region():
    """Below the handoff radius, interpolation between the origin and the
    hand-off rows reproduces the Taylor values."""
    x0 = 0.8
    traj = integrate_radial(x0, P94, IntegratorConfig(r_max=2.0))
    r = 1e-7
    f, g = traj.sample_at(r)
    c1 = x0 * (P94.b - P94.a * x0 * x0) / 3.0
    assert f == pytest.approx(c1 * r, rel=1e-9)
    assert g == pytest.approx(x0 + 0.5 * c1 * (1.0 - x0 * x0) * r * r, rel=1e-12)


def test_series_start_matches_taylor():
    x0, rs = 0.8, 2e-3
    p = series_start(x0, P94, rs)
    c1 = x0 * (P94.b - P94.a * x0 * x0) / 3.0
    assert p.f == pytest.approx(c1 * rs, rel=1e-14)
    assert p.g == pytest.approx(x0 + 0.5 * c1 * (1.0 - x0 * x0) * rs * rs, rel=1e-14)
    with pytest.raises(ValueError):
        series_start(x0, P94, 0.0)


def test_mirrored_trajectory():
    traj = integrate_radial(0.8, P94, IntegratorConfig(r_max=3.0))
    m = traj.mirrored()
    assert m.x0 == -0.8
    assert np.array_equal(m.f, -traj.f) and np.array_equal(m.g, -traj.g)
    for r in (0.3, 1.1, 2.7):
        f, g = traj.sample_at(r)
        mf, mg = m.sample_at(r)
        assert mf == -f and mg == -g


def test_convergence_order_at_least_four_and_a_half(monkeypatch):
    """Fixed-step endpoint errors against a tight reference; log2 slopes."""
    ref = integrate_conservative(PhasePoint(0.3, 0.4), P94,
                                 IntegratorConfig(rtol=1e-12, atol=1e-14, r_max=2.0))
    rf, rg = ref.f[-1], ref.g[-1]
    errs = []
    cfg = IntegratorConfig(rtol=10.0, atol=10.0, r_max=2.0)
    for h in (0.2, 0.1, 0.05, 0.025):
        # sky-high tolerances pin the controller at h = h_max = h_init
        monkeypatch.setattr(integrator, "_H_INIT", h)
        monkeypatch.setattr(integrator, "_H_MAX", h)
        t = integrate_conservative(PhasePoint(0.3, 0.4), P94, cfg)
        errs.append(math.hypot(t.f[-1] - rf, t.g[-1] - rg))
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert min(slopes) >= 4.2
    assert sum(slopes) / len(slopes) >= 4.5


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


def test_event_decay_detected_threshold_and_floor():
    """The (2, 0.1) search certifies a shot that decays outright: the
    detector fires beyond its r = 5 floor on the |f| + |g| = 1e-8 level."""
    gs = bisect_ground_state(ModelParams(2.0, 0.1))
    term = gs.trajectory.termination
    assert term.kind is TerminationKind.EVENT
    assert term.event_kinds == (EventKind.DECAY_DETECTED,)
    assert term.r >= 5.0
    amp = abs(gs.trajectory.f[-1]) + abs(gs.trajectory.g[-1])
    assert amp == pytest.approx(1e-8, rel=1e-6)


def test_simultaneous_events_reported_together():
    ev = (EventKind.F_CROSSES_ZERO, EventKind.F_CROSSES_ZERO)
    traj = integrate_radial(0.8, P94, events=ev)
    term = traj.termination
    assert term.kind is TerminationKind.EVENT
    assert len(term.event_kinds) == 2
    assert "+" in term.describe()


def test_g_squared_event_never_fires_spuriously():
    """g = 1 is invariant: blowup rides it asymptotically, no crossing."""
    traj = integrate_radial(0.8, ModelParams(1.0, 4.0),
                            events=(EventKind.G_SQUARED_REACHES_ONE,))
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
        worst = 0.0
        for rv in grid:
            fs, gs = t.sample_at(float(rv))
            fc, gc = ref.sample_at(float(rv))
            worst = max(worst, abs(fs - fc), abs(gs - gc))
        return worst

    d10, d1000 = supdiff(10.0), supdiff(1000.0)
    assert d1000 < d10
    assert d1000 <= 1e-2


def test_oversized_initial_step_is_clipped(monkeypatch):
    monkeypatch.setattr(integrator, "_H_INIT", 50.0)
    monkeypatch.setattr(integrator, "_H_MAX", 50.0)
    traj = integrate_conservative(PhasePoint(0.3, 0.4), P94, IntegratorConfig(r_max=10.0))
    assert traj.r_end == 10.0
    assert np.max(np.abs(traj.H - traj.H[0])) <= 1e-7
