"""Densities, potentials, plateau shape metrics, profile tables."""
import math

import numpy as np
import pytest

from nucshoot.integrator import (IntegratorConfig, Termination,
                                 TerminationKind, Trajectory, integrate_radial)
from nucshoot.model import ModelParams, PhasePoint, exact_trivial
from nucshoot.physics import (InsufficientHorizonError, densities,
                              plateau_metrics, potentials, profile_table)
from nucshoot.shooting import bisect_ground_state, tail_amplitude

P94 = ModelParams(9.0, 4.0)
P41 = ModelParams(4.0, 1.0)
X_STAR_044 = 0.9999999999996699     # x* at kappa = 0.44, bench/reference.json

TABLE_COLUMNS = ("r", "f", "g", "f_squared", "g_squared", "rho_s", "rho_0",
                 "S", "V", "V_plus_S", "V_minus_S", "H")


def _flat(r, f, g, params=P94):
    term = Termination(TerminationKind.REACHED_RMAX, float(r[-1]))
    return Trajectory(r, f, g, params, float(g[0]), term)


def test_densities_values():
    rho_s, rho_0 = densities(PhasePoint(0.6, 0.8))
    assert rho_s == pytest.approx(0.28, rel=1e-15)
    assert rho_0 == pytest.approx(1.0, rel=1e-15)


def test_potentials_frozen_point():
    s, v, vps, vms = potentials(PhasePoint(0.0, 1.0), P94)
    assert s == pytest.approx(-100.0, rel=1e-15)
    assert v == pytest.approx(95.5, rel=1e-15)
    assert vps == pytest.approx(-4.5, rel=1e-15)
    assert vms == pytest.approx(195.5, rel=1e-15)


def test_potential_channels_are_consistent():
    """Reduced sum/difference formulas agree with S + V and V - S."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = PhasePoint(rng.uniform(-3, 3), rng.uniform(-1.5, 1.5))
        s, v, vps, vms = potentials(p, P94)
        scale = 1.0 + abs(s) + abs(v)
        assert abs((s + v) - vps) <= 1e-12 * scale
        assert abs((v - s) - vms) <= 1e-12 * scale


def test_plateau_metrics_saxon_woods_oracle():
    """Sigmoid profile with R = 5, t = 0.5: score ~ R / (2 t ln 9)."""
    r = np.linspace(0.0, 12.0, 6001)
    gsq = 1.0 / (1.0 + np.exp((r - 5.0) / 0.5))
    m = plateau_metrics(_flat(r, np.zeros_like(r), np.sqrt(gsq)))
    target = 5.0 / (2.0 * 0.5 * math.log(9.0))
    assert m.r50 == pytest.approx(5.0, abs=0.01)
    assert m.plateau_score == pytest.approx(target, abs=1e-3)
    assert m.surface_thickness == pytest.approx(math.log(9.0), abs=2e-3)
    assert m.r90 < m.r50 < m.r10


def test_plateau_score_is_scale_invariant():
    r1 = np.linspace(0.0, 12.0, 6001)
    g1 = np.sqrt(1.0 / (1.0 + np.exp((r1 - 5.0) / 0.5)))
    r2 = np.linspace(0.0, 24.0, 6001)
    g2 = np.sqrt(1.0 / (1.0 + np.exp((r2 - 10.0) / 1.0)))
    m1 = plateau_metrics(_flat(r1, np.zeros_like(r1), g1))
    m2 = plateau_metrics(_flat(r2, np.zeros_like(r2), g2))
    assert m2.plateau_score == m1.plateau_score
    assert m2.r50 == pytest.approx(2.0 * m1.r50, rel=1e-12)


def _scipy_certificate(x0, params):
    """The shot from g(0) = x0 by scipy's DOP853 in (f, u = 1 - g), which
    keeps 1 - x0 at full relative precision, up to the rising zero of f."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    a, b = params.a, params.b

    def rhs(r, y):
        f, u = y
        g = 1.0 - u
        return (-(2.0 / r) * f + g * (f * f - a * g * g + b), -f * u * (2.0 - u))

    def f_rises_to_zero(r, y):
        return y[0]
    f_rises_to_zero.terminal = True
    f_rises_to_zero.direction = 1.0

    u0 = 1.0 - x0
    c1 = x0 * (b - a * x0 * x0) / 3.0          # f'(0)
    r0 = 1e-6                                  # second-order start there
    y0 = (c1 * r0, u0 - 0.5 * c1 * u0 * (2.0 - u0) * r0 ** 2)
    sol = solve_ivp(rhs, (r0, 200.0), y0, method="DOP853", rtol=1e-12,
                    atol=(1e-14, 1e-300), events=f_rises_to_zero,
                    dense_output=True)
    assert sol.status == 1                     # stopped on the f event
    r = np.linspace(r0, float(sol.t_events[0][0]), 20001)
    f, u = sol.sol(r)
    return _flat(r, f, 1.0 - u, params)


def test_plateau_ordering_near_critical_vs_far(gs94, gs41):
    m94 = plateau_metrics(gs94.trajectory)
    m41 = plateau_metrics(gs41.trajectory)
    oracle = plateau_metrics(_scipy_certificate(gs94.trajectory.x0, P94))
    assert m94.plateau_score == pytest.approx(oracle.plateau_score, rel=1e-3)
    oracle = plateau_metrics(_scipy_certificate(gs41.trajectory.x0, P41))
    assert m41.plateau_score == pytest.approx(oracle.plateau_score, rel=2e-4)
    assert m94.plateau_score > 4.0 * m41.plateau_score
    assert m94.gsq_max < 1.0


def test_verification_shot_keeps_the_plateau_at_x_star():
    """At (8, 3.52), kappa = 0.44, 1 - x* is a third of x_tol.  With the
    search's midpoint verification shot the certificate's plateau_score
    stays within 1.5e-2 of the scipy shot from x* (8.4e-3 measured);
    certifying ITP's last InSetI end instead is 0.167 off, and closing
    ITP to x_tol / 2 without the shot 0.025."""
    params = ModelParams(8.0, 3.52)
    gs = bisect_ground_state(params)
    oracle = plateau_metrics(_scipy_certificate(X_STAR_044, params))
    assert (plateau_metrics(gs.trajectory).plateau_score
            == pytest.approx(oracle.plateau_score, rel=0, abs=1.5e-2))


@pytest.mark.parametrize("a, b", [(4.0, 1.0), (12.0, 1.0), (40.0, 5.0)])
def test_decay_amplitude_matches_scipy_certificate(a, b):
    params = ModelParams(a, b)
    gs = bisect_ground_state(params)
    oracle = tail_amplitude(_scipy_certificate(gs.trajectory.x0, params))
    assert gs.decay_C == pytest.approx(oracle, rel=1e-5)


def test_plateau_requires_enough_horizon():
    traj = integrate_radial(0.99, P94, IntegratorConfig(r_max=1.0))
    with pytest.raises(InsufficientHorizonError):
        plateau_metrics(traj)
    with pytest.raises(InsufficientHorizonError):
        plateau_metrics(exact_trivial(P94, r_max=10.0))


def test_profile_table_layout(gs41):
    table = profile_table(gs41.trajectory, ModelParams(4.0, 1.0))
    assert tuple(table.keys()) == TABLE_COLUMNS
    n = len(gs41.trajectory.r)
    assert all(len(col) == n for col in table.values())
    k = n // 3
    p = PhasePoint(float(table["f"][k]), float(table["g"][k]))
    s, v, vps, vms = potentials(p, ModelParams(4.0, 1.0))
    assert table["S"][k] == pytest.approx(s, rel=1e-14)
    assert table["V"][k] == pytest.approx(v, rel=1e-14)
    assert table["V_plus_S"][k] == pytest.approx(vps, rel=1e-14)
    assert table["V_minus_S"][k] == pytest.approx(vms, rel=1e-14)
    rho_s, rho_0 = densities(p)
    assert table["rho_s"][k] == pytest.approx(rho_s, rel=1e-14)
    assert table["rho_0"][k] == pytest.approx(rho_0, rel=1e-14)
    assert np.array_equal(table["H"], gs41.trajectory.H)
