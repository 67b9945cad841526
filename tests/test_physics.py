"""Densities, potentials, plateau shape metrics, radial norms."""
import math

import numpy as np
import pytest

from nucshoot.integrator import (IntegratorConfig, Termination,
                                 TerminationKind, Trajectory, integrate_radial)
from nucshoot.model import ModelParams, PhasePoint, exact_trivial
from nucshoot.physics import (DivergentNormError, InsufficientHorizonError,
                              densities, plateau_metrics, potentials,
                              profile_table, radial_norm)

P94 = ModelParams(9.0, 4.0)

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


def test_plateau_ordering_near_critical_vs_far(gs94, gs41):
    m94 = plateau_metrics(gs94.trajectory)
    m41 = plateau_metrics(gs41.trajectory)
    assert m94.plateau_score == pytest.approx(7.43646161026068, rel=1e-6)
    assert m41.plateau_score == pytest.approx(1.5457155755730292, rel=1e-6)
    assert m94.plateau_score > 4.0 * m41.plateau_score
    assert m94.gsq_max < 1.0


def test_plateau_requires_enough_horizon():
    traj = integrate_radial(0.99, P94, IntegratorConfig(r_max=1.0))
    with pytest.raises(InsufficientHorizonError):
        plateau_metrics(traj)
    with pytest.raises(InsufficientHorizonError):
        plateau_metrics(exact_trivial(P94, r_max=10.0))


def test_radial_norm_exponential_oracle():
    """g = e^{-r}, f = 0: both norms equal 4 pi / 8 = pi analytically."""
    r = np.linspace(0.0, 30.0, 4000)
    g = np.exp(-r)
    n0, ns = radial_norm(_flat(r, np.zeros_like(r), g, ModelParams(4.0, 1.0)))
    assert n0 == pytest.approx(math.pi, rel=1e-8)
    assert ns == pytest.approx(math.pi, rel=1e-8)


def test_radial_norm_zero_and_divergent():
    assert radial_norm(exact_trivial(P94, r_max=20.0)) == (0.0, 0.0)
    coth = integrate_radial(1.0, ModelParams(2.5, 1.0), IntegratorConfig(r_max=30.0))
    with pytest.raises(DivergentNormError):
        radial_norm(coth)


def test_radial_norm_ground_states(gs94, gs41):
    """Both norms are finite; the baryon norm is positive.

    The scalar channel weights f^2 negatively, and on these profiles the
    large-radius f^2 excess under the r^2 weight makes it negative; the
    values are frozen from this build.
    """
    n0_94, ns_94 = radial_norm(gs94.trajectory)
    assert n0_94 == pytest.approx(10559.430205952332, rel=1e-6)
    assert ns_94 == pytest.approx(-6471.605622651227, rel=1e-6)
    assert n0_94 > 0.0 and math.isfinite(ns_94)

    n0_41, ns_41 = radial_norm(gs41.trajectory)
    assert n0_41 == pytest.approx(231.09887301312577, rel=1e-6)
    assert ns_41 == pytest.approx(-39.615616727834606, rel=1e-6)


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
