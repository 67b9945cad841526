"""Level-set geometry, admissible region, winding diagnostic."""
import math

import numpy as np
import pytest

from nucshoot.integrator import IntegratorConfig, integrate_conservative
from nucshoot.model import ModelParams, PhasePoint, energy, exact_trivial
from nucshoot.portrait import (Branch, UndefinedLiftError, admissible_contains,
                               admissible_region, branch_domains,
                               branch_functions, discriminant,
                               energy_sign_grid, level_curves, quartic_residual,
                               winding_count, zero_contour)

P94 = ModelParams(9.0, 4.0)


def test_branch_values_at_zero_level():
    h1, h2 = branch_functions(0.0, 0.0, P94)
    assert h1 == pytest.approx(math.sqrt(8.0 / 9.0), rel=0, abs=1e-15)
    assert h2 == pytest.approx(0.0, abs=1e-15)
    # past the double-root level the inner branch is gone
    pair = branch_functions(0.0, 0.25, P94)
    assert pair is not None
    assert pair[0] == pytest.approx(1.0, rel=1e-14)
    assert pair[1] is None


def test_discriminant_roots_at_zero_level():
    # h_C(f) = (f^2+b)^2 - 2a(f^2 - 2C) vanishes at f^2 = 2 and 8 for C = 0
    for s in (2.0, 8.0):
        assert discriminant(math.sqrt(s), 0.0, P94) == pytest.approx(0.0, abs=1e-12)
    h1_iv, h2_iv = branch_domains(0.0, P94)
    assert h1_iv[0] == pytest.approx((0.0, math.sqrt(2.0)))
    assert h1_iv[1][0] == pytest.approx(math.sqrt(8.0))
    assert math.isinf(h1_iv[1][1])
    assert h2_iv[0] == pytest.approx((0.0, math.sqrt(2.0)))


def test_no_branch_below_discriminant():
    # between the roots the level-0 curve has no points
    assert branch_functions(2.0, 0.0, P94) is None


def test_curve_samples_satisfy_quartic():
    for level in (-0.3, 0.0, 0.1, 0.25):
        for curve in level_curves(P94, [level], resolution=300):
            res = quartic_residual(curve.samples[:, 0], curve.samples[:, 1],
                                   level, P94)
            assert np.max(np.abs(res)) <= 1e-9 * (1.0 + abs(level))


def test_inner_zero_branch_bounded_by_separatrix_width():
    """The inner lobe of the zero level set stays below sqrt(2b/a)."""
    cap = math.sqrt(2.0 * P94.b / P94.a)
    for curve in level_curves(P94, [0.0], resolution=400):
        if curve.branch is Branch.H2_PLUS:
            inner = curve.samples[np.abs(curve.samples[:, 0]) <= math.sqrt(2.0)]
            if len(inner):
                assert np.max(inner[:, 1]) <= cap + 1e-12


def test_critical_zero_contour_factors_into_lines():
    p = ModelParams(8.0, 4.0)
    curves = zero_contour(p, resolution=101)
    assert len(curves) == 4
    for curve in curves:
        res = quartic_residual(curve.samples[:, 0], curve.samples[:, 1], 0.0, p)
        assert np.max(np.abs(res)) <= 1e-9
    slanted = [c for c in curves if c.branch in (Branch.H2_PLUS, Branch.H2_MINUS)]
    for c in slanted:
        fs, gs = c.samples[:, 0], c.samples[:, 1]
        sign = 1.0 if c.branch is Branch.H2_PLUS else -1.0
        assert np.allclose(gs, sign * fs / 2.0, atol=1e-12)


def test_subcritical_level_curve_spans_all_f():
    p = ModelParams(2.0, 4.0)
    curves = level_curves(p, [0.0], resolution=64)
    assert curves
    for curve in curves:
        assert len(curve.domain) == 1
        lo, hi = curve.domain[0]
        assert lo == -hi   # single mirrored interval through f = 0
        res = quartic_residual(curve.samples[:, 0], curve.samples[:, 1], 0.0, p)
        assert np.max(np.abs(res)) <= 1e-9


def test_level_curves_validation():
    with pytest.raises(ValueError):
        level_curves(P94, [0.0], resolution=1)


def test_conservative_orbit_rides_its_level_set():
    traj = integrate_conservative(PhasePoint(0.3, 0.4), P94,
                                  IntegratorConfig(r_max=30.0))
    res = quartic_residual(traj.f, traj.g, float(traj.H[0]), P94)
    assert np.max(np.abs(res)) <= 1e-7


def test_admissible_region_geometry():
    bnd = admissible_region(P94, resolution=201)
    assert bnd.shape == (4 * 201 + 1, 2)
    assert tuple(bnd[201]) == pytest.approx((math.sqrt(5.0), 1.0), rel=1e-15)  # corner
    assert np.array_equal(bnd[0], bnd[-1])        # closed polyline
    assert np.max(np.abs(bnd[:, 1])) <= 1.0 + 1e-15
    assert np.max(np.abs(bnd[:, 0])) == pytest.approx(math.sqrt(5.0), rel=1e-12)
    # every boundary vertex is admissible (boundary belongs to the set)
    for f, g in bnd[::10]:
        assert admissible_contains(PhasePoint(float(f), float(g)), P94)


def test_admissible_membership_and_symmetry():
    assert admissible_contains(PhasePoint(0.0, 0.0), P94)
    assert admissible_contains(PhasePoint(0.0, 2.0 / 3.0), P94)
    assert admissible_contains(PhasePoint(math.sqrt(5.0), 1.0), P94)  # corner
    assert not admissible_contains(PhasePoint(math.sqrt(5.0) + 1e-6, 1.0), P94)
    assert not admissible_contains(PhasePoint(0.0, 1.0 + 1e-6), P94)
    rng = np.random.default_rng(3)
    for _ in range(100):
        f, g = rng.uniform(-3, 3), rng.uniform(-1.5, 1.5)
        m = admissible_contains(PhasePoint(f, g), P94)
        assert m == admissible_contains(PhasePoint(-f, g), P94)
        assert m == admissible_contains(PhasePoint(f, -g), P94)


def test_admissible_requires_supercritical():
    with pytest.raises(ValueError):
        admissible_contains(PhasePoint(0.0, 0.0), ModelParams(3.0, 2.0))
    with pytest.raises(ValueError):
        admissible_region(ModelParams(8.0, 4.0))


def test_negative_energy_strip_lies_in_admissible_set():
    """H < 0 with g^2 <= 1 forces membership (supercritical only)."""
    fs, gs, H = energy_sign_grid(P94, (-3.0, 3.0), (-1.0, 1.0))
    for j in range(len(gs)):
        for i in range(len(fs)):
            if H[j, i] < 0.0:
                assert admissible_contains(PhasePoint(fs[i], gs[j]), P94)


def test_energy_sign_grid_layout():
    fs, gs, H = energy_sign_grid(P94, (-2.0, 2.0), (-1.0, 1.0))
    assert fs.shape == (64,) and gs.shape == (64,) and H.shape == (64, 64)
    # row index is g, column index is f
    for i, j in ((0, 0), (5, 20), (32, 7), (63, 40)):
        assert H[j, i] == pytest.approx(
            energy(float(fs[i]), float(gs[j]), P94),
            rel=0, abs=1e-14)


def test_winding_counts_g_roots():
    g0 = branch_functions(1.0, 0.1, P94)[0]
    traj = integrate_conservative(PhasePoint(1.0, g0), P94,
                                  IntegratorConfig(r_max=20.0))
    n, lift = winding_count(traj, 0.0, 20.0)
    _, _, gr = traj.resample(0.005)
    roots = int(np.sum(np.abs(np.diff(np.sign(gr))) == 2))
    assert n != 0
    assert abs(n) == roots
    assert lift.shape[1] == 2
    # lift increment matches the reported count
    assert (lift[-1, 1] - lift[0, 1]) / math.pi == pytest.approx(n, abs=0.5)


def test_winding_zero_for_non_rotating_shot():
    traj = integrate_conservative(PhasePoint(0.3, 0.4), P94,
                                  IntegratorConfig(r_max=30.0))
    n, _ = winding_count(traj, 0.0, 30.0)
    assert n == 0


def test_winding_rejects_origin_and_bad_window():
    trivial = exact_trivial(P94, r_max=10.0)
    with pytest.raises(UndefinedLiftError):
        winding_count(trivial, 0.0, 10.0)
    traj = integrate_conservative(PhasePoint(0.3, 0.4), P94,
                                  IntegratorConfig(r_max=5.0))
    with pytest.raises(ValueError):
        winding_count(traj, 4.99999, 4.999991)
