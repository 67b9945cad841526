"""Parameter taxonomy, vector fields, energy, and exact solutions."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucshoot.model import (ModelParams, PhasePoint, PointKind, Regime,
                            classify_regime, critical_points, energy,
                            exact_coth, exact_trivial, vector_field)

P94 = ModelParams(9.0, 4.0)

# f(1) for the g == 1 profile at (a, b) = (2.5, 1): 1 - sqrt(1.5)*coth(sqrt(1.5))
COTH_F_AT_1 = -0.456212364345966


def _gradient(f, g, params):
    """(dH/df, dH/dg) = (g', -f') of the companion field."""
    df, dg = vector_field(params, math.inf)(0.0, f, g)
    return dg, -df


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, -2.0)
    with pytest.raises(ValueError):
        ModelParams(math.inf, 1.0)


def test_regime_taxonomy():
    assert classify_regime(P94) is Regime.SUPERCRITICAL
    assert classify_regime(ModelParams(8.0, 4.0)) is Regime.CRITICAL
    assert classify_regime(ModelParams(3.0, 2.0)) is Regime.SUBCRITICAL_AB
    assert classify_regime(ModelParams(4.0, 4.0)) is Regime.DEGENERATE
    assert classify_regime(ModelParams(1.0, 4.0)) is Regime.SUBCRITICAL
    # the tolerance band absorbs round-off on the a = 2b line
    assert classify_regime(ModelParams(8.0 + 5e-13, 4.0)) is Regime.CRITICAL


def test_rhs_consistency_at_large_radius():
    """The friction term vanishes as r grows: the two fields agree in the limit."""
    dfr, dgr = vector_field(P94)(1e12, -0.7, 0.4)
    dfc, dgc = vector_field(P94, math.inf)(0.0, -0.7, 0.4)
    assert dgr == dgc
    assert abs(dfr - dfc) < 1e-11


def test_critical_point_catalog_supercritical():
    pts = critical_points(P94)
    assert len(pts) == 7
    locs = {(cp.location.f, cp.location.g): cp.kind for cp in pts}
    assert locs[(0.0, 0.0)] is PointKind.SADDLE
    g_in = math.sqrt(4.0 / 9.0)
    assert locs[(0.0, g_in)] is PointKind.LOCAL_MIN
    assert locs[(0.0, -g_in)] is PointKind.LOCAL_MIN
    fc = math.sqrt(5.0)
    for sf in (+1.0, -1.0):
        for sg in (+1.0, -1.0):
            assert locs[(sf * fc, sg)] is PointKind.SADDLE
    # every catalog entry is a genuine stationary point of H
    for cp in pts:
        gf, gg = _gradient(cp.location.f, cp.location.g, P94)
        assert abs(gf) < 1e-12 and abs(gg) < 1e-12


def test_critical_point_catalog_degenerate_and_subcritical():
    assert len(critical_points(ModelParams(4.0, 4.0))) == 3
    pts = critical_points(ModelParams(1.0, 4.0))
    assert len(pts) == 3
    assert all(cp.kind is PointKind.SADDLE for cp in pts)
    assert {cp.location.g for cp in pts} == {0.0, 2.0, -2.0}


def test_hamiltonian_values():
    assert energy(0.0, 0.0, P94) == 0.0
    # interior minimum depth: H(0, sqrt(b/a)) = -b^2/(4a)
    g_in = math.sqrt(4.0 / 9.0)
    assert energy(0.0, g_in, P94) == pytest.approx(
        -16.0 / 36.0, rel=1e-14)
    # coth-point level: H(sqrt(a-b), 1) = (a - 2b)/4
    assert energy(math.sqrt(5.0), 1.0, P94) == pytest.approx(
        0.25, rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(
    f=st.floats(-3.0, 3.0),
    g=st.floats(-2.0, 2.0),
    a=st.floats(0.5, 12.0),
    b=st.floats(0.5, 6.0),
)
def test_gradient_matches_finite_differences(f, g, a, b):
    params = ModelParams(a, b)
    gf, gg = _gradient(f, g, params)
    h = 1e-6
    fd_f = (energy(f + h, g, params) - energy(f - h, g, params)) / (2.0 * h)
    fd_g = (energy(f, g + h, params) - energy(f, g - h, params)) / (2.0 * h)
    scale = 1.0 + abs(gf) + abs(gg)
    assert abs(gf - fd_f) / scale < 1e-6
    assert abs(gg - fd_g) / scale < 1e-6


def test_gradient_is_rotated_conservative_field():
    """The companion flow is (dH/dg would be -f'): check the symplectic pairing
    against the analytic gradient of H."""
    a, b = P94.a, P94.b
    rng = np.random.default_rng(7)
    for _ in range(50):
        f, g = rng.uniform(-2, 2), rng.uniform(-1.5, 1.5)
        df, dg = vector_field(P94, math.inf)(0.0, f, g)
        gf, gg = f * (1.0 - g * g), -f * f * g + a * g ** 3 - b * g
        # f' = -dH/dg and g' = dH/df
        assert df == pytest.approx(-gg, rel=1e-12, abs=1e-12)
        assert dg == pytest.approx(gf, rel=1e-12, abs=1e-12)


def test_exact_trivial_is_flat_zero():
    traj = exact_trivial(P94, r_max=10.0)
    assert traj.f.max() == 0.0 and traj.g.max() == 0.0
    assert np.all(traj.H == 0.0)
    assert traj.r[-1] == 10.0


def test_exact_coth_frozen_value():
    p = exact_coth(1.0, ModelParams(2.5, 1.0))
    assert p.g == 1.0
    assert p.f == pytest.approx(COTH_F_AT_1, rel=0, abs=1e-14)


def test_exact_coth_satisfies_radial_system():
    """Residual of the closed form in the radial field, with analytic f'."""
    params = ModelParams(2.5, 1.0)
    k = math.sqrt(1.5)
    for r in np.geomspace(1e-3, 20.0, 200):
        pt = exact_coth(float(r), params)
        df, dg = vector_field(params)(float(r), pt.f, pt.g)
        sinh = math.sinh(k * r)
        df_exact = -1.0 / r ** 2 + k * k / (sinh * sinh)
        assert dg == 0.0
        assert abs(df - df_exact) <= 1e-9 * (1.0 + abs(df_exact))


def test_exact_coth_taylor_window_is_smooth():
    params = ModelParams(2.5, 1.0)
    k = math.sqrt(1.5)
    r = 1e-4 - 1e-9   # series branch
    series = exact_coth(r, params).f
    # direct formula cancels 1/r against k*coth(kr): error floor ~1e4*ulp
    direct = 1.0 / r - k / math.tanh(k * r)
    assert abs(series - direct) < 5e-12
    assert exact_coth(0.0, params).f == 0.0


def test_exact_coth_rejects_a_below_b():
    with pytest.raises(ValueError):
        exact_coth(1.0, ModelParams(1.0, 4.0))


def test_phase_point_validation():
    with pytest.raises(ValueError):
        PhasePoint(math.nan, 0.0)
    with pytest.raises(ValueError):
        PhasePoint(0.0, 0.0, r=-1.0)
