"""End-to-end acceptance gate: ten numbered criteria, each timed.

Every test recomputes what it needs from scratch so the measured runtime
covers the whole pipeline for that criterion, not just the final assert.
The conftest reporter prints one ACCEPTANCE line per criterion.
"""
import math
import time

import numpy as np

from nucshoot.integrator import (IntegratorConfig, integrate_conservative,
                                 integrate_radial, integrate_shifted)
from nucshoot.model import (ModelParams, PhasePoint, energy, exact_coth,
                            vector_field)
from nucshoot.physics import plateau_metrics, potentials
from nucshoot.portrait import admissible_contains, winding_count
from nucshoot.shooting import (ShotClass, bisect_ground_state, classify_grid,
                               classify_shot, default_events)

P94 = ModelParams(9.0, 4.0)
P41 = ModelParams(4.0, 1.0)


def test_criterion_1_coth_oracle():
    t0 = time.perf_counter()
    params = ModelParams(2.5, 1.0)
    cfg = IntegratorConfig(rtol=1e-9, r_max=10.0)
    traj = integrate_radial(1.0, params, cfg)
    assert traj.r_end == 10.0
    rs = np.linspace(1e-3, 10.0, 1001)
    fs, gs = traj.sample_on(rs)
    worst = 0.0
    for r, f, g in zip(rs, fs, gs):
        ex = exact_coth(float(r), params)
        worst = max(worst, abs(f - ex.f), abs(g - ex.g))
    assert worst <= 1e-6
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_conservative_energy_drift():
    t0 = time.perf_counter()
    cfg = IntegratorConfig(r_max=50.0)
    f_edge = math.sqrt(P94.a - P94.b)
    rng = np.random.default_rng(20240902)
    done = 0
    while done < 20:
        p = PhasePoint(rng.uniform(-f_edge, f_edge), rng.uniform(-1.0, 1.0))
        if not admissible_contains(p, P94):
            continue
        traj = integrate_conservative(p, P94, cfg)
        assert traj.r_end == 50.0
        assert np.max(np.abs(traj.H - energy(p.f, p.g, P94))) <= 1e-8
        done += 1
    assert time.perf_counter() - t0 < 5.0


def test_criterion_3_dissipation_identity():
    # dH/dr = -(2/r) f^2 (1 - g^2) along the radial flow; the derivative
    # is taken by fourth-order central differences over the dense output
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240903)
    cfg = IntegratorConfig(r_max=8.0)
    for x in rng.uniform(0.1, 0.99, size=20):
        traj = integrate_radial(float(x), P94, cfg,
                                events=default_events(float(x), P94))
        hi = min(traj.r_end - 0.05, 7.5)
        dr = 1e-3
        rs = np.arange(0.2, hi, dr)
        assert len(rs) >= 50
        fs, gs = traj.sample_on(rs)
        H = energy(fs, gs, P94)
        dH = (-H[4:] + 8.0 * H[3:-1] - 8.0 * H[1:-3] + H[:-4]) / (12.0 * dr)
        rhs = -(2.0 / rs) * fs * fs * (1.0 - gs * gs)
        err = np.max(np.abs(dH - rhs[2:-2])) / np.max(np.abs(rhs))
        assert err <= 1e-4
    assert time.perf_counter() - t0 < 5.0


def test_criterion_4_ground_state_certificate():
    t0 = time.perf_counter()
    gs = bisect_ground_state(P94)
    lo, hi = gs.bracket
    assert hi - lo <= 1e-10
    assert math.sqrt(8.0 / 9.0) < lo and hi < 1.0

    traj = gs.trajectory
    # the terminal decay-event sample sits at amplitude ~1e-8 where the
    # sign of f is below solver resolution; certify at the 1e-10 level
    assert np.max(traj.f[1:]) <= 1e-10
    assert np.min(traj.g) >= -1e-10
    assert np.all(traj.g[traj.r < traj.r_end - 1e-9] > 0.0)
    assert np.all(traj.g ** 2 < 1.0)
    assert np.all(traj.f ** 2 < 5.0)
    assert np.all(np.abs(traj.f) <= math.sqrt(4.5) * traj.g)
    assert np.all(np.diff(traj.H) <= 1e-10)
    n_wind, _ = winding_count(traj, float(traj.r[1]), float(traj.r[-1]))
    assert n_wind == 0
    assert gs.decay_rate >= 7.0 / 9.0 - 0.05
    assert time.perf_counter() - t0 < 30.0


def test_criterion_5_nonexistence_below_threshold():
    t0 = time.perf_counter()
    cfg = IntegratorConfig(r_max=200.0)
    xs = np.linspace(0.01, 0.99, 50)
    for a, b in ((4.0, 4.0), (1.0, 4.0), (3.0, 2.0)):
        outcomes = classify_grid(ModelParams(a, b), xs, cfg)
        assert all(o.shot_class is not ShotClass.DECAYED for o in outcomes)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_6_trapping_above_one():
    t0 = time.perf_counter()
    cfg = IntegratorConfig(r_max=50.0)
    for x in (1.1, 1.5, 2.0):
        out = classify_shot(x, P94, cfg)
        assert out.shot_class is ShotClass.TRAPPED
        assert np.all(out.trajectory.g ** 2 >= 1.0 - 1e-10)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_7_plateau_ordering_and_channels():
    t0 = time.perf_counter()
    gs94 = bisect_ground_state(P94)
    gs41 = bisect_ground_state(P41)
    assert (plateau_metrics(gs94.trajectory).plateau_score
            > plateau_metrics(gs41.trajectory).plateau_score)

    traj = gs94.trajectory
    vplus = vminus = 0.0
    for f, g in zip(traj.f, traj.g):
        _, _, vp, vm = potentials(PhasePoint(float(f), float(g)), P94)
        vplus = max(vplus, abs(vp))
        vminus = max(vminus, abs(vm))
    assert vminus / vplus > 10.0
    assert time.perf_counter() - t0 < 60.0


def test_criterion_8_shifted_system_convergence():
    t0 = time.perf_counter()
    cfg = IntegratorConfig(r_max=5.0)
    p0 = PhasePoint(0.3, 0.5)
    ref = integrate_conservative(p0, P94, cfg)
    grid = np.linspace(0.0, 5.0, 201)

    def supdiff(rho):
        t = integrate_shifted(p0, rho, P94, cfg)
        fs, gv = t.sample_on(grid)
        fc, gc = ref.sample_on(grid)
        return max(np.max(np.abs(fs - fc)), np.max(np.abs(gv - gc)))

    diffs = [supdiff(rho) for rho in (10.0, 100.0, 1000.0)]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] <= 1e-2
    assert time.perf_counter() - t0 < 5.0


def test_criterion_9_seed_interval_lands_in_set_i():
    t0 = time.perf_counter()
    lo = math.sqrt(4.0 / 9.0) + 0.01
    hi = math.sqrt(8.0 / 9.0) - 0.01
    for x in np.linspace(lo, hi, 11):
        out = classify_shot(float(x), P94)
        assert out.shot_class is ShotClass.IN_SET_I
        assert out.g_at_rx <= math.sqrt(4.0 / 9.0) + 1e-8
        assert out.H_at_rx <= 1e-8
    assert time.perf_counter() - t0 < 10.0


def test_criterion_10_gradient_and_series():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240910)
    for _ in range(1000):
        a = rng.uniform(0.5, 12.0)
        params = ModelParams(a, a * rng.uniform(0.05, 0.95))
        p = PhasePoint(rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0))
        # (g', -f') of the companion field is the gradient of H
        df, dg = vector_field(params, math.inf)(0.0, p.f, p.g)
        gf, gg = dg, -df
        hf = 1e-6 * max(1.0, abs(p.f))
        hg = 1e-6 * max(1.0, abs(p.g))
        fd_f = (energy(p.f + hf, p.g, params)
                - energy(p.f - hf, p.g, params)) / (2.0 * hf)
        fd_g = (energy(p.f, p.g + hg, params)
                - energy(p.f, p.g - hg, params)) / (2.0 * hg)
        scale = max(1.0, abs(gf), abs(gg))
        assert abs(fd_f - gf) <= 1e-6 * scale
        assert abs(fd_g - gg) <= 1e-6 * scale

    r0 = 1e-8
    for x in rng.uniform(0.05, 1.3, size=100):
        traj = integrate_radial(float(x), P94, IntegratorConfig(r_max=1e-5))
        slope = traj.sample_on([r0])[0][0] / r0
        assert abs(slope - x * (4.0 - 9.0 * x * x) / 3.0) <= 1e-12
    assert time.perf_counter() - t0 < 2.0
