"""Independent x* oracle: scipy DOP853 shooting, bisected on the shot class.

Shares no code with nucshoot.  By the model's scaling symmetry
(f, g)(r) -> (lam f(lam r), g(lam r)), x* depends only on kappa = b/a, so
every shot is integrated at a = 1, b = kappa.  The state is (f, u) with
u = 1 - g, so that x close to 1 keeps full relative precision in u:

    f' = -(2/r) f + g (f^2 - g^2 + kappa),    u' = -f u (2 - u),   g = 1 - u

A shot from u(0) = u0 (x = 1 - u0) lies in I when f returns to zero
from below while g > 0; it lies outside I when g reaches 0 or g^2
reaches 1 first.  x = 1 (u0 = 0) is the invariant line g = 1, so it is
never in I; the bisection runs on log u0 between a u0 that is in I and
one that is not, to a relative width of 1e-12 in u0.

    python3 bench/oracle.py            # rewrite bench/reference.json
    python3 bench/oracle.py 0.25 0.05  # print x* for the given kappas
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from scipy.integrate import solve_ivp

RTOL = 1e-12
R_START = 1e-6
R_MAX = 400.0
REFERENCE = Path(__file__).with_name("reference.json")


def _rhs(kappa):
    def rhs(r, y):
        f, u = y
        g = 1.0 - u
        return (-(2.0 / r) * f + g * (f * f - g * g + kappa), -f * u * (2.0 - u))
    return rhs


def _f_zero(r, y):
    return y[0]


def _g_zero(r, y):
    return y[1] - 1.0


def _g_square_one(r, y):
    return y[1]


for _ev, _dir in ((_f_zero, 1.0), (_g_zero, 1.0), (_g_square_one, -1.0)):
    _ev.terminal = True
    _ev.direction = _dir


def in_set_i(u0: float, kappa: float, r_max: float = R_MAX):
    """True / False for x = 1 - u0 in I, or None when no event fires by r_max."""
    x = 1.0 - u0
    one_minus_x2 = u0 * (2.0 - u0)
    c1 = x * (kappa - x * x) / 3.0             # f'(0)
    f0 = c1 * R_START
    u_start = u0 - 0.5 * c1 * one_minus_x2 * R_START ** 2
    sol = solve_ivp(_rhs(kappa), (R_START, r_max), (f0, u_start), method="DOP853",
                    rtol=RTOL, atol=(1e-14, 1e-300),
                    events=(_f_zero, _g_zero, _g_square_one))
    hits = [(ev[0], i) for i, ev in enumerate(sol.t_events) if len(ev)]
    if not hits:
        return None
    _, first = min(hits)
    return first == 0


def x_star(kappa: float) -> dict:
    """Bisect sup I for b/a = kappa; returns x*, the u0 bracket and shot count."""
    if not 0.0 < kappa < 0.5:
        raise ValueError("a ground state needs 0 < b/a < 1/2")
    x_lo = 0.5 * (math.sqrt(kappa) + math.sqrt(2.0 * kappa))
    u_in, u_out = 1.0 - x_lo, 1e-40
    shots = 0
    for u0, want in ((u_in, True), (u_out, False)):
        shots += 1
        if in_set_i(u0, kappa) is not want:
            raise RuntimeError(f"kappa={kappa}: end point u0={u0} misclassified")
    while u_in / u_out - 1.0 > 1e-12:
        mid = math.sqrt(u_in * u_out)
        if not u_out < mid < u_in:
            break
        cls = None
        r_max = R_MAX
        while cls is None and r_max <= 4 * R_MAX:
            shots += 1
            cls = in_set_i(mid, kappa, r_max)
            r_max *= 2
        if cls is None:
            break
        if cls:
            u_in = mid
        else:
            u_out = mid
    return {"x_star": 1.0 - math.sqrt(u_in * u_out), "u_in": u_in,
            "u_out": u_out, "shots": shots}


def main(argv) -> int:
    if argv:
        for tok in argv:
            print(tok, json.dumps(x_star(float(tok))), flush=True)
        return 0
    from workloads import kappa_key, reference_kappas
    table = {}
    for kappa in sorted(reference_kappas()):
        row = x_star(kappa)
        table[kappa_key(kappa)] = row
        print(kappa_key(kappa), json.dumps(row), flush=True)
    doc = {"method": "scipy solve_ivp DOP853, rtol 1e-12, (f, u = 1 - g) at a = 1, "
                     "bisection on log u0 to relative width 1e-12",
           "scipy": __import__("scipy").__version__, "x_star": table}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
