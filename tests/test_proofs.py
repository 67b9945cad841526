"""Executable proofs: identities that docstrings cite as the reasons a
check may be left out, evaluated symbolically on the library's own
model.vector_field and model.energy."""
from types import SimpleNamespace

import pytest

sp = pytest.importorskip("sympy")

from nucshoot.model import energy, vector_field  # noqa: E402

a, b, r = sp.symbols("a b r", positive=True)
f, g = sp.symbols("f g", real=True)
# ModelParams rejects symbols; both functions read only a and b
PARAMS = SimpleNamespace(a=a, b=b)


def _exact(expr):
    """expr with the library's float constants (0.5, 0.25, 2.0) as
    rationals, expanded."""
    return sp.expand(sp.nsimplify(expr, rational=True))


def test_f_prime_at_an_f_zero():
    """shooting._shot_class: at a zero of f the radial field gives f' =
    g (b - a g^2), so an f-zero reached from below, f' >= 0, with g > 0
    has g^2 <= b/a."""
    df, _ = vector_field(PARAMS)(r, sp.Integer(0), g)
    assert _exact(df - g * (b - a * g ** 2)) == 0


def test_energy_on_the_line_f_zero():
    """shooting._shot_class: H(0, g) = g^2 (a g^2 - 2b) / 4, and at g^2 =
    b / (a (1 + w)), any w >= 0, H(0, g) + b g^2 / 4 is <= 0: H(0, g) <=
    -b g^2 / 4 < 0 wherever 0 < g^2 <= b/a."""
    h0 = energy(sp.Integer(0), g, PARAMS)
    assert _exact(h0 - g ** 2 * (a * g ** 2 - 2 * b) / 4) == 0
    w = sp.symbols("w", nonnegative=True)
    gap = _exact((h0 + b * g ** 2 / 4).subs(g ** 2, b / (a * (1 + w))))
    assert sp.simplify(gap + b ** 2 * w / (4 * a * (1 + w) ** 2)) == 0
    assert sp.simplify(gap).is_nonpositive


def test_dissipation_identity():
    """shooting.dissipation_residual and model.trap_energy: along the
    radial flow dH/dr = H_f f' + H_g g' = -(2/r) f^2 (1 - g^2), so H does
    not increase while g^2 <= 1."""
    h = energy(f, g, PARAMS)
    df, dg = vector_field(PARAMS)(r, f, g)
    rate = sp.diff(h, f) * df + sp.diff(h, g) * dg
    assert _exact(rate + (2 / r) * f ** 2 * (1 - g ** 2)) == 0
