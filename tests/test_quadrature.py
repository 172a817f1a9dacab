"""Quadrature core: rule exactness, singular handling, refinement behavior."""

import numpy as np
import pytest

from fmlab.errors import NumericalError
from fmlab import quadrature
from fmlab.quadrature import _WIDTH_FLOOR, _Lane, _panel_rule, integrate_batch
from oracles import integrate


def gk15(f, a, b):
    """(K15 value, |K15 - G7|) of a vectorized f on [a, b], one panel of the rule."""
    val, err = _panel_rule(lambda rows, x: f(x), [_Lane(0)], [a], [b])
    return val[0], err[0]


def test_gk15_polynomial_exactness():
    # the embedded 7-point Gauss rule is exact to degree 13, Kronrod beyond
    for deg in range(0, 14):
        val, err = gk15(lambda x, d=deg: x**d, 0.0, 1.0)
        assert val == pytest.approx(1.0 / (deg + 1), rel=1e-13)
        assert err < 1e-13


def test_gk15_error_estimate_signals_roughness():
    _, err_smooth = gk15(np.cos, 0.0, 1.0)
    _, err_rough = gk15(lambda x: np.abs(x - 0.37) ** 0.5, 0.0, 1.0)
    assert err_rough > 100 * err_smooth


def test_integrate_plain_and_split():
    val, err = integrate(lambda x: np.sin(x), 0.0, np.pi)
    assert val == pytest.approx(2.0, abs=1e-10)
    val, err = integrate(lambda x: np.sign(x - 0.3), 0.0, 1.0, singular_points=[0.3])
    assert val == pytest.approx(0.4, abs=1e-12)


@pytest.mark.parametrize("r", [0.2, 0.45, 0.7])
def test_integrate_endpoint_singularity(r):
    val, err = integrate(
        lambda x: np.abs(x) ** (-r), 0.0, 1.0, singular_points=[0.0], rel_tol=1e-10
    )
    assert val == pytest.approx(1.0 / (1.0 - r), rel=1e-8)
    assert abs(val - 1.0 / (1.0 - r)) <= max(err, 1e-12)


def test_integrate_interior_singularity_pair():
    # two interior singular points, graded segments on both sides of each
    f = lambda x: np.abs(x - 0.2) ** (-0.45) * np.abs(x + 0.4) ** (-0.45)
    val, err = integrate(f, -1.0, 1.0, singular_points=[0.2, -0.4])
    import scipy.integrate as si

    ref, _ = si.quad(f, -1, 1, points=[0.2, -0.4], limit=200)
    assert val == pytest.approx(ref, rel=1e-7)


def test_integrate_kink_point():
    f = lambda x: np.abs(x - 0.1) ** 0.3
    val, _ = integrate(f, -1.0, 1.0, singular_points=[0.1])
    exact = (1.1**1.3 + 0.9**1.3) / 1.3
    assert val == pytest.approx(exact, rel=1e-10)


def test_integrate_empty_and_degenerate_ranges():
    assert integrate(lambda x: x, 1.0, 1.0) == (0.0, 0.0)
    assert integrate(lambda x: x, 2.0, 1.0) == (0.0, 0.0)


def test_error_bound_is_honest_under_refinement():
    f = lambda x: np.abs(x - 0.3) ** (-0.5)
    coarse, bound = integrate(f, -1.0, 1.0, singular_points=[0.3], rel_tol=1e-6)
    fine, _ = integrate(f, -1.0, 1.0, singular_points=[0.3], rel_tol=1e-11)
    assert abs(coarse - fine) <= bound


def test_batch_items_match_their_batch_of_one(monkeypatch):
    # one item converges on its first panel, one is frozen at the width floor,
    # one is capped by _MAX_PANELS (40 here); a graded item and an empty one ride along
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 40)
    width = 0.5 * _WIDTH_FLOOR
    funcs = [
        lambda x: x**3,
        lambda x: 1e4 * (x > 1.0 + 0.3 * width),
        lambda x: np.abs(x - 1.0 / 3.0) ** -0.9,
        lambda x: np.abs(x - 0.2) ** -0.45,
        lambda x: x,
    ]
    items = [
        (0.0, 1.0, ()),
        (1.0, 1.0 + width, ()),
        (0.0, 1.0, ()),
        (-1.0, 1.0, (0.2,)),
        (2.0, 1.0, ()),
    ]

    def f(rows, x):
        out = np.empty_like(x)
        for k, fk in enumerate(funcs):
            sel = rows == k
            out[sel] = fk(x[sel])
        return out

    batch = integrate_batch(f, items, rel_tol=1e-12)
    alone = [integrate(fk, a, b, sing, rel_tol=1e-12) for fk, (a, b, sing) in zip(funcs, items)]
    assert batch == alone
    assert alone[0][0] == pytest.approx(0.25, rel=1e-14)
    first_err = gk15(funcs[1], *items[1][:2])[1]
    assert first_err > quadrature._ABS_TOL  # so the lone panel is popped and frozen
    assert alone[1][1] == pytest.approx(4.0 * first_err, rel=1e-12)
    assert alone[2][1] > 4e-12 * alone[2][0]  # stopped by the panel cap, short of rel_tol
    assert alone[4] == (0.0, 0.0)


def test_diverging_item_fails_its_batch():
    items = [(0.0, 1.0, ()), (-1.0, 1.0, ())]
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match="diverged"):
            integrate_batch(lambda rows, x: np.where(rows == 1, np.inf * x, x), items)
