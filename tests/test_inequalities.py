"""Inequality-lab oracles: analytic integrals, scan properties, paired bounds."""

import math
import time

import numpy as np
import pytest

from fmlab import estimators
from fmlab.disorder import make_spec, sample_vector
from fmlab.errors import ConfigurationError, NumericalError
from fmlab.engine import records
from fmlab.estimators import (MAX_RETRIES, fractional_moment_profile, sample_context,
                              solve_resampled)
from fmlab.inequalities import (
    _comparability_batch,
    _complex_points,
    _decoupling_batch,
    _integration_domain,
    _one_step_batch,
    _targets,
    _tridiag_green_entry,
    check_comparability_regime,
    comparability_scan,
    decoupling_ratio,
    one_step_bound_check,
    reverse_holder_check,
    vinv_moment,
)
from fmlab.model import (
    alloy_model,
    block_model,
    singular_covering_model,
    spencer_model,
)
from fmlab.numerics import opnorm_batch, resolvent_profile
from fmlab.topology import make_lattice_box
from oracles import integrate, ratio_integral, targets_python, tridiag_green_entry_complex

UNIFORM = make_spec("uniform", (-1, 1))
# comparability and reverse Holder draw no operator: any model and box carry them
SCALAR, PAIR = block_model([[1.0]], [[0.0]], 5.0), make_lattice_box(1, (2,))


def scan_fields(l, m, s, r, draws, param_scale):
    return {"l": l, "m": m, "s": s, "r": r, "draws": draws, "param_scale": param_scale}


def test_empty_products_give_one():
    res = ratio_integral(UNIFORM, (), (), 0.3, 0.2)
    assert res["value"] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
def test_single_numerator_analytic(s):
    res = ratio_integral(UNIFORM, (0.0,), (), s, 0.0)
    assert res["value"] == pytest.approx(1.0 / (1.0 + s), rel=1e-8)


@pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
def test_single_denominator_analytic(r):
    res = ratio_integral(UNIFORM, (), (0.0,), 0.0, r)
    assert res["value"] == pytest.approx(1.0 / (1.0 - r), rel=1e-8)


def test_mc_cross_check_within_errors():
    for measure in (UNIFORM, make_spec("gaussian", (0, 1)), make_spec("heavy_tail", (4.0,))):
        res = ratio_integral(measure, (2.0,), (-3.0,), 0.2, 0.2, mc_draws=400_000, mc_seed=99)
        gap = abs(res["value"] - res["mc_value"])
        assert gap <= max(3.0 * res["mc_err"], res["error_bound"])


def test_value_stable_under_tolerance_halving():
    draw = (UNIFORM, (0.9, -2.0), (0.3,), 0.25, 0.3)
    a = ratio_integral(*draw, rel_tol=1e-7)
    b = ratio_integral(*draw, rel_tol=5e-8)
    assert abs(a["value"] - b["value"]) <= a["error_bound"]


def test_comparability_fixed_draw_stability():
    draw = (UNIFORM, (2.0,), (-3.0,), 0.2, 0.2)
    coarse = ratio_integral(*draw, rel_tol=1e-6)
    fine = ratio_integral(*draw, rel_tol=1e-9)
    assert coarse["value"] == pytest.approx(fine["value"], rel=0.01)


def test_comparability_scan_trivial_and_positive():
    scan, _ = comparability_scan(
        sample_context(scan_fields(0, 0, 0.2, 0.2, 10, 5.0), SCALAR, PAIR, UNIFORM, 42)
    )
    assert scan["ratio_min"] == pytest.approx(1.0, abs=1e-9)
    assert scan["ratio_max"] == pytest.approx(1.0, abs=1e-9)

    scan2, _ = comparability_scan(sample_context(
        scan_fields(2, 2, 0.15, 0.15, 60, 5.0), SCALAR, PAIR, UNIFORM, 43,
    ))
    assert scan2["ratio_min"] > 0.0
    assert math.isfinite(scan2["ratio_max"])
    assert not scan2["failures"]


def test_comparability_lower_bound_positive_across_catalog():
    for measure in (UNIFORM, make_spec("gaussian", (0, 1)), make_spec("heavy_tail", (4.0,))):
        scan, _ = comparability_scan(sample_context(
            scan_fields(1, 1, 0.2, 0.2, 40, 4.0), SCALAR, PAIR, measure, 44,
        ))
        assert scan["ratio_min"] > 0.0 and not scan["failures"]


SCAN_CASES = {
    "uniform-3-3": (UNIFORM, 3, 3, 0.15, 0.15, 5.0),
    "uniform-0-0": (UNIFORM, 0, 0, 0.2, 0.2, 5.0),
    "gaussian": (make_spec("gaussian", (0.3, 1.5)), 2, 1, 0.2, 0.2, 4.0),
    "heavy_tail": (make_spec("heavy_tail", (4.0,)), 1, 2, 0.2, 0.2, 4.0),
    "power_regular": (make_spec("power_regular", (0.6,)), 2, 1, 0.2, 0.25, 1.5),
}


@pytest.mark.parametrize("case", list(SCAN_CASES))
def test_comparability_batch_matches_batch_of_one(case):
    # a chunk shares its stream, its integrand call and its quadrature rounds
    measure, l, m, s, r, scale = SCAN_CASES[case]
    ctx = sample_context(scan_fields(l, m, s, r, 23, scale), SCALAR, PAIR, measure, 4242)
    alone = np.concatenate([_comparability_batch(ctx, [i]) for i in range(23)])
    assert _comparability_batch(ctx, range(23)).tobytes() == alone.tobytes()


def test_heavy_tail_comparability_at_the_moment_edge():
    # heavy_tail(q0) has alpha = 1; with l = m = 1, s = r = 0.2 the regime
    # needs q0 >= (s + r) / (1 - r) = 0.5
    above = make_spec("heavy_tail", (0.55,))
    fields = scan_fields(1, 1, 0.2, 0.2, 12, 4.0)
    scan, _ = comparability_scan(sample_context(fields, SCALAR, PAIR, above, 45))
    assert not scan["failures"] and scan["ratio_min"] > 0.0 and math.isfinite(scan["ratio_max"])
    for rec in _comparability_batch(sample_context(fields, SCALAR, PAIR, above, 45), range(12)):
        a, b = ([complex(*p) for p in rec[k]] for k in ("a", "b"))
        tail = _integration_domain(above, a, b, 0.2, 0.2, rec["rhs"])[2]
        assert 0.0 < tail <= rec["error_bound"]
    check_comparability_regime(above, 1, 1, 0.2, 0.2)
    with pytest.raises(ConfigurationError, match="regime"):
        check_comparability_regime(make_spec("heavy_tail", (0.45,)), 1, 1, 0.2, 0.2)


def test_heavy_tail_without_the_moment_fails_fast():
    # q0 <= s*l: the numerator moment is infinite, the tail cannot be truncated
    measure = make_spec("heavy_tail", (0.5,))
    start = time.perf_counter()
    with pytest.raises(NumericalError, match="tail"):
        ratio_integral(measure, (1.0, 2.0j), (), 0.25, 0.0)
    with pytest.raises(NumericalError, match="tail"):
        _comparability_batch(
            sample_context(scan_fields(2, 1, 0.25, 0.2, 23, 3.0), SCALAR, PAIR, measure, 7),
            range(23),
        )
    assert time.perf_counter() - start < 5.0


# numpy's ** is at most one ulp from Python's float power (numpy's cos and sin
# agree with math's), so each bound below is one ulp per rounding that can differ
_EPS = np.finfo(np.float64).eps  # one ulp of a value, relative, is at most _EPS


def _python_points(w, scale):
    """_complex_points in Python floats, one element at a time."""
    radius, angle = scale * w[:, 0::2], 2.0 * math.pi * w[:, 1::2]
    return np.array([[complex(r * math.cos(t), r * math.sin(t)) for r, t in zip(*row)]
                     for row in zip(radius.tolist(), angle.tolist())],
                    dtype=np.complex128).reshape(radius.shape)


@pytest.mark.parametrize("l,m", [(0, 0), (0, 3), (3, 0), (2, 2), (6, 1)])
def test_targets_agree_with_python_float_products(l, m):
    # l + m powers, each within one ulp, and l + m roundings in products run in
    # the same order; empty products are exactly 1 on both paths
    bound = 2 * (l + m) * _EPS
    rng = np.random.default_rng(100 + 10 * l + m)
    a = _complex_points(rng.random((400, 2 * l)), 10.0)
    b = _complex_points(rng.random((400, 2 * m)), 10.0)
    for s, r in ((0.15, 0.15), (1.0 / 3.0, 0.2)):
        got, want = _targets(a, b, s, r), targets_python(a, b, s, r)
        assert got.shape == want.shape == (400,)
        assert np.all(np.abs(got - want) <= bound * want)


def test_complex_points_agree_with_python_float_points():
    # one cos or sin (equal on both paths) and one product per part
    bound = _EPS
    w = np.random.default_rng(7).random((500, 8))
    w[0] = np.nextafter(1.0, 0.0)  # the largest uniform a stream returns
    got, want = _complex_points(w, 5.0), _python_points(w, 5.0)
    assert got.dtype == np.complex128 and got.shape == (500, 4)
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(got) - part(want)) <= bound * np.abs(part(want)))


_SIDE_MODELS = [block_model([[1.0]], [[0.0]], 5.0), spencer_model(1.0, 5.0),
                singular_covering_model(5.0), alloy_model({0: 1.0, 1: -1.0}, 5.0)]


@pytest.mark.parametrize("model", _SIDE_MODELS, ids=["block", "spencer", "covering", "alloy"])
def test_one_step_sides_agree_with_python_float_sums(model):
    topo = make_lattice_box(1, (8,))
    for x, y in ((2, 5), (3, 3), (0, 0)):
        p = {"x": x, "y": y, "one_step_s": 1.0 / 3.0, "lambda": 0.3, "eps": 1e-3}
        ctx = sample_context(p, model, topo, UNIFORM, 61)
        k, s = model.k_ambient, p["one_step_s"]
        scale = (model.c_b3 * model.coupling) ** s
        neighbors = list(topo.neighbors(y))
        # lhs: one power; rhs: a power per neighbor, an add per neighbor and the scale
        lhs_bound, rhs_bound = _EPS, (2 * len(neighbors) + 2) * _EPS

        def python_sides(h):
            prof = resolvent_profile(h, k, p["lambda"], p["eps"], x)
            z = complex(p["lambda"], p["eps"])
            vy = h[:, y * k:(y + 1) * k, y * k:(y + 1) * k] - z * np.eye(k)
            lhs = opnorm_batch(prof[:, y] @ vy).tolist()
            gnorms = opnorm_batch(prof[:, neighbors]).tolist()
            return records(lhs=[t ** s for t in lhs],
                           rhs=[scale * sum(g ** s for g in gs) + (1.0 if x == y else 0.0)
                                for gs in gnorms])

        got = _one_step_batch(ctx, range(60))
        want = solve_resampled(ctx, range(60), python_sides)[0]
        assert np.all(np.abs(got["lhs"] - want["lhs"]) <= lhs_bound * want["lhs"])
        assert np.all(np.abs(got["rhs"] - want["rhs"]) <= rhs_bound * want["rhs"])


@pytest.mark.parametrize("model", _SIDE_MODELS, ids=["block", "spencer", "covering", "alloy"])
def test_decoupling_terms_agree_with_python_float_powers(model):
    bound = _EPS  # every term is one power
    topo = make_lattice_box(1, (8,))
    grid = [0.0, 0.5, -1.5]
    p = {"x": 1, "y": 4, "decoupling_s": 0.2, "lambda_grid": grid, "eps": 1e-3}
    ctx = sample_context(p, model, topo, UNIFORM, 67)
    k, s = model.k_ambient, p["decoupling_s"]

    def python_terms(h):
        nums, dens = [], []
        for lam in grid:
            gxy = resolvent_profile(h, k, lam, p["eps"], 1)[:, 4]
            vy = h[:, 4 * k:5 * k, 4 * k:5 * k] - complex(lam, p["eps"]) * np.eye(k)
            nums.append(opnorm_batch(gxy @ vy).tolist())
            dens.append(opnorm_batch(gxy).tolist())
        return records(num=[[t ** s for t in num] for num in zip(*nums)],
                       den=[[t ** s for t in den] for den in zip(*dens)])

    got = _decoupling_batch(ctx, range(60))
    want = solve_resampled(ctx, range(60), python_terms)[0]
    assert got["num"].shape == (60, len(grid))
    for field in ("num", "den"):
        assert np.all(np.abs(got[field] - want[field]) <= bound * want[field])


def test_tridiag_green_entry_in_real_arithmetic_equals_the_complex_recursion():
    # at a real energy every imaginary part of the complex recursion is exactly 0
    rng = np.random.default_rng(2026)
    for _ in range(200):
        j = int(rng.integers(1, 7))
        v = rng.uniform(-1.0, 1.0, (64, j))
        coeff_c, coeff_d = 0.5 + rng.random(j), 2.0 * (2.0 * rng.random(j) - 1.0)
        hop, lam = 0.2 + rng.random(), 4.0 * rng.random() - 2.0
        got = _tridiag_green_entry(v, coeff_c, coeff_d, hop, lam)
        want = tridiag_green_entry_complex(v, coeff_c, coeff_d, hop, complex(lam, 0.0))
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    # a chain whose determinant is exactly 0: a0 a1 - hop^2 with a0 = a1 = hop
    hop = 0.75
    v = np.array([[hop, hop], [0.1, -0.2]])
    one, zero = np.ones(2), np.zeros(2)
    got = _tridiag_green_entry(v, one, zero, hop, 0.0)
    want = tridiag_green_entry_complex(v, one, zero, hop, 0j)
    assert got[0] == math.inf and got.tobytes() == want.tobytes()


def test_vinv_scalar_analytic():
    # <|v|^(-1/2)> over uniform(-1,1): 2 * integral_0^1 v^(-1/2) dv / 2 = 2
    model = block_model([[1.0]], [[0.0]], 5.0)
    res = vinv_moment(
        sample_context({"lambda": 0.0, "vinv_s": 0.5, "samples": 60_000}, model, PAIR, UNIFORM, 7)
    )
    oracle, _ = integrate(lambda v: 0.5 * np.abs(v) ** -0.5, -1, 1, singular_points=[0.0])
    assert oracle == pytest.approx(2.0, rel=1e-8)
    assert res["value"] == pytest.approx(oracle, abs=4.0 * res["err"])


def test_vinv_singular_covering_bounded_in_g():
    # the averaged inverse-potential moment does not grow with the coupling
    vals = [
        vinv_moment(sample_context({"lambda": 0.0, "vinv_s": 0.5, "samples": 4000},
                                   singular_covering_model(g), PAIR, UNIFORM, 11))["value"]
        for g in (2.0, 8.0, 32.0)
    ]
    assert max(vals) / min(vals) < 1.5  # g never enters the single-site law


def test_vinv_lambda_scaling():
    # (1+|lam|)^s * moment stays bounded across a lambda scan
    model = spencer_model(1.0, 5.0)
    s = 0.4
    scaled = []
    for lam in (2.0, 4.0, 8.0, 16.0):
        res = vinv_moment(
            sample_context({"lambda": lam, "vinv_s": s, "samples": 4000}, model, PAIR, UNIFORM, 13)
        )
        scaled.append(res["value"] * (1.0 + abs(lam)) ** s)
    assert max(scaled) / min(scaled) < 3.0


def test_one_step_decoupled_cases():
    topo = make_lattice_box(1, (4,))
    dec = block_model([[1.0]], [[0.0]], math.inf)
    p = {"one_step_s": 0.5, "lambda": 0.0, "eps": 1e-2, "samples": 100}
    off = one_step_bound_check(sample_context({**p, "x": 0, "y": 2}, dec, topo, UNIFORM, 3))
    assert off["lhs"] == 0.0 and off["pass"]
    diag = one_step_bound_check(sample_context({**p, "x": 1, "y": 1}, dec, topo, UNIFORM, 3))
    # G(V - z) = I on the diagonal in the decoupled limit
    assert diag["lhs"] == pytest.approx(1.0, abs=1e-9)
    assert diag["rhs"] == pytest.approx(1.0, abs=1e-9)
    assert diag["pass"]


def test_one_step_never_violated_pointwise():
    topo = make_lattice_box(1, (8,))
    models = [
        block_model([[1.0]], [[0.0]], 5.0),
        spencer_model(1.0, 5.0),
        alloy_model({0: 1.0, 1: -1.0}, 5.0),
    ]
    rng = np.random.default_rng(5)
    for model in models:
        for _ in range(4):
            x, y = (int(v) for v in rng.integers(0, 8, 2))
            p = {"x": x, "y": y, "one_step_s": 1.0 / 3.0, "lambda": 0.0, "eps": 1e-3,
                 "samples": 150}
            res = one_step_bound_check(sample_context(p, model, topo, UNIFORM, 71))
            assert res["pointwise_violations"] == 0
            assert res["pass"]


def test_decoupling_scalar_limit_matches_quadrature():
    # x = y decoupled: num = 1, den = <|v - z|^(-s)> (1+|lam|)^s
    topo = make_lattice_box(1, (3,))
    model = block_model([[1.0]], [[0.0]], math.inf)
    s, eps = 0.4, 1e-3
    p = {"x": 1, "y": 1, "decoupling_s": s, "lambda_grid": [0.0, 0.5], "eps": eps,
         "samples": 4000}
    out = decoupling_ratio(sample_context(p, model, topo, UNIFORM, 77))
    for entry in out:
        lam = entry["lambda"]
        den_oracle, _ = integrate(
            lambda v: 0.5 * ((v - lam) ** 2 + eps**2) ** (-s / 2.0),
            -1, 1, singular_points=[lam],
        )
        expect = 1.0 / (den_oracle * (1.0 + abs(lam)) ** s)
        assert not entry["skipped"]
        assert entry["num"] == pytest.approx(1.0, abs=1e-9)
        assert entry["ratio"] == pytest.approx(expect, rel=0.05)


def test_decoupling_spencer_positive_and_stable():
    topo = make_lattice_box(1, (8,))
    model = spencer_model(1.0, 20.0)
    grid = [0.0, 0.5, 1.0, 2.0]
    p = {"x": 2, "y": 5, "decoupling_s": 0.2, "lambda_grid": grid, "eps": 1e-3}
    half = decoupling_ratio(sample_context({**p, "samples": 300}, model, topo, UNIFORM, 83))
    full = decoupling_ratio(sample_context({**p, "samples": 600}, model, topo, UNIFORM, 83))
    r_half = [e["ratio"] for e in half]
    r_full = [e["ratio"] for e in full]
    assert min(r_full) > 0.0
    for a, b in zip(r_half, r_full):
        assert a == pytest.approx(b, rel=0.5)


def test_decoupling_alloy_scalar_form():
    topo = make_lattice_box(1, (8,))
    model = alloy_model({0: 1.0, 1: -1.0}, 20.0)
    p = {"x": 1, "y": 4, "decoupling_s": 0.2, "lambda_grid": [0.0, 1.0], "eps": 1e-3,
         "samples": 300}
    out = decoupling_ratio(sample_context(p, model, topo, UNIFORM, 87))
    assert all(e["ratio"] > 0.0 for e in out if not e["skipped"])


def test_decoupling_decoupled_offdiagonal_skipped():
    topo = make_lattice_box(1, (4,))
    model = block_model([[1.0]], [[0.0]], math.inf)
    p = {"x": 0, "y": 3, "decoupling_s": 0.3, "lambda_grid": [0.0], "eps": 1e-2, "samples": 120}
    out = decoupling_ratio(sample_context(p, model, topo, UNIFORM, 91))
    assert out[0]["skipped"]


def test_reverse_holder_constant_trivial():
    # Q constant: both sides equal, ratio exactly 1 (Jensen is tight)
    half = np.full(100, 2.0)
    assert float(np.mean(half * half) / np.mean(half) ** 2) == 1.0


def test_reverse_holder_single_pole_quadrature_agreement():
    # J=1, Q = 1/(v - b), |b| > 1: MC trial ratio vs direct quadrature
    b, s = 3.0, 0.2
    num, _ = integrate(lambda v: 0.5 * np.abs(v - b) ** (-s), -1, 1)
    den, _ = integrate(lambda v: 0.5 * np.abs(v - b) ** (-s / 2), -1, 1)
    oracle = num / den**2
    from fmlab.disorder import sample_vector
    from fmlab.rng import Stream

    v = sample_vector(UNIFORM, Stream(3), 400_000)
    half = np.abs(v - b) ** (-s / 2)
    mc = float(np.mean(half * half) / np.mean(half) ** 2)
    assert mc == pytest.approx(oracle, rel=0.01)


def test_reverse_holder_cramer_scan_finite():
    res = reverse_holder_check(sample_context(
        {"rh_s": 0.2, "rh_j": 2, "rh_trials": 40}, SCALAR, PAIR, UNIFORM, 101,
    ))
    assert math.isfinite(res["worst_constant"])
    assert res["worst_constant"] >= 1.0  # Jensen floor
    assert not res["failures"]


SINGULAR = block_model([[0.0]], [[0.0]], math.inf)  # H = 0: every solve at z = 0 is singular


@pytest.mark.parametrize(
    "estimate",
    [
        lambda topo: fractional_moment_profile(sample_context(
            {"x0": 0, "s": 0.3, "lambda": 0.0, "eps": 0.0, "samples": 100}, SINGULAR, topo,
            UNIFORM, 1,
        )),
        lambda topo: one_step_bound_check(sample_context(
            {"x": 0, "y": 1, "one_step_s": 0.3, "lambda": 0.0, "eps": 0.0, "samples": 100},
            SINGULAR, topo, UNIFORM, 1,
        )),
        lambda topo: decoupling_ratio(sample_context(
            {"x": 0, "y": 1, "decoupling_s": 0.2, "lambda_grid": [0.0], "eps": 0.0,
             "samples": 100},
            SINGULAR, topo, UNIFORM, 1,
        )),
    ],
    ids=["fractional_moment_profile", "one_step_bound_check", "decoupling_ratio"],
)
def test_singular_instance_fails_after_retry_cap(estimate, monkeypatch):
    draws = []

    def counted(*args):
        draws.append(1)
        return sample_vector(*args)

    monkeypatch.setattr(estimators, "sample_vector", counted)
    with pytest.raises(NumericalError, match="persistent singular factorization"):
        estimate(make_lattice_box(1, (3,)))
    assert len(draws) == MAX_RETRIES + 1  # the first draw and MAX_RETRIES redraws

