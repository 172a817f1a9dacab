"""Estimator oracles: quadrature cross-checks, synthetic fits, exact bounds."""

import math

import numpy as np
import pytest
import scipy.integrate as si

from fmlab.disorder import make_spec, sample_vector
from fmlab.engine import Pool
from fmlab.errors import DegenerateFitError
from fmlab.estimators import (
    _distinct,
    _group_stats,
    _line_fit,
    _median,
    correlator_decay_profile,
    correlator_targets,
    decay_rate_fit,
    default_eps,
    default_t_grid,
    dynamical,
    fractional_moment_profile,
    ids,
    moment_max_check,
    sample_context,
    wegner,
)
from fmlab.model import alloy_model, assemble, assembly_plan, block_model, spencer_model
from fmlab.numerics import hermitian_eig
from fmlab.rng import Stream
from fmlab.topology import make_lattice_box
from oracles import cluster_split, correlator_sum_loop, dynamical_sup_einsum, dynamical_targets

UNIFORM = make_spec("uniform", (-1, 1))
SCALAR = block_model([[1.0]], [[0.0]], 5.0)


def one_site_moment_oracle(s, lam, eps):
    """(1/2) integral of ((v-lam)^2 + eps^2)^(-s/2) over [-1, 1]."""
    val, _ = si.quad(
        lambda v: 0.5 * ((v - lam) ** 2 + eps**2) ** (-s / 2.0),
        -1.0, 1.0, points=[lam] if -1 < lam < 1 else None, limit=200,
    )
    return val


def two_site_moment_oracle(s, lam, eps, g, target):
    """Tensor quadrature of |G(0, target)|^s for the 2-site chain."""
    z = complex(lam, eps)
    c = 1.0 / g

    def inner(v0):
        v1_peak = z + c * c / (v0 - z)

        def f(v1):
            det = (v0 - z) * (v1 - z) - c * c
            entry = (v1 - z) / det if target == 0 else -c / det
            return 0.5 * abs(entry) ** s

        pts = [p for p in (lam, np.clip(v1_peak.real, -1, 1)) if -1 < p < 1]
        val, _ = si.quad(f, -1.0, 1.0, points=pts or None, limit=300)
        return 0.5 * val

    val, _ = si.quad(inner, -1.0, 1.0, points=[lam] if -1 < lam < 1 else None, limit=300)
    return val


def test_one_site_moment_matches_quadrature():
    topo = make_lattice_box(1, (1,))
    est = fractional_moment_profile(sample_context(
        {"x0": 0, "s": 0.5, "lambda": 0.0, "eps": 1.0, "samples": 4000}, SCALAR, topo, UNIFORM,
        master_seed=101,
    ))
    oracle = one_site_moment_oracle(0.5, 0.0, 1.0)
    assert abs(est["means"][0] - oracle) <= 3.0 * est["errs"][0]
    # frozen value of the stated analytic oracle at eps = 1
    assert oracle == pytest.approx(0.93748975, abs=1e-7)


def test_two_site_moment_matches_tensor_quadrature():
    topo = make_lattice_box(1, (2,))
    model = block_model([[1.0]], [[0.0]], 5.0)
    est = fractional_moment_profile(sample_context(
        {"x0": 0, "s": 1.0 / 3.0, "lambda": 0.0, "eps": 1e-2, "samples": 6000}, model, topo,
        UNIFORM, master_seed=103,
    ))
    for y in (0, 1):
        oracle = two_site_moment_oracle(1.0 / 3.0, 0.0, 1e-2, 5.0, y)
        assert abs(est["means"][y] - oracle) <= 3.0 * est["errs"][y]


def test_decoupled_offdiagonal_moment_is_zero():
    topo = make_lattice_box(1, (4,))
    model = block_model([[1.0]], [[0.0]], math.inf)
    est = fractional_moment_profile(sample_context(
        {"x0": 0, "s": 0.5, "lambda": 0.0, "eps": 1.0, "samples": 200}, model, topo, UNIFORM, 7,
    ))
    assert np.all(est["means"][1:] == 0.0)
    assert est["means"][0] > 0.0


def test_profile_determinism_across_workers():
    topo = make_lattice_box(1, (6,))
    p = {"x0": 0, "s": 0.5, "lambda": 0.0, "eps": 1e-2, "samples": 120}
    ctx = sample_context(p, SCALAR, topo, UNIFORM, master_seed=31337)
    a = fractional_moment_profile(ctx)
    with Pool(2) as pool:
        b = fractional_moment_profile(ctx, pool)
    assert np.array_equal(a["means"], b["means"])
    assert np.array_equal(a["errs"], b["errs"])


def test_decay_window_flag():
    topo = make_lattice_box(1, (2,))
    sp = spencer_model(1.0, 30.0)  # k=2: window tops out near 1/2
    est = fractional_moment_profile(sample_context(
        {"x0": 0, "s": 0.75, "lambda": 0.0, "eps": 1e-2, "samples": 100}, sp, topo, UNIFORM, 5,
    ))
    assert any("above the decay-bound window" in f for f in est["flags"])


def test_pointwise_power_monotonicity():
    # for each sample norm, t -> norm^t moves with sign(log norm)
    topo = make_lattice_box(1, (5,))
    v = sample_vector(UNIFORM, Stream(11), 5)
    h = assemble(SCALAR, topo, v, assembly_plan(SCALAR, topo))
    from fmlab.numerics import opnorm_batch, resolvent_profile

    norms = opnorm_batch(resolvent_profile(h, 1, 0.0, 1e-2, 0))
    lo, hi = norms**0.2, norms**0.4
    assert np.all((hi >= lo) == (norms >= 1.0))


def synthetic_estimate(distances, means):
    return {"distances": np.asarray(distances), "means": np.asarray(means, dtype=np.float64)}


def test_decay_fit_exact_line():
    d = np.arange(12)
    est = synthetic_estimate(d, np.exp(-0.7 * d))
    fit = decay_rate_fit(est, d_min=0)
    assert fit["rate"] == pytest.approx(0.7, abs=1e-12)
    assert fit["r2"] == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_constant_reports_zero_r2():
    est = synthetic_estimate(np.arange(6), np.ones(6))
    fit = decay_rate_fit(est, d_min=0)
    assert fit["rate"] == pytest.approx(0.0, abs=1e-14)
    assert fit["r2"] == 0.0


def test_decay_fit_errors():
    with pytest.raises(DegenerateFitError):
        decay_rate_fit(synthetic_estimate(np.arange(5), np.zeros(5)), d_min=0)
    with pytest.raises(DegenerateFitError):
        decay_rate_fit(synthetic_estimate(np.arange(2), np.ones(2)), d_min=0)


def test_decay_rate_grows_with_coupling():
    topo = make_lattice_box(1, (14,))
    fits = []
    for g in (10.0, 30.0):
        model = block_model([[1.0]], [[0.0]], g)
        est = fractional_moment_profile(sample_context(
            {"x0": 0, "s": 1.0 / 3.0, "lambda": 0.0, "eps": 1e-3, "samples": 600}, model, topo,
            UNIFORM, master_seed=919,
        ))
        fits.append(decay_rate_fit(est, d_min=2)["rate"])
    assert fits[1] > fits[0]


def test_moment_max_check_decoupled_and_strong():
    topo = make_lattice_box(1, (8,))
    est = fractional_moment_profile(sample_context(
        {"x0": 2, "s": 0.5, "lambda": 0.0, "eps": 0.5, "samples": 150},
        block_model([[1.0]], [[0.0]], math.inf), topo, UNIFORM, 3,
    ))
    ok, _ = moment_max_check(est)
    assert ok
    est2 = fractional_moment_profile(sample_context(
        {"x0": 2, "s": 1.0 / 3.0, "lambda": 0.0, "eps": 1e-3, "samples": 600},
        block_model([[1.0]], [[0.0]], 20.0), topo, UNIFORM, 5,
    ))
    ok2, _ = moment_max_check(est2)
    assert ok2


def test_diagonal_apriori_bound_over_lambda_grid():
    # (1 + |lam|)^s <||G(x,x)||^s> stays within a factor 10 across the grid
    topo = make_lattice_box(1, (10,))
    model = block_model([[1.0]], [[0.0]], 25.0)
    s = 1.0 / 3.0
    vals = []
    for lam in (-5.0, -2.0, 0.0, 2.0, 5.0):
        est = fractional_moment_profile(sample_context(
            {"x0": 5, "s": s, "lambda": lam, "eps": 1e-3, "samples": 400}, model, topo, UNIFORM,
            master_seed=707,
        ))
        vals.append(est["means"][5] * (1.0 + abs(lam)) ** s)
    assert max(vals) / min(vals) < 10.0


def test_ids_decoupled_scalar_recovers_mu():
    # decoupled k=1 instance: the counting measure is mu itself
    topo = make_lattice_box(1, (64,))
    model = block_model([[1.0]], [[0.0]], math.inf)
    edges = np.linspace(-1.0, 1.0, 21)
    ctx = sample_context({"samples": 300, "bins": edges}, model, topo, UNIFORM, master_seed=11)
    est = ids(ctx)[0]["estimate"]
    assert np.sum(est["masses"]) == pytest.approx(1.0, abs=1e-12)
    exact = np.diff(edges) / 2.0
    err_floor = np.maximum(est["errs"], 1e-4)
    assert np.all(np.abs(est["masses"] - exact) <= 4.0 * err_floor)


def test_ids_spencer_gap():
    # decoupled Spencer: |eigenvalue| = sqrt(v^2 + 1) >= 1, so (-1, 1) is empty
    topo = make_lattice_box(1, (32,))
    model = spencer_model(1.0, math.inf)
    edges = np.linspace(-2.0, 2.0, 41)
    ctx = sample_context({"samples": 100, "bins": edges}, model, topo, UNIFORM, master_seed=13)
    est = ids(ctx)[0]["estimate"]
    centers = (edges[:-1] + edges[1:]) / 2.0
    inside = np.abs(centers) < 0.9
    assert np.all(est["masses"][inside] == 0.0)
    assert np.sum(est["masses"]) == pytest.approx(1.0, abs=1e-12)


def test_wegner_synthetic_power_law():
    eps = np.array([0.2, 0.1, 0.05, 0.025])
    ones = np.ones(eps.size)  # the wegner exponent is the unit-weight log-log slope
    assert _line_fit(np.log(eps), np.log(eps**0.5), ones)[0] == pytest.approx(0.5, abs=1e-10)
    assert _line_fit(np.log(eps), np.log(3.0 * eps), ones)[0] == pytest.approx(1.0, abs=1e-10)


def test_wegner_decoupled_spencer_half_exponent():
    topo = make_lattice_box(1, (24,))
    model = spencer_model(1.0, math.inf)
    p = {"lambda0": 1.0, "eps_list": np.array([0.2, 0.1, 0.05, 0.025, 0.0125]), "samples": 800}
    we = wegner(sample_context(p, model, topo, UNIFORM, master_seed=17))[0]["estimate"]
    analytic = [0.5 * math.sqrt(e * e + 2 * e) for e in we["eps_list"]]
    assert np.all(np.abs(we["masses"] - analytic) <= 4.0 * np.maximum(we["errs"], 1e-4))
    assert we["exponent"] == pytest.approx(0.5, abs=0.03)


def test_wegner_decoupled_uniform_lipschitz():
    topo = make_lattice_box(1, (48,))
    model = block_model([[1.0]], [[0.0]], math.inf)
    p = {"lambda0": 0.0, "eps_list": np.array([0.2, 0.1, 0.05, 0.025]), "samples": 600}
    we = wegner(sample_context(p, model, topo, UNIFORM, master_seed=19))[0]["estimate"]
    assert we["exponent"] == pytest.approx(1.0, abs=0.05)


def test_wegner_preconditions():
    topo = make_lattice_box(1, (4,))
    p = {"lambda0": 0.0, "eps_list": np.array([0.2, 0.15, 0.1]), "samples": 150}
    narrow = wegner(sample_context(p, SCALAR, topo, UNIFORM, 1))[0]["estimate"]
    assert any("one decade" in f for f in narrow["flags"])


def test_correlator_scalar_diagonal_is_one():
    topo = make_lattice_box(1, (6,))
    v = sample_vector(UNIFORM, Stream(23), 6)
    sd = hermitian_eig(assemble(SCALAR, topo, v, assembly_plan(SCALAR, topo)))
    full = (sd.eigenvalues[0] - 1, sd.eigenvalues[-1] + 1)
    assert correlator_targets(*sd, 1, full, 3)[3] == pytest.approx(1.0, abs=1e-10)


def test_correlator_two_site_offdiagonal():
    topo, model = make_lattice_box(1, (2,)), block_model([[1.0]], [[0.0]], 1.0)
    sd = hermitian_eig(assemble(model, topo, [0.0, 0.0], assembly_plan(model, topo)))
    assert correlator_targets(*sd, 1, (-2, 2), 0)[1] == pytest.approx(1.0, abs=1e-10)


def test_correlator_bounded_by_k():
    topo = make_lattice_box(1, (5,))
    for model in (SCALAR, spencer_model(1.0, 2.0)):
        v = sample_vector(UNIFORM, Stream(29), 5)
        sd = hermitian_eig(assemble(model, topo, v, assembly_plan(model, topo)))
        full = (sd.eigenvalues[0] - 1, sd.eigenvalues[-1] + 1)
        k = model.k_ambient
        for m in range(5):
            assert np.all(correlator_targets(*sd, k, full, m) <= k + 1e-8)


def test_dynamical_sup_examples():
    topo, model = make_lattice_box(1, (2,)), block_model([[1.0]], [[0.0]], 1.0)
    sd = hermitian_eig(assemble(model, topo, [0.0, 0.0], assembly_plan(model, topo)))
    assert dynamical_targets(*sd, 1, (-2, 2), 0, [0.0])[1] == 0.0
    dense = np.linspace(0.0, 20.0, 4001)
    assert dynamical_targets(*sd, 1, (-2, 2), 0, dense)[1] == pytest.approx(1.0, abs=1e-5)


def test_dynamical_bounded_by_twice_correlator():
    topo = make_lattice_box(1, (6,))
    grid = default_t_grid(4.0)
    model = spencer_model(1.0, 3.0)
    for seed in range(5):
        v = sample_vector(UNIFORM, Stream(seed), 6)
        sd = hermitian_eig(assemble(model, topo, v, assembly_plan(model, topo)))
        window = (-0.8, 0.8)
        for n in range(1, 6):
            assert dynamical_targets(*sd, 2, window, 0, grid)[n] <= (
                2.0 * correlator_targets(*sd, 2, window, 0)[n] + 1e-8
            )


def block_eig(k, n_sites, seed, A=None, B=None):
    """Eigendecomposition of a k-block chain; random Hermitian A and B by default."""
    rng = np.random.default_rng(seed)

    def herm():
        m = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        return (m + m.conj().T) / 2

    model = block_model(herm() if A is None else A, herm() if B is None else B, 3.0)
    topo = make_lattice_box(1, (n_sites,))
    v = sample_vector(UNIFORM, Stream(seed), n_sites)
    return hermitian_eig(assemble(model, topo, v, assembly_plan(model, topo)))


def full_window(sd):
    return (sd.eigenvalues[0] - 1.0, sd.eigenvalues[-1] + 1.0)


def width(sd):
    return sd.eigenvalues[-1] - sd.eigenvalues[0]


SPECTRAL_CASES = [
    pytest.param(1, 20, None, None, id="k1"),
    pytest.param(2, 10, None, None, id="k2"),
    pytest.param(3, 8, None, None, id="k3"),
    # A = I, B = 0: every eigenvalue of H = hopping x I + diag(v) x I is
    # doubly degenerate, so every cluster merges two eigenvectors
    pytest.param(2, 16, np.eye(2), np.zeros((2, 2)), id="k2-merged"),
]


@pytest.mark.parametrize("k,n_sites,A,B", SPECTRAL_CASES)
def test_correlator_targets_match_cluster_loop_bit_for_bit(k, n_sites, A, B):
    sd = block_eig(k, n_sites, 41 + k, A, B)
    window = full_window(sd)
    clusters = cluster_split(sd.eigenvalues, window)
    assert len(clusters) >= 16
    if A is not None:
        assert all(c.size == 2 for c in clusters)
    for x0 in (0, n_sites // 2):
        got = correlator_targets(*sd, k, window, x0)
        assert got.tobytes() == correlator_sum_loop(*sd, k, window, x0).tobytes()


@pytest.mark.parametrize("k,n_sites,A,B", SPECTRAL_CASES)
def test_dynamical_targets_match_cluster_einsum(k, n_sites, A, B):
    sd = block_eig(k, n_sites, 43 + k, A, B)
    window = full_window(sd)
    assert len(cluster_split(sd.eigenvalues, window)) >= 16
    grid = default_t_grid(width(sd), 64)
    for x0 in (0, n_sites // 2):
        got = dynamical_targets(*sd, k, window, x0, grid)
        want = dynamical_sup_einsum(*sd, k, window, x0, grid)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@pytest.mark.parametrize("k", [1, 2])
def test_empty_window_gives_zero_correlator_and_delta_sup(k):
    sd = block_eig(k, 6, 47)
    empty = (sd.eigenvalues[-1] + 1.0, sd.eigenvalues[-1] + 2.0)
    assert cluster_split(sd.eigenvalues, empty) == []
    assert np.array_equal(correlator_targets(*sd, k, empty, 2), np.zeros(6))
    sup = dynamical_targets(*sd, k, empty, 2, default_t_grid(width(sd), 16))
    assert np.array_equal(sup, np.eye(6)[2])


def test_correlator_profile_decoupled():
    topo = make_lattice_box(1, (5,))
    model = block_model([[1.0]], [[0.0]], math.inf)
    p = {"interval": (-0.5, 0.5), "samples": 100, "x0": 0}
    prof = correlator_decay_profile(sample_context(p, model, topo, UNIFORM, 3))
    assert np.all(prof["means"][1:] == 0.0)


def test_dynamical_profile_reports_bound_stats():
    topo = make_lattice_box(1, (5,))
    p = {"interval": (-0.5, 0.5), "samples": 50, "x0": 0, "t_points": 64}
    prof = dynamical(sample_context(p, SCALAR, topo, UNIFORM, 9))[0]["estimate"]
    assert prof["max_excess_over_2q"] <= 1e-8
    assert 0.0 <= prof["factor1_hold_fraction"] <= 1.0


def test_default_eps_scales_with_width():
    topo = make_lattice_box(1, (8,))
    eps = default_eps(sample_context({}, SCALAR, topo, UNIFORM, 1))
    assert 0.0 < eps < 1e-3  # width/dim < 1 at this size


@pytest.mark.parametrize("rows", [1, 2, 15, 16])
def test_sort_based_median_and_distinct_match_numpy(rows):
    rng = np.random.default_rng(rows)
    vals = rng.standard_normal((rows, 5)) * 10.0 ** rng.integers(-3, 4, (rows, 5))
    vals[:, 1] = 0.25  # ties
    vals[:, 3] = -0.0
    vals[rows // 2, 2] = -0.0
    vals[0, 4] = np.nan  # a NaN anywhere in a column gives NaN
    assert _median(vals).tobytes() == np.median(vals, axis=0).tobytes()
    ints = rng.integers(-3, 9, 2 * rows + 1)
    for x in (ints, ints[:-1], ints[:0]):
        got, want = _distinct(x), np.unique(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 300, 2000])
def test_group_stats_of_a_column_match_its_n_by_1_form(n):
    # the inequalities checks average 1-D columns; their stats must be the
    # [0] entries of the (n, 1) form bit for bit
    rng = np.random.default_rng(n)
    heavy = np.abs(rng.standard_cauchy(n)) ** 1.5  # heavy-tailed, like ||G||^s near a pole
    block = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-3, 4, (n, 4))
    for column in (heavy, block[:, 2]):  # contiguous, and strided across (n, 4)
        for got, want in zip(_group_stats(column), _group_stats(column[:, None])):
            assert np.shape(got) == ()
            assert np.float64(got).tobytes() == want[0].tobytes()
