"""Spectral/resolvent operation contracts and cross-checks."""

import math

import numpy as np
import pytest

from fmlab.disorder import make_spec, sample_vector
from fmlab.errors import NumericalError, ResampleSignal
from fmlab.estimators import sample_context, solve_resampled
from fmlab.model import (
    alloy_model,
    assemble,
    assembly_plan,
    block_model,
    instance_digest,
    singular_covering_model,
    spencer_model,
)
from fmlab.numerics import (
    CLUSTER_TOL,
    cluster_indices,
    hermitian_eig,
    hermitian_eigvals,
    opnorm_batch,
    resolvent_profile,
)
from fmlab.rng import Stream, derive_sample_seed
from fmlab.topology import make_lattice_box
from oracles import (
    cluster_blocks_loop,
    cluster_indices_loop,
    cluster_split,
    column_resolvent_block,
    dense_resolvent_profile,
    dynamical_targets,
    spectral_resolvent_block,
)

UNIFORM = make_spec("uniform", (-1, 1))
RECON_TOL = 1e-10  # eigendecomposition reconstruction, relative to 1 + max|H|

rng = np.random.default_rng(1234)


def rand_hermitian(n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return ((a + a.conj().T) / 2).astype(np.complex128)


def random_instance(n_sites, seed, model=None, g=4.0):
    topo = make_lattice_box(1, (n_sites,))
    model = model or block_model([[1.0]], [[0.0]], g)
    v = sample_vector(UNIFORM, Stream(derive_sample_seed(seed, 0)), n_sites)
    return assemble(model, topo, v, assembly_plan(model, topo))


def test_eig_contract_on_random_instances():
    for seed in range(20):
        h = random_instance(8, seed, spencer_model(1.0, 4.0))
        lam, u = hermitian_eig(h)
        scale = 1.0 + np.abs(h).max()
        assert np.max(np.abs(u @ np.diag(lam) @ u.conj().T - h)) <= RECON_TOL * scale
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= RECON_TOL
        assert np.all(np.diff(lam) >= 0)


def test_eig_requires_exact_hermiticity():
    h = random_instance(4, 1)
    h[0, 1] += 1e-13
    with pytest.raises(NumericalError):
        hermitian_eig(h)


@pytest.mark.parametrize("fn,routine", [(hermitian_eig, "eigh"), (hermitian_eigvals, "eigvalsh")])
def test_eig_failure_raises_numerical_error_with_digest(monkeypatch, fn, routine):
    def no_convergence(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, routine, no_convergence)
    h = random_instance(4, 1)
    with pytest.raises(NumericalError) as info:
        fn(h)
    assert info.value.member == 0 and info.value.digest is None
    # solve_resampled names the failing member's sample by its instance digest
    model, topo = block_model([[1.0]], [[0.0]], 4.0), make_lattice_box(1, (4,))
    v = sample_vector(UNIFORM, Stream(derive_sample_seed(1, 0)), 4)
    with pytest.raises(NumericalError, match="failed") as info:
        solve_resampled(sample_context({}, model, topo, UNIFORM, 1), [0], fn)
    assert info.value.digest == instance_digest(model, topo, v, h)


def test_resolvent_one_site():
    h = random_instance(1, 3)
    v = float(h[0, 0].real)  # the one site's disorder value
    z = 0.3 + 0.05j
    gb = resolvent_profile(h, 1, 0.3, 0.05, 0)[0]
    assert gb[0, 0] == pytest.approx(1.0 / (v - z), rel=1e-12)


def test_resolvent_two_site_formula():
    g = 2.5
    topo, model = make_lattice_box(1, (2,)), block_model([[1.0]], [[0.0]], g)
    h = assemble(model, topo, [0.4, -0.7], assembly_plan(model, topo))
    z = 0.1 + 1e-3j
    det = (0.4 - z) * (-0.7 - z) - 1.0 / g**2
    expect = -(1.0 / g) / det
    gb = resolvent_profile(h, 1, 0.1, 1e-3, 0)[1]
    assert gb[0, 0] == pytest.approx(expect, rel=1e-12)


def test_resolvent_decoupled_offdiagonal_zero():
    h = random_instance(4, 5, block_model([[1.0]], [[0.0]], math.inf))
    gb = resolvent_profile(h, 1, 0.0, 1e-2, 0)[3]
    assert np.all(gb == 0.0)


def test_resolvent_profile_matches_blockwise_solves():
    h = random_instance(6, 7, spencer_model(0.5, 3.0))
    prof = resolvent_profile(h, 2, 0.2, 1e-3, 2)
    for y in range(6):
        gb = column_resolvent_block(h, 2, 0.2 + 1e-3j, 2, y)
        assert np.max(np.abs(prof[y] - gb)) < 1e-11


def test_eigen_vs_solve_cross_check():
    # spectral-sum resolvent agrees with the factorization route to 1e-8 relative
    for seed in range(10):
        h = random_instance(6, seed, spencer_model(1.0, 4.0))
        sd = hermitian_eig(h)
        z = 0.3 + 1e-2j
        for x, y in ((0, 0), (1, 4), (5, 2)):
            via_solve = resolvent_profile(h, 2, z.real, z.imag, x)[y]
            via_eig = spectral_resolvent_block(*sd, 2, z, x, y)
            denom = max(np.max(np.abs(via_solve)), 1e-30)
            assert np.max(np.abs(via_solve - via_eig)) / denom < 1e-8


def test_green_symmetry_real_instances():
    h = random_instance(6, 11, block_model([[1.0]], [[0.0]], 3.0))
    z = 0.1 + 1e-2j
    for x, y in ((0, 3), (2, 5)):
        gxy = resolvent_profile(h, 1, z.real, z.imag, x)[y]
        gyx = resolvent_profile(h, 1, z.real, z.imag, y)[x]
        assert np.max(np.abs(gxy - gyx.T)) < 1e-10


def test_resolvent_eps_zero_allowed():
    h = random_instance(5, 13)
    gb = resolvent_profile(h, 1, 0.05, 0.0, 0)[4]
    assert np.all(np.isfinite(gb.view(np.float64)))


@pytest.mark.parametrize("eps", [-1e-3, math.nan])
def test_resolvent_rejects_negative_or_nan_eps(eps):
    h = random_instance(5, 13)
    with pytest.raises(NumericalError, match="eps >= 0"):
        resolvent_profile(h, 1, 0.05, eps, 0)


@pytest.mark.parametrize("n,m", [(1, 1), (4, 2), (17, 3), (40, 5)])
def test_solve_residual(n, m):
    # n sites of a random k = m block model: the k-column solve behind
    # resolvent_profile satisfies (H - z) G = 1 on the x0 column
    a, b = rand_hermitian(m), rand_hermitian(m)
    h = random_instance(n, 29, block_model(a, b, 3.0))
    z = 0.2 + 1e-3j
    x0 = n // 2
    prof = resolvent_profile(h, m, z.real, z.imag, x0)
    cols = np.conj(np.swapaxes(prof, 1, 2)).reshape(n * m, m)  # (H - conj z)^(-1)(., x0)
    rhs = np.zeros((n * m, m), dtype=np.complex128)
    rhs[x0 * m:(x0 + 1) * m] = np.eye(m)
    resid = (h - np.conj(z) * np.eye(n * m)) @ cols - rhs
    assert np.max(np.abs(resid)) <= 1e-11 * (1.0 + np.abs(h).max()) * n


def test_singular_factorization_raises_resample():
    topo, model = make_lattice_box(1, (1,)), block_model([[1.0]], [[0.0]], math.inf)
    h = assemble(model, topo, [0.25], assembly_plan(model, topo))
    with pytest.raises(ResampleSignal):
        resolvent_profile(h, 1, 0.25, 0.0, 0)


def test_singular_solve_flags_resample():
    # an exactly singular H - z at eps = 0 stops the LAPACK factorisation
    # behind the resolvent solves; the sample is flagged for resampling
    m = np.zeros((3, 3), dtype=np.complex128)
    m[0, 1] = m[1, 0] = 1.0
    with pytest.raises(ResampleSignal):
        resolvent_profile(m, 1, 0.0, 0.0, 0)


def _model(name, d):
    zero, step = (0,) * d, (1,) + (0,) * (d - 1)
    return {"block": block_model([[1.0]], [[0.0]], 4.0), "spencer": spencer_model(1.0, 4.0),
            "singular_covering": singular_covering_model(4.0),
            "alloy": alloy_model({zero: 1.0, step: -1.0}, 4.0)}[name]


@pytest.mark.parametrize(
    "sides,periodic,k,rows,slabs",
    [((40,), False, 1, 8, 5), ((48,), False, 3, 9, 16), ((40,), False, 3, 12, 10),
     ((32,), False, 1, 8, 4), ((20,), False, 1, 20, 1), ((10,), False, 2, 20, 1),
     ((12, 12), False, 1, 12, 12), ((6, 9), False, 3, 27, 6), ((3, 40), False, 1, 120, 1),
     ((40,), True, 1, 40, 1)],
)
def test_slab_rule(sides, periodic, k, rows, slabs):
    # the fewest whole axis-0 layers holding >= 8 rows that cut the box into equal
    # slabs, at least 4 of them; one slab otherwise, on a torus, or without sweep
    topo = make_lattice_box(len(sides), sides, periodic)
    model = block_model(np.eye(k), np.zeros((k, k)), 4.0)
    plan = assembly_plan(model, topo, sweep=True)
    assert (plan.base.shape[-1], plan.base.shape[0] if plan.base.ndim == 3 else 1) == (rows, slabs)
    assert (plan.couple is None) == (slabs == 1)
    assert assembly_plan(model, topo).couple is None


@pytest.mark.parametrize("wide", [False, True], ids=["uniform1", "uniform50"])
@pytest.mark.parametrize("eps", [1e-3, 0.0])
@pytest.mark.parametrize("name", ["block", "spencer", "singular_covering", "alloy"])
@pytest.mark.parametrize("sides", [(40,), (48,), (12, 12), (6, 9)])
def test_sweep_matches_the_dense_solve(sides, name, eps, wide):
    # a run sweeps its slabs only at eps > 0, where every slab pivot's inverse has
    # norm at most 1/eps, so the sweep is as accurate as the dense LU, also for a
    # potential of size 50; at eps = 0 its plan is one slab, the dense LU itself
    topo, model = make_lattice_box(len(sides), sides), _model(name, len(sides))
    dis = make_spec("uniform", (-50, 50)) if wide else UNIFORM
    plan = sample_context({"eps": eps}, model, topo, dis, 5).plan
    assert (plan.couple is None) == (eps == 0.0)
    v = sample_vector(dis, Stream(derive_sample_seed(5, np.arange(3))), topo.n_vertices)
    hs, hd = assemble(model, topo, v, plan), assemble(model, topo, v, assembly_plan(model, topo))
    k, n = model.k_ambient, topo.n_vertices
    for x0 in (0, n // 2, n - 1):
        got = resolvent_profile(hs, k, 0.0, eps, x0, plan.couple)
        want = dense_resolvent_profile(hd, k, 0.0, eps, x0)
        gmax = np.max(np.abs(want), axis=(1, 2, 3))
        assert np.all(np.max(np.abs(got - want), axis=(1, 2, 3)) <= 1e-12 * gmax)


@pytest.mark.parametrize("sweep", [True, False], ids=["slabs", "one_slab"])
def test_a_single_member_sweeps_like_a_stack(sweep):
    topo, model = make_lattice_box(1, (40,)), spencer_model(1.0, 4.0)
    plan = assembly_plan(model, topo, sweep)
    assert (plan.couple is None) == (not sweep)
    v = sample_vector(UNIFORM, Stream(derive_sample_seed(9, np.arange(3))), 40)
    stack = resolvent_profile(assemble(model, topo, v, plan), 2, 0.1, 1e-3, 17, plan.couple)
    for b in range(3):
        single = resolvent_profile(assemble(model, topo, v[b], plan), 2, 0.1, 1e-3, 17,
                                   plan.couple)
        assert single.shape == (40, 2, 2) and np.array_equal(single, stack[b])


@pytest.mark.parametrize("stack", [False, True], ids=["single", "stack"])
@pytest.mark.parametrize("periodic", [False, True], ids=["open", "periodic"])
@pytest.mark.parametrize("eps", [1e-3, 0.0])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_one_slab_is_the_dense_lu(k, eps, periodic, stack):
    # a dense member is one slab, and the sweep of one slab is the dense LU solve
    topo = make_lattice_box(1, (12,), periodic)
    model = block_model(np.diag(np.arange(k) - 1.0), np.ones((k, k)), 4.0)
    plan = assembly_plan(model, topo)
    assert plan.couple is None and plan.base.shape == (12 * k, 12 * k)
    rows = np.arange(3) if stack else 0
    v = sample_vector(UNIFORM, Stream(derive_sample_seed(11, rows)), 12)
    h = assemble(model, topo, v, plan)
    for x0 in (0, 5, 11):
        got = resolvent_profile(h, k, 0.2, eps, x0)
        assert got.shape == h.shape[:-2] + (12, k, k)
        assert np.array_equal(got, dense_resolvent_profile(h, k, 0.2, eps, x0))


def test_a_slab_plan_holds_no_dense_matrix():
    # a plan in slabs holds slab 0's hopping and couple, sliced from the hopping of
    # the first two slabs, never the dense (n, n) hopping matrix
    for sides, k in (((2000,), 1), ((6, 9), 3)):
        topo = make_lattice_box(len(sides), sides)
        plan = assembly_plan(block_model(np.eye(k), np.zeros((k, k)), 4.0), topo, sweep=True)
        m = plan.base.shape[-1]
        assert plan.couple is not None and m < topo.n_vertices * k
        for name, held in vars(plan).items():
            if name == "diag" or not isinstance(held, np.ndarray):
                continue
            while held.base is not None:  # the array that owns a view's memory
                held = held.base
            assert held.size <= (2 * m) ** 2, name


def assert_same_clusters(vals, window):
    got, want = cluster_split(vals, window), cluster_indices_loop(vals, window)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_cluster_indices_match_gap_walk_on_random_spectra():
    gen = np.random.default_rng(77)
    for _ in range(60):
        n = int(gen.integers(1, 40))
        base = gen.uniform(-3.0, 3.0, n)
        # near-degenerate pairs and triples, some gaps below and some above tol
        near = base[gen.integers(0, n, n // 2)] + gen.uniform(0.0, 2e-7, n // 2)
        vals = np.sort(np.concatenate([base, near]))
        for window in ((-4.0, 4.0), (-1.0, 1.0), (0.5, 0.6), tuple(np.sort(gen.uniform(-3, 3, 2)))):
            assert_same_clusters(vals, window)


def test_cluster_indices_gap_exactly_at_tol_merges():
    tol = CLUSTER_TOL * (1.0 + 1.0)  # spectral radius 1
    vals = np.array([-1.0, 0.0, tol, 2.0 * tol, np.nextafter(3.0 * tol, 1.0), 0.5, 1.0])
    gaps = np.diff(vals)
    assert gaps[1] == tol and gaps[2] == tol and gaps[3] > tol
    sel, starts = cluster_indices(vals, (-2.0, 2.0))
    assert sel.tolist() == list(range(7)) and starts.tolist() == [0, 1, 4, 5, 6]
    assert_same_clusters(vals, (-2.0, 2.0))
    assert_same_clusters(vals, (tol, 0.5))


def evolve(vals, vecs, k, interval, t, x0):
    """e^{i t H_I}(x0, y) for every y, from the cluster blocks of the
    per-cluster oracle on the eigenpairs (vals, vecs) with k x k site blocks."""
    out = np.zeros((vals.size // k, k, k), dtype=np.complex128)
    out[x0] = np.eye(k)
    for nu, blocks in cluster_blocks_loop(vals, vecs, k, interval, x0):
        out += (np.exp(1j * t * nu) - 1.0) * blocks
    return out


def test_projector_blocks_completeness_and_orthogonality():
    h = random_instance(5, 17)
    sd = hermitian_eig(h)
    full = (sd.eigenvalues[0] - 1.0, sd.eigenvalues[-1] + 1.0)
    total = sum(b[2] for _, b in cluster_blocks_loop(*sd, 1, full, 2))
    assert total[0, 0] == pytest.approx(1.0, abs=1e-12)
    cross = sum(b[3] for _, b in cluster_blocks_loop(*sd, 1, full, 2))
    assert abs(cross[0, 0]) < 1e-12


def test_projector_blocks_symmetric_two_site():
    topo, model = make_lattice_box(1, (2,)), block_model([[1.0]], [[0.0]], 1.0)
    h = assemble(model, topo, [0.0, 0.0], assembly_plan(model, topo))
    sd = hermitian_eig(h)
    blocks = cluster_blocks_loop(*sd, 1, (-2, 2), 0)
    assert len(blocks) == 2
    for nu, b in blocks:
        assert abs(nu) == pytest.approx(1.0, abs=1e-12)
        assert b[0][0, 0].real == pytest.approx(0.5, abs=1e-12)


def test_evolve_block_examples():
    topo, model = make_lattice_box(1, (2,)), block_model([[1.0]], [[0.0]], 1.0)
    h = assemble(model, topo, [0.0, 0.0], assembly_plan(model, topo))
    sd = hermitian_eig(h)
    assert evolve(*sd, 1, (-2, 2), 0.0, 0)[0][0, 0] == pytest.approx(1.0)
    assert evolve(*sd, 1, (-2, 2), 0.0, 0)[1][0, 0] == pytest.approx(0.0)
    # empty window: identity for all t
    assert evolve(*sd, 1, (5, 6), 3.7, 0)[0][0, 0] == pytest.approx(1.0)
    assert evolve(*sd, 1, (5, 6), 3.7, 0)[1][0, 0] == pytest.approx(0.0)
    for t in (0.3, 1.9):
        got = evolve(*sd, 1, (-2, 2), t, 0)[1][0, 0]
        assert got == pytest.approx(1j * math.sin(t), abs=1e-12)
        # the dynamical estimator's norms on a one-point time grid
        sup = dynamical_targets(*sd, 1, (-2, 2), 0, [t])
        assert sup == pytest.approx(np.abs(evolve(*sd, 1, (-2, 2), t, 0)[:, 0, 0]), abs=1e-12)


def test_evolution_unitary_on_full_window():
    h = random_instance(5, 23, spencer_model(1.0, 3.0))
    sd = hermitian_eig(h)
    full = (sd.eigenvalues[0] - 1.0, sd.eigenvalues[-1] + 1.0)
    n, k = 5, 2
    t = 2.31
    e = np.zeros((n * k, n * k), dtype=np.complex128)
    for m in range(n):
        for nn in range(n):
            e[m * k:(m + 1) * k, nn * k:(nn + 1) * k] = evolve(*sd, k, full, t, m)[nn]
    assert np.max(np.abs(e.conj().T @ e - np.eye(n * k))) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 40])
def test_eig_reconstruction_and_orthonormality(n):
    h = rand_hermitian(n)
    d, q = hermitian_eig(h)
    scale = 1.0 + np.abs(h).max()
    assert np.max(np.abs(q @ np.diag(d) @ q.conj().T - h)) <= 1e-12 * scale * max(n, 4)
    assert np.max(np.abs(q.conj().T @ q - np.eye(n))) <= 1e-12 * max(n, 4)
    assert np.all(np.diff(d) >= 0)


def test_eig_small_oracles():
    sd = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=np.complex128))
    assert np.allclose(sd.eigenvalues, [-1.0, 1.0], atol=1e-14)
    sd = hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(np.complex128))
    assert np.allclose(sd.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)
    # permutation eigenvectors up to phase
    assert np.allclose(np.abs(sd.eigenvectors), np.eye(3)[:, [1, 2, 0]], atol=1e-14)


def test_eigvals_match_full_decomposition():
    # the counting estimators' eigenvalue-only path agrees with the full one
    for n in (6, 13, 30):
        h = rand_hermitian(n)
        d = hermitian_eig(h).eigenvalues
        vals = hermitian_eigvals(h)
        assert np.all(np.diff(vals) >= 0)
        assert np.max(np.abs(d - vals)) <= 1e-11 * (1.0 + np.abs(d).max())


def test_eigvals_require_exact_hermiticity():
    h = random_instance(4, 1)
    h[0, 1] += 1e-13
    with pytest.raises(NumericalError):
        hermitian_eigvals(h)


def test_eig_degenerate_spectrum():
    # doubly degenerate eigenvalues via a block construction
    u, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    lam = np.array([-2.0, -2.0, 0.5, 0.5, 0.5, 3.0])
    h = (u * lam) @ u.conj().T
    h = (h + h.conj().T) / 2
    d, q = hermitian_eig(h)
    assert np.max(np.abs(d - lam)) <= 1e-10
    assert np.max(np.abs(q @ np.diag(d) @ q.conj().T - h)) <= 1e-10


def opnorm(m) -> float:
    """Largest singular value of one block, as a stack of one."""
    return float(opnorm_batch(np.asarray(m)[None])[0])


def test_opnorm_oracles():
    assert opnorm(np.eye(5, dtype=np.complex128)) == pytest.approx(1.0, abs=1e-12)
    assert opnorm(np.diag([3.0, -4.0]).astype(np.complex128)) == pytest.approx(4.0, rel=1e-10)
    nilpotent = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=np.complex128)
    assert opnorm(nilpotent) == pytest.approx(2.0, rel=1e-10)


def test_opnorm_nilpotent_blocks():
    # a single off-diagonal entry c has norm |c| on both the 2 x 2 closed
    # form and the batched SVD path (k > 2)
    for k in (2, 3, 5):
        m = np.zeros((k, k), dtype=np.complex128)
        m[0, k - 1] = 2.0
        assert opnorm(m) == pytest.approx(2.0, rel=1e-10)
        assert opnorm_batch(np.stack([m, 0.5j * m]))[1] == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 16])
def test_opnorm_matches_svd(k):
    m = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    ref = np.linalg.svd(m, compute_uv=False)[0]
    assert opnorm(m) == pytest.approx(ref, rel=1e-8)
    # adjoint invariance and unitary invariance
    assert opnorm(m.conj().T) == pytest.approx(ref, rel=1e-8)
    u, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    v, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    assert opnorm(u @ m @ v) == pytest.approx(ref, rel=1e-8)


def test_opnorm_batch_agrees_with_scalar():
    for k in (1, 2, 3):
        blocks = rng.standard_normal((40, k, k)) + 1j * rng.standard_normal((40, k, k))
        batch = opnorm_batch(blocks)
        singles = np.array([opnorm(b) for b in blocks])
        assert np.max(np.abs(batch - singles)) <= 1e-10 * (1.0 + singles.max())


def test_opnorm_2x2_near_equal_singular_values():
    # sigma_2 / sigma_1 = 1 - 1e-8: the closed form must not cancel
    blocks = []
    for _ in range(50):
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        v, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        sigma = rng.uniform(0.1, 10.0)
        blocks.append((u * [sigma, sigma * (1.0 - 1e-8)]) @ v)
    blocks = np.array(blocks)
    ref = np.linalg.svd(blocks, compute_uv=False)[:, 0]
    assert np.max(np.abs(opnorm_batch(blocks) - ref) / ref) <= 1e-14


def test_opnorm_2x2_adds_match_axis_sums():
    # the closed form's explicit length-2 adds give what sums over the
    # length-2 axes give, bit for bit
    blocks = rng.standard_normal((64, 9, 2, 2)) + 1j * rng.standard_normal((64, 9, 2, 2))
    c0, c1 = blocks[..., :, 0], blocks[..., :, 1]
    g11 = np.sum(np.abs(c0) ** 2, axis=-1)
    g22 = np.sum(np.abs(c1) ** 2, axis=-1)
    g12 = np.abs(np.sum(np.conj(c0) * c1, axis=-1))
    want = np.sqrt(0.5 * (g11 + g22) + np.hypot(0.5 * (g11 - g22), g12))
    assert opnorm_batch(blocks).tobytes() == want.tobytes()
