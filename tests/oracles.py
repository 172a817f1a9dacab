"""Independent reference routes that the tests compare the library against.

Each oracle computes a quantity the library also computes, by a second
route that no run takes:

* spectral_resolvent_block sums the spectral representation of the
  resolvent, and column_resolvent_block solves (H - z) X = E_y at the
  column y itself; they check numerics.resolvent_profile, which solves
  with (H - conj(z)) at the column x and conjugates.
* dense_resolvent_profile solves (H - conj(z)) X = E_x0 by one LU of the
  dense matrix; it checks the Schur-complement sweep of
  numerics.resolvent_profile, to roundoff on members in slabs and bit for
  bit on dense ones, which the sweep takes as one slab.
* hermiticity_residual measures max |H - H*| entry by entry; it checks
  that model.assemble writes both triangles from one source.
* regularity_probe and moment_probe estimate a measure's regularity
  constant and q-th moment from sorted draws; they check the declared
  alpha and q that disorder.make_spec fills in, and sample_vector.
* ratio_integral's mc_draws option averages the ratio over draws of the
  measure; it checks the quadrature value that inequalities._ratio_integrals
  (the comparability_scan path) returns.
* targets_python takes the comparability targets' powers and products in
  Python floats, row by row; it checks inequalities._targets, which takes
  them on whole arrays with numpy's ** and prod.
* tridiag_green_entry_complex runs the chain's determinant recursion in
  complex arithmetic at a complex energy; at a real one it checks
  inequalities._tridiag_green_entry, which runs it in float64.
* pair_neighbors and bfs_distances find a box's edges pair by pair, from
  the per-pair offset rule lattice_offset, and its distances by
  breadth-first search; they check LatticeBox.neighbors and the closed-form
  topology.distances_from.
* pairwise_hopping and pairwise_assembly build an operator one pair of
  sites and one site at a time (lattice_offset for hopping, vertex_at for
  alloy terms); they check model.assembly_plan and assemble, which apply
  each offset to the whole box through LatticeBox.shift.
* cluster_indices_loop walks the window's eigenvalue gaps one at a time;
  it checks numerics.cluster_indices, which finds every cluster start from
  one np.diff.
* cluster_blocks_loop builds each cluster's blocks M_nu(x0, y) with its own
  einsum, and dynamical_sup_einsum sums them against the time phases with
  one einsum; they check estimators._cluster_blocks_all_targets (one
  reduceat over all clusters), estimators.correlator_targets and the
  dynamical estimator's time sup.

integrate is not independent: it is the library's quadrature, one item in
a batch of one, for tests that need a closed-form-free integral.  Nor is
dynamical_targets: it is the dynamical estimator's time sup on one
decomposition, for tests that check single matrices.  Nor is
cluster_split: it cuts numerics.cluster_indices into one index array per
cluster, for tests that compare clusters one by one.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from fmlab.disorder import sample_vector
from fmlab.errors import ConfigurationError
from fmlab.estimators import _cluster_blocks_all_targets, _dynamical_sup
from fmlab.inequalities import _ratio_integrals
from fmlab.numerics import CLUSTER_TOL, cluster_indices, opnorm_batch
from fmlab.quadrature import integrate_batch
from fmlab.rng import Stream, derive_sample_seed


def integrate(f, a, b, singular_points=(), **kw):
    """(value, error_bound) of a vectorized f over [a, b] via integrate_batch."""
    return integrate_batch(lambda rows, x: f(x), [(a, b, singular_points)], **kw)[0]


def dynamical_targets(vals, vecs, k: int, interval, x0: int, t_grid) -> np.ndarray:
    """sup over t_grid of ||e^{i t H_I}(x0, y)|| for every y, as a dynamical
    run computes it for one sample's eigenpairs (vals, vecs), k x k site blocks."""
    return _dynamical_sup(*_cluster_blocks_all_targets(vals, vecs, k, interval, x0), x0, t_grid)


def spectral_resolvent_block(vals, vecs, k: int, z: complex, x: int, y: int) -> np.ndarray:
    """G_z(x, y) summed over the spectral representation of the eigenpairs
    (vals, vecs) of a matrix with k x k site blocks."""
    um = vecs[x * k:(x + 1) * k, :]
    un = vecs[y * k:(y + 1) * k, :]
    weights = 1.0 / (vals - z)
    return (um * weights[None, :]) @ un.conj().T


def column_resolvent_block(h, k: int, z: complex, x: int, y: int) -> np.ndarray:
    """G_z(x, y) of a single matrix h with k x k site blocks from the direct
    solve (H - z) X = E_y."""
    n = h.shape[-1]
    rhs = np.zeros((n, k), dtype=np.complex128)
    rhs[y * k:(y + 1) * k, :] = np.eye(k)
    return np.linalg.solve(h - z * np.eye(n), rhs)[x * k:(x + 1) * k, :]


def dense_resolvent_profile(mats, k: int, lam: float, eps: float, x0: int) -> np.ndarray:
    """Blocks G_z(x0, y), z = lam + i eps, of a dense H or a (B, n, n) stack,
    shape (..., n_sites, k, k), from one LU solve of (H - conj(z)) X = E_x0."""
    n = mats.shape[-1]
    a = mats.astype(np.complex128)
    a[..., np.arange(n), np.arange(n)] -= complex(lam, -eps)
    rhs = np.zeros((n, k), dtype=np.complex128)
    rhs[x0 * k:(x0 + 1) * k, :] = np.eye(k)
    cols = np.linalg.solve(a, rhs).reshape(mats.shape[:-2] + (-1, k, k))
    return np.conj(np.swapaxes(cols, -1, -2))


def hermiticity_residual(h) -> float:
    """max |H_ij - conj(H_ji)|; exactly 0 for assembled matrices."""
    return float(np.max(np.abs(h - h.conj().T)))


def regularity_probe(spec, alpha, t_grid, eps_grid, n, stream) -> float:
    """Empirical sup over the grids of mass([t-eps, t+eps]) / eps^alpha.

    Estimates the regularity constant; stays bounded under eps refinement
    iff the spec really is alpha-regular.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    eps_grid = np.asarray(eps_grid, dtype=np.float64)
    if t_grid.size == 0 or eps_grid.size == 0:
        raise ConfigurationError("regularity_probe needs non-empty grids")
    if n < 10_000:
        raise ConfigurationError("regularity_probe needs n >= 10^4")
    draws = np.sort(sample_vector(spec, stream, n))
    best = 0.0
    for t in t_grid:
        lo = np.searchsorted(draws, t - eps_grid, side="left")
        hi = np.searchsorted(draws, t + eps_grid, side="right")
        mass = (hi - lo) / n
        best = max(best, float(np.max(mass / eps_grid**alpha)))
    return best


def moment_probe(spec, q: float, n: int, stream) -> float:
    """Empirical q-th absolute moment from n draws.

    For q >= declared_q the true moment is infinite and the estimate just
    grows erratically with n; that is expected output, not an error.
    """
    if n < 10_000:
        raise ConfigurationError("moment_probe needs n >= 10^4")
    if q == 0:
        return 1.0
    draws = sample_vector(spec, stream, n)
    return float(np.mean(np.abs(draws) ** q))


def ratio_integral(measure, a, b, s: float, r: float, rel_tol: float = 1e-8,
                   mc_draws: int = 0, mc_seed: int = 0) -> dict:
    """The comparability quadrature of the integral of
    prod_j |v - a_j|^s / prod_i |v - b_i|^r against measure, for one draw of
    points a and b, as {"value", "error_bound"}; with mc_draws > 0 also
    "mc_value" and "mc_err", a Monte Carlo average of the same ratio."""
    rows = [np.array([points], dtype=np.complex128).reshape(1, len(points)) for points in (a, b)]
    value, err, _ = _ratio_integrals(measure, *rows, s, r, rel_tol)
    out = {"value": float(value[0]), "error_bound": float(err[0])}
    if mc_draws > 0:
        stream = Stream(derive_sample_seed(mc_seed, 0x51AD))
        v = sample_vector(measure, stream, int(mc_draws))
        ratio = np.ones_like(v)
        for aj in a:
            ratio *= np.abs(v - aj) ** s
        for bi in b:
            ratio /= np.abs(v - bi) ** r
        out["mc_value"] = float(np.mean(ratio))
        out["mc_err"] = float(np.std(ratio, ddof=1) / math.sqrt(len(ratio)))
    return out


def targets_python(a, b, s: float, r: float) -> np.ndarray:
    """prod_j (1 + |a_j|)^s / prod_i (1 + |b_i|)^r of every row of the points
    a, shape (rows, l), and b, shape (rows, m), in Python floats."""
    return np.array([math.prod((1.0 + abs(aj)) ** s for aj in pa)
                     / math.prod((1.0 + abs(bi)) ** r for bi in pb)
                     for pa, pb in zip(a.tolist(), b.tolist())])


def tridiag_green_entry_complex(vmat, coeff_c, coeff_d, hop, z: complex) -> np.ndarray:
    """|G(0, J-1)| at energy z of the J-site chains with potentials
    coeff_c * v + coeff_d, one per row v of vmat, by the determinant
    recursion in complex arithmetic."""
    n_draws, j_vars = vmat.shape
    avals = coeff_c[None, :] * vmat + coeff_d[None, :] - z
    det_prev = np.ones(n_draws, dtype=np.complex128)
    det = avals[:, 0].copy()
    for jj in range(1, j_vars):
        det, det_prev = avals[:, jj] * det - (hop * hop) * det_prev, det
    with np.errstate(divide="ignore"):
        return np.abs(hop) ** (j_vars - 1) / np.abs(det)


def lattice_offset(box, x: int, y: int) -> tuple:
    """The offset y - x of two sites; on a torus an axis difference of
    +-(side - 1) is the wrap step -+1."""
    out = []
    for ax, delta in enumerate((box.coords[y] - box.coords[x]).tolist()):
        side = box.sides[ax]
        if box.periodic and delta == side - 1:
            delta = -1
        elif box.periodic and delta == -(side - 1):
            delta = 1
        out.append(delta)
    return tuple(out)


def vertex_at(box, coord):
    """The vertex at integer coordinates coord, wrapped on a torus; None
    outside an open box."""
    idx = 0
    for side, c in zip(box.sides, coord):
        c = int(c) % side if box.periodic else int(c)
        if not 0 <= c < side:
            return None
        idx = idx * side + c
    return idx


def pair_neighbors(box) -> list:
    """Per vertex, the ascending tuple of sites one unit step away."""
    n = box.n_vertices
    return [
        tuple(y for y in range(n) if sum(map(abs, lattice_offset(box, x, y))) == 1)
        for x in range(n)
    ]


def bfs_distances(box, x: int) -> np.ndarray:
    """Graph distances from x, by breadth-first search over pair_neighbors."""
    adjacency = pair_neighbors(box)
    dist = np.full(box.n_vertices, -1, dtype=np.int64)
    dist[x] = 0
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def pairwise_hopping(model, box) -> np.ndarray:
    """The hopping-only matrix, one block per ordered pair of neighbours."""
    n, ka = box.n_vertices, model.k_ambient
    hop = np.zeros((n * ka, n * ka), dtype=np.complex128)
    for x in range(n):
        for y in range(n):
            off = lattice_offset(box, x, y)
            if sum(map(abs, off)) != 1:
                continue
            kern = np.eye(ka) if model.hopping is None else model.hopping[off]
            hop[x * ka:(x + 1) * ka, y * ka:(y + 1) * ka] = model.coupling * kern
    return hop


def pairwise_assembly(model, box, v) -> np.ndarray:
    """pairwise_hopping plus each site's potential block, summed site by site."""
    out = pairwise_hopping(model, box)
    ka = model.k_ambient
    for x in range(box.n_vertices):
        if model.variant == "alloy":
            pot = 0.0
            for off, c in sorted(model.alloy_coeffs.items()):
                src = vertex_at(box, box.coords[x] + np.asarray(off))
                if src is not None:
                    pot += c * v[src]
            out[x, x] += pot
        else:
            out[x * ka:(x + 1) * ka, x * ka:(x + 1) * ka] += v[x] * model.A + model.B
    return out


def cluster_split(vals, interval) -> list:
    """numerics.cluster_indices as a list of index arrays, one per cluster."""
    sel, starts = cluster_indices(vals, interval)
    return np.split(sel, starts[1:]) if starts.size else []


def cluster_indices_loop(vals, interval) -> list:
    """Eigenvalue-index clusters of the ascending vals inside the closed
    interval: a cluster grows while the next gap is at most
    CLUSTER_TOL * (1 + spectral radius)."""
    lo, hi = float(interval[0]), float(interval[1])
    sel = np.where((vals >= lo) & (vals <= hi))[0]
    if sel.size == 0:
        return []
    radius = max(abs(float(vals[0])), abs(float(vals[-1])))
    tol = CLUSTER_TOL * (1.0 + radius)
    out = []
    start = 0
    while start < sel.size:
        stop = start + 1
        while stop < sel.size and vals[sel[stop]] - vals[sel[stop - 1]] <= tol:
            stop += 1
        out.append(sel[start:stop])
        start = stop
    return out


def cluster_blocks_loop(vals, vecs, k: int, interval, x0: int) -> list:
    """Per window cluster nu of the eigenpairs (vals, vecs) with k x k site
    blocks, (nu's mean eigenvalue, M_nu(x0, y) for every y, shape (N, k, k)),
    one einsum per cluster."""
    n_sites = vals.size // k
    um = vecs[x0 * k:(x0 + 1) * k, :]
    out = []
    for cols in cluster_indices_loop(vals, interval):
        nu = float(np.mean(vals[cols]))
        v = vecs[:, cols].reshape(n_sites, k, cols.size)
        out.append((nu, np.einsum("ac,nbc->nab", um[:, cols], v.conj())))
    return out


def correlator_sum_loop(vals, vecs, k: int, interval, x0: int) -> np.ndarray:
    """Q_hat(x0, y) for every y, summed cluster by cluster."""
    q = np.zeros(vals.size // k)
    for _, blocks in cluster_blocks_loop(vals, vecs, k, interval, x0):
        q += opnorm_batch(blocks)
    return q


def dynamical_sup_einsum(vals, vecs, k: int, interval, x0: int, t_grid) -> np.ndarray:
    """sup over t_grid of ||e^{i t H_I}(x0, y)|| for every y, from one einsum
    of the time phases against the stacked cluster blocks."""
    t_grid = np.asarray(t_grid, dtype=np.float64)
    n_sites = vals.size // k
    clusters = cluster_blocks_loop(vals, vecs, k, interval, x0)
    if not clusters:
        out = np.zeros(n_sites)
        out[x0] = 1.0
        return out
    nus = np.array([nu for nu, _ in clusters])
    stack = np.stack([blocks for _, blocks in clusters])  # (C, N, k, k)
    w = np.exp(1j * np.outer(t_grid, nus)) - 1.0  # (T, C)
    ev = np.einsum("tc,cnab->tnab", w, stack)
    ev[:, x0] += np.eye(k, dtype=np.complex128)
    norms = opnorm_batch(ev.reshape(-1, k, k)).reshape(t_grid.size, n_sites)
    return norms.max(axis=0)
