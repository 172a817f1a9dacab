"""Monte Carlo estimators: fractional moment profiles, decay fits, density of
states, spectral window masses, eigenfunction correlators, and time-evolution
suprema.

Each experiment kind but inequalities (see fmlab.inequalities) is one
function here, kind(ctx, pool=None, outdir=None) -> (outputs, series, plot):
ctx is the run's sample context (sample_context: the operator family, the
master seed, the kind's parsed estimator fields as ctx.params and the
assembly plan, built once per run), pool is the run's engine.Pool, which
its scan maps its chunks through (None: in this process), outputs is what
results.json holds, series its columns by name (see fmlab.runner) and plot
its plot function (see fmlab.plotting).  Its scan's batch function
returns records of the dtype the scan declares.  An estimate is a plain
dict whose arrays stay numpy until results.json is written.  decay and
correlator fit their estimate in a separate step, so their estimates have
functions of their own.

Every estimator derives sample i's random stream from (master_seed, i), so
results are bit-identical for any worker count.  Aggregation reports the
plain mean (the quantity the decay bounds speak about) together with a
median-of-means companion and a group-based standard error over 16 contiguous
sample groups, which stays usable when resolvent norms have heavy tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .disorder import DisorderSpec, sample_vector
from .engine import checkpoint_path, records, run_indexed
from .errors import DegenerateFitError, NumericalError, ResampleSignal
from .model import (
    AssemblyPlan,
    ModelSpec,
    assemble,
    assembly_plan,
    decay_exponent_window,
    instance_digest,
)
from .numerics import (
    cluster_indices,
    hermitian_eig,
    hermitian_eigvals,
    opnorm_batch,
    resolvent_profile,
)
from .rng import Stream, derive_sample_seed
from .topology import LatticeBox, distances_from

MOM_GROUPS = 16  # sample groups feeding the median-of-means error bar
MAX_RETRIES = 100  # per-sample singular-factorization retries before giving up
RESAMPLE_FLAG_FRACTION = 0.01

T_GRID_POINTS = 512
T_GRID_CYCLES = 64.0


def _median(values: np.ndarray) -> np.ndarray:
    """np.median along axis 0, bit for bit, from np.sort (np.median imports numpy.ma)."""
    srt = np.sort(values, axis=0)
    h = srt.shape[0] // 2
    # np.median means the middle one or two, summing from 0.0 (so -0.0 gives 0.0)
    mid = 0.0 + srt[h] if srt.shape[0] % 2 else (0.0 + srt[h - 1] + srt[h]) / 2
    return np.where(np.isnan(srt[-1]), np.nan, mid)  # NaN sorts last


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values, as np.unique of a NaN-free array (which imports numpy.ma)."""
    srt = np.sort(values, axis=None)
    first = np.ones(srt.shape, dtype=bool)
    first[1:] = srt[1:] != srt[:-1]
    return srt[first]


def _group_stats(values: np.ndarray):
    """(mean, median-of-means, group-based standard error) along axis 0: scalars
    for a 1-D column, equal bit for bit to the entries of its (n, 1) form."""
    n = values.shape[0]
    mean = np.mean(values, axis=0)
    groups = min(MOM_GROUPS, n)
    if groups < 2:
        zero = np.zeros_like(mean)
        return mean, mean.copy(), zero
    bounds = np.linspace(0, n, groups + 1).astype(int)
    gmeans = np.stack([np.mean(values[bounds[j]:bounds[j + 1]], axis=0) for j in range(groups)])
    mom = _median(gmeans)
    err = np.std(gmeans, axis=0, ddof=1) / math.sqrt(groups)
    return mean, mom, err


# ---------------------------------------------------------------------------
# the sample path shared by every operator estimator

STACK_BYTES = 512 * 1024  # members assembled and solved as one stack, at least one


@dataclass(eq=False)
class _SampleCtx:
    model: ModelSpec
    topo: LatticeBox
    disorder: DisorderSpec
    master_seed: int
    params: dict
    plan: AssemblyPlan


def sample_context(p, model, topo, disorder, master_seed) -> _SampleCtx:
    """A run's one ctx for run_indexed's batch functions, which get their
    operators, if any, from solve_resampled: the kind's parsed estimator
    fields p as params, and the assembly plan (refusing offsets without a
    kernel).  The plan is in slabs for a kind that solves resolvents at
    eps > 0 ("auto" is > 0), where numerics' sweep is as accurate as the
    dense solve, and in one slab at eps = 0 and for a kind with no eps."""
    eps = p.get("eps", 0)
    return _SampleCtx(model, topo, disorder, int(master_seed), p,
                      assembly_plan(model, topo, eps == "auto" or eps > 0))


def solve_resampled(ctx: _SampleCtx, indices, solve):
    """(results, retries) arrays for a list of sample indices.

    Sample i's operator is drawn and assembled from its own (master_seed, i)
    stream.  solve(h) gets a stack h of B members in the layout of ctx.plan
    (model.assemble), B the most whose assembled bytes fit STACK_BYTES but at
    least one, and returns an array (records, say) with one entry per member;
    results[j] is indices[j]'s.  A member in slabs counts its L m^2 complex
    entries, not the n^2 of its dense matrix: a 144-row member in 16 slabs of
    9 rows is 20 KiB, not 324 KiB, so a stack holds 25 members, not one.  A
    ResampleSignal (an exactly singular solve, measure zero for continuous
    disorder) redraws only the singular members, each from the next words of
    its own stream, and retries[j] counts indices[j]'s redraws; after
    MAX_RETRIES redraws a sample fails with NumericalError.  So does a failed contract, raised again
    with its reason and the instance digest of the member it names, which is
    taken of its dense matrix in every layout.
    """
    n = ctx.topo.n_vertices
    per_stack = max(1, STACK_BYTES // (16 * ctx.plan.base.size))  # complex128 members
    results = None  # allocated from the first solved stack's dtype and entry shape
    retries = np.zeros(len(indices), dtype=np.int64)
    pending = np.arange(len(indices))  # positions in indices still without a result
    stream = Stream(derive_sample_seed(ctx.master_seed, np.asarray(indices, dtype=np.uint64)))

    def failure(reason, vb):  # a sample's NumericalError, named by its dense matrix's digest
        mat = assemble(ctx.model, ctx.topo, vb, assembly_plan(ctx.model, ctx.topo))
        return NumericalError(reason, instance_digest(ctx.model, ctx.topo, vb, mat))

    for attempt in range(MAX_RETRIES + 1):
        v = sample_vector(ctx.disorder, stream, n)
        singular = np.zeros(pending.size, dtype=bool)
        for lo in range(0, pending.size, per_stack):
            rows = np.arange(lo, min(lo + per_stack, pending.size))
            while rows.size:
                h = assemble(ctx.model, ctx.topo, v[rows], ctx.plan)
                try:
                    out = solve(h)
                except NumericalError as exc:
                    raise failure(str(exc), v[rows[exc.member]]) from None
                except ResampleSignal as sig:
                    # each member gets the LAPACK call it would get alone, so some member
                    # fails alone; should none, redraw the whole stack rather than loop
                    bad = sig.members | ~np.any(sig.members)
                    singular[rows[bad]] = True
                    rows = rows[~bad]
                    continue
                if results is None:
                    results = np.empty((len(indices), *out.shape[1:]), out.dtype)
                results[pending[rows]] = out
                retries[pending[rows]] = attempt
                break
        if not np.any(singular):
            return results, retries
        pending = pending[singular]
        stream = Stream(stream.state[singular], stream.pos)
    raise failure("persistent singular factorization", v[int(np.argmax(singular))])


# ---------------------------------------------------------------------------
# fractional moments and decay fits


def _moment_batch(ctx: _SampleCtx, indices) -> np.ndarray:
    p, k = ctx.params, ctx.model.k_ambient

    def moments(h):
        prof = resolvent_profile(h, k, p["lambda"], p["eps"], p["x0"], ctx.plan.couple)
        return opnorm_batch(prof) ** p["s"]

    rows, retries = solve_resampled(ctx, indices, moments)
    return records(m=rows, r=retries)


def fractional_moment_profile(ctx: _SampleCtx, pool=None, checkpoint_path=None) -> dict:
    """The decay estimate: the mean of ||G_{lambda + i eps}(x0, y)||^s over
    disorder for every site y, eps "auto" taken from default_eps."""
    if ctx.params["eps"] == "auto":
        ctx = replace(ctx, params={**ctx.params, "eps": default_eps(ctx)})
    p, model, disorder = ctx.params, ctx.model, ctx.disorder
    flags = []
    s_bound = decay_exponent_window(model.k, disorder.declared_alpha, disorder.declared_q)
    if p["s"] > s_bound + 1e-12:
        flags.append(f"s={p['s']:g} above the decay-bound window {s_bound:g}")
    samples = p["samples"]
    dtype = np.dtype([("m", "f8", ctx.topo.n_vertices), ("r", "i8")])
    recs = run_indexed(_moment_batch, ctx, dtype, samples, pool, checkpoint_path)
    resamples = int(recs["r"].sum())
    if resamples > RESAMPLE_FLAG_FRACTION * samples:
        flags.append(f"excessive resamples: {resamples}")
    mean, mom, err = _group_stats(recs["m"])
    return {
        "s": p["s"],
        "lambda": p["lambda"],
        "eps": p["eps"],
        "g": model.g,
        "x0": p["x0"],
        "distances": distances_from(ctx.topo, p["x0"]),  # graph distance of each target from x0
        "means": mean,
        "moms": mom,  # median-of-means companion estimate
        "errs": err,  # group-based standard error of the mean
        "n_samples": samples,
        "resamples": resamples,
        "master_seed": ctx.master_seed,
        "flags": flags,
    }


def decay(ctx: _SampleCtx, pool=None, outdir=None):
    """The decay kind: the fractional-moment profile, its decay-rate fit over
    the distances from d_min on, and the diagonal-maximum check."""
    p = ctx.params
    e = fractional_moment_profile(ctx, pool, checkpoint_path(outdir))
    ok, margin = moment_max_check(e)
    outputs = {
        "fit": decay_rate_fit(e, p["d_min"]),
        "d_min": p["d_min"],
        "eps_used": e["eps"],
        "max_at_diagonal": ok,
        "max_margin": margin,
        "resamples": e["resamples"],
        "flags": e["flags"],
        "estimate": e,
    }
    return outputs, *_distance_series("decay", e, n=p["samples"], resamples=e["resamples"])


def bin_by_distance(distances, means, d_min: int = 0):
    """Group targets by exact graph distance >= d_min.

    Returns (d, bin_mean, population); bins average their member targets.
    """
    distances = np.asarray(distances)
    means = np.asarray(means, dtype=np.float64)
    keep = distances >= d_min
    ds = _distinct(distances[keep])
    bm, pop = [], []
    for d in ds:
        sel = distances == d
        bm.append(float(np.mean(means[sel])))
        pop.append(int(np.sum(sel)))
    return ds.astype(int), np.asarray(bm), np.asarray(pop, dtype=int)


def _distance_series(kind: str, e: dict, **constants):
    """(series, plot) of a distance-profile estimate e: one row per site, its
    distance from x0, mean and e["errs"] (headed err), then the constant
    columns; the plot is the distance-bin means on semilog axes."""
    return ({"distance": e["distances"], "mean": e["means"], "err": e["errs"], **constants},
            lambda: (*bin_by_distance(e["distances"], e["means"])[:2], "graph distance",
                     "mean", f"{kind}: mean vs distance", False, True))


def decay_rate_fit(e: dict, d_min: int = 1) -> dict:
    """Weighted least squares of log(bin mean) against distance.

    rate is reported positive for decay; weights are bin populations.
    Accepts any estimate carrying "distances" and "means".
    """
    ds, bm, pop = bin_by_distance(e["distances"], e["means"], d_min=d_min)
    if bm.size and np.all(bm == 0.0):
        raise DegenerateFitError("all distance-bin means are zero")
    good = bm > 0.0
    ds, bm, pop = ds[good], bm[good], pop[good]
    if ds.size < 3:
        raise DegenerateFitError("decay fit needs >= 3 distinct distances with positive means")
    slope, intercept, r2 = _line_fit(ds.astype(np.float64), np.log(bm), pop.astype(np.float64))
    return {"rate": float(-slope), "intercept": float(intercept), "r2": r2}


def _line_fit(x, y, w):
    """(slope, intercept, r2) of the least-squares line through (x, y) with weights w."""
    wsum = np.sum(w)
    xbar = np.sum(w * x) / wsum
    ybar = np.sum(w * y) / wsum
    sxx = np.sum(w * (x - xbar) ** 2)
    sxy = np.sum(w * (x - xbar) * (y - ybar))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    ss_res = np.sum(w * (y - (intercept + slope * x)) ** 2)
    ss_tot = np.sum(w * (y - ybar) ** 2)
    r2 = 0.0 if ss_tot == 0.0 else float(1.0 - ss_res / ss_tot)
    return slope, intercept, r2


def moment_max_check(e: dict):
    """Is the per-target maximum attained on the diagonal, within 2 error bars?"""
    means, errs, x0 = e["means"], e["errs"], e["x0"]
    i_max = int(np.argmax(means))
    m_max = float(means[i_max])
    m_diag = float(means[x0])
    combined = 2.0 * math.sqrt(float(errs[i_max]) ** 2 + float(errs[x0]) ** 2)
    margin = m_diag - m_max + combined
    return bool(m_diag >= m_max - combined), float(margin)


def default_eps(ctx: _SampleCtx) -> float:
    """Resolvent smoothing default: 1e-3 * spectral width / matrix dimension.

    Uses the spectrum of sample 0's dense matrix, whatever the layout of
    ctx's plan; recorded per experiment, since the i0 limit itself is not
    computable.  Its full eigvalsh is O(n^3) time and O(n^2) memory: on an
    open 2000-site chain (100 samples) it took 2.23 s of a 2.59 s run and
    222.5 MB peak RSS, against 41.0 MB at eps = 1e-3.
    """
    vals = solve_resampled(replace(ctx, plan=assembly_plan(ctx.model, ctx.topo)), [0],
                           hermitian_eigvals)[0][0]
    width = max(float(vals[-1] - vals[0]), 1e-12)
    return 1e-3 * width / vals.size


# ---------------------------------------------------------------------------
# density of states and spectral-window masses


def _ids_batch(ctx: _SampleCtx, indices) -> np.ndarray:
    vals = solve_resampled(ctx, indices, hermitian_eigvals)[0]
    edges = ctx.params["bins"]
    nbins = edges.size - 1
    # np.histogram's bins (the last one closed), eigenvalues beyond the edges
    # clipped into the boundary bins
    bins = np.clip(np.searchsorted(edges, vals, side="right") - 1, 0, nbins - 1)
    bins += nbins * np.arange(len(indices))[:, None]
    counts = np.bincount(bins.ravel(), minlength=len(indices) * nbins).reshape(-1, nbins)
    return records(c=counts)


def ids(ctx: _SampleCtx, pool=None, outdir=None):
    """The ids kind: the disorder-averaged normalized eigenvalue counting
    measure on the bins whose edges are params["bins"].

    Eigenvalues falling outside the edge range are clipped into the boundary
    bins, so the masses sum to one exactly (up to float summation).
    """
    p = ctx.params
    edges = p["bins"]
    dtype = np.dtype([("c", "i8", edges.size - 1)])
    recs = run_indexed(_ids_batch, ctx, dtype, p["samples"], pool, checkpoint_path(outdir))
    masses, _, errs = _group_stats(recs["c"] / (ctx.topo.n_vertices * ctx.model.k_ambient))
    e = {"edges": edges, "masses": masses, "errs": errs, "n_samples": p["samples"],
         "master_seed": ctx.master_seed}
    outputs = {"total_mass": float(np.sum(masses)), "estimate": e}
    series = {"bin_lo": edges[:-1], "bin_hi": edges[1:], "mass": masses, "err": errs}
    return outputs, series, lambda: ((edges[:-1] + edges[1:]) / 2.0, masses, "energy",
                                     "mass per bin", "density of states", False, False)


def _window_batch(ctx: _SampleCtx, indices) -> np.ndarray:
    vals = solve_resampled(ctx, indices, hermitian_eigvals)[0][:, None, :]
    lam0, eps = ctx.params["lambda0"], ctx.params["eps_list"][:, None]
    counts = np.sum((vals >= lam0 - eps) & (vals <= lam0 + eps), axis=-1)
    return records(c=counts)


def wegner(ctx: _SampleCtx, pool=None, outdir=None):
    """The wegner kind: normalized counting-measure masses of [lambda0 - eps,
    lambda0 + eps] for each eps of params["eps_list"] (an array, descending),
    and the log-log slope across them (the local Holder exponent)."""
    p = ctx.params
    eps = p["eps_list"]
    flags = []
    if eps[0] < (10.0 - 1e-9) * eps[-1]:  # no division: 1e300 / 1e-300 overflows
        flags.append(f"eps grid spans only {eps[0] / eps[-1]:.1f}x (< one decade)")
    dtype = np.dtype([("c", "i8", eps.size)])
    counts = run_indexed(_window_batch, ctx, dtype, p["samples"], pool,
                         checkpoint_path(outdir))["c"].astype(np.float64)
    expected = np.mean(counts[:, 0])
    if expected < 50.0:
        flags.append(f"largest window holds {expected:.1f} eigenvalues on average (< 50)")
    masses, _, errs = _group_stats(counts / (ctx.topo.n_vertices * ctx.model.k_ambient))
    nonempty = int(np.argmax(masses <= 0.0)) if np.any(masses <= 0.0) else masses.size
    if nonempty < masses.size:
        flags.append(f"empty windows below eps={eps[nonempty]:g}; fitted on prefix")
    if nonempty < 2:
        raise DegenerateFitError("not enough nonempty spectral windows to fit")
    # the log-log slope by ordinary least squares
    exponent = float(_line_fit(np.log(eps[:nonempty]), np.log(masses[:nonempty]),
                               np.ones(nonempty))[0])
    e = {"lambda0": p["lambda0"], "eps_list": eps, "masses": masses, "errs": errs,
         "exponent": exponent, "n_samples": p["samples"], "master_seed": ctx.master_seed,
         "flags": flags}
    outputs = {"exponent": exponent, "flags": flags, "estimate": e}
    series = {"eps": eps, "mass": masses, "err": errs, "n": p["samples"]}
    return outputs, series, lambda: (eps, masses, "window half-width", "mass",
                                     "spectral window mass", True, True)


# ---------------------------------------------------------------------------
# eigenfunction correlators and dynamics


def _distance_profile(ctx: _SampleCtx, values) -> dict:
    """The estimate of per-sample target values, shape (samples, n_sites),
    against graph distance from x0."""
    p = ctx.params
    mean, _, err = _group_stats(values)
    return {
        "x0": p["x0"],
        "interval": p["interval"],
        "g": ctx.model.g,
        "distances": distances_from(ctx.topo, p["x0"]),
        "means": mean,
        "errs": err,
        "n_samples": len(values),
        "master_seed": ctx.master_seed,
    }


def _cluster_blocks_all_targets(vals, vecs, k: int, interval, x0: int):
    """(nus, blocks) for the window clusters nu of eigenpairs (vals, vecs) with
    k x k site blocks: nus[c] is cluster c's mean eigenvalue, shape (C,), and
    blocks[c, y] = M_nu(x0, y) = sum_{j in nu} psi_j(x0) psi_j(y)*, (C, N, k, k).

    One reduceat over the outer products of the window columns, split at the
    cluster starts.  blocks is C-contiguous: numpy then sums over its cluster
    axis row by row, in the order of a loop over the clusters.
    """
    n_sites = vals.size // k
    cols, starts = cluster_indices(vals, interval)
    if not starts.size:  # reduceat needs at least one start
        return np.zeros(0), np.zeros((0, n_sites, k, k), dtype=np.complex128)
    u = vecs[:, cols]  # (N k, W)
    v = u.reshape(n_sites, k, cols.size)
    # einsum's products, not a broadcast multiply (which rounds some complex
    # products differently): each block is then bit for bit an einsum over
    # its own cluster's columns
    outer = np.einsum("aj,nbj->jnab", u[x0 * k:(x0 + 1) * k], v.conj())  # (W, N, k, k)
    blocks = np.ascontiguousarray(np.add.reduceat(outer, starts, axis=0))
    nus = np.add.reduceat(vals[cols], starts) / np.diff(starts, append=cols.size)
    return nus, blocks


def correlator_targets(vals, vecs, k: int, interval, x0: int) -> np.ndarray:
    """Q_hat(x0, y), the sum over window clusters of ||M_nu(x0, y)|| (at most
    k), for every site y."""
    return opnorm_batch(_cluster_blocks_all_targets(vals, vecs, k, interval, x0)[1]).sum(axis=0)


def default_t_grid(spectral_width: float, points: int = T_GRID_POINTS) -> np.ndarray:
    """points times on [0, T_GRID_CYCLES * 2 pi / width]; a grid sup is a
    lower bound for the true sup over t and is recorded as such."""
    width = max(float(spectral_width), 1e-12)
    return np.linspace(0.0, T_GRID_CYCLES * 2.0 * math.pi / width, points)


def _dynamical_sup(nus, blocks, x0: int, t_grid) -> np.ndarray:
    """sup over the time grid of ||e^{i t H_I}(x0, y)|| for every y, from the
    cluster pass (nus, blocks): e^{i t H_I}(x0, y) is
    delta_{x0 y} + sum_nu (e^{i t nu} - 1) M_nu(x0, y), one (T x C) . (C x N k k)
    product for the whole grid."""
    t_grid = np.asarray(t_grid, dtype=np.float64)
    c, n_sites, k = blocks.shape[:3]
    w = np.exp(1j * np.outer(t_grid, nus)) - 1.0  # (T, C)
    ev = (w @ blocks.reshape(c, n_sites * k * k)).reshape(t_grid.size, n_sites, k, k)
    ev[:, x0] += np.eye(k, dtype=np.complex128)
    return opnorm_batch(ev).max(axis=0)


def _correlator_batch(ctx: _SampleCtx, indices) -> np.ndarray:
    interval, x0, k = ctx.params["interval"], ctx.params["x0"], ctx.model.k_ambient

    def targets(h):
        return records(q=[correlator_targets(vals, vecs, k, interval, x0)
                          for vals, vecs in zip(*hermitian_eig(h))])

    return solve_resampled(ctx, indices, targets)[0]


def correlator_decay_profile(ctx: _SampleCtx, pool=None, checkpoint_path=None) -> dict:
    """The correlator estimate: the disorder-averaged eigenfunction correlator
    against graph distance, and its largest sample value."""
    values = run_indexed(_correlator_batch, ctx, np.dtype([("q", "f8", ctx.topo.n_vertices)]),
                         ctx.params["samples"], pool, checkpoint_path)["q"]
    qmax = float(np.max(values)) if values.size else 0.0
    return {**_distance_profile(ctx, values), "max_correlator": qmax, "k": ctx.model.k_ambient}


def correlator(ctx: _SampleCtx, pool=None, outdir=None):
    """The correlator kind: the correlator profile, its decay-rate fit over
    the distances from d_min on, and the bound Q <= k."""
    p = ctx.params
    e = correlator_decay_profile(ctx, pool, checkpoint_path(outdir))
    outputs = {
        "fit": decay_rate_fit(e, p["d_min"]),
        "d_min": p["d_min"],
        "max_correlator": e["max_correlator"],
        "k_bound_ok": bool(e["max_correlator"] <= e["k"] + 1e-8),
        "estimate": e,
    }
    return outputs, *_distance_series("correlator", e, n=p["samples"])


def _dynamical_batch(ctx: _SampleCtx, indices) -> np.ndarray:
    interval, x0, k = ctx.params["interval"], ctx.params["x0"], ctx.model.k_ambient

    def targets(h):
        sups, qs = [], []
        for vals, vecs in zip(*hermitian_eig(h)):
            t_grid = default_t_grid(vals[-1] - vals[0], ctx.params["t_points"])
            nus, blocks = _cluster_blocks_all_targets(vals, vecs, k, interval, x0)
            sups.append(_dynamical_sup(nus, blocks, x0, t_grid))
            qs.append(opnorm_batch(blocks).sum(axis=0))
        return records(u=sups, q=qs)

    return solve_resampled(ctx, indices, targets)[0]


def dynamical(ctx: _SampleCtx, pool=None, outdir=None):
    """The dynamical kind: the disorder-averaged sup_t ||e^{i t H_I}(x0, y)||
    with correlator bounds.

    The estimate records the worst excess of the grid sup over 2 * Q_hat
    (should stay <= ~1e-8) and how often the unproven factor-1 bound also held.
    """
    p = ctx.params
    dtype = np.dtype([(field, "f8", ctx.topo.n_vertices) for field in ("u", "q")])
    recs = run_indexed(_dynamical_batch, ctx, dtype, p["samples"], pool, checkpoint_path(outdir))
    sups, qs = recs["u"], recs["q"]
    off = np.ones(ctx.topo.n_vertices, dtype=bool)
    off[p["x0"]] = False
    excess = float(np.max(sups[:, off] - 2.0 * qs[:, off])) if np.any(off) else 0.0
    factor1 = float(np.mean(sups[:, off] <= qs[:, off] + 1e-8)) if np.any(off) else 1.0
    e = {
        **_distance_profile(ctx, sups),
        "max_excess_over_2q": excess,
        "factor1_hold_fraction": factor1,
        "t_points": p["t_points"],
        "k": ctx.model.k_ambient,
    }
    outputs = {
        "max_excess_over_2q": excess,
        "factor1_hold_fraction": factor1,
        "bound_ok": bool(excess <= 1e-8),
        "estimate": e,
    }
    return outputs, *_distance_series("dynamical", e, n=p["samples"])
