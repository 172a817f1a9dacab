"""Monte Carlo estimators: fractional moment profiles, decay fits, density of
states, spectral window masses, eigenfunction correlators, and time-evolution
suprema.

Each experiment kind but inequalities (see fmlab.inequalities) is one
function here, kind(p, model, topo, disorder, master_seed, workers=1,
outdir=None) -> (outputs, rows): p holds the kind's parsed estimator fields
(runner's field tables) and is the context every sample reads, outputs is
what results.json holds and rows are its series rows.  An estimate is a
plain dict whose arrays stay numpy until the record is written.  decay and
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
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderSpec, sample_vector
from .engine import checkpoint_path, run_indexed
from .errors import DegenerateFitError, NumericalError, ResampleSignal
from .model import ModelSpec, assemble, assembly_plan, decay_exponent_window
from .numerics import (
    SpectralDecomposition,
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


def _jsonable(x):
    """Arrays, tuples and lists as lists and dicts as dicts, recursively;
    non-finite reals as strings (strict JSON has no NaN or Infinity
    literal), numpy scalars as Python numbers."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (np.ndarray, tuple, list)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (float, np.floating)) and not math.isfinite(x):
        return repr(float(x))
    return x.item() if isinstance(x, np.generic) else x


def _series(columns, *constants) -> list:
    """Series rows of the equal-length array columns, each followed by the constants."""
    return [[*row, *constants] for row in zip(*(np.asarray(c).tolist() for c in columns))]


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
    """(mean, median-of-means, group-based standard error) along axis 0."""
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

STACK_BYTES = 512 * 1024  # matrices assembled and factored as one stack, at least one


@dataclass(eq=False)
class _SampleCtx:
    model: ModelSpec
    topo: LatticeBox
    disorder: DisorderSpec
    master_seed: int
    params: dict
    plan: object


def run_samples(
    batch_fn, model, topo, disorder, master_seed, params, samples, workers=1, checkpoint_path=None
) -> list:
    """Payloads of samples 0..samples-1 from batch_fn(ctx, indices) (see run_indexed).

    ctx carries the operator family, its assembly plan and params (a kind's
    parsed estimator fields p, with the few an inequalities check sets per
    call); batch_fn gets its operators, if it needs any, from solve_resampled.
    """
    plan = assembly_plan(model, topo)
    ctx = _SampleCtx(model, topo, disorder, int(master_seed), params, plan)
    return run_indexed(batch_fn, ctx, samples, workers, checkpoint_path)


def solve_resampled(ctx: _SampleCtx, indices, solve):
    """(results, retries) for a list of sample indices.

    Sample i's operator is drawn and assembled from its own (master_seed, i)
    stream.  solve(h) gets a stack h of operators, at most STACK_BYTES of
    matrices but at least one, and returns one result per member (anything
    indexable by member); results[j] is indices[j]'s.  A ResampleSignal (an
    exactly singular solve, measure zero for continuous disorder) redraws
    only the singular members, each from the next words of its own stream,
    and retries[j] counts indices[j]'s redraws; after MAX_RETRIES redraws a
    sample fails with NumericalError.
    """
    n = ctx.topo.n_vertices
    dim = n * ctx.model.k_ambient
    per_stack = max(1, STACK_BYTES // (16 * dim * dim))  # complex128 matrices
    results = [None] * len(indices)
    retries = [0] * len(indices)
    pending = np.arange(len(indices))  # positions in indices still without a result
    stream = Stream(derive_sample_seed(ctx.master_seed, np.asarray(indices, dtype=np.uint64)))
    for attempt in range(MAX_RETRIES + 1):
        v = sample_vector(ctx.disorder, stream, n)
        singular = np.zeros(pending.size, dtype=bool)
        for lo in range(0, pending.size, per_stack):
            rows = np.arange(lo, min(lo + per_stack, pending.size))
            while rows.size:
                try:
                    out = solve(assemble(ctx.model, ctx.topo, v[rows], ctx.plan))
                except ResampleSignal as sig:
                    # each member gets the LAPACK call it would get alone, so some member
                    # fails alone; should none, redraw the whole stack rather than loop
                    bad = sig.members | ~np.any(sig.members)
                    singular[rows[bad]] = True
                    rows = rows[~bad]
                    continue
                for j, row in enumerate(rows):
                    results[pending[row]] = out[j]
                    retries[pending[row]] = attempt
                break
        if not np.any(singular):
            return results, retries
        pending = pending[singular]
        stream = Stream(stream.state[singular], stream.pos)
    failed = assemble(ctx.model, ctx.topo, v[int(np.argmax(singular))], ctx.plan)
    raise NumericalError("persistent singular factorization", failed.digest)


def _eigvals_batch(ctx: _SampleCtx, indices) -> list:
    return solve_resampled(ctx, indices, hermitian_eigvals)[0]


# ---------------------------------------------------------------------------
# fractional moments and decay fits


def _moment_batch(ctx: _SampleCtx, indices) -> list:
    p = ctx.params

    def moments(h):
        return opnorm_batch(resolvent_profile(h, p["lambda"], p["eps"], p["x0"])) ** p["s"]

    rows, retries = solve_resampled(ctx, indices, moments)
    return [{"m": m.tolist(), "r": r} for m, r in zip(rows, retries)]


def fractional_moment_profile(
    p, model, topo, disorder, master_seed, workers=1, checkpoint_path=None
) -> dict:
    """The decay estimate: the mean of ||G_{lambda + i eps}(x0, y)||^s over
    disorder for every site y, eps "auto" taken from default_eps."""
    if p["eps"] == "auto":
        p = {**p, "eps": default_eps(model, topo, disorder, master_seed)}
    flags = []
    s_bound = decay_exponent_window(model.k, disorder.declared_alpha, disorder.declared_q)
    if p["s"] > s_bound + 1e-12:
        flags.append(f"s={p['s']:g} above the decay-bound window {s_bound:g}")
    samples = p["samples"]
    payloads = run_samples(
        _moment_batch, model, topo, disorder, master_seed, p, samples, workers, checkpoint_path
    )
    values = np.asarray([q["m"] for q in payloads], dtype=np.float64)
    resamples = int(sum(q["r"] for q in payloads))
    if resamples > RESAMPLE_FLAG_FRACTION * samples:
        flags.append(f"excessive resamples: {resamples}")
    mean, mom, err = _group_stats(values)
    return {
        "s": p["s"],
        "lambda": p["lambda"],
        "eps": p["eps"],
        "g": model.g,
        "x0": p["x0"],
        "distances": distances_from(topo, p["x0"]),  # graph distance of each target from x0
        "means": mean,
        "moms": mom,  # median-of-means companion estimate
        "errs": err,  # group-based standard error of the mean
        "n_samples": samples,
        "resamples": resamples,
        "master_seed": master_seed,
        "flags": flags,
    }


def decay(p, model, topo, disorder, master_seed, workers=1, outdir=None):
    """The decay kind: the fractional-moment profile, its decay-rate fit over
    the distances from d_min on, and the diagonal-maximum check."""
    e = fractional_moment_profile(
        p, model, topo, disorder, master_seed, workers, checkpoint_path(outdir)
    )
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
    return outputs, _series((e["distances"], e["means"], e["errs"]), p["samples"], e["resamples"])


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


def default_eps(model, topo, disorder, master_seed) -> float:
    """Resolvent smoothing default: 1e-3 * spectral width / matrix dimension.

    Uses the spectrum of sample 0; recorded per experiment, since the i0
    limit itself is not computable.
    """
    vals = run_samples(_eigvals_batch, model, topo, disorder, master_seed, {}, 1)[0]
    width = max(float(vals[-1] - vals[0]), 1e-12)
    return 1e-3 * width / vals.size


# ---------------------------------------------------------------------------
# density of states and spectral-window masses


def _ids_batch(ctx: _SampleCtx, indices) -> list:
    vals = np.asarray(_eigvals_batch(ctx, indices))
    edges = ctx.params["bins"]
    nbins = edges.size - 1
    # np.histogram's bins (the last one closed), eigenvalues beyond the edges
    # clipped into the boundary bins
    bins = np.clip(np.searchsorted(edges, vals, side="right") - 1, 0, nbins - 1)
    bins += nbins * np.arange(len(indices))[:, None]
    counts = np.bincount(bins.ravel(), minlength=len(indices) * nbins).reshape(-1, nbins)
    return [{"c": c.tolist()} for c in counts]


def ids(p, model, topo, disorder, master_seed, workers=1, outdir=None):
    """The ids kind: the disorder-averaged normalized eigenvalue counting
    measure on the bins whose edges are p["bins"].

    Eigenvalues falling outside the edge range are clipped into the boundary
    bins, so the masses sum to one exactly (up to float summation).
    """
    edges = p["bins"]
    payloads = run_samples(
        _ids_batch, model, topo, disorder, master_seed, p, p["samples"], workers,
        checkpoint_path(outdir),
    )
    dim = topo.n_vertices * model.k_ambient
    counts = np.asarray([q["c"] for q in payloads], dtype=np.float64) / dim
    masses, _, errs = _group_stats(counts)
    e = {"edges": edges, "masses": masses, "errs": errs, "n_samples": p["samples"],
         "master_seed": master_seed}
    outputs = {"total_mass": float(np.sum(masses)), "estimate": e}
    return outputs, _series((edges[:-1], edges[1:], masses, errs))


def _window_batch(ctx: _SampleCtx, indices) -> list:
    vals = np.asarray(_eigvals_batch(ctx, indices))[:, None, :]
    lam0, eps = ctx.params["lambda0"], ctx.params["eps_list"][:, None]
    counts = np.sum((vals >= lam0 - eps) & (vals <= lam0 + eps), axis=-1)
    return [{"c": c.tolist()} for c in counts]


def wegner(p, model, topo, disorder, master_seed, workers=1, outdir=None):
    """The wegner kind: normalized counting-measure masses of [lambda0 - eps,
    lambda0 + eps] for each eps of p["eps_list"] (an array, descending), and
    the log-log slope across them (the local Holder exponent)."""
    eps = p["eps_list"]
    flags = []
    if eps[0] / eps[-1] < 10.0 - 1e-9:
        flags.append(f"eps grid spans only {eps[0] / eps[-1]:.1f}x (< one decade)")
    payloads = run_samples(
        _window_batch, model, topo, disorder, master_seed, p, p["samples"], workers,
        checkpoint_path(outdir),
    )
    counts = np.asarray([q["c"] for q in payloads], dtype=np.float64)
    expected = np.mean(counts[:, 0])
    if expected < 50.0:
        flags.append(f"largest window holds {expected:.1f} eigenvalues on average (< 50)")
    masses, _, errs = _group_stats(counts / (topo.n_vertices * model.k_ambient))
    nonempty = int(np.argmax(masses <= 0.0)) if np.any(masses <= 0.0) else masses.size
    if nonempty < masses.size:
        flags.append(f"empty windows below eps={eps[nonempty]:g}; fitted on prefix")
    if nonempty < 2:
        raise DegenerateFitError("not enough nonempty spectral windows to fit")
    # the log-log slope by ordinary least squares
    exponent = float(_line_fit(np.log(eps[:nonempty]), np.log(masses[:nonempty]),
                               np.ones(nonempty))[0])
    e = {"lambda0": p["lambda0"], "eps_list": eps, "masses": masses, "errs": errs,
         "exponent": exponent, "n_samples": p["samples"], "master_seed": master_seed,
         "flags": flags}
    outputs = {"exponent": exponent, "flags": flags, "estimate": e}
    return outputs, _series((eps, masses, errs), p["samples"])


# ---------------------------------------------------------------------------
# eigenfunction correlators and dynamics


def _distance_profile(p, model, topo, values, master_seed) -> dict:
    """The estimate of per-sample target values, shape (samples, n_sites),
    against graph distance from x0."""
    mean, _, err = _group_stats(values)
    return {
        "x0": p["x0"],
        "interval": p["interval"],
        "g": model.g,
        "distances": distances_from(topo, p["x0"]),
        "means": mean,
        "errs": err,
        "n_samples": len(values),
        "master_seed": master_seed,
    }


def _cluster_blocks_all_targets(sd: SpectralDecomposition, interval, x0: int):
    """(nus, blocks) for the window clusters nu of one decomposition: nus[c] is
    cluster c's mean eigenvalue, shape (C,), and blocks[c, y] is
    M_nu(x0, y) = sum_{j in nu} psi_j(x0) psi_j(y)*, shape (C, N, k, k).

    One reduceat over the outer products of the window columns, split at the
    cluster starts.  blocks is C-contiguous: numpy then sums over its cluster
    axis row by row, in the order of a loop over the clusters.
    """
    k, n_sites = sd.k, sd.n_sites
    cols, starts = cluster_indices(sd, interval)
    if not starts.size:  # reduceat needs at least one start
        return np.zeros(0), np.zeros((0, n_sites, k, k), dtype=np.complex128)
    u = sd.eigenvectors[:, cols]  # (N k, W)
    v = u.reshape(n_sites, k, cols.size)
    # einsum's products, not a broadcast multiply (which rounds some complex
    # products differently): each block is then bit for bit an einsum over
    # its own cluster's columns
    outer = np.einsum("aj,nbj->jnab", u[sd.site_rows(x0)], v.conj())  # (W, N, k, k)
    blocks = np.ascontiguousarray(np.add.reduceat(outer, starts, axis=0))
    nus = np.add.reduceat(sd.eigenvalues[cols], starts) / np.diff(starts, append=cols.size)
    return nus, blocks


def correlator_targets(sd: SpectralDecomposition, interval, x0: int) -> np.ndarray:
    """Q_hat(x0, y), the sum over window clusters of ||M_nu(x0, y)|| (at most
    k), for every site y."""
    return opnorm_batch(_cluster_blocks_all_targets(sd, interval, x0)[1]).sum(axis=0)


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


def _correlator_batch(ctx: _SampleCtx, indices) -> list:
    interval, x0 = ctx.params["interval"], ctx.params["x0"]

    def targets(h):
        return [{"q": correlator_targets(sd, interval, x0).tolist()} for sd in hermitian_eig(h)]

    return solve_resampled(ctx, indices, targets)[0]


def correlator_decay_profile(
    p, model, topo, disorder, master_seed, workers=1, checkpoint_path=None
) -> dict:
    """The correlator estimate: the disorder-averaged eigenfunction correlator
    against graph distance, and its largest sample value."""
    payloads = run_samples(
        _correlator_batch, model, topo, disorder, master_seed, p, p["samples"], workers,
        checkpoint_path,
    )
    values = np.asarray([q["q"] for q in payloads], dtype=np.float64)
    qmax = float(np.max(values)) if values.size else 0.0
    return {**_distance_profile(p, model, topo, values, master_seed),
            "max_correlator": qmax, "k": model.k_ambient}


def correlator(p, model, topo, disorder, master_seed, workers=1, outdir=None):
    """The correlator kind: the correlator profile, its decay-rate fit over
    the distances from d_min on, and the bound Q <= k."""
    e = correlator_decay_profile(
        p, model, topo, disorder, master_seed, workers, checkpoint_path(outdir)
    )
    outputs = {
        "fit": decay_rate_fit(e, p["d_min"]),
        "d_min": p["d_min"],
        "max_correlator": e["max_correlator"],
        "k_bound_ok": bool(e["max_correlator"] <= e["k"] + 1e-8),
        "estimate": e,
    }
    return outputs, _series((e["distances"], e["means"], e["errs"]), p["samples"])


def _dynamical_batch(ctx: _SampleCtx, indices) -> list:
    interval, x0 = ctx.params["interval"], ctx.params["x0"]

    def targets(h):
        out = []
        for sd in hermitian_eig(h):
            t_grid = default_t_grid(sd.spectral_width, ctx.params["t_points"])
            nus, blocks = _cluster_blocks_all_targets(sd, interval, x0)
            sup = _dynamical_sup(nus, blocks, x0, t_grid)
            q = opnorm_batch(blocks).sum(axis=0)
            out.append({"u": sup.tolist(), "q": q.tolist()})
        return out

    return solve_resampled(ctx, indices, targets)[0]


def dynamical(p, model, topo, disorder, master_seed, workers=1, outdir=None):
    """The dynamical kind: the disorder-averaged sup_t ||e^{i t H_I}(x0, y)||
    with correlator bounds.

    The estimate records the worst excess of the grid sup over 2 * Q_hat
    (should stay <= ~1e-8) and how often the unproven factor-1 bound also held.
    """
    payloads = run_samples(
        _dynamical_batch, model, topo, disorder, master_seed, p, p["samples"], workers,
        checkpoint_path(outdir),
    )
    sups = np.asarray([q["u"] for q in payloads], dtype=np.float64)
    qs = np.asarray([q["q"] for q in payloads], dtype=np.float64)
    off = np.ones(topo.n_vertices, dtype=bool)
    off[p["x0"]] = False
    excess = float(np.max(sups[:, off] - 2.0 * qs[:, off])) if np.any(off) else 0.0
    factor1 = float(np.mean(sups[:, off] <= qs[:, off] + 1e-8)) if np.any(off) else 1.0
    e = {
        **_distance_profile(p, model, topo, sups, master_seed),
        "max_excess_over_2q": excess,
        "factor1_hold_fraction": factor1,
        "t_points": p["t_points"],
        "k": model.k_ambient,
    }
    outputs = {
        "max_excess_over_2q": excess,
        "factor1_hold_fraction": factor1,
        "bound_ok": bool(excess <= 1e-8),
        "estimate": e,
    }
    return outputs, _series((e["distances"], e["means"], e["errs"]), p["samples"])
