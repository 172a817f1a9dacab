"""Monte Carlo estimators: fractional moment profiles, decay fits, density of
states, spectral window masses, eigenfunction correlators, and time-evolution
suprema.

Every estimator derives sample i's random stream from (master_seed, i), so
results are bit-identical for any worker count.  Aggregation reports the
plain mean (the quantity the decay bounds speak about) together with a
median-of-means companion and a group-based standard error over 16 contiguous
sample groups, which stays usable when resolvent norms have heavy tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .disorder import DisorderSpec, sample_vector
from .engine import run_indexed
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


def to_payload(estimate) -> dict:
    """JSON payload of an estimate dataclass: every field, lam written as
    "lambda", extras merged in."""
    out = {}
    for f in fields(estimate):
        value = getattr(estimate, f.name)
        if f.name == "extras":
            out.update(value)
        else:
            out["lambda" if f.name == "lam" else f.name] = _jsonable(value)
    return out


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

    ctx carries the operator family, its assembly plan and the per-kind
    params; batch_fn gets its samples' operators from solve_resampled.
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


@dataclass(eq=False)
class MomentEstimate:
    """Distance-indexed fractional moments of Green's-function blocks."""

    s: float
    lam: float
    eps: float
    g: float
    x0: int
    distances: np.ndarray  # graph distance of each target from x0
    means: np.ndarray
    moms: np.ndarray  # median-of-means companion estimate
    errs: np.ndarray  # group-based standard error of the mean
    n_samples: int
    resamples: int
    master_seed: int
    flags: tuple = ()


def _moment_batch(ctx: _SampleCtx, indices) -> list:
    p = ctx.params

    def moments(h):
        return opnorm_batch(resolvent_profile(h, p["lam"], p["eps"], p["x0"])) ** p["s"]

    rows, retries = solve_resampled(ctx, indices, moments)
    return [{"m": m.tolist(), "r": r} for m, r in zip(rows, retries)]


def fractional_moment_profile(
    model: ModelSpec,
    topo: LatticeBox,
    disorder: DisorderSpec,
    x0: int,
    s: float,
    lam: float,
    eps: float,
    samples: int,
    master_seed: int,
    workers: int = 1,
    checkpoint_path=None,
) -> MomentEstimate:
    """Mean of ||G_{lam + i eps}(x0, y)||^s over disorder, for every site y."""
    flags = []
    s_bound = decay_exponent_window(model.k, disorder.declared_alpha, disorder.declared_q)
    if s > s_bound + 1e-12:
        flags.append(f"s={s:g} above the decay-bound window {s_bound:g}")
    params = {"x0": int(x0), "s": float(s), "lam": float(lam), "eps": float(eps)}
    payloads = run_samples(
        _moment_batch, model, topo, disorder, master_seed, params, samples, workers,
        checkpoint_path,
    )
    values = np.asarray([p["m"] for p in payloads], dtype=np.float64)
    resamples = int(sum(p["r"] for p in payloads))
    if resamples > RESAMPLE_FLAG_FRACTION * samples:
        flags.append(f"excessive resamples: {resamples}")
    mean, mom, err = _group_stats(values)
    return MomentEstimate(
        s=float(s),
        lam=float(lam),
        eps=float(eps),
        g=model.g,
        x0=int(x0),
        distances=distances_from(topo, x0),
        means=mean,
        moms=mom,
        errs=err,
        n_samples=samples,
        resamples=resamples,
        master_seed=int(master_seed),
        flags=tuple(flags),
    )


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


def decay_rate_fit(est, d_min: int = 1) -> dict:
    """Weighted least squares of log(bin mean) against distance.

    rate is reported positive for decay; weights are bin populations.
    Accepts any estimate carrying .distances and .means.
    """
    ds, bm, pop = bin_by_distance(est.distances, est.means, d_min=d_min)
    if bm.size and np.all(bm == 0.0):
        raise DegenerateFitError("all distance-bin means are zero")
    good = bm > 0.0
    ds, bm, pop = ds[good], bm[good], pop[good]
    if ds.size < 3:
        raise DegenerateFitError("decay fit needs >= 3 distinct distances with positive means")
    x = ds.astype(np.float64)
    y = np.log(bm)
    w = pop.astype(np.float64)
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
    return {"rate": float(-slope), "intercept": float(intercept), "r2": r2}


def moment_max_check(est: MomentEstimate):
    """Is the per-target maximum attained on the diagonal, within 2 error bars?"""
    i_max = int(np.argmax(est.means))
    m_max = float(est.means[i_max])
    m_diag = float(est.means[est.x0])
    combined = 2.0 * math.sqrt(float(est.errs[i_max]) ** 2 + float(est.errs[est.x0]) ** 2)
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


@dataclass(eq=False)
class IdsEstimate:
    edges: np.ndarray
    masses: np.ndarray  # mean normalized counting measure per bin; sums to 1
    errs: np.ndarray
    n_samples: int
    master_seed: int


def _ids_batch(ctx: _SampleCtx, indices) -> list:
    vals = np.asarray(_eigvals_batch(ctx, indices))
    edges = ctx.params["edges"]
    nbins = edges.size - 1
    # np.histogram's bins (the last one closed), eigenvalues beyond the edges
    # clipped into the boundary bins
    bins = np.clip(np.searchsorted(edges, vals, side="right") - 1, 0, nbins - 1)
    bins += nbins * np.arange(len(indices))[:, None]
    counts = np.bincount(bins.ravel(), minlength=len(indices) * nbins).reshape(-1, nbins)
    return [{"c": c.tolist()} for c in counts]


def ids_histogram(
    model, topo, disorder, samples, edges, master_seed, workers=1, checkpoint_path=None
) -> IdsEstimate:
    """Disorder-averaged normalized eigenvalue counting measure on bins.

    Eigenvalues falling outside the edge range are clipped into the boundary
    bins, so the masses sum to one exactly (up to float summation).
    """
    edges = np.asarray(edges, dtype=np.float64)
    payloads = run_samples(
        _ids_batch, model, topo, disorder, master_seed, {"edges": edges}, samples, workers,
        checkpoint_path,
    )
    dim = topo.n_vertices * model.k_ambient
    counts = np.asarray([p["c"] for p in payloads], dtype=np.float64) / dim
    mean, _, err = _group_stats(counts)
    return IdsEstimate(
        edges=edges, masses=mean, errs=err, n_samples=samples, master_seed=int(master_seed)
    )


@dataclass(eq=False)
class WegnerEstimate:
    lambda0: float
    eps_list: np.ndarray  # descending
    masses: np.ndarray
    errs: np.ndarray
    exponent: float
    n_samples: int
    master_seed: int
    flags: tuple = ()


def fit_power_law(eps_values, masses) -> float:
    """Slope of log(mass) against log(eps) by ordinary least squares."""
    x = np.log(np.asarray(eps_values, dtype=np.float64))
    y = np.log(np.asarray(masses, dtype=np.float64))
    xbar, ybar = np.mean(x), np.mean(y)
    return float(np.sum((x - xbar) * (y - ybar)) / np.sum((x - xbar) ** 2))


def _window_batch(ctx: _SampleCtx, indices) -> list:
    vals = np.asarray(_eigvals_batch(ctx, indices))[:, None, :]
    lam0, eps = ctx.params["lambda0"], ctx.params["eps_list"][:, None]
    counts = np.sum((vals >= lam0 - eps) & (vals <= lam0 + eps), axis=-1)
    return [{"c": c.tolist()} for c in counts]


def wegner_exponent(
    model,
    topo,
    disorder,
    lambda0,
    eps_list,
    samples,
    master_seed,
    workers=1,
    checkpoint_path=None,
) -> WegnerEstimate:
    """Normalized counting-measure masses of [lambda0 - eps, lambda0 + eps]
    and the log-log slope across the eps grid (the local Holder exponent)."""
    eps_arr = np.sort(np.asarray(eps_list, dtype=np.float64))[::-1].copy()
    flags = []
    if eps_arr[0] / eps_arr[-1] < 10.0 - 1e-9:
        flags.append(f"eps grid spans only {eps_arr[0] / eps_arr[-1]:.1f}x (< one decade)")
    params = {"lambda0": float(lambda0), "eps_list": eps_arr}
    payloads = run_samples(
        _window_batch, model, topo, disorder, master_seed, params, samples, workers,
        checkpoint_path,
    )
    counts = np.asarray([p["c"] for p in payloads], dtype=np.float64)
    expected = np.mean(counts[:, 0])
    if expected < 50.0:
        flags.append(f"largest window holds {expected:.1f} eigenvalues on average (< 50)")
    masses, _, errs = _group_stats(counts / (topo.n_vertices * model.k_ambient))
    nonempty = int(np.argmax(masses <= 0.0)) if np.any(masses <= 0.0) else masses.size
    if nonempty < masses.size:
        flags.append(f"empty windows below eps={eps_arr[nonempty]:g}; fitted on prefix")
    if nonempty < 2:
        raise DegenerateFitError("not enough nonempty spectral windows to fit")
    exponent = fit_power_law(eps_arr[:nonempty], masses[:nonempty])
    return WegnerEstimate(
        lambda0=float(lambda0),
        eps_list=eps_arr,
        masses=masses,
        errs=errs,
        exponent=exponent,
        n_samples=samples,
        master_seed=int(master_seed),
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# eigenfunction correlators and dynamics


@dataclass(eq=False)
class DistanceProfile:
    """Generic distance-indexed means (correlator / dynamical suites)."""

    x0: int
    interval: tuple
    g: float
    distances: np.ndarray
    means: np.ndarray
    errs: np.ndarray
    n_samples: int
    master_seed: int
    extras: dict = field(default_factory=dict)


def _distance_profile(model, topo, interval, x0, values, master_seed, extras) -> DistanceProfile:
    """Profile of per-sample target values, shape (samples, n_sites), from x0."""
    mean, _, err = _group_stats(values)
    return DistanceProfile(
        x0=int(x0),
        interval=interval,
        g=model.g,
        distances=distances_from(topo, x0),
        means=mean,
        errs=err,
        n_samples=len(values),
        master_seed=int(master_seed),
        extras=extras,
    )


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
    model,
    topo,
    disorder,
    interval,
    samples,
    master_seed,
    x0: int = 0,
    workers: int = 1,
    checkpoint_path=None,
) -> DistanceProfile:
    """Disorder-averaged eigenfunction correlator against graph distance."""
    interval = (float(interval[0]), float(interval[1]))
    payloads = run_samples(
        _correlator_batch, model, topo, disorder, master_seed,
        {"interval": interval, "x0": int(x0)}, samples, workers, checkpoint_path,
    )
    values = np.asarray([p["q"] for p in payloads], dtype=np.float64)
    qmax = float(np.max(values)) if values.size else 0.0
    extras = {"max_correlator": qmax, "k": model.k_ambient}
    return _distance_profile(model, topo, interval, x0, values, master_seed, extras)


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


def dynamical_profile(
    model,
    topo,
    disorder,
    interval,
    samples,
    master_seed,
    x0: int = 0,
    t_points: int = T_GRID_POINTS,
    workers: int = 1,
    checkpoint_path=None,
) -> DistanceProfile:
    """Disorder-averaged sup_t ||e^{i t H_I}(x0, y)|| with correlator bounds.

    extras records the worst excess of the grid sup over 2 * Q_hat (should
    stay <= ~1e-8) and how often the unproven factor-1 bound also held.
    """
    interval = (float(interval[0]), float(interval[1]))
    params = {"interval": interval, "x0": int(x0), "t_points": int(t_points)}
    payloads = run_samples(
        _dynamical_batch, model, topo, disorder, master_seed, params, samples, workers,
        checkpoint_path,
    )
    sups = np.asarray([p["u"] for p in payloads], dtype=np.float64)
    qs = np.asarray([p["q"] for p in payloads], dtype=np.float64)
    off = np.ones(topo.n_vertices, dtype=bool)
    off[int(x0)] = False
    excess = float(np.max(sups[:, off] - 2.0 * qs[:, off])) if np.any(off) else 0.0
    factor1 = float(np.mean(sups[:, off] <= qs[:, off] + 1e-8)) if np.any(off) else 1.0
    extras = {
        "max_excess_over_2q": excess,
        "factor1_hold_fraction": factor1,
        "t_points": int(t_points),
        "k": model.k_ambient,
    }
    return _distance_profile(model, topo, interval, x0, sups, master_seed, extras)
