"""Direct numerical verification of the decoupling machinery.

Covers the one-step resolvent bound, the decoupling ratio for block and
alloy potentials, the inverse-potential fractional moment, the two-sided
polynomial-ratio comparison against prod(1+|a_j|)^s / prod(1+|b_i|)^r, and
the multivariate reverse-Holder inequality for Cramer's-rule entries.
inequalities() is the experiment kind that runs them all, with the
signature of the kinds in fmlab.estimators, kind(ctx, pool, outdir) ->
(outputs, series, plot): its series has one row per comparability draw,
and its plot is None, since the draws have no 1-D axis.

Each check has the shape of a kind: check(ctx, pool=None,
checkpoint_path=None) returns its results.json entry, where ctx is the
run's sample context with the check's own master seed and the few params
the kind sets per call (x and y for a pair, param_scale for a scale), and
pool is the run's one engine.Pool, which all the kind's scans share.  Every
scan runs on run_indexed, so its draws come from per-index derived streams:
deterministic, and parallel like the Monte Carlo estimators, with records
declared in the same way.  Quadrature values carry explicit error bounds.
Every check computes on whole numpy arrays, its powers with numpy's **.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .disorder import (DisorderSpec, abs_moment_tail, density, sample_vector,
                       singular_points, support)
from .engine import canonical_json, checkpoint_path, records, run_indexed
from .errors import ConfigurationError, NumericalError
from .model import decay_exponent_window
from .numerics import opnorm_batch, resolvent_profile
from .quadrature import integrate_batch
from .rng import Stream, derive_sample_seed
from .estimators import _group_stats, _SampleCtx, solve_resampled

_TAIL_REL = 1e-8  # target tail contribution relative to the comparability target
_SCAN_REL_TOL = 1e-7  # quadrature tolerance of comparability_scan
_RH_DRAWS = 20000  # disorder draws per reverse-Holder trial
_RH_PARAM_SCALE = 2.0  # reverse-Holder potential offsets lie in [-scale, scale]
_RH = np.dtype([("ratio", "f8"), ("m_s", "f8"), ("m_s2", "f8"), ("lambda", "f8"), ("hop", "f8")])


def _targets(a: np.ndarray, b: np.ndarray, s: float, r: float) -> np.ndarray:
    """prod_j (1 + |a_j|)^s / prod_i (1 + |b_i|)^r of every row of the points
    a, shape (rows, l), and b, shape (rows, m); an empty product is 1."""
    return np.prod((1.0 + np.abs(a)) ** s, axis=1) / np.prod((1.0 + np.abs(b)) ** r, axis=1)


def _ratio_integrand(measure: DisorderSpec, a: np.ndarray, b: np.ndarray, s: float, r: float):
    """f(rows, v) = density(v) prod_j |v - a[row, j]|^s / prod_i |v - b[row, i]|^r."""

    def f(rows, v):
        out = density(measure, v)
        for j in range(a.shape[1]):
            out = out * np.abs(v - a[rows, j]) ** s
        for i in range(b.shape[1]):
            out = out / np.abs(v - b[rows, i]) ** r
        return out

    return f


def _integration_domain(measure: DisorderSpec, a, b, s: float, r: float, target: float):
    """(lo, hi, tail_bound) of one row's ratio integral, points a and b and
    comparability target, with the tail below _TAIL_REL of the target."""
    lo, hi = support(measure)
    if math.isfinite(lo) and math.isfinite(hi):
        return lo, hi, 0.0
    sl = s * len(a)
    rm = r * len(b)
    pmax = max([1.0] + [abs(x) for x in a] + [abs(x) for x in b])
    goal = _TAIL_REL * target + 1e-300
    t = 2.0 * pmax
    for _ in range(200):
        bound = 1.5**sl * 2.0**rm * t ** (-rm) * abs_moment_tail(measure, sl, t)
        if bound <= goal:
            return -t, t, bound
        t *= 2.0
    raise NumericalError("could not truncate the measure tail (check moment assumptions)")


def _ratio_integrals(measure: DisorderSpec, a: np.ndarray, b: np.ndarray, s: float, r: float,
                     rel_tol: float):
    """(value, error_bound, target) arrays of the integrals of
    prod_j |v - a_j|^s / prod_i |v - b_i|^r against measure, one per row of
    the complex points a, shape (rows, l), and b, shape (rows, m), integrated
    in one batch.

    Panel boundaries are forced at every real singular point; unbounded
    measures are truncated where the q-moment tail bound drops below
    _TAIL_REL of the comparability target (added to error_bound).
    """
    target = _targets(a, b, s, r)
    items, tails = [], []
    for pa, pb, goal in zip(a.tolist(), b.tolist(), target.tolist()):
        lo, hi, tail = _integration_domain(measure, pa, pb, s, r, goal)
        sing = {pt.real for pt in (*pa, *pb) if pt.imag == 0.0 and lo < pt.real < hi}
        items.append((lo, hi, sorted(sing.union(singular_points(measure)))))
        tails.append(tail)
    with np.errstate(divide="ignore", over="ignore"):
        value, err = np.array(integrate_batch(_ratio_integrand(measure, a, b, s, r), items,
                                              rel_tol)).T
    return value, err + np.array(tails), target


def _complex_points(w: np.ndarray, scale: float) -> np.ndarray:
    """Points scale * w[:, 2k] * exp(2 pi i w[:, 2k+1]), shape (rows, k), from rows of uniforms."""
    radius, angle = scale * w[:, 0::2], 2.0 * math.pi * w[:, 1::2]
    return radius * np.cos(angle) + 1j * (radius * np.sin(angle))


def _comparability_batch(ctx: _SampleCtx, indices) -> np.ndarray:
    p = ctx.params
    stream = Stream(derive_sample_seed(ctx.master_seed, np.asarray(indices)))
    a = _complex_points(stream.uniforms(2 * p["l"]), p["param_scale"])
    b = _complex_points(stream.uniforms(2 * p["m"]), p["param_scale"])
    value, err, target = _ratio_integrals(ctx.disorder, a, b, p["s"], p["r"], _SCAN_REL_TOL)
    return records(a=np.stack([a.real, a.imag], -1), b=np.stack([b.real, b.imag], -1),  # [re, im]
                   lhs=value, rhs=target, ratio=value / target, error_bound=err)


def check_comparability_regime(measure: DisorderSpec, l: int, m: int, s: float, r: float):
    """Refuse point counts (l, m) and exponents (s, r) >= 0 outside the
    regime where the two-sided comparison holds for measure: r*m below alpha,
    and q at least (s*l + r*m) * alpha / (alpha - r*m)."""
    alpha, rm = measure.declared_alpha, r * m
    if rm >= alpha:
        raise ConfigurationError(f"r*m = {rm:g} must stay below alpha = {alpha:g}")
    if not measure.declared_q >= (s * l + rm) * alpha / (alpha - rm) - 1e-12:
        raise ConfigurationError("comparability regime violated: q too small for (s*l + r*m)")


def comparability_scan(ctx: _SampleCtx, pool=None, checkpoint_path=None):
    """(entry, records) over params["draws"] random draws of l points a_j and
    m points b_i of modulus below params["param_scale"]: the extremes of the
    ratio integral / target against the disorder measure with the failure
    count, and the draws' records.

    Both extremes must be positive and finite (a draw whose ratio is not is a
    failure); their spread estimates how far the two-sided comparison
    constants are from each other.
    """
    p = ctx.params
    dtype = np.dtype([("a", "f8", (p["l"], 2)), ("b", "f8", (p["m"], 2)), ("lhs", "f8"),
                      ("rhs", "f8"), ("ratio", "f8"), ("error_bound", "f8")])
    recs = run_indexed(_comparability_batch, ctx, dtype, p["draws"], pool, checkpoint_path)
    ratios = recs["ratio"]
    entry = {
        "ratio_min": float(np.min(ratios)),
        "ratio_max": float(np.max(ratios)),
        "failures": int(np.sum(~np.isfinite(ratios) | (ratios <= 0.0))),
    }
    return entry, recs


def vinv_moment(ctx: _SampleCtx) -> dict:
    """Monte Carlo estimate of < || (v A + B - lambda)^(-1) ||^vinv_s > over
    params["samples"] draws of v, for a block-type model.

    Draws with an exactly singular potential are redrawn (measure zero);
    near-singular draws contribute their huge but finite norm, which is the
    whole point of taking fractional powers.  All draws come from the one
    stream of (master_seed, 0), so the estimate stays off the engine.
    """
    p, model = ctx.params, ctx.model
    samples = p["samples"]
    stream = Stream(derive_sample_seed(ctx.master_seed, 0))
    shift = model.B - p["lambda"] * np.eye(model.k, dtype=np.complex128)
    values = np.empty(samples)
    resamples = 0
    filled = 0
    while filled < samples:
        draws = sample_vector(ctx.disorder, stream, samples - filled)
        smin = np.linalg.svd(draws[:, None, None] * model.A + shift, compute_uv=False)[:, -1]
        regular = smin[smin > 0.0]
        resamples += draws.size - regular.size
        if resamples > 1000:
            raise NumericalError("vinv_moment: persistent singular potential")
        values[filled:filled + regular.size] = regular ** -p["vinv_s"]  # ||V^-1|| = 1/sigma_min
        filled += regular.size
    mean, _, err = _group_stats(values)
    return {"value": float(mean), "err": float(err), "resamples": resamples}


def _one_step_batch(ctx: _SampleCtx, indices) -> np.ndarray:
    p = ctx.params
    x, y, s, lam, eps = p["x"], p["y"], p["one_step_s"], p["lambda"], p["eps"]
    k, scale = ctx.model.k_ambient, (ctx.model.c_b3 * ctx.model.coupling) ** s
    neighbors = list(ctx.topo.neighbors(y))
    sy = ctx.plan.diag[y]  # flat indices of site y's diagonal block in a member

    def sides(h):
        prof = resolvent_profile(h, k, lam, eps, x, ctx.plan.couple)
        vy = h.reshape(len(h), -1)[:, sy] - complex(lam, eps) * np.eye(k, dtype=np.complex128)
        return records(lhs=opnorm_batch(prof[:, y] @ vy) ** s,
                       rhs=scale * np.sum(opnorm_batch(prof[:, neighbors]) ** s, axis=-1)
                       + (1.0 if x == y else 0.0))

    return solve_resampled(ctx, indices, sides)[0]


def one_step_bound_check(ctx: _SampleCtx, pool=None, checkpoint_path=None):
    """One-step bound at the pair (x, y), exponent s = one_step_s:
    <||G(x,y)(V(y)-z)||^s> vs the neighbor-sum majorant, over
    params["samples"].

    The inequality holds per realization when s <= 1 (subadditivity of
    t^s); a failure here indicates a numerics bug, not statistics.
    """
    p = ctx.params
    dtype = np.dtype([("lhs", "f8"), ("rhs", "f8")])
    recs = run_indexed(_one_step_batch, ctx, dtype, p["samples"], pool, checkpoint_path)
    lhs, rhs = recs["lhs"], recs["rhs"]
    lm, _, le = _group_stats(lhs)
    rm_, _, re_ = _group_stats(rhs)
    sigma = math.sqrt(float(le) ** 2 + float(re_) ** 2)
    return {
        "x": p["x"],
        "y": p["y"],
        "lhs": float(lm),
        "rhs": float(rm_),
        "sigma": sigma,
        "pass": bool(lm <= rm_ + 3.0 * sigma),
        "pointwise_violations": int(np.sum(lhs > rhs + 1e-9 * (1.0 + np.abs(rhs)))),
    }


def _decoupling_batch(ctx: _SampleCtx, indices) -> np.ndarray:
    p = ctx.params
    x, y, s, eps, k = p["x"], p["y"], p["decoupling_s"], p["eps"], ctx.model.k_ambient
    sy, eye = ctx.plan.diag[y], np.eye(k, dtype=np.complex128)  # site y's block, as above

    def terms(h):
        nums, dens = [], []
        hy = h.reshape(len(h), -1)[:, sy]
        for lam in p["lambda_grid"]:
            gxy = resolvent_profile(h, k, lam, eps, x, ctx.plan.couple)[:, y]
            vy = hy - complex(lam, eps) * eye
            nums.append(opnorm_batch(gxy @ vy))
            dens.append(opnorm_batch(gxy))
        return records(num=np.stack(nums, -1) ** s, den=np.stack(dens, -1) ** s)

    return solve_resampled(ctx, indices, terms)[0]


def decoupling_ratio(ctx: _SampleCtx, pool=None, checkpoint_path=None):
    """Decoupling ratio at the pair (x, y), exponent s = decoupling_s, for
    each lambda of lambda_grid: <||G(V-z)||^s> / (<||G||^s> (1+|lambda|)^s).

    The decoupling bound guarantees a positive floor for the ratio, not a
    specific constant; callers assert positivity and stability.
    """
    p, dis = ctx.params, ctx.disorder
    s = p["decoupling_s"]
    flags = []
    s_bound = decay_exponent_window(ctx.model.k, dis.declared_alpha, dis.declared_q)
    if s > s_bound + 1e-12:
        flags.append(f"s={s:g} above decoupling window {s_bound:g}")
    dtype = np.dtype([(field, "f8", len(p["lambda_grid"])) for field in ("num", "den")])
    recs = run_indexed(_decoupling_batch, ctx, dtype, p["samples"], pool, checkpoint_path)
    nums, dens = recs["num"], recs["den"]
    out = []
    for j, lam in enumerate(p["lambda_grid"]):
        nmean, _, nerr = _group_stats(nums[:, j])
        dmean, _, derr = _group_stats(dens[:, j])
        scaled = float(dmean) * (1.0 + abs(lam)) ** s
        out.append({
            "lambda": lam,
            "num": float(nmean),
            "num_err": float(nerr),
            "den": scaled,
            "den_err": float(derr) * (1.0 + abs(lam)) ** s,
            "flags": list(flags),
            "skipped": scaled == 0.0,
            "ratio": math.nan if scaled == 0.0 else float(nmean) / scaled,
        })
    return out


# ---------------------------------------------------------------------------
# reverse-Holder for rational functions of several disorder variables


def _tridiag_green_entry(vmat, coeff_c, coeff_d, hop, lam):
    """|G(0, J-1)| = prod(hop) / |det| at the real energy lam of a J-site chain
    with affine potentials, vectorized over rows; det by the tridiagonal
    determinant recursion in float64."""
    n_draws, j_vars = vmat.shape
    avals = coeff_c[None, :] * vmat + coeff_d[None, :] - lam
    det_prev = np.ones(n_draws)
    det = avals[:, 0].copy()
    for jj in range(1, j_vars):
        det, det_prev = avals[:, jj] * det - (hop * hop) * det_prev, det
    with np.errstate(divide="ignore"):
        return np.abs(hop) ** (j_vars - 1) / np.abs(det)


def _rh_batch(ctx: _SampleCtx, indices) -> np.ndarray:
    """One trial per index: a random J-site chain (J = rh_j) from the index's
    stream, and <|Q|^s> and <|Q|^{s/2}> (s = rh_s) over _RH_DRAWS draws."""
    j_vars, s = ctx.params["rh_j"], ctx.params["rh_s"]
    out = np.empty(len(indices), _RH)
    for j, i in enumerate(indices):
        stream = Stream(derive_sample_seed(ctx.master_seed, i))
        w = stream.uniforms(2 * j_vars + 2)
        coeff_c = 0.5 + w[:j_vars]
        coeff_d = _RH_PARAM_SCALE * (2.0 * w[j_vars:2 * j_vars] - 1.0)
        hop = 0.2 + w[2 * j_vars]
        lam = 4.0 * w[2 * j_vars + 1] - 2.0
        v = sample_vector(ctx.disorder, stream, _RH_DRAWS * j_vars).reshape(_RH_DRAWS, j_vars)
        q = _tridiag_green_entry(v, coeff_c, coeff_d, hop, lam)
        half = q ** (0.5 * s)
        m_half = float(np.mean(half))
        m_full = float(np.mean(half * half))
        ratio = m_full / (m_half * m_half) if m_half > 0 else math.inf
        out[j] = (ratio, m_full, m_half, lam, hop)
    return out


def reverse_holder_check(ctx: _SampleCtx, pool=None, checkpoint_path=None):
    """Worst <|Q|^s> / <|Q|^{s/2}>^2 over params["rh_trials"] sampled rational
    functions Q, and how many trials gave no finite ratio (failures).

    Q is the corner Green entry of a random J-site chain (degree 1 in each
    variable), averaged over _RH_DRAWS disorder draws per trial; the
    inequality says the worst constant stays bounded.
    """
    recs = run_indexed(_rh_batch, ctx, _RH, ctx.params["rh_trials"], pool, checkpoint_path)
    ratios = recs["ratio"]
    finite = ratios[np.isfinite(ratios)]
    return {
        "worst_constant": float(np.max(finite)) if finite.size else math.inf,
        "failures": int(ratios.size - finite.size),
    }


# ---------------------------------------------------------------------------
# the inequalities kind


def inequalities(ctx: _SampleCtx, pool=None, outdir=None):
    """The inequalities kind: every check above on the run's context;
    one series row per comparability draw, scale by scale."""
    p = ctx.params

    def check_ctx(j, **fields):  # the master seed j derives from the run's; fields join params
        return replace(ctx, master_seed=int(derive_sample_seed(ctx.master_seed, j)),
                       params={**p, **fields})

    # random (x, y) pairs from a dedicated stream
    pair_stream = Stream(derive_sample_seed(ctx.master_seed, 0xA11))
    n = ctx.topo.n_vertices
    one_step = []
    for j in range(p["pairs"]):
        x, y = (int(w * n) for w in pair_stream.uniforms(2))
        one_step.append(one_step_bound_check(
            check_ctx(1000 + j, x=x, y=y), pool, checkpoint_path(outdir, f"one_step_{j}")
        ))
    lem = decoupling_ratio(
        check_ctx(2000, x=0, y=min(2, n - 1)), pool, checkpoint_path(outdir, "decoupling")
    )
    comparability, scans = {}, []
    for j, (scale, param_scale) in enumerate(p["scales"]):
        # checkpoints by position: no config string in a path
        comparability[str(scale)], recs = comparability_scan(
            check_ctx(3000, param_scale=param_scale), pool, checkpoint_path(outdir, f"scan_{j}")
        )
        scans.append(recs)
    recs = np.concatenate(scans)  # as lists below, so no series column holds on to its buffer
    series = {"scale": np.repeat([param_scale for _, param_scale in p["scales"]], p["draws"]),
              "draw": np.tile(np.arange(p["draws"]), len(scans)),
              "parameters": [canonical_json({"a": a, "b": b})
                             for a, b in zip(recs["a"].tolist(), recs["b"].tolist())],
              **{field: recs[field].tolist() for field in ("lhs", "rhs", "ratio")}}
    return {
        "one_step": one_step,
        "one_step_all_pass": bool(all(r["pass"] for r in one_step)),
        "decoupling": lem,
        "decoupling_min_ratio": float(
            min((e["ratio"] for e in lem if not e["skipped"]), default=math.nan)
        ),
        "comparability": comparability,
        "reverse_holder": reverse_holder_check(
            check_ctx(4000), pool, checkpoint_path(outdir, "rh")
        ),
        "vinv": None if ctx.model.variant == "alloy" else vinv_moment(
            check_ctx(5000, samples=max(p["samples"], 2000))
        ),
    }, series, None
