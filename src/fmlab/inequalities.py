"""Direct numerical verification of the decoupling machinery.

Covers the one-step resolvent bound, the decoupling ratio for block and
alloy potentials, the inverse-potential fractional moment, the two-sided
polynomial-ratio comparison against prod(1+|a_j|)^s / prod(1+|b_i|)^r, and
the multivariate reverse-Holder inequality for Cramer's-rule entries.
inequalities() is the experiment kind that runs them all, with the
signature of the kinds in fmlab.estimators.

All scans are driven by per-draw derived streams, so they are deterministic
and parallelize like the Monte Carlo estimators.  Quadrature values carry
explicit error bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderSpec, density, sample_vector, support
from .engine import canonical_json, checkpoint_path, run_indexed
from .errors import ConfigurationError, NumericalError
from .model import ModelSpec, potential_block, decay_exponent_window
from .numerics import opnorm_batch, resolvent_profile
from .quadrature import integrate_batch
from .rng import Stream, derive_sample_seed
from .estimators import _group_stats, _SampleCtx, run_samples, solve_resampled

_TAIL_REL = 1e-8  # target tail contribution relative to the comparability target
_SCAN_REL_TOL = 1e-7  # quadrature tolerance of comparability_scan
_RH_DRAWS = 20000  # disorder draws per reverse-Holder trial
_RH_PARAM_SCALE = 2.0  # reverse-Holder potential offsets lie in [-scale, scale]


@dataclass(frozen=True)
class RatioIntegralSpec:
    """Integral of prod |v - a_j|^s / prod |v - b_i|^r against a catalog measure."""

    a: tuple  # complex points, length l
    b: tuple  # complex points, length m
    s: float
    r: float
    measure: DisorderSpec

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(complex(x) for x in self.a))
        object.__setattr__(self, "b", tuple(complex(x) for x in self.b))

    def target(self) -> float:
        num = math.prod((1.0 + abs(aj)) ** self.s for aj in self.a)
        den = math.prod((1.0 + abs(bi)) ** self.r for bi in self.b)
        return num / den


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


def _abs_moment_tail(measure: DisorderSpec, p: float, t: float) -> float:
    """Upper bound on the integral of |v|^p over {|v| > t}."""
    fam = measure.family
    if fam in ("uniform", "power_regular"):
        lo, hi = support(measure)
        return 0.0 if t >= max(abs(lo), abs(hi)) else math.inf
    if fam == "heavy_tail":
        q0 = measure.params[0]
        if q0 <= p:
            return math.inf
        return q0 * (1.0 + t) ** (p - q0) / (q0 - p)
    if fam == "gaussian":
        mean, sigma = measure.params
        if t <= abs(mean):
            return math.inf
        # Cauchy-Schwarz against a sub-Gaussian tail probability
        n2 = max(1, math.ceil(p))
        even = 2 * n2
        dfact = 1.0
        for j in range(1, even, 2):
            dfact *= j
        moment = 2.0 ** (even - 1) * (abs(mean) ** even + dfact * sigma**even) + 1.0
        prob = 2.0 * math.exp(-((t - abs(mean)) ** 2) / (2.0 * sigma * sigma))
        return math.sqrt(moment * prob)
    raise ConfigurationError(f"no closed-form density for family {fam!r}")


def _integration_domain(spec: RatioIntegralSpec):
    """(lo, hi, tail_bound) with the tail below _TAIL_REL of the target scale."""
    lo, hi = support(spec.measure)
    if math.isfinite(lo) and math.isfinite(hi):
        return lo, hi, 0.0
    sl = spec.s * len(spec.a)
    rm = spec.r * len(spec.b)
    pmax = max(
        [1.0]
        + [abs(x) for x in spec.a]
        + [abs(x) for x in spec.b]
    )
    goal = _TAIL_REL * spec.target() + 1e-300
    t = 2.0 * pmax
    for _ in range(200):
        bound = 1.5**sl * 2.0**rm * t ** (-rm) * _abs_moment_tail(spec.measure, sl, t)
        if bound <= goal:
            return -t, t, bound
        t *= 2.0
    raise NumericalError("could not truncate the measure tail (check moment assumptions)")


def _ratio_integrals(specs, rel_tol: float) -> list:
    """[(value, error_bound)] of the ratio integrals of specs sharing s, r,
    the measure and the point counts, integrated in one batch.

    Panel boundaries are forced at every real singular point; unbounded
    measures are truncated where the q-moment tail bound drops below
    _TAIL_REL of the comparability target (added to error_bound).
    """
    first = specs[0]
    a = np.array([spec.a for spec in specs], dtype=np.complex128)
    b = np.array([spec.b for spec in specs], dtype=np.complex128)
    items, tails = [], []
    for spec in specs:
        lo, hi, tail = _integration_domain(spec)
        sing = {pt.real for pt in (*spec.a, *spec.b) if pt.imag == 0.0 and lo < pt.real < hi}
        if spec.measure.family == "power_regular":
            sing.add(0.0)
        items.append((lo, hi, (), sorted(sing)))
        tails.append(tail)
    f = _ratio_integrand(first.measure, a, b, first.s, first.r)
    with np.errstate(divide="ignore", over="ignore"):
        results = integrate_batch(f, items, rel_tol=rel_tol)
    return [(float(value), float(err + tail)) for (value, err), tail in zip(results, tails)]


@dataclass(eq=False)
class _ScanCtx:
    measure: DisorderSpec
    l: int
    m: int
    s: float
    r: float
    param_scale: float
    master_seed: int


def _complex_points(w: np.ndarray, scale: float) -> list:
    """Points scale * w[2k] * exp(2 pi i w[2k+1]) from a row of uniforms."""
    radius = scale * w[0::2]
    angle = 2.0 * math.pi * w[1::2]
    return [complex(rad * math.cos(th), rad * math.sin(th)) for rad, th in zip(radius, angle)]


def _comparability_batch(ctx: _ScanCtx, indices) -> list:
    stream = Stream(derive_sample_seed(ctx.master_seed, np.asarray(indices)))
    wa = stream.uniforms(2 * ctx.l)
    wb = stream.uniforms(2 * ctx.m)
    specs = [
        RatioIntegralSpec(a=tuple(_complex_points(ra, ctx.param_scale)),
                          b=tuple(_complex_points(rb, ctx.param_scale)),
                          s=ctx.s, r=ctx.r, measure=ctx.measure)
        for ra, rb in zip(wa, wb)
    ]
    out = []
    for spec, (value, err) in zip(specs, _ratio_integrals(specs, _SCAN_REL_TOL)):
        target = spec.target()
        out.append({
            "a": [[p.real, p.imag] for p in spec.a],
            "b": [[p.real, p.imag] for p in spec.b],
            "lhs": value,
            "rhs": target,
            "ratio": value / target,
            "error_bound": err,
        })
    return out


def check_comparability_regime(measure: DisorderSpec, l: int, m: int, s: float, r: float):
    """Refuse point counts (l, m) and exponents (s, r) >= 0 outside the
    regime where the two-sided comparison holds for measure: r*m below alpha,
    and q at least (s*l + r*m) * alpha / (alpha - r*m)."""
    alpha, rm = measure.declared_alpha, r * m
    if rm >= alpha:
        raise ConfigurationError(f"r*m = {rm:g} must stay below alpha = {alpha:g}")
    if not measure.declared_q >= (s * l + rm) * alpha / (alpha - rm) - 1e-12:
        raise ConfigurationError("comparability regime violated: q too small for (s*l + r*m)")


def comparability_scan(
    measure: DisorderSpec,
    l: int,
    m: int,
    s: float,
    r: float,
    draws: int,
    param_scale: float,
    master_seed: int,
    workers: int = 1,
    checkpoint_path=None,
) -> dict:
    """Extremes of the ratio integral / target over random points of bounded modulus.

    Both extremes must be positive and finite; their spread estimates how far
    the two-sided comparison constants are from each other.
    """
    ctx = _ScanCtx(measure, int(l), int(m), float(s), float(r), float(param_scale),
                   int(master_seed))
    records = run_indexed(_comparability_batch, ctx, draws, workers, checkpoint_path)
    ratios = np.array([rec["ratio"] for rec in records])
    failures = [
        {"draw": i, **rec}
        for i, rec in enumerate(records)
        if not np.isfinite(rec["ratio"]) or rec["ratio"] <= 0.0
    ]
    return {
        "ratio_min": float(np.min(ratios)),
        "ratio_max": float(np.max(ratios)),
        "n_draws": int(draws),
        "param_scale": float(param_scale),
        "failures": failures,
        "records": records,
    }


def vinv_moment(model: ModelSpec, lam: float, s: float, samples: int, master_seed: int,
                disorder: DisorderSpec) -> dict:
    """Monte Carlo estimate of < || (v A + B - lam)^(-1) ||^s > over v, for a
    block-type model.

    Draws with an exactly singular potential are redrawn (measure zero);
    near-singular draws contribute their huge but finite norm, which is the
    whole point of taking fractional powers.
    """
    stream = Stream(derive_sample_seed(master_seed, 0))
    shift = model.B - lam * np.eye(model.k, dtype=np.complex128)
    values = np.empty(samples)
    resamples = 0
    filled = 0
    while filled < samples:
        draws = sample_vector(disorder, stream, samples - filled)
        smin = np.linalg.svd(draws[:, None, None] * model.A + shift, compute_uv=False)[:, -1]
        regular = smin[smin > 0.0]
        resamples += draws.size - regular.size
        if resamples > 1000:
            raise NumericalError("vinv_moment: persistent singular potential")
        values[filled:filled + regular.size] = regular ** -s  # ||V^-1|| = 1/sigma_min
        filled += regular.size
    mean, _, err = _group_stats(values[:, None])
    return {"value": float(mean[0]), "err": float(err[0]), "resamples": resamples}


def _one_step_batch(ctx: _SampleCtx, indices) -> list:
    p = ctx.params
    x, y, s = p["x"], p["y"], p["s"]
    scale = (ctx.model.c_b3 * ctx.model.coupling) ** s
    neighbors = list(ctx.topo.neighbors(y))

    def sides(h):
        prof = resolvent_profile(h, p["lam"], p["eps"], x)
        vy = potential_block(h, y) - complex(p["lam"], p["eps"]) * np.eye(h.k, dtype=np.complex128)
        lhs = opnorm_batch(prof[:, y] @ vy).tolist()
        gnorms = opnorm_batch(prof[:, neighbors]).tolist()
        # Python float powers and sums, one element at a time
        return [
            {"lhs": lg ** s, "rhs": scale * sum(g ** s for g in gs) + (1.0 if x == y else 0.0)}
            for lg, gs in zip(lhs, gnorms)
        ]

    return solve_resampled(ctx, indices, sides)[0]


def one_step_bound_check(
    model, topo, disorder, x, y, s, lam, eps, samples, master_seed,
    workers: int = 1, checkpoint_path=None,
) -> dict:
    """One-step bound: <||G(x,y)(V(y)-z)||^s> vs the neighbor-sum majorant.

    The inequality holds per realization when s <= 1 (subadditivity of
    t^s); a failure here indicates a numerics bug, not statistics.
    """
    params = {"x": int(x), "y": int(y), "s": float(s), "lam": float(lam), "eps": float(eps)}
    payloads = run_samples(
        _one_step_batch, model, topo, disorder, master_seed, params, samples, workers,
        checkpoint_path,
    )
    lhs = np.array([p["lhs"] for p in payloads])
    rhs = np.array([p["rhs"] for p in payloads])
    lm, _, le = _group_stats(lhs[:, None])
    rm_, _, re_ = _group_stats(rhs[:, None])
    sigma = math.sqrt(float(le[0]) ** 2 + float(re_[0]) ** 2)
    return {
        "x": int(x),
        "y": int(y),
        "lhs": float(lm[0]),
        "rhs": float(rm_[0]),
        "sigma": sigma,
        "pass": bool(lm[0] <= rm_[0] + 3.0 * sigma),
        "pointwise_violations": int(np.sum(lhs > rhs + 1e-9 * (1.0 + np.abs(rhs)))),
    }


def _decoupling_batch(ctx: _SampleCtx, indices) -> list:
    p = ctx.params
    x, y, s, eps = p["x"], p["y"], p["s"], p["eps"]

    def terms(h):
        eye = np.eye(h.k, dtype=np.complex128)
        nums, dens = [], []
        for lam in p["grid"]:
            gxy = resolvent_profile(h, lam, eps, x)[:, y]
            vy = potential_block(h, y) - complex(lam, eps) * eye
            nums.append(opnorm_batch(gxy @ vy).tolist())
            dens.append(opnorm_batch(gxy).tolist())
        # Python float powers, one element at a time
        return [
            {"num": [t ** s for t in num], "den": [t ** s for t in den]}
            for num, den in zip(zip(*nums), zip(*dens))
        ]

    return solve_resampled(ctx, indices, terms)[0]


def decoupling_ratio(
    model, topo, disorder, x, y, s, lambda_grid, eps, samples, master_seed,
    workers: int = 1, checkpoint_path=None,
) -> list:
    """Per-lambda decoupling ratio <||G(V-z)||^s> / (<||G||^s> (1+|lam|)^s).

    The decoupling bound guarantees a positive floor for the ratio, not a
    specific constant; callers assert positivity and stability.
    """
    grid = [float(lam) for lam in lambda_grid]
    flags = []
    s_bound = decay_exponent_window(model.k, disorder.declared_alpha, disorder.declared_q)
    if s > s_bound + 1e-12:
        flags.append(f"s={s:g} above decoupling window {s_bound:g}")
    params = {"x": int(x), "y": int(y), "s": float(s), "eps": float(eps), "grid": grid}
    payloads = run_samples(
        _decoupling_batch, model, topo, disorder, master_seed, params, samples, workers,
        checkpoint_path,
    )
    nums = np.array([p["num"] for p in payloads])
    dens = np.array([p["den"] for p in payloads])
    out = []
    for j, lam in enumerate(grid):
        nmean, _, nerr = _group_stats(nums[:, j:j + 1])
        dmean, _, derr = _group_stats(dens[:, j:j + 1])
        scaled = float(dmean[0]) * (1.0 + abs(lam)) ** s
        out.append({
            "lambda": lam,
            "num": float(nmean[0]),
            "num_err": float(nerr[0]),
            "den": scaled,
            "den_err": float(derr[0]) * (1.0 + abs(lam)) ** s,
            "flags": list(flags),
            "skipped": scaled == 0.0,
            "ratio": math.nan if scaled == 0.0 else float(nmean[0]) / scaled,
        })
    return out


# ---------------------------------------------------------------------------
# reverse-Holder for rational functions of several disorder variables


@dataclass(eq=False)
class _RhCtx:
    measure: DisorderSpec
    s: float
    j_vars: int
    master_seed: int


def _tridiag_green_entry(vmat, coeff_c, coeff_d, hop, z):
    """|G(0, J-1)| of a J-site chain with affine potentials, vectorized over rows.

    Uses the tridiagonal determinant recursion; the corner entry of the
    inverse is prod(hop) / det.
    """
    n_draws, j_vars = vmat.shape
    avals = coeff_c[None, :] * vmat + coeff_d[None, :] - z
    det_prev = np.ones(n_draws, dtype=np.complex128)
    det = avals[:, 0].copy()
    for jj in range(1, j_vars):
        det, det_prev = avals[:, jj] * det - (hop * hop) * det_prev, det
    with np.errstate(divide="ignore"):
        return np.abs(hop) ** (j_vars - 1) / np.abs(det)


def _rh_trial(ctx: _RhCtx, idx: int) -> dict:
    stream = Stream(derive_sample_seed(ctx.master_seed, idx))
    j_vars = ctx.j_vars
    w = stream.uniforms(2 * j_vars + 2)
    coeff_c = 0.5 + w[:j_vars]
    coeff_d = _RH_PARAM_SCALE * (2.0 * w[j_vars:2 * j_vars] - 1.0)
    hop = 0.2 + w[2 * j_vars]
    lam = 4.0 * w[2 * j_vars + 1] - 2.0
    v = sample_vector(ctx.measure, stream, _RH_DRAWS * j_vars).reshape(_RH_DRAWS, j_vars)
    q = _tridiag_green_entry(v, coeff_c, coeff_d, hop, complex(lam, 0.0))
    half = q ** (0.5 * ctx.s)
    m_half = float(np.mean(half))
    m_full = float(np.mean(half * half))
    ratio = m_full / (m_half * m_half) if m_half > 0 else math.inf
    return {"ratio": ratio, "m_s": m_full, "m_s2": m_half,
            "kind": "cramer", "lambda": lam, "hop": float(hop)}


def _rh_batch(ctx: _RhCtx, indices) -> list:
    return [_rh_trial(ctx, i) for i in indices]


def reverse_holder_check(
    measure: DisorderSpec,
    s: float,
    j_vars: int,
    trials: int,
    master_seed: int,
    workers: int = 1,
    checkpoint_path=None,
) -> dict:
    """Worst <|Q|^s> / <|Q|^{s/2}>^2 over sampled rational functions Q.

    Q is the corner Green entry of a random J-site chain (degree 1 in each
    variable), averaged over _RH_DRAWS disorder draws per trial; the
    inequality says the worst constant stays bounded.
    """
    ctx = _RhCtx(measure, float(s), int(j_vars), int(master_seed))
    records = run_indexed(_rh_batch, ctx, trials, workers, checkpoint_path)
    ratios = np.array([rec["ratio"] for rec in records])
    failures = [
        {"trial": i, **rec} for i, rec in enumerate(records) if not np.isfinite(rec["ratio"])
    ]
    return {
        "worst_constant": float(np.max(ratios[np.isfinite(ratios)])) if np.any(np.isfinite(ratios)) else math.inf,
        "n_trials": int(trials),
        "failures": failures,
        "records": records,
    }


# ---------------------------------------------------------------------------
# the inequalities kind


def inequalities(p, model, topo, disorder, master_seed, workers=1, outdir=None):
    """The inequalities kind: every check above on the parsed estimator
    fields p; one series row per comparability draw, at every scale."""
    samples, lam, eps = p["samples"], p["lambda"], p["eps"]
    # random (x, y) pairs from a dedicated stream
    pair_stream = Stream(derive_sample_seed(master_seed, 0xA11))
    n = topo.n_vertices
    one_step = []
    for j in range(p["pairs"]):
        w = pair_stream.uniforms(2)
        x, y = int(w[0] * n), int(w[1] * n)
        one_step.append(
            one_step_bound_check(
                model, topo, disorder, x, y, p["one_step_s"], lam, eps,
                samples, derive_sample_seed(master_seed, 1000 + j), workers,
                checkpoint_path=checkpoint_path(outdir, f"one_step_{j}"),
            )
        )
    lem = decoupling_ratio(
        model, topo, disorder, 0, min(2, n - 1), p["decoupling_s"],
        p["lambda_grid"], eps, samples, derive_sample_seed(master_seed, 2000), workers,
        checkpoint_path=checkpoint_path(outdir, "decoupling"),
    )
    scan_results = {}
    rows = []
    for j, (scale, param_scale) in enumerate(p["scales"]):
        scan = comparability_scan(
            disorder,
            p["l"],
            p["m"],
            p["s"],
            p["r"],
            p["draws"],
            param_scale,
            derive_sample_seed(master_seed, 3000),
            workers=workers,
            # by position: no config string in a path
            checkpoint_path=checkpoint_path(outdir, f"scan_{j}"),
        )
        scan_results[str(scale)] = {
            "ratio_min": scan["ratio_min"],
            "ratio_max": scan["ratio_max"],
            "failures": len(scan["failures"]),
        }
        rows += [
            [scan["param_scale"], i,
             canonical_json({"a": r["a"], "b": r["b"]}),
             float(r["lhs"]), float(r["rhs"]), float(r["ratio"])]
            for i, r in enumerate(scan["records"])
        ]
    rh = reverse_holder_check(
        disorder,
        p["rh_s"],
        p["rh_j"],
        p["rh_trials"],
        derive_sample_seed(master_seed, 4000),
        workers=workers,
        checkpoint_path=checkpoint_path(outdir, "rh"),
    )
    vinv = None
    if model.variant != "alloy":
        vinv = vinv_moment(
            model, lam, p["vinv_s"],
            max(samples, 2000), derive_sample_seed(master_seed, 5000), disorder,
        )
    outputs = {
        "one_step": one_step,
        "one_step_all_pass": bool(all(r["pass"] for r in one_step)),
        "decoupling": lem,
        "decoupling_min_ratio": float(
            min((e["ratio"] for e in lem if not e["skipped"]), default=math.nan)
        ),
        "comparability": scan_results,
        "reverse_holder": {
            "worst_constant": rh["worst_constant"],
            "failures": len(rh["failures"]),
        },
        "vinv": vinv,
    }
    return outputs, rows
