"""Direct numerical verification of the decoupling machinery.

Covers the one-step resolvent bound, the decoupling ratio for block and
alloy potentials, the inverse-potential fractional moment, the two-sided
polynomial-ratio comparison against prod(1+|a_j|)^s / prod(1+|b_i|)^r, and
the multivariate reverse-Holder inequality for Cramer's-rule entries.
inequalities() is the experiment kind that runs them all, with the
signature of the kinds in fmlab.estimators.

Each check has the shape of a kind: check(p, model, topo, disorder,
master_seed, workers=1, checkpoint_path=None) returns its results.json
entry, where p holds the kind's parsed estimator fields plus the few the
kind sets per call (x and y for a pair, param_scale for a scale).  Every
scan runs on estimators.run_samples, so its draws come from per-index
derived streams: deterministic, and parallel like the Monte Carlo
estimators.  Quadrature values carry explicit error bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderSpec, density, sample_vector, support
from .engine import canonical_json, checkpoint_path
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


def _complex_points(w: np.ndarray, scale: float) -> list:
    """Points scale * w[2k] * exp(2 pi i w[2k+1]) from a row of uniforms."""
    radius = scale * w[0::2]
    angle = 2.0 * math.pi * w[1::2]
    return [complex(rad * math.cos(th), rad * math.sin(th)) for rad, th in zip(radius, angle)]


def _comparability_batch(ctx: _SampleCtx, indices) -> list:
    p = ctx.params
    stream = Stream(derive_sample_seed(ctx.master_seed, np.asarray(indices)))
    wa = stream.uniforms(2 * p["l"])
    wb = stream.uniforms(2 * p["m"])
    specs = [
        RatioIntegralSpec(a=tuple(_complex_points(ra, p["param_scale"])),
                          b=tuple(_complex_points(rb, p["param_scale"])),
                          s=p["s"], r=p["r"], measure=ctx.disorder)
        for ra, rb in zip(wa, wb)
    ]
    out = []
    for spec, (value, err) in zip(specs, _ratio_integrals(specs, _SCAN_REL_TOL)):
        target = spec.target()
        out.append({
            "a": [[pt.real, pt.imag] for pt in spec.a],
            "b": [[pt.real, pt.imag] for pt in spec.b],
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


def comparability_scan(p, model, topo, disorder, master_seed, workers=1, checkpoint_path=None):
    """(entry, rows) over p["draws"] random draws of l points a_j and m points
    b_i of modulus below p["param_scale"]: the extremes of the ratio integral /
    target against the disorder measure with the failure count, and one
    series row per draw.

    Both extremes must be positive and finite (a draw whose ratio is not is a
    failure); their spread estimates how far the two-sided comparison
    constants are from each other.
    """
    records = run_samples(
        _comparability_batch, model, topo, disorder, master_seed, p, p["draws"], workers,
        checkpoint_path,
    )
    ratios = np.array([rec["ratio"] for rec in records])
    entry = {
        "ratio_min": float(np.min(ratios)),
        "ratio_max": float(np.max(ratios)),
        "failures": int(np.sum(~np.isfinite(ratios) | (ratios <= 0.0))),
    }
    rows = [
        [p["param_scale"], i, canonical_json({"a": rec["a"], "b": rec["b"]}),
         rec["lhs"], rec["rhs"], rec["ratio"]]
        for i, rec in enumerate(records)
    ]
    return entry, rows


def vinv_moment(p, model: ModelSpec, disorder: DisorderSpec, master_seed: int) -> dict:
    """Monte Carlo estimate of < || (v A + B - lambda)^(-1) ||^vinv_s > over
    p["samples"] draws of v, for a block-type model.

    Draws with an exactly singular potential are redrawn (measure zero);
    near-singular draws contribute their huge but finite norm, which is the
    whole point of taking fractional powers.  All draws come from the one
    stream of (master_seed, 0), so the estimate stays off the engine.
    """
    samples = p["samples"]
    stream = Stream(derive_sample_seed(master_seed, 0))
    shift = model.B - p["lambda"] * np.eye(model.k, dtype=np.complex128)
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
        values[filled:filled + regular.size] = regular ** -p["vinv_s"]  # ||V^-1|| = 1/sigma_min
        filled += regular.size
    mean, _, err = _group_stats(values[:, None])
    return {"value": float(mean[0]), "err": float(err[0]), "resamples": resamples}


def _one_step_batch(ctx: _SampleCtx, indices) -> list:
    p = ctx.params
    x, y, s, lam, eps = p["x"], p["y"], p["one_step_s"], p["lambda"], p["eps"]
    scale = (ctx.model.c_b3 * ctx.model.coupling) ** s
    neighbors = list(ctx.topo.neighbors(y))

    def sides(h):
        prof = resolvent_profile(h, lam, eps, x)
        vy = potential_block(h, y) - complex(lam, eps) * np.eye(h.k, dtype=np.complex128)
        lhs = opnorm_batch(prof[:, y] @ vy).tolist()
        gnorms = opnorm_batch(prof[:, neighbors]).tolist()
        # Python float powers and sums, one element at a time
        return [
            {"lhs": lg ** s, "rhs": scale * sum(g ** s for g in gs) + (1.0 if x == y else 0.0)}
            for lg, gs in zip(lhs, gnorms)
        ]

    return solve_resampled(ctx, indices, sides)[0]


def one_step_bound_check(p, model, topo, disorder, master_seed, workers=1, checkpoint_path=None):
    """One-step bound at the pair (x, y), exponent s = one_step_s:
    <||G(x,y)(V(y)-z)||^s> vs the neighbor-sum majorant, over p["samples"].

    The inequality holds per realization when s <= 1 (subadditivity of
    t^s); a failure here indicates a numerics bug, not statistics.
    """
    payloads = run_samples(
        _one_step_batch, model, topo, disorder, master_seed, p, p["samples"], workers,
        checkpoint_path,
    )
    lhs = np.array([q["lhs"] for q in payloads])
    rhs = np.array([q["rhs"] for q in payloads])
    lm, _, le = _group_stats(lhs[:, None])
    rm_, _, re_ = _group_stats(rhs[:, None])
    sigma = math.sqrt(float(le[0]) ** 2 + float(re_[0]) ** 2)
    return {
        "x": p["x"],
        "y": p["y"],
        "lhs": float(lm[0]),
        "rhs": float(rm_[0]),
        "sigma": sigma,
        "pass": bool(lm[0] <= rm_[0] + 3.0 * sigma),
        "pointwise_violations": int(np.sum(lhs > rhs + 1e-9 * (1.0 + np.abs(rhs)))),
    }


def _decoupling_batch(ctx: _SampleCtx, indices) -> list:
    p = ctx.params
    x, y, s, eps = p["x"], p["y"], p["decoupling_s"], p["eps"]

    def terms(h):
        eye = np.eye(h.k, dtype=np.complex128)
        nums, dens = [], []
        for lam in p["lambda_grid"]:
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


def decoupling_ratio(p, model, topo, disorder, master_seed, workers=1, checkpoint_path=None):
    """Decoupling ratio at the pair (x, y), exponent s = decoupling_s, for
    each lambda of lambda_grid: <||G(V-z)||^s> / (<||G||^s> (1+|lambda|)^s).

    The decoupling bound guarantees a positive floor for the ratio, not a
    specific constant; callers assert positivity and stability.
    """
    s = p["decoupling_s"]
    flags = []
    s_bound = decay_exponent_window(model.k, disorder.declared_alpha, disorder.declared_q)
    if s > s_bound + 1e-12:
        flags.append(f"s={s:g} above decoupling window {s_bound:g}")
    payloads = run_samples(
        _decoupling_batch, model, topo, disorder, master_seed, p, p["samples"], workers,
        checkpoint_path,
    )
    nums = np.array([q["num"] for q in payloads])
    dens = np.array([q["den"] for q in payloads])
    out = []
    for j, lam in enumerate(p["lambda_grid"]):
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


def _rh_batch(ctx: _SampleCtx, indices) -> list:
    """One trial per index: a random J-site chain (J = rh_j) from the index's
    stream, and <|Q|^s> and <|Q|^{s/2}> (s = rh_s) over _RH_DRAWS draws."""
    j_vars, s = ctx.params["rh_j"], ctx.params["rh_s"]
    out = []
    for i in indices:
        stream = Stream(derive_sample_seed(ctx.master_seed, i))
        w = stream.uniforms(2 * j_vars + 2)
        coeff_c = 0.5 + w[:j_vars]
        coeff_d = _RH_PARAM_SCALE * (2.0 * w[j_vars:2 * j_vars] - 1.0)
        hop = 0.2 + w[2 * j_vars]
        lam = 4.0 * w[2 * j_vars + 1] - 2.0
        v = sample_vector(ctx.disorder, stream, _RH_DRAWS * j_vars).reshape(_RH_DRAWS, j_vars)
        q = _tridiag_green_entry(v, coeff_c, coeff_d, hop, complex(lam, 0.0))
        half = q ** (0.5 * s)
        m_half = float(np.mean(half))
        m_full = float(np.mean(half * half))
        ratio = m_full / (m_half * m_half) if m_half > 0 else math.inf
        out.append({"ratio": ratio, "m_s": m_full, "m_s2": m_half,
                    "kind": "cramer", "lambda": lam, "hop": float(hop)})
    return out


def reverse_holder_check(p, model, topo, disorder, master_seed, workers=1, checkpoint_path=None):
    """Worst <|Q|^s> / <|Q|^{s/2}>^2 over p["rh_trials"] sampled rational
    functions Q, and how many trials gave no finite ratio (failures).

    Q is the corner Green entry of a random J-site chain (degree 1 in each
    variable), averaged over _RH_DRAWS disorder draws per trial; the
    inequality says the worst constant stays bounded.
    """
    records = run_samples(
        _rh_batch, model, topo, disorder, master_seed, p, p["rh_trials"], workers,
        checkpoint_path,
    )
    ratios = np.array([rec["ratio"] for rec in records])
    finite = ratios[np.isfinite(ratios)]
    return {
        "worst_constant": float(np.max(finite)) if finite.size else math.inf,
        "failures": int(ratios.size - finite.size),
    }


# ---------------------------------------------------------------------------
# the inequalities kind


def inequalities(p, model, topo, disorder, master_seed, workers=1, outdir=None):
    """The inequalities kind: every check above on the parsed estimator
    fields p; one series row per comparability draw, at every scale."""
    def seed(j):
        return derive_sample_seed(master_seed, j)

    # random (x, y) pairs from a dedicated stream
    pair_stream = Stream(seed(0xA11))
    n = topo.n_vertices
    one_step = []
    for j in range(p["pairs"]):
        x, y = (int(w * n) for w in pair_stream.uniforms(2))
        one_step.append(one_step_bound_check(
            {**p, "x": x, "y": y}, model, topo, disorder, seed(1000 + j), workers,
            checkpoint_path(outdir, f"one_step_{j}"),
        ))
    lem = decoupling_ratio(
        {**p, "x": 0, "y": min(2, n - 1)}, model, topo, disorder, seed(2000), workers,
        checkpoint_path(outdir, "decoupling"),
    )
    comparability, rows = {}, []
    for j, (scale, param_scale) in enumerate(p["scales"]):
        comparability[str(scale)], scale_rows = comparability_scan(
            {**p, "param_scale": param_scale}, model, topo, disorder, seed(3000), workers,
            # by position: no config string in a path
            checkpoint_path(outdir, f"scan_{j}"),
        )
        rows += scale_rows
    return {
        "one_step": one_step,
        "one_step_all_pass": bool(all(r["pass"] for r in one_step)),
        "decoupling": lem,
        "decoupling_min_ratio": float(
            min((e["ratio"] for e in lem if not e["skipped"]), default=math.nan)
        ),
        "comparability": comparability,
        "reverse_holder": reverse_holder_check(
            p, model, topo, disorder, seed(4000), workers, checkpoint_path(outdir, "rh")
        ),
        "vinv": None if model.variant == "alloy" else vinv_moment(
            {**p, "samples": max(p["samples"], 2000)}, model, disorder, seed(5000)
        ),
    }, rows
