"""Single-site disorder catalog: parameters, sampling, density, support,
singular points and moment tails.

Four families spanning the regularity/moment parameter space:

==================  =========================================  =======  =========
family              density                                    alpha    q-moments
==================  =========================================  =======  =========
uniform(a, b)       1/(b-a) on [a, b]                          1        all
gaussian(m, s)      normal pdf                                 1        all
power_regular(α)    (α/2)|v|^(α-1) on [-1, 1]                  α        all
heavy_tail(q0)      (q0/2)(1+|v|)^(-1-q0) on R, q0 > 53/1024   1        q < q0
==================  =========================================  =======  =========

power_regular draws v = sign(u)|u|^(1/α) from u uniform on (-1, 1), so the
mass of [-ε, ε] is exactly ε^α.  heavy_tail draws
v = sign(u)((1 - |u|)^(-1/q0) - 1) from the same u; its extreme, 1 - |u| =
2^-53, gives |v| = 2^(53/q0) - 1, finite only for q0 > 53/1024.  "All q" is
encoded as the finite sentinel Q_UNBOUNDED so exponent formulas stay in
ordinary float arithmetic.

Each draw consumes a fixed number of stream words (uniform, power_regular,
heavy_tail: 1; gaussian: 2 via the rejection-free trigonometric Box-Muller
form), which is what makes indexed per-sample seeding reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .rng import Stream

Q_UNBOUNDED = 1.0e12  # stands in for "every moment is finite"


@dataclass(frozen=True)
class DisorderSpec:
    family: str
    params: tuple
    declared_alpha: float
    declared_q: float  # moments are finite for q < declared_q


def make_spec(family: str, params) -> DisorderSpec:
    """Validate parameters and fill the declared regularity/moment exponents."""
    params = tuple(float(p) for p in params)
    if family == "uniform":
        if len(params) != 2 or not params[0] < params[1]:
            raise ConfigurationError(f"uniform needs a < b, got {params}")
        return DisorderSpec(family, params, 1.0, Q_UNBOUNDED)
    if family == "gaussian":
        if len(params) != 2 or params[1] <= 0:
            raise ConfigurationError(f"gaussian needs (mean, sigma>0), got {params}")
        return DisorderSpec(family, params, 1.0, Q_UNBOUNDED)
    if family == "power_regular":
        if len(params) != 1 or not 0 < params[0] <= 1:
            raise ConfigurationError(f"power_regular needs alpha in (0,1], got {params}")
        return DisorderSpec(family, params, params[0], Q_UNBOUNDED)
    if family == "heavy_tail":
        if len(params) != 1 or not params[0] > 53 / 1024:  # see the module docstring
            raise ConfigurationError(f"heavy_tail needs q0 > 53/1024, got {params}")
        return DisorderSpec(family, params, 1.0, params[0])
    raise ConfigurationError(f"unknown disorder family {family!r}")


def sample_vector(spec: DisorderSpec, stream: Stream, n: int) -> np.ndarray:
    """n i.i.d. draws from the spec, consuming exactly n words of each stream
    (2n for gaussian): shape (n,), or (B, n) for a stream of B states."""
    if spec.family == "uniform":
        a, b = spec.params
        return a + (b - a) * stream.uniforms(n)
    if spec.family == "gaussian":
        mean, sigma = spec.params
        w = stream.uniforms(2 * n)
        u1 = w[..., 0::2]
        u2 = w[..., 1::2]
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return mean + sigma * z
    if spec.family == "power_regular":
        alpha = spec.params[0]
        u = 2.0 * stream.uniforms(n) - 1.0
        return np.sign(u) * np.abs(u) ** (1.0 / alpha)
    if spec.family == "heavy_tail":
        q0 = spec.params[0]
        u = 2.0 * stream.uniforms(n) - 1.0
        return np.sign(u) * ((1.0 - np.abs(u)) ** (-1.0 / q0) - 1.0)
    raise ConfigurationError(f"unknown disorder family {spec.family!r}")


def density(spec: DisorderSpec, v) -> np.ndarray:
    """Pointwise density of the spec at v (vectorized)."""
    v = np.asarray(v, dtype=np.float64)
    if spec.family == "uniform":
        a, b = spec.params
        return np.where((v >= a) & (v <= b), 1.0 / (b - a), 0.0)
    if spec.family == "gaussian":
        mean, sigma = spec.params
        z = (v - mean) / sigma
        return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
    if spec.family == "power_regular":
        alpha = spec.params[0]
        av = np.abs(v)
        with np.errstate(divide="ignore"):
            out = np.where((av <= 1.0) & (av > 0.0), 0.5 * alpha * av ** (alpha - 1.0), 0.0)
        return out
    if spec.family == "heavy_tail":
        q0 = spec.params[0]
        return 0.5 * q0 * (1.0 + np.abs(v)) ** (-1.0 - q0)
    raise ConfigurationError(f"unknown disorder family {spec.family!r}")


def support(spec: DisorderSpec):
    """(lo, hi) support interval; infinite endpoints for unbounded families."""
    if spec.family == "uniform":
        return spec.params
    if spec.family == "power_regular":
        return (-1.0, 1.0)
    return (-math.inf, math.inf)


def singular_points(spec: DisorderSpec) -> tuple:
    """Points where the density may be unbounded: 0 for power_regular, whose
    density grows like |v|^(alpha - 1) there."""
    return (0.0,) if spec.family == "power_regular" else ()


def abs_moment_tail(spec: DisorderSpec, p: float, t: float) -> float:
    """Upper bound on the integral of |v|^p over {|v| > t}."""
    if spec.family in ("uniform", "power_regular"):
        lo, hi = support(spec)
        return 0.0 if t >= max(abs(lo), abs(hi)) else math.inf
    if spec.family == "heavy_tail":
        q0 = spec.params[0]
        if q0 <= p:
            return math.inf
        return q0 * (1.0 + t) ** (p - q0) / (q0 - p)
    if spec.family == "gaussian":
        mean, sigma = spec.params
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
    raise ConfigurationError(f"no closed-form density for family {spec.family!r}")
