"""Disorder catalog: transform oracles, probes, determinism."""

import numpy as np
import pytest

from fmlab.disorder import Q_UNBOUNDED, density, make_spec, sample_vector
from fmlab.errors import ConfigurationError
from fmlab.rng import Stream
from oracles import integrate, moment_probe, regularity_probe
from test_rng import TOP_WORD_STATE, ZERO_WORD_STATE

SEED = 918273


def draws(spec, n, seed=SEED):
    return sample_vector(spec, Stream(seed), n)


def test_heavy_tail_extreme_words_draw_finite_values_above_the_q0_bound():
    # word 0 gives u = 2^-54, so 1 - |2u - 1| = 2^-53 and |v| = 2^(53/q0) - 1,
    # finite only for q0 > 53/1024; the top word's uniform is clamped below 1
    q0 = np.nextafter(53 / 1024, 1.0)
    spec = make_spec("heavy_tail", (q0,))
    low = sample_vector(spec, Stream(ZERO_WORD_STATE), 1)[0]
    top = sample_vector(spec, Stream(TOP_WORD_STATE), 1)[0]
    assert np.isfinite(low) and low < -2.0**1023
    assert np.isfinite(top) and top > 2.0**1000
    with pytest.raises(ConfigurationError, match="53/1024"):
        make_spec("heavy_tail", (53 / 1024,))
    with pytest.raises(ConfigurationError, match="53/1024"):
        make_spec("heavy_tail", (0.01,))


def test_make_spec_table():
    u = make_spec("uniform", (-1, 1))
    assert u.declared_alpha == 1.0 and u.declared_q == Q_UNBOUNDED
    p = make_spec("power_regular", (0.5,))
    assert p.declared_alpha == 0.5
    h = make_spec("heavy_tail", (4.0,))
    assert h.declared_q == 4.0 and h.declared_alpha == 1.0
    with pytest.raises(ConfigurationError):
        make_spec("uniform", (1, -1))
    with pytest.raises(ConfigurationError):
        make_spec("power_regular", (1.5,))
    with pytest.raises(ConfigurationError):
        make_spec("lognormal", (0, 1))


def test_uniform_support():
    v = draws(make_spec("uniform", (-1, 1)), 100_000)
    assert v.min() >= -1.0 and v.max() <= 1.0
    assert abs(v.mean()) < 4.0 / np.sqrt(len(v))


def test_power_regular_cdf_oracle():
    # v = sign(u) u^2 for u uniform: F(v) = (1 + sign(v) sqrt|v|) / 2
    v = np.sort(draws(make_spec("power_regular", (0.5,)), 1_000_000))
    grid = np.linspace(-0.999, 0.999, 801)
    empirical = np.searchsorted(v, grid, side="right") / len(v)
    exact = (1.0 + np.sign(grid) * np.sqrt(np.abs(grid))) / 2.0
    assert np.max(np.abs(empirical - exact)) < 5e-3
    assert v.min() >= -1.0 and v.max() <= 1.0


def test_gaussian_mean_clt():
    v = draws(make_spec("gaussian", (0, 1)), 1_000_000)
    assert abs(v.mean()) < 4e-3  # 4 / sqrt(n)
    assert abs(v.std() - 1.0) < 4e-3


def test_heavy_tail_survival_oracle():
    # P(|v| > t) = (1 + t)^(-q0)
    q0 = 4.0
    v = np.abs(draws(make_spec("heavy_tail", (q0,)), 1_000_000))
    for t in (0.5, 1.0, 3.0):
        emp = np.mean(v > t)
        exact = (1.0 + t) ** (-q0)
        assert emp == pytest.approx(exact, abs=4.0 / np.sqrt(len(v)))


def test_sampling_is_deterministic_and_word_counted():
    for fam, params in [
        ("uniform", (-1, 1)),
        ("gaussian", (0, 1)),
        ("power_regular", (0.5,)),
        ("heavy_tail", (4.0,)),
    ]:
        spec = make_spec(fam, params)
        a = draws(spec, 64)
        b = draws(spec, 64)
        assert np.array_equal(a, b)
        s = Stream(SEED)
        sample_vector(spec, s, 64)
        assert s.pos == 64 * (2 if fam == "gaussian" else 1)


def test_scalar_sample_is_stream_prefix():
    spec = make_spec("gaussian", (0, 1))
    s = Stream(SEED)
    first = sample_vector(spec, s, 1)[0]
    assert isinstance(first, float)
    assert s.pos == 2  # one Box-Muller pair
    assert first == draws(spec, 4)[0]


def test_density_normalizes():
    for fam, params, lo, hi, sing in [
        ("uniform", (-1, 1), -1, 1, ()),
        ("gaussian", (0, 1), -12, 12, ()),
        ("power_regular", (0.5,), -1, 1, (0.0,)),
        ("heavy_tail", (4.0,), -2000, 2000, ()),
    ]:
        spec = make_spec(fam, params)
        mass, err = integrate(lambda x: density(spec, x), lo, hi, singular_points=sing)
        assert mass == pytest.approx(1.0, abs=1e-3 + err)


def test_regularity_probe_uniform_and_gaussian():
    t_grid = np.linspace(-0.5, 0.5, 11)
    eps_grid = np.array([0.2, 0.1, 0.05])
    s = Stream(SEED)
    c_uni = regularity_probe(make_spec("uniform", (-1, 1)), 1.0, t_grid, eps_grid, 200_000, s)
    assert c_uni == pytest.approx(1.0, abs=0.05)
    s = Stream(SEED)
    c_gau = regularity_probe(make_spec("gaussian", (0, 1)), 1.0, t_grid, eps_grid, 200_000, s)
    assert c_gau == pytest.approx(2.0 / np.sqrt(2.0 * np.pi), abs=0.05)


def test_regularity_probe_detects_power_singularity():
    spec = make_spec("power_regular", (0.5,))
    t_grid = np.array([0.0])
    n = 400_000
    coarse = regularity_probe(spec, 1.0, t_grid, np.array([0.16]), n, Stream(SEED))
    fine = regularity_probe(spec, 1.0, t_grid, np.array([0.01]), n, Stream(SEED))
    assert fine / coarse > 2.0  # alpha=1 probe diverges like eps^(-1/2)
    coarse = regularity_probe(spec, 0.5, t_grid, np.array([0.16]), n, Stream(SEED))
    fine = regularity_probe(spec, 0.5, t_grid, np.array([0.01]), n, Stream(SEED))
    assert fine / coarse < 2.0  # declared alpha keeps the probe bounded


def test_regularity_probe_bounded_under_grid_refinement():
    # spec invariant: refining eps by 4 changes the probe by < 2x at declared alpha
    t_grid = np.linspace(-1, 1, 9)
    for fam, params in [("uniform", (-1, 1)), ("power_regular", (0.5,))]:
        spec = make_spec(fam, params)
        base = regularity_probe(spec, spec.declared_alpha, t_grid,
                                np.array([0.2]), 400_000, Stream(SEED))
        refined = regularity_probe(spec, spec.declared_alpha, t_grid,
                                   np.array([0.05]), 400_000, Stream(SEED))
        assert refined / base < 2.0


def test_moment_probe_oracles():
    s = Stream(SEED)
    assert moment_probe(make_spec("uniform", (-1, 1)), 2.0, 500_000, s) == pytest.approx(
        1.0 / 3.0, abs=0.01
    )
    s = Stream(SEED)
    assert moment_probe(make_spec("gaussian", (0, 1)), 2.0, 500_000, s) == pytest.approx(
        1.0, abs=0.02
    )
    assert moment_probe(make_spec("uniform", (-1, 1)), 0.0, 10_000, Stream(SEED)) == 1.0


def test_moment_probe_converges_when_doubling_n():
    spec = make_spec("heavy_tail", (4.0,))
    q = 2.0  # below declared_q
    a = moment_probe(spec, q, 100_000, Stream(SEED))
    b = moment_probe(spec, q, 200_000, Stream(SEED))
    v = sample_vector(spec, Stream(SEED), 200_000)
    se = np.std(np.abs(v) ** q, ddof=1) / np.sqrt(len(v))
    assert abs(a - b) < 3.0 * se * np.sqrt(2.0)


def test_probe_preconditions():
    spec = make_spec("uniform", (-1, 1))
    with pytest.raises(ConfigurationError):
        regularity_probe(spec, 1.0, [], [0.1], 20_000, Stream(SEED))
    with pytest.raises(ConfigurationError):
        regularity_probe(spec, 1.0, [0.0], [0.1], 100, Stream(SEED))
    with pytest.raises(ConfigurationError):
        moment_probe(spec, 1.0, 100, Stream(SEED))
