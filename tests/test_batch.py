"""The batched sample path: streams, stacks, sub-stack caps and redraws.

A sample's payload depends only on (master_seed, index), so it must not
change with the batch it is computed in, the stack size cap, or a redraw of
another member.
"""

import json
import math

import numpy as np
import pytest

from fmlab import estimators, inequalities
from fmlab.disorder import make_spec, sample_vector
from fmlab.errors import NumericalError, ResampleSignal
from fmlab.estimators import _SampleCtx
from fmlab.model import (
    alloy_model,
    assemble,
    assembly_plan,
    block_model,
    singular_covering_model,
    spencer_model,
)
from fmlab.numerics import (
    hermitian_eig,
    hermitian_eigvals,
    opnorm_batch,
    resolvent_profile,
)
from fmlab.rng import Stream, derive_sample_seed
from fmlab.topology import make_lattice_box

UNIFORM = make_spec("uniform", (-1, 1))
GAUSSIAN = make_spec("gaussian", (0, 1))
SEED = 4321

MODELS = {
    "spencer": (spencer_model(1.0, 4.0), make_lattice_box(1, (5,)), UNIFORM),
    "alloy": (alloy_model({(0,): 1.0, (1,): -1.0}, 3.0), make_lattice_box(1, (6,), True), GAUSSIAN),
}

# kind -> (batch function, the parsed estimator fields it reads)
KINDS = {
    "decay": (estimators._moment_batch, {"x0": 0, "s": 1 / 3, "lambda": 0.0, "eps": 1e-3}),
    "wegner": (estimators._window_batch, {"lambda0": 0.3, "eps_list": np.array([0.8, 0.4, 0.1])}),
    "ids": (estimators._ids_batch, {"bins": np.linspace(-2.0, 2.0, 9)}),
    "correlator": (estimators._correlator_batch, {"interval": (-1.0, 1.0), "x0": 0}),
    "dynamical": (
        estimators._dynamical_batch, {"interval": (-1.0, 1.0), "x0": 0, "t_points": 16}
    ),
    "one_step": (
        inequalities._one_step_batch,
        {"x": 1, "y": 2, "one_step_s": 1 / 3, "lambda": 0.0, "eps": 1e-3},
    ),
    "decoupling": (
        inequalities._decoupling_batch,
        {"x": 0, "y": 2, "decoupling_s": 0.2, "eps": 1e-3, "lambda_grid": [0.0, 0.5, 1.0]},
    ),
    "comparability": (
        inequalities._comparability_batch,
        {"l": 2, "m": 1, "s": 0.15, "r": 0.15, "param_scale": 4.0},
    ),
    "reverse_holder": (inequalities._rh_batch, {"rh_s": 0.2, "rh_j": 2}),
}


def context(model_name, params):
    model, topo, dis = MODELS[model_name]
    return _SampleCtx(model, topo, dis, SEED, params, assembly_plan(model, topo))


def payload_bytes(payloads) -> bytes:
    return json.dumps(payloads, sort_keys=True, separators=(",", ":")).encode()


def test_stream_of_states_matches_single_streams():
    states = derive_sample_seed(SEED, np.arange(4))
    both = Stream(states)
    first, second = both.uniforms(5), both.words(3)
    assert first.shape == (4, 5) and second.shape == (4, 3)
    for b, state in enumerate(states):
        alone = Stream(state)
        assert np.array_equal(first[b], alone.uniforms(5))
        assert np.array_equal(second[b], alone.words(3))
    later = Stream(states[[1, 3]], both.pos)
    assert np.array_equal(later.words(2)[1], Stream(states[3], 8).words(2))


@pytest.mark.parametrize("dis", [UNIFORM, GAUSSIAN], ids=["uniform", "gaussian"])
def test_sample_vector_rows_match_single_draws(dis):
    states = derive_sample_seed(SEED, np.arange(3))
    rows = sample_vector(dis, Stream(states), 7)
    for b, state in enumerate(states):
        assert np.array_equal(rows[b], sample_vector(dis, Stream(state), 7))


def per_site_assembly(model, topo, v, plan):
    """Reference: the hopping matrix plus one potential block per site, in a loop."""
    ref = plan.hop.copy()
    if model.variant == "alloy":
        for c, tgt, src in plan.alloy_gather:
            for t, s in zip(tgt, src):
                ref[t, t] += c * v[s]
    else:
        ka = model.k_ambient
        for x in range(topo.n_vertices):
            sl = slice(x * ka, (x + 1) * ka)
            ref[sl, sl] += v[x] * model.A + model.B
    return ref


@pytest.mark.parametrize(
    "model,topo",
    [
        MODELS["spencer"][:2],
        MODELS["alloy"][:2],
        (singular_covering_model(2.0), make_lattice_box(1, (4,))),
        (block_model([[1.0, 0.5j], [-0.5j, 2.0]], [[0.0, 1.0], [1.0, 0.0]], 3.0,
                     {(1, 0): [[1.0, 0.2], [0.0, 1.0]], (0, 1): [[0.5, 0.0], [0.3j, 0.5]]}),
         make_lattice_box(2, (3, 4), True)),
    ],
    ids=["spencer", "alloy", "singular_covering", "block_hopping_2d"],
)
def test_assembly_matches_per_site_loop(model, topo):
    plan = assembly_plan(model, topo)
    v = sample_vector(UNIFORM, Stream(derive_sample_seed(SEED, np.arange(3))), topo.n_vertices)
    stack = assemble(model, topo, v, plan)
    assert stack.matrix.shape == (3,) + plan.hop.shape
    for b in range(3):
        single = assemble(model, topo, v[b], plan)
        assert np.array_equal(stack.matrix[b], per_site_assembly(model, topo, v[b], plan))
        assert np.array_equal(single.matrix, stack.matrix[b])
        assert stack.member(b).digest == single.digest


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_payloads_do_not_depend_on_the_batch(kind, model_name, monkeypatch):
    batch_fn, params = KINDS[kind]
    ctx = context(model_name, params)
    n = 23
    singles = payload_bytes([batch_fn(ctx, [i])[0] for i in range(n)])
    assert payload_bytes(batch_fn(ctx, list(range(n)))) == singles
    dim = ctx.topo.n_vertices * ctx.model.k_ambient
    monkeypatch.setattr(estimators, "STACK_BYTES", 5 * 16 * dim * dim)  # stacks of 5
    assert payload_bytes(batch_fn(ctx, list(range(n)))) == singles


def test_one_singular_member_is_redrawn_alone(monkeypatch):
    batch_fn, params = KINDS["decay"]
    ctx = context("spencer", params)
    n_sites = ctx.topo.n_vertices
    before = batch_fn(ctx, list(range(12)))
    stream = Stream(derive_sample_seed(SEED, 5))
    first_draw = sample_vector(ctx.disorder, stream, n_sites)
    redraw = sample_vector(ctx.disorder, stream, n_sites)
    real = estimators.resolvent_profile

    def singular_on_first_draw(h, *args):
        hit = np.all(h.v == first_draw, axis=-1)
        if np.any(hit):
            raise ResampleSignal(hit)
        return real(h, *args)

    monkeypatch.setattr(estimators, "resolvent_profile", singular_on_first_draw)
    after = batch_fn(ctx, list(range(12)))
    assert after[5]["r"] == 1
    expected = opnorm_batch(real(assemble(ctx.model, ctx.topo, redraw), 0.0, 1e-3, 0)) ** (1 / 3)
    assert after[5]["m"] == expected.tolist()
    assert after[5]["m"] != before[5]["m"]
    assert [p for i, p in enumerate(after) if i != 5] == [p for i, p in enumerate(before) if i != 5]


def test_stacked_solve_names_the_singular_members():
    _, topo, _ = MODELS["spencer"]
    decoupled = spencer_model(0.0, math.inf)  # H = diag(v, -v) per site
    v = np.array([[0.5, -0.25, 0.75, 0.1, 0.2],
                  [0.5, 0.0, 0.75, 0.1, 0.2],
                  [0.3, 0.2, 0.1, 0.4, 0.6]])
    h = assemble(decoupled, topo, v)
    with pytest.raises(ResampleSignal) as info:
        resolvent_profile(h, 0.0, 0.0, 0)
    assert info.value.members.tolist() == [False, True, False]


def test_stacked_spectra_match_single_members():
    model, topo, dis = MODELS["spencer"]
    v = sample_vector(dis, Stream(derive_sample_seed(SEED, np.arange(4))), topo.n_vertices)
    stack = assemble(model, topo, v)
    sds, vals = hermitian_eig(stack), hermitian_eigvals(stack)
    for b in range(4):
        single = assemble(model, topo, v[b])
        assert np.array_equal(sds[b].eigenvectors, hermitian_eig(single).eigenvectors)
        assert np.array_equal(vals[b], hermitian_eigvals(single))


def test_stacked_checks_name_the_failing_member():
    model, topo, dis = MODELS["spencer"]
    v = sample_vector(dis, Stream(derive_sample_seed(SEED, np.arange(3))), topo.n_vertices)
    stack = assemble(model, topo, v)
    stack.matrix[2, 0, 1] += 1e-13
    with pytest.raises(NumericalError, match=stack.member(2).digest[:16]):
        hermitian_eigvals(stack)
    with pytest.raises(NumericalError, match=stack.member(2).digest[:16]):
        hermitian_eig(stack)
    stack.matrix[2, 0, 1] = np.nan  # a NaN residual fails the residual contract
    with pytest.raises(NumericalError, match="residual.*" + stack.member(2).digest[:16]):
        resolvent_profile(stack, 0.0, 1e-3, 0)


def test_perturbed_solve_in_a_decay_stack_names_its_member(monkeypatch):
    # a solve off by 1e-6 on one row of member 5 fails the residual contract
    batch_fn, params = KINDS["decay"]
    ctx = context("spencer", params)
    v = sample_vector(ctx.disorder, Stream(derive_sample_seed(SEED, 5)), ctx.topo.n_vertices)
    digest = assemble(ctx.model, ctx.topo, v).digest
    real = np.linalg.solve

    def off_on_member_5(a, b):
        sol = real(a, b)
        sol[5, 0] += 1e-6
        return sol

    monkeypatch.setattr(np.linalg, "solve", off_on_member_5)
    with pytest.raises(NumericalError, match="residual") as info:
        batch_fn(ctx, list(range(12)))
    assert info.value.digest == digest
