"""The batched sample path: streams, stacks, sub-stack caps and redraws.

A sample's record depends only on (master_seed, index), so its bytes must
not change with the batch it is computed in, the stack size cap, or a redraw
of another member.
"""

import math

import numpy as np
import pytest

from fmlab import estimators, inequalities
from fmlab.disorder import make_spec, sample_vector
from fmlab.errors import NumericalError, ResampleSignal
from fmlab.estimators import default_eps, sample_context
from fmlab.model import (
    alloy_model,
    assemble,
    assembly_plan,
    block_model,
    instance_digest,
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

# an open 16-site Spencer chain: 4 slabs of 8 rows in a kind that sweeps
SLABS = (spencer_model(1.0, 4.0), make_lattice_box(1, (16,)), UNIFORM)
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
    return sample_context(params, *MODELS[model_name], SEED)


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
    """Reference: the hopping matrix of a one-slab plan plus one potential block per
    site, in a loop."""
    ref = plan.base.copy()
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
    assert stack.shape == (3,) + plan.base.shape
    for b in range(3):
        single = assemble(model, topo, v[b], plan)
        assert np.array_equal(stack[b], per_site_assembly(model, topo, v[b], plan))
        assert np.array_equal(single, stack[b])
        assert (instance_digest(model, topo, v[b], stack[b])
                == instance_digest(model, topo, v[b], single))


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_payloads_do_not_depend_on_the_batch(kind, model_name, monkeypatch):
    batch_fn, params = KINDS[kind]
    ctx = context(model_name, params)
    n = 23
    singles = np.concatenate([batch_fn(ctx, [i]) for i in range(n)])
    recs = batch_fn(ctx, list(range(n)))
    assert recs.dtype == singles.dtype and recs.tobytes() == singles.tobytes()
    dim = ctx.topo.n_vertices * ctx.model.k_ambient
    monkeypatch.setattr(estimators, "STACK_BYTES", 5 * 16 * dim * dim)  # stacks of 5
    assert batch_fn(ctx, list(range(n))).tobytes() == singles.tobytes()


def test_one_singular_member_is_redrawn_alone(monkeypatch):
    batch_fn, params = KINDS["decay"]
    ctx = context("spencer", params)
    n_sites = ctx.topo.n_vertices
    before = batch_fn(ctx, list(range(12)))
    stream = Stream(derive_sample_seed(SEED, 5))
    first_draw = sample_vector(ctx.disorder, stream, n_sites)
    redraw = sample_vector(ctx.disorder, stream, n_sites)
    real = estimators.resolvent_profile

    first = assemble(ctx.model, ctx.topo, first_draw, ctx.plan)

    def singular_on_first_draw(h, *args):
        hit = np.all(h == first, axis=(-2, -1))
        if np.any(hit):
            raise ResampleSignal(hit)
        return real(h, *args)

    monkeypatch.setattr(estimators, "resolvent_profile", singular_on_first_draw)
    after = batch_fn(ctx, list(range(12)))
    assert after[5]["r"] == 1
    h = assemble(ctx.model, ctx.topo, redraw, ctx.plan)
    expected = opnorm_batch(real(h, 2, 0.0, 1e-3, 0, ctx.plan.couple)) ** (1 / 3)
    assert after[5]["m"].tolist() == expected.tolist()
    assert after[5]["m"].tolist() != before[5]["m"].tolist()
    assert np.delete(after, 5).tobytes() == np.delete(before, 5).tobytes()


def test_stacked_solve_names_the_singular_members():
    _, topo, _ = MODELS["spencer"]
    decoupled = spencer_model(0.0, math.inf)  # H = diag(v, -v) per site
    v = np.array([[0.5, -0.25, 0.75, 0.1, 0.2],
                  [0.5, 0.0, 0.75, 0.1, 0.2],
                  [0.3, 0.2, 0.1, 0.4, 0.6]])
    h = assemble(decoupled, topo, v, assembly_plan(decoupled, topo))
    with pytest.raises(ResampleSignal) as info:
        resolvent_profile(h, 2, 0.0, 0.0, 0)
    assert info.value.members.tolist() == [False, True, False]


def test_stacked_spectra_match_single_members():
    model, topo, dis = MODELS["spencer"]
    v = sample_vector(dis, Stream(derive_sample_seed(SEED, np.arange(4))), topo.n_vertices)
    plan = assembly_plan(model, topo)
    stack = assemble(model, topo, v, plan)
    sds, vals = hermitian_eig(stack), hermitian_eigvals(stack)
    for b in range(4):
        single = assemble(model, topo, v[b], plan)
        assert np.array_equal(sds.eigenvectors[b], hermitian_eig(single).eigenvectors)
        assert np.array_equal(vals[b], hermitian_eigvals(single))


def test_stacked_checks_name_the_failing_member():
    model, topo, dis = MODELS["spencer"]
    v = sample_vector(dis, Stream(derive_sample_seed(SEED, np.arange(3))), topo.n_vertices)
    stack = assemble(model, topo, v, assembly_plan(model, topo))
    stack[2, 0, 1] += 1e-13
    with pytest.raises(NumericalError, match="Hermitian") as info:
        hermitian_eigvals(stack)
    assert info.value.member == 2
    with pytest.raises(NumericalError, match="Hermitian") as info:
        hermitian_eig(stack)
    assert info.value.member == 2
    stack[2, 0, 1] = np.nan  # a NaN residual fails the residual contract
    with pytest.raises(NumericalError, match="residual") as info:
        resolvent_profile(stack, 2, 0.0, 1e-3, 0)
    assert info.value.member == 2


def test_perturbed_solve_in_a_decay_stack_names_its_member(monkeypatch):
    # a solve off by 1e-6 on one row of member 5 fails the residual contract
    batch_fn, params = KINDS["decay"]
    ctx = context("spencer", params)
    v = sample_vector(ctx.disorder, Stream(derive_sample_seed(SEED, 5)), ctx.topo.n_vertices)
    digest = instance_digest(ctx.model, ctx.topo, v, assemble(ctx.model, ctx.topo, v, ctx.plan))
    real = np.linalg.solve

    def off_on_member_5(a, b):
        sol = real(a, b)
        sol[5, 0] += 1e-6
        return sol

    monkeypatch.setattr(np.linalg, "solve", off_on_member_5)
    with pytest.raises(NumericalError, match="residual") as info:
        batch_fn(ctx, list(range(12)))
    assert info.value.digest == digest


@pytest.mark.parametrize(
    "model,topo",
    [SLABS[:2],
     (alloy_model({(0,): 1.0, (1,): -1.0}, 3.0), make_lattice_box(1, (40,))),
     (singular_covering_model(2.0), make_lattice_box(1, (48,))),
     (block_model([[1.0, 0.5j], [-0.5j, 2.0]], [[0.0, 1.0], [1.0, 0.0]], 3.0,
                  {(1, 0): [[1.0, 0.2], [0.0, 1.0]], (0, 1): [[0.5, 0.0], [0.3j, 0.5]]}),
      make_lattice_box(2, (8, 3)))],
    ids=["spencer", "alloy", "singular_covering", "block_hopping_2d"],
)
def test_slab_assembly_is_the_dense_matrix_in_slabs(model, topo):
    # every slab has slab 0's hopping and every neighbouring pair slab 0 and 1's coupling
    plan = assembly_plan(model, topo, sweep=True)
    assert plan.couple is not None
    v = sample_vector(UNIFORM, Stream(derive_sample_seed(SEED, np.arange(3))), topo.n_vertices)
    stack = assemble(model, topo, v, plan)
    assert stack.shape == (3,) + plan.base.shape
    dense = assemble(model, topo, v, assembly_plan(model, topo))
    slabs, m = plan.base.shape[:2]
    zero = np.zeros((3, m, m))
    for i in range(slabs):
        for j in range(slabs):
            want = {0: stack[:, i], 1: plan.couple, -1: plan.couple.conj().T}.get(j - i, zero)
            assert np.array_equal(dense[:, i * m:(i + 1) * m, j * m:(j + 1) * m],
                                  np.broadcast_to(want, (3, m, m)))
    for b in range(3):
        assert np.array_equal(assemble(model, topo, v[b], plan), stack[b])


# resolvent kinds with their sites in different slabs of SLABS
SLAB_KINDS = {
    "decay": {**KINDS["decay"][1], "x0": 9},
    "one_step": {**KINDS["one_step"][1], "x": 6, "y": 9},
    "decoupling": {**KINDS["decoupling"][1], "x": 13, "y": 2},
}


@pytest.mark.parametrize("kind", sorted(SLAB_KINDS))
def test_slab_members_do_not_depend_on_the_stack_size(kind, monkeypatch):
    batch_fn = KINDS[kind][0]
    ctx = sample_context(SLAB_KINDS[kind], *SLABS, SEED)
    assert ctx.plan.couple is not None
    n = 40
    singles = np.concatenate([batch_fn(ctx, [i]) for i in range(n)])
    member = 16 * ctx.plan.base.size  # a member's assembled bytes
    for size in (1, 5, 32):
        monkeypatch.setattr(estimators, "STACK_BYTES", size * member)
        assert batch_fn(ctx, list(range(n))).tobytes() == singles.tobytes()


@pytest.mark.parametrize("site", [2, 5, 14], ids=["left_of_x0", "at_x0", "right_of_x0"])
def test_stacked_sweep_names_the_singular_members(site):
    # x0 = 4 sits in slab 1; site is eliminated before it, is in its slab, or after it
    _, topo, _ = SLABS
    decoupled = spencer_model(0.0, math.inf)  # H = diag(v, -v) per site
    plan = assembly_plan(decoupled, topo, sweep=True)
    v = np.tile(0.1 + 0.05 * np.arange(16), (3, 1))
    v[1, site] = 0.0
    h = assemble(decoupled, topo, v, plan)
    with pytest.raises(ResampleSignal) as info:
        resolvent_profile(h, 2, 0.0, 0.0, 4, plan.couple)
    assert info.value.members.tolist() == [False, True, False]


def test_a_slab_residual_failure_names_the_dense_matrix(monkeypatch):
    # a sweep off by 1e-6 on one row of member 5 fails the residual contract
    batch_fn, params = KINDS["decay"]
    ctx = sample_context(params, *SLABS, SEED)
    assert ctx.plan.couple is not None
    v = sample_vector(ctx.disorder, Stream(derive_sample_seed(SEED, 5)), ctx.topo.n_vertices)
    dense = assemble(ctx.model, ctx.topo, v, assembly_plan(ctx.model, ctx.topo))
    real = np.linalg.solve

    def off_on_member_5(a, b):
        sol = real(a, b)
        sol[5, 0] += 1e-6  # the stack of 12
        return sol

    monkeypatch.setattr(np.linalg, "solve", off_on_member_5)
    with pytest.raises(NumericalError, match="residual") as info:
        batch_fn(ctx, list(range(12)))
    assert info.value.digest == instance_digest(ctx.model, ctx.topo, v, dense)


def test_auto_eps_reads_the_dense_spectrum_of_sample_0():
    model, topo, dis = SLABS
    v = sample_vector(dis, Stream(derive_sample_seed(SEED, 0)), topo.n_vertices)
    vals = np.linalg.eigvalsh(assemble(model, topo, v, assembly_plan(model, topo)))
    ctx = sample_context({"eps": "auto"}, model, topo, dis, SEED)
    assert ctx.plan.couple is not None
    swept = default_eps(ctx)
    assert swept == 1e-3 * float(vals[-1] - vals[0]) / vals.size
    assert swept == default_eps(sample_context({}, model, topo, dis, SEED))
