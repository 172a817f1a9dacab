"""Model construction and assembly contracts."""

import math

import numpy as np
import pytest

from fmlab.disorder import make_spec
from fmlab.errors import ConfigurationError
from fmlab.model import (
    alloy_model,
    assemble,
    assembly_plan,
    singular_covering_model,
    block_model,
    spencer_model,
    decay_exponent_window,
    instance_digest,
)
from fmlab.rng import Stream
from fmlab.disorder import sample_vector
from fmlab.topology import make_lattice_box
from oracles import hermiticity_residual, pairwise_assembly, pairwise_hopping

rng = np.random.default_rng(7)
CHAIN5 = make_lattice_box(1, (5,))


def scalar_anderson(topo, v, g):
    """Direct scalar assembler: the plain Anderson matrix, for cross-checks."""
    n = topo.n_vertices
    out = np.zeros((n, n), dtype=np.complex128)
    for x in range(n):
        out[x, x] = v[x]
        for y in topo.neighbors(x):
            out[x, y] = 1.0 / g
    return out


def test_spencer_single_site_eigenvalues():
    sp, site = spencer_model(1.0, 2.0), make_lattice_box(1, (1,))
    h = assemble(sp, site, [0.0], assembly_plan(sp, site))
    vals = np.linalg.eigvalsh(h)
    assert np.allclose(vals, [-1.0, 1.0])
    h2 = assemble(sp, site, [3.0], assembly_plan(sp, site))
    sp4 = spencer_model(4.0, 2.0)
    h3 = assemble(sp4, site, [3.0], assembly_plan(sp4, site))
    assert np.allclose(np.linalg.eigvalsh(h3), [-5.0, 5.0])  # +-sqrt(v^2+a^2)
    assert np.allclose(np.linalg.eigvalsh(h2), [-np.sqrt(10), np.sqrt(10)])


def test_spencer_site_matrix_display():
    sp, site = spencer_model(1.0, 2.0), make_lattice_box(1, (1,))
    h = assemble(sp, site, [0.5], assembly_plan(sp, site))
    assert np.array_equal(h, np.array([[0.5, 1.0], [1.0, -0.5]], dtype=np.complex128))


def test_spencer_single_site_window_mass_exponent():
    # mass of [a, a+eps] under v ~ uniform(-1,1) is sqrt(eps^2 + 2 a eps), a=1
    a = 1.0
    v = sample_vector(make_spec("uniform", (-1, 1)), Stream(5), 400_000)
    top = np.sqrt(v * v + a * a)
    for eps in (0.2, 0.05):
        emp = np.mean((top >= a) & (top <= a + eps))
        assert emp == pytest.approx(np.sqrt(eps * eps + 2 * a * eps), abs=3e-3)


def test_singular_covering_model_matrices():
    m = singular_covering_model(2.0)
    a = np.real(np.asarray(m.A))
    assert np.array_equal(a, np.diag([1.0, 0.0, -1.0]))
    assert abs(np.linalg.det(np.asarray(m.A))) == 0.0  # singular covering matrix
    # det(vA + B) = -3v: invertible exactly when v != 0
    for v in (-1.0, -0.25, 0.1, 2.0):
        det = np.linalg.det(v * np.asarray(m.A) + np.asarray(m.B))
        assert det == pytest.approx(-3.0 * v, rel=1e-10)
    assert np.linalg.det(np.asarray(m.B)) == pytest.approx(0.0, abs=1e-12)


def test_alloy_reductions():
    plain = alloy_model({0: 1.0}, 2.0)
    assert plain.k == 1
    h = assemble(plain, CHAIN5, [1.0, 2.0, 3.0, 4.0, 5.0], assembly_plan(plain, CHAIN5))
    assert np.allclose(np.diag(h).real, [1, 2, 3, 4, 5])

    diff = alloy_model({0: 1.0, 1: -1.0}, 2.0)
    assert diff.k == 2
    chain3 = make_lattice_box(1, (3,))
    hc = assemble(diff, chain3, [7.0, 7.0, 7.0], assembly_plan(diff, chain3))
    # constants are annihilated except at the truncated boundary
    assert np.allclose(np.diag(hc).real, [0.0, 0.0, 7.0])


def test_alloy_truncation_convention():
    # V(n) = v(n) - v(n+1), the out-of-box term dropped
    model, chain3 = alloy_model({0: 1.0, 1: -1.0}, 2.0), make_lattice_box(1, (3,))
    h = assemble(model, chain3, [1.0, 2.0, 4.0], assembly_plan(model, chain3))
    assert np.allclose(np.diag(h).real, [-1.0, -2.0, 4.0])


def test_alloy_periodic_wraps():
    model, ring3 = alloy_model({0: 1.0, 1: -1.0}, math.inf), make_lattice_box(1, (3,), True)
    h = assemble(model, ring3, [1.0, 2.0, 4.0], assembly_plan(model, ring3))
    assert np.allclose(np.diag(h).real, [-1.0, -2.0, 3.0])


def test_alloy_empty_support_rejected():
    with pytest.raises(ConfigurationError):
        alloy_model({}, 1.0)


def test_assemble_examples():
    model = block_model([[1.0]], [[0.0]], 2.0)
    site, pair = make_lattice_box(1, (1,)), make_lattice_box(1, (2,))
    one = assemble(model, site, [0.7], assembly_plan(model, site))
    assert one.shape == (1, 1) and one[0, 0] == 0.7

    two = assemble(model, pair, [0.1, -0.2], assembly_plan(model, pair))
    assert np.array_equal(
        two, np.array([[0.1, 0.5], [0.5, -0.2]], dtype=np.complex128)
    )


def test_assembly_matches_direct_scalar_anderson():
    g = 3.0
    v = rng.uniform(-1, 1, CHAIN5.n_vertices)
    model = block_model([[1.0]], [[0.0]], g)
    h = assemble(model, CHAIN5, v, assembly_plan(model, CHAIN5))
    assert np.array_equal(h, scalar_anderson(CHAIN5, v, g))


def test_alloy_delta_equals_scalar_block():
    v = rng.uniform(-1, 1, CHAIN5.n_vertices)
    alloy, block = alloy_model({0: 1.0}, 4.0), block_model([[1.0]], [[0.0]], 4.0)
    ha = assemble(alloy, CHAIN5, v, assembly_plan(alloy, CHAIN5))
    hb = assemble(block, CHAIN5, v, assembly_plan(block, CHAIN5))
    assert np.array_equal(ha, hb)


def test_hermiticity_and_sparsity_invariants():
    v = rng.uniform(-1, 1, 9)
    box = make_lattice_box(2, (3, 3))
    for model in (
        spencer_model(1.0, 7.0),
        block_model([[1.0]], [[0.0]], 7.0),
        alloy_model({(0, 0): 1.0, (1, 0): -1.0}, 7.0),
        singular_covering_model(7.0),
    ):
        h = assemble(model, box, v, assembly_plan(model, box))
        assert hermiticity_residual(h) == 0.0
        ka = model.k_ambient
        for x in range(9):
            for y in range(9):
                blk = h[x * ka:(x + 1) * ka, y * ka:(y + 1) * ka]
                if x != y and y not in box.neighbors(x):
                    assert np.all(blk == 0.0)


def test_forged_asymmetry_detected():
    model = block_model([[1.0]], [[0.0]], 2.0)
    h = assemble(model, CHAIN5, np.zeros(5), assembly_plan(model, CHAIN5))
    h[0, 1] += 0.5j
    assert hermiticity_residual(h) > 0.0


def test_coupling_scale_halves_offdiagonal():
    v = rng.uniform(-1, 1, 5)
    sp1, sp2 = spencer_model(1.0, 5.0), spencer_model(1.0, 10.0)
    h1 = assemble(sp1, CHAIN5, v, assembly_plan(sp1, CHAIN5))
    h2 = assemble(sp2, CHAIN5, v, assembly_plan(sp2, CHAIN5))
    off = ~np.eye(10, dtype=bool)
    diag_mask = np.kron(np.eye(5, dtype=bool), np.ones((2, 2), dtype=bool))
    off = ~diag_mask
    assert np.array_equal(h1[off], 2.0 * h2[off])


def test_decoupled_limit():
    model = spencer_model(1.0, math.inf)
    h = assemble(model, CHAIN5, np.zeros(5), assembly_plan(model, CHAIN5))
    diag_mask = np.kron(np.eye(5, dtype=bool), np.ones((2, 2), dtype=bool))
    assert np.all(h[~diag_mask] == 0.0)


def test_alloy_potential_block_gathers_neighbor_disorder():
    # the middle site's potential is v1 - v2, gathered from the neighbor's v
    chain3 = make_lattice_box(1, (3,))
    model = alloy_model({0: 1.0, 1: -1.0}, 2.0)
    h = assemble(model, chain3, [1.0, 2.0, 4.0], assembly_plan(model, chain3))
    assert h[1, 1] == -2.0  # site 1's 1 x 1 diagonal block


def test_potential_block():
    sp = spencer_model(2.0, 3.0)
    h = assemble(sp, CHAIN5, [0.5, 0, 0, 0, 0], assembly_plan(sp, CHAIN5))
    assert np.array_equal(h[0:2, 0:2], np.array([[0.5, 2.0], [2.0, -0.5]]))


def test_kernel_symmetry_enforced():
    with pytest.raises(ConfigurationError):
        block_model([[1.0]], [[0.0]], 1.0, hopping={(1,): [[1.0j]], (-1,): [[1.0j]]})
    m = block_model([[1.0]], [[0.0]], 1.0, hopping={(1,): [[1.0j]]})
    assert np.array_equal(m.hopping[(-1,)], np.array([[-1.0j]]))
    chain3 = make_lattice_box(1, (3,))
    h = assemble(m, chain3, np.zeros(3), assembly_plan(m, chain3))
    assert hermiticity_residual(h) == 0.0


def test_hopping_offsets_must_be_nearest_neighbour():
    # a kernel at (2,) never reached assembly but scaled the one-step majorant
    for off in ((2,), (0,), (1, 1), (-1, 1), (0, 2)):
        with pytest.raises(ConfigurationError, match="nearest-neighbour"):
            block_model([[1.0]], [[0.0]], 1.0, hopping={(1,): [[1.0]], off: [[2.0]]})
    assert block_model([[1.0]], [[0.0]], 1.0, hopping={(1,): [[1.0]]}).c_b3 == 1.0


def test_missing_kernel_only_for_realized_offsets():
    m = block_model([[1.0]], [[0.0]], 1.0, hopping={(1, 0): [[1.0]]})
    with pytest.raises(ConfigurationError, match="no hopping kernel"):
        assembly_plan(m, make_lattice_box(2, (2, 2)))
    # a 2x1 box realizes only the (+-1, 0) offsets, a single site none at all
    assert np.array_equal(assembly_plan(m, make_lattice_box(2, (2, 1))).base, [[0, 1], [1, 0]])
    assert not assembly_plan(m, make_lattice_box(2, (1, 1))).base.any()


PAIRWISE_MODELS = {
    "block_distinct_kernels": block_model(
        [[1.0, 0.5j], [-0.5j, 2.0]], [[0.0, 1.0], [1.0, 0.0]], 3.0,
        {(1, 0): [[1.0, 0.2], [0.0, 1.0]], (0, 1): [[0.5, 0.0], [0.3j, 0.5]]},
    ),
    "spencer": spencer_model(1.0, 3.0),
    "alloy": alloy_model({(0, 0): 1.0, (1, 0): -1.0, (0, 2): 0.5}, 3.0),
}


@pytest.mark.parametrize("periodic", [False, True], ids=["open", "periodic"])
@pytest.mark.parametrize("name", sorted(PAIRWISE_MODELS))
def test_assembly_matches_pair_by_pair_build(name, periodic):
    model = PAIRWISE_MODELS[name]
    box = make_lattice_box(2, (3, 4), periodic)
    plan = assembly_plan(model, box)
    assert np.array_equal(plan.base, pairwise_hopping(model, box))
    v = rng.uniform(-1, 1, box.n_vertices)
    assert np.array_equal(assemble(model, box, v, plan), pairwise_assembly(model, box, v))


def test_non_hermitian_blocks_rejected():
    with pytest.raises(ConfigurationError):
        block_model([[1.0, 1.0], [0.0, 1.0]], np.zeros((2, 2)), 1.0)


def test_decay_exponent_window():
    # alpha q / (2 k alpha + k q): k=2, alpha=1, q -> inf gives 1/2
    assert decay_exponent_window(2, 1.0, 1e12) == pytest.approx(0.5, abs=1e-9)
    assert decay_exponent_window(1, 1.0, 2.0) == pytest.approx(0.5)


def test_assembly_plan_reuse():
    # one plan serves every realization: each equals its assembly from a fresh plan
    m = spencer_model(1.0, 3.0)
    plan = assembly_plan(m, CHAIN5)
    for v in rng.uniform(-1, 1, (2, 5)):
        a = assemble(m, CHAIN5, v, plan)
        b = assemble(m, CHAIN5, v, assembly_plan(m, CHAIN5))
        assert np.array_equal(a, b)
        assert instance_digest(m, CHAIN5, v, a) == instance_digest(m, CHAIN5, v, b)
