import numpy as np
import pytest

from fmlab.errors import ConfigurationError
from fmlab.topology import distances_from, make_lattice_box
from oracles import bfs_distances, pair_neighbors

rng = np.random.default_rng(42)


def distance(g, x, y):
    return int(distances_from(g, x)[y])


def test_chain_of_three():
    g = make_lattice_box(1, (3,))
    assert g.n_vertices == 3
    assert g.neighbors(1) == (0, 2)
    assert g.neighbors(0) == (1,)
    edges = {(x, y) for x in range(3) for y in g.neighbors(x) if x < y}
    assert edges == {(0, 1), (1, 2)}


def test_unit_square():
    g = make_lattice_box(2, (2, 2))
    assert g.n_vertices == 4
    assert sum(len(g.neighbors(x)) for x in range(g.n_vertices)) // 2 == 4


def test_lattice_center_degree():
    g = make_lattice_box(2, (3, 3))
    degs = [len(g.neighbors(x)) for x in range(g.n_vertices)]
    assert max(degs) == 4  # 2d at the center
    corner = 0
    assert len(g.neighbors(corner)) == 2


def test_degree_census_open_and_periodic():
    for d, sides in [(1, (6,)), (2, (4, 5)), (3, (3, 3, 3))]:
        g = make_lattice_box(d, sides)
        degs = np.array([len(g.neighbors(x)) for x in range(g.n_vertices)])
        assert degs.min() >= d and degs.max() <= 2 * d
        p = make_lattice_box(d, sides, periodic=True) if min(sides) >= 3 else None
        if p is not None:
            assert all(len(p.neighbors(x)) == 2 * d for x in range(p.n_vertices))


def test_distance_examples():
    chain = make_lattice_box(1, (5,))
    assert distance(chain, 0, 4) == 4
    assert distance(chain, 2, 2) == 0
    box = make_lattice_box(2, (3, 3))
    # vertex (0,0) is 0, vertex (2,2) is 8 in row-major order
    assert distance(box, 0, 8) == 4


def test_distance_matches_l1_on_open_boxes():
    g = make_lattice_box(2, (4, 5))
    for _ in range(30):
        x, y = rng.integers(0, g.n_vertices, 2)
        l1 = int(np.abs(g.coords[x] - g.coords[y]).sum())
        assert distance(g, int(x), int(y)) == l1


def test_distance_symmetry_and_triangle():
    g = make_lattice_box(2, (4, 4), periodic=True)
    for _ in range(40):
        x, y, z = (int(v) for v in rng.integers(0, g.n_vertices, 3))
        assert distance(g, x, y) == distance(g, y, x)
        assert distance(g, x, z) <= distance(g, x, y) + distance(g, y, z)


BOXES = [
    (1, (5,), False), (1, (5,), True),
    (2, (3, 4), False), (2, (3, 4), True),
    (3, (2, 3, 2), False), (3, (3, 4, 3), True),
]


@pytest.mark.parametrize("d,sides,periodic", BOXES)
def test_closed_forms_match_pair_by_pair_search(d, sides, periodic):
    g = make_lattice_box(d, sides, periodic)
    adjacency = pair_neighbors(g)
    for x in range(g.n_vertices):
        assert g.neighbors(x) == adjacency[x]
        assert np.array_equal(distances_from(g, x), bfs_distances(g, x))


def test_shift_wraps_or_drops():
    chain = make_lattice_box(1, (4,))
    x, y = chain.shift((1,))
    assert x.tolist() == [0, 1, 2] and y.tolist() == [1, 2, 3]
    x, y = make_lattice_box(1, (4,), periodic=True).shift((-1,))
    assert x.tolist() == [0, 1, 2, 3] and y.tolist() == [3, 0, 1, 2]
    x, y = make_lattice_box(2, (2, 3)).shift((1, -1))
    assert x.tolist() == [1, 2] and y.tolist() == [3, 4]
    assert make_lattice_box(1, (1,)).shift((1,))[0].size == 0


def test_configuration_errors():
    with pytest.raises(ConfigurationError):
        make_lattice_box(2, (3,))
    with pytest.raises(ConfigurationError):
        make_lattice_box(1, (2,), periodic=True)
