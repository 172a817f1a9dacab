"""Lattice boxes in Z^d and graph distance on them.

Vertices are dense integers 0..n-1 in row-major order.  A box carries the
integer coordinates of its vertices, from which assembly reads hopping and
alloy offsets.  Topologies are immutable after construction and safe to
share across workers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

_UNSEEN = -1  # breadth-first search marker


@dataclass(frozen=True, eq=False)
class GraphTopology:
    n_vertices: int
    adjacency: tuple  # per-vertex sorted tuple of neighbors
    coords: np.ndarray  # (n, d) int lattice coordinates
    sides: tuple
    periodic: tuple

    def __post_init__(self):
        self.coords.setflags(write=False)

    def signature(self) -> str:
        per = ",".join("1" if p else "0" for p in self.periodic)
        return f"box:sides={'x'.join(str(s) for s in self.sides)}:periodic={per}"


def make_lattice_box(d: int, sides, periodic: bool = False) -> GraphTopology:
    """Axis-aligned box {0..side_i - 1}^d with nearest-neighbor edges.

    Periodic boxes wrap every axis and require all sides >= 3 so that wrap
    edges never duplicate open ones.
    """
    sides = tuple(int(s) for s in (sides if np.iterable(sides) else (sides,)))
    if d < 1 or len(sides) != d:
        raise ConfigurationError(f"need {d} side lengths, got {sides}")
    if any(s < 1 for s in sides):
        raise ConfigurationError(f"sides must be >= 1, got {sides}")
    if periodic and any(s < 3 for s in sides):
        raise ConfigurationError("periodic boxes require all sides >= 3")

    n = int(np.prod(sides))
    grids = np.indices(sides).reshape(d, n).T  # row-major vertex order
    strides = np.ones(d, dtype=np.int64)
    for ax in range(d - 2, -1, -1):
        strides[ax] = strides[ax + 1] * sides[ax + 1]

    adj = [[] for _ in range(n)]
    for x in range(n):
        c = grids[x]
        for ax in range(d):
            for step in (-1, 1):
                t = c[ax] + step
                if periodic:
                    t %= sides[ax]
                elif not 0 <= t < sides[ax]:
                    continue
                y = x + (t - c[ax]) * strides[ax]
                adj[x].append(int(y))
    adj = tuple(tuple(sorted(set(nb))) for nb in adj)
    return GraphTopology(
        n_vertices=n,
        adjacency=adj,
        coords=grids.astype(np.int64),
        sides=sides,
        periodic=tuple(bool(periodic) for _ in range(d)),
    )


def distances_from(g: GraphTopology, x: int) -> np.ndarray:
    """Graph distances from x to every vertex, by breadth-first search."""
    dist = np.full(g.n_vertices, _UNSEEN, dtype=np.int64)
    dist[x] = 0
    queue = deque([x])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in g.adjacency[u]:
            if dist[v] == _UNSEEN:
                dist[v] = du
                queue.append(v)
    return dist
