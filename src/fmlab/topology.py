"""Lattice boxes in Z^d: vertex numbering, boundary rule and distance.

Vertices are dense integers 0..n-1 in row-major order of their integer
coordinates.  A box is open, or periodic on every axis (a torus).  This
module is the only place that knows the numbering and what happens at the
boundary: assembly reads hopping and alloy offsets through
`LatticeBox.shift`, which translates the whole box by one offset at once.
Boxes are immutable and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


def unit_offsets(d: int) -> np.ndarray:
    """The 2d nearest-neighbour offsets of Z^d: +e_0, ..., +e_{d-1}, -e_0, ..."""
    eye = np.eye(d, dtype=np.int64)
    return np.concatenate([eye, -eye])


@dataclass(frozen=True, eq=False)
class LatticeBox:
    sides: tuple
    periodic: bool

    @property
    def n_vertices(self) -> int:
        return math.prod(self.sides)

    @property
    def coords(self) -> np.ndarray:
        """(n, d) integer lattice coordinates, in vertex order."""
        return np.indices(self.sides).reshape(len(self.sides), -1).T

    def signature(self) -> str:
        per = ",".join("1" if self.periodic else "0" for _ in self.sides)
        return f"box:sides={'x'.join(str(s) for s in self.sides)}:periodic={per}"

    def _place(self, points: np.ndarray):
        """(rows, vertices): the rows of the (m, d) coordinate array that name a
        vertex of the box (all of them on a torus, which wraps), and those
        vertices' numbers."""
        if self.periodic:
            rows = np.arange(len(points))
        else:
            rows = np.flatnonzero(np.all((points >= 0) & (points < self.sides), axis=1))
        return rows, np.ravel_multi_index(points[rows].T, self.sides, mode="wrap")

    def shift(self, offset):
        """(x, y): every vertex x whose translate y = x + offset lies in the box,
        wrapped on a periodic box and dropped on an open one, ascending in x."""
        return self._place(self.coords + np.asarray(offset, dtype=np.int64))

    def neighbors(self, x: int) -> tuple:
        """The nearest neighbours of vertex x, in ascending order."""
        _, ys = self._place(self.coords[x] + unit_offsets(len(self.sides)))
        return tuple(sorted(ys.tolist()))


def make_lattice_box(d: int, sides, periodic: bool = False) -> LatticeBox:
    """Axis-aligned box {0..side_i - 1}^d with nearest-neighbor edges.

    Periodic boxes wrap every axis and require all sides >= 3 so that wrap
    edges never duplicate open ones.
    """
    sides = tuple(int(s) for s in (sides if np.iterable(sides) else (sides,)))
    if len(sides) != d:
        raise ConfigurationError(f"need {d} side lengths, got {sides}")
    if periodic and any(s < 3 for s in sides):
        raise ConfigurationError("periodic boxes require all sides >= 3")
    return LatticeBox(sides=sides, periodic=bool(periodic))


def distances_from(box: LatticeBox, x: int) -> np.ndarray:
    """Graph distances from x to every vertex: the l1 distance, each axis
    taken the short way round on a periodic box."""
    coords = box.coords
    delta = np.abs(coords - coords[x])
    if box.periodic:
        delta = np.minimum(delta, np.asarray(box.sides) - delta)
    return delta.sum(axis=1)
