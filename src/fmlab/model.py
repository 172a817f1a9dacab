"""Random operator families and per-realization Hamiltonian assembly.

Three variants share one assembly path:

* ``block``: single-site potential V(x) = v(x) A + B with k x k Hermitian
  blocks and a translation-invariant nearest-neighbour hopping kernel K,
  scaled by 1/g.
* ``spencer``: the k=2 block model with A = diag(1, -1), B = antidiag(a, a).
* ``alloy``: scalar ambient space; the potential at site n is the finite
  convolution sum_off coeffs[off] * v(n + off), terms reaching outside an
  open box are dropped, periodic boxes wrap.

Every offset, hopping or alloy, is applied to the whole box at once through
``LatticeBox.shift``, so the numbering and boundary rule live in
``topology`` alone.  Matrices are stored complex128 throughout (one numeric
path).  Assembly writes both triangles from the same kernel/potential
source, so assembled matrices are Hermitian exactly, not after
symmetrization.

``assemble`` returns one member or a stack of B members, in the layout its
``AssemblyPlan`` fixes once per run.  With one slab a member is its dense
(n, n) matrix.  With slabs it is the (L, m, m) stack of the diagonal slab
blocks of its block-tridiagonal matrix: slab j holds rows j*m to (j+1)*m, a
whole number of axis-0 layers of an open box (sites are numbered row-major,
so a layer is a contiguous run of sites), and every off-diagonal block
H[j, j+1] is the plan's constant ``couple`` (H[j+1, j] its adjoint), which
every member shares.  ``assembly_plan(model, topo, sweep=True)`` picks the
slabs by the slab rule (``_slab_rows``) and builds the hopping of the open
box of the first two slabs only, so a plan in slabs holds no dense matrix;
``estimators.sample_context`` asks for it only for a resolvent solve at
eps > 0, so the eigensolvers, which need the dense matrix, and eps = 0 get
one slab.  numerics reports a failing member by its position in a stack;
``estimators.solve_resampled`` turns it into ``instance_digest``, a hash of
the box, model, disorder and dense matrix, which it assembles again with a
one-slab plan, ``assembly_plan(model, topo)``, for a member in slabs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .topology import LatticeBox, unit_offsets

_MAX_BLOCK = 16
SLAB_ROWS = 8  # a slab holds at least this many rows
MIN_SLABS = 4  # a box that would get fewer slabs is one slab


def _as_block(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] > _MAX_BLOCK:
        raise ConfigurationError(f"{name} exceeds the k <= {_MAX_BLOCK} block limit")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ConfigurationError(f"{name} has non-finite entries")
    m = m.copy()
    m.setflags(write=False)
    return m


def _require_hermitian(m: np.ndarray, name: str):
    if not np.array_equal(m, m.conj().T):
        raise ConfigurationError(f"{name} must be exactly Hermitian")


@dataclass(frozen=True, eq=False)
class ModelSpec:
    variant: str  # block | spencer | alloy
    k: int  # block size, or alloy coefficient-support cardinality
    g: float
    A: np.ndarray | None = None
    B: np.ndarray | None = None
    hopping: dict | None = None  # offset tuple -> k x k kernel; None = identity
    alloy_coeffs: dict | None = None  # offset tuple -> float
    c_b3: float = 1.0  # C_B3, the largest hopping-kernel norm; scales the one-step majorant

    @property
    def k_ambient(self) -> int:
        """Internal degrees of freedom per site (1 for alloy models)."""
        return 1 if self.variant == "alloy" else self.k

    @property
    def coupling(self) -> float:
        """Off-diagonal strength 1/g; 0 for the decoupled limit g = inf."""
        return 0.0 if math.isinf(self.g) else 1.0 / self.g

    def describe(self) -> str:
        return f"{self.variant}(k={self.k},g={self.g!r})"


def _normalize_hopping(hopping, k: int) -> dict | None:
    """Validate nearest-neighbour offsets and K(-off) = K(off)*, and fill
    missing mirror offsets."""
    if hopping is None:
        return None
    out = {}
    for off, mat in hopping.items():
        off = tuple(int(o) for o in (off if np.iterable(off) else (off,)))
        if sum(abs(o) for o in off) != 1:
            raise ConfigurationError(
                f"hopping offset {off} is not a nearest-neighbour offset (one entry +-1, the rest 0)"
            )
        mat = _as_block(mat, f"K{off}")
        if mat.shape[0] != k:
            raise ConfigurationError(f"K{off} block size {mat.shape[0]} != k={k}")
        out[off] = mat
    for off in list(out):
        moff = tuple(-o for o in off)
        if moff in out:
            if not np.array_equal(out[moff], out[off].conj().T):
                raise ConfigurationError(f"hopping violates K{moff} = K{off}* exactly")
        else:
            mirror = out[off].conj().T.copy()
            mirror.setflags(write=False)
            out[moff] = mirror
    return out


def _norm2(m) -> float:
    """Spectral norm (largest singular value) of a block."""
    return float(np.linalg.norm(m, 2))


def block_model(A, B, g: float, hopping=None) -> ModelSpec:
    """Generic block model V(x) = v(x) A + B with optional hopping kernel."""
    A = _as_block(A, "A")
    B = _as_block(B, "B")
    _require_hermitian(A, "A")
    _require_hermitian(B, "B")
    if A.shape != B.shape:
        raise ConfigurationError("A and B must have the same block size")
    k = A.shape[0]
    hop = _normalize_hopping(hopping, k)
    c_b3 = max(_norm2(m) for m in hop.values()) if hop else 1.0
    return ModelSpec(variant="block", k=k, g=float(g), A=A, B=B, hopping=hop, c_b3=c_b3)


def spencer_model(a: float, g: float) -> ModelSpec:
    """2x2 model with V(n) = [[v, a], [a, -v]] and identity hopping."""
    a = float(a)
    return replace(block_model([[1.0, 0.0], [0.0, -1.0]], [[0.0, a], [a, 0.0]], g),
                   variant="spencer")


def singular_covering_model(g: float) -> ModelSpec:
    """k=3 block model with singular A = diag(1, 0, -1) and a generic B.

    A is not invertible, so the covering condition fails; the averaged
    inverse-potential moment stays bounded regardless, which is what the
    relaxed condition asks for.
    """
    A = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]]
    B = [[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]]
    return block_model(A, B, g)


def alloy_model(coeffs: dict, g: float) -> ModelSpec:
    """Scalar alloy potential; coeffs[off] multiplies v(site + off)."""
    if not coeffs:
        raise ConfigurationError("alloy model needs a non-empty coefficient support")
    norm = {}
    for off, c in coeffs.items():
        off = tuple(int(o) for o in (off if np.iterable(off) else (off,)))
        norm[off] = float(c)
    dims = {len(off) for off in norm}
    if len(dims) != 1:
        raise ConfigurationError(f"alloy offsets mix dimensions: {sorted(norm)}")
    return ModelSpec(variant="alloy", k=len(norm), g=float(g), alloy_coeffs=norm)


def decay_exponent_window(k: int, alpha: float, q: float) -> float:
    """Largest fractional power for which the strong-disorder decay bounds run: aq/(2ka+kq)."""
    return alpha * q / (2.0 * k * alpha + k * q)


def instance_digest(model: ModelSpec, topo: LatticeBox, v, matrix) -> str:
    """SHA-256 hex digest of one realization: its box, its model, its
    disorder vector v and its assembled matrix, in that order."""
    h = hashlib.sha256()
    h.update(topo.signature().encode())
    h.update(model.describe().encode())
    h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(matrix).tobytes())
    return h.hexdigest()


def _slab_rows(topo: LatticeBox, ka: int) -> int:
    """Rows per slab of the slab rule: the fewest whole axis-0 layers that hold
    at least SLAB_ROWS rows and cut the box into equal slabs, at least
    MIN_SLABS of them; otherwise, and always on a periodic box (whose wrap
    couples the first slab to the last), the whole box."""
    rows = topo.n_vertices * ka
    layer, side = rows // topo.sides[0], topo.sides[0]
    if not topo.periodic:
        for p in range(-(-SLAB_ROWS // layer), side // MIN_SLABS + 1):
            if side % p == 0:
                return p * layer
    return rows


@dataclass(eq=False)
class AssemblyPlan:
    """Disorder-independent part of assembly, reusable across Monte Carlo samples.

    A member is base plus its potential, added at the flat indices diag of
    its layout: one slab or L slabs (see the module docstring).
    """

    base: np.ndarray  # a member's hopping: the dense matrix, or its (L, m, m) slab blocks
    couple: np.ndarray | None  # H[j, j+1], (m, m); None for one slab
    alloy_gather: list | None  # [(coeff, target_idx, source_idx)] per offset
    diag: np.ndarray  # flat indices of the diagonal site blocks in base, (N, ka, ka)


def _hopping(model: ModelSpec, topo: LatticeBox) -> np.ndarray:
    """The dense hopping-only matrix of the box (zero diagonal blocks)."""
    n, ka = topo.n_vertices, model.k_ambient
    hop = np.zeros((n * ka, n * ka), dtype=np.complex128)
    blocks = hop.reshape(n, ka, n, ka)
    identity = np.eye(ka, dtype=np.complex128)
    for off in map(tuple, unit_offsets(len(topo.sides)).tolist()):
        x, y = topo.shift(off)
        if x.size == 0:
            continue  # no pair of sites in the box realizes this offset
        kern = identity if model.hopping is None else model.hopping.get(off)
        if kern is None:
            raise ConfigurationError(f"no hopping kernel for offset {off}")
        blocks[x, :, y, :] = model.coupling * kern
    return hop


def assembly_plan(model: ModelSpec, topo: LatticeBox, sweep: bool = False) -> AssemblyPlan:
    """Precompute the hopping and alloy gather maps for a (model, topology)
    pair: in slabs by the slab rule with sweep (for resolvent_profile's
    sweep), else in one slab."""
    n = topo.n_vertices
    ka = model.k_ambient
    dim = len(topo.sides)
    m = _slab_rows(topo, ka) if sweep else n * ka
    if m == n * ka:
        base, couple = _hopping(model, topo), None
    else:
        # an open box is translation invariant along axis 0: every slab has slab 0's
        # hopping, and every block between neighbouring slabs is that of slabs 0 and 1,
        # the first 2m rows of the box, which the open box of those two slabs holds
        layer = n * ka // topo.sides[0]  # rows per axis-0 layer
        hop = _hopping(model, LatticeBox((2 * m // layer,) + topo.sides[1:], False))
        base, couple = np.broadcast_to(hop[:m, :m], (n * ka // m, m, m)), hop[:m, m:]

    gather = None
    if model.variant == "alloy":
        gather = []
        for off, c in sorted(model.alloy_coeffs.items()):
            if len(off) != dim:
                raise ConfigurationError(
                    f"alloy offset {off} does not match lattice dimension {dim}"
                )
            gather.append((c, *topo.shift(off)))
    j, row = divmod(np.arange(n * ka).reshape(n, ka), m)
    diag = j[:, :, None] * (m * m) + row[:, :, None] * m + row[:, None, :]
    return AssemblyPlan(base=base, couple=couple, alloy_gather=gather, diag=diag)


def assemble(model: ModelSpec, topo: LatticeBox, v, plan: AssemblyPlan) -> np.ndarray:
    """One disorder realization v, shape (N,), or the stack of B realizations,
    shape (B, N), assembled in plan's layout: the (N*ka, N*ka) Hermitian
    matrix for one slab, its (L, m, m) diagonal slab blocks otherwise, with a
    leading axis of length B for a stack.  Site x owns rows and columns x*ka
    to (x+1)*ka."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != topo.n_vertices:
        raise ConfigurationError(
            f"disorder vector shape {v.shape} does not end in the site count {topo.n_vertices}"
        )
    lead = v.shape[:-1]
    mat = np.broadcast_to(plan.base, lead + plan.base.shape).copy()
    if model.variant == "alloy":
        pot = np.zeros(v.shape)
        for c, tgt, src in plan.alloy_gather:
            pot[..., tgt] += c * v[..., src]
    else:
        pot = v[..., None, None] * model.A + model.B  # (..., N, ka, ka) diagonal blocks
    flat = mat.reshape(lead + (-1,))
    flat[..., plan.diag.ravel()] += pot.reshape(lead + (-1,))
    return mat
