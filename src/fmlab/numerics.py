"""Spectral and resolvent computations on assembled matrices.

All linear algebra goes through numpy's LAPACK bindings: ``eigh`` where
eigenvectors are used, ``eigvalsh`` where only eigenvalues are, ``solve`` for
resolvent columns, slab by slab, and a batched ``svd`` for block norms with
k > 2.  All operations are pure functions of their inputs.  A run checks two
contracts, raising NumericalError when one fails: every resolvent solve
(resolvent_profile) checks its residual against SOLVE_TOL, and every
eigensolver call first checks that the matrix is exactly Hermitian.

Every entry point takes one matrix or a (B, n, n) stack of them, and
resolvent_profile also (L, m, m) slab blocks or a (B, L, m, m) stack, and
returns numpy's own results, with a leading axis of length B for a stack.
numpy hands each member of a stack to the same LAPACK routine a single
matrix goes to, so member b's result is bit-identical to what the member
alone would give.  The checks run over the whole stack; a NumericalError
reports the first failing member by its position (``member``), which
estimators.solve_resampled turns into that sample's instance digest.

resolvent_profile has one solve, a Schur-complement sweep (the recursive
Green's function of MacKinnon & Kramer, Z. Phys. B 53 (1983) 1) over the
slabs of a block-tridiagonal H: the (L, m, m) diagonal blocks that
model.assemble returns for a plan in slabs, whose blocks [j, j+1] all equal
one ``couple`` and [j+1, j] its adjoint, as an open box with
nearest-neighbour hopping is along its first axis.  A dense matrix is one
slab, with no couple.  The slabs before x0's slab are eliminated from the
first on and those after it from the last on, one batched ``solve`` of
m x m blocks per slab, and the transfer blocks carry the column at x0's
slab outward.  That is O(L m^3) per member against O(n^3), n = L m; for
one slab the sweep is one LU solve of H - conj(z), the dense LU itself.
For eps > 0 every pivot is a slab block of H - conj(z), whose imaginary
part is eps, plus a term whose imaginary part is positive semidefinite, so
the inverse of every pivot has norm at most 1/eps and the sweep in slabs
agrees with the dense LU to roundoff.  At eps = 0 no such bound holds, and
a nearly singular pivot can cost L slabs accuracy the one-slab LU keeps, so
a run cuts slabs only at eps > 0 (estimators.sample_context).  The residual
contract is per sweep: |(H - conj z) X - E_x0| <= SOLVE_TOL (1 + |z|) for
every entry of every member's block-tridiagonal residual.  An exactly
singular pivot raises ResampleSignal for the members whose pivot it is.

The slab rule (model._slab_rows) takes the fewest whole axis-0 layers
holding at least 8 rows, in equal slabs, and one slab for a box that would
get fewer than 4.  Measured per stack of 32 open chains (k = 1, one BLAS
thread), with assembly: at 32 rows 0.87 ms dense against 0.47 ms in 4
slabs of 8; at 16 rows 0.17 ms dense against 0.23 ms in 2 slabs; at 64 rows
4.2 ms dense against 0.91 ms in 8 slabs.  Whole decay runs take about the
same time with a slab minimum of 1, 3 or 8 rows, and longer with 16 or more
(a 12 x 12 alloy box: 0.049 s at 12 rows per slab, 0.082 s at 24, 0.24 s
dense).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ResampleSignal

SOLVE_TOL = 1e-10  # resolvent solve residual, relative to 1 + |z|
CLUSTER_TOL = 1e-8  # eigenvalue clustering scale for projector blocks


def _failing(mats: np.ndarray, routine) -> np.ndarray:
    """Mask of the members of a matrix or stack on which routine raises LinAlgError."""
    mats = mats.reshape((-1,) + mats.shape[-2:])
    bad = np.zeros(len(mats), dtype=bool)
    for b, m in enumerate(mats):
        try:
            routine(m)
        except np.linalg.LinAlgError:
            bad[b] = True
    return bad


def _hermitian_guarded(mats: np.ndarray, routine, what: str):
    """routine(mats), a LAPACK Hermitian eigensolver, once every member is
    exactly Hermitian; NumericalError names the first failing member."""
    bad = np.atleast_1d(np.any(mats != np.swapaxes(mats, -1, -2).conj(), axis=(-2, -1)))
    if np.any(bad):
        raise NumericalError("instance is not exactly Hermitian", member=int(np.argmax(bad)))
    try:
        return routine(mats)
    except np.linalg.LinAlgError as exc:
        member = int(np.argmax(_failing(mats, routine)))
        raise NumericalError(f"{what} failed: {exc}", member=member) from None


def hermitian_eig(mats: np.ndarray):
    """(vals, vecs), the dense Hermitian eigendecomposition by LAPACK
    (``np.linalg.eigh``).

    Eigenvalues ascend; eigenvector phases are LAPACK's, so callers use only
    phase-invariant products such as psi psi*.
    """
    return _hermitian_guarded(mats, np.linalg.eigh, "eigendecomposition")


def hermitian_eigvals(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues only (``np.linalg.eigvalsh``), for counting estimators."""
    return _hermitian_guarded(mats, np.linalg.eigvalsh, "eigenvalue computation")


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b), or ResampleSignal with the mask of the members of
    a that are exactly singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise ResampleSignal(_failing(a, lambda m: np.linalg.solve(m, b))) from None


def _shifted(mats: np.ndarray, zbar: complex) -> np.ndarray:
    """A complex128 copy of mats, (..., n, n), less zbar on the diagonal."""
    a = mats.astype(np.complex128)
    diag = np.arange(a.shape[-1])
    a[..., diag, diag] -= zbar
    return a


def _eliminate(slab, order, out: np.ndarray, back: np.ndarray) -> list:
    """Transfer blocks T_j = S_j^(-1) out of the slabs j of order, eliminated one
    into the next: S_j = slab(j) for the first, slab(j) - back T_prev after it."""
    transfers = []
    for j in order:
        s = slab(j) if not transfers else slab(j) - back @ transfers[-1]
        transfers.append(_solve(s, out))
    return transfers


def _sweep(h: np.ndarray, zbar: complex, upper: np.ndarray | None, k: int, x0: int):
    """(X, worst): the k columns X of site x0 of (H - zbar)^(-1), shape
    (B, L, m, k), and each member's largest residual entry, for the
    block-tridiagonal H with diagonal slab blocks h, shape (B, L, m, m),
    blocks [j, j+1] upper and [j+1, j] upper* (None for L = 1, a dense H).

    The slabs before x0's slab c are eliminated from the first on, those after
    it from the last on; the Schur complement at c gives X_c, and the transfer
    blocks carry it outward: X_j = -T_j X_(j+1) before c, -T_j X_(j-1) after.
    Each slab is shifted by zbar as it is eliminated, so no shifted copy of
    the whole stack is held beside the transfer blocks.
    """
    slabs, m = h.shape[-3], h.shape[-1]
    lower = upper.conj().T if slabs > 1 else None
    c, r = divmod(x0 * k, m)

    def slab(j):  # slab j of H - zbar
        return _shifted(h[:, j], zbar)

    left = _eliminate(slab, range(c), upper, lower)
    right = _eliminate(slab, range(slabs - 1, c, -1), lower, upper)[::-1]  # right[i]: slab c+1+i
    pivot = slab(c)
    if left:
        pivot -= lower @ left[-1]
    if right:
        pivot -= upper @ right[0]
    e = np.zeros((m, k), dtype=np.complex128)
    e[r:r + k] = np.eye(k)
    x = np.empty(h.shape[:-1] + (k,), dtype=np.complex128)
    x[:, c] = _solve(pivot, e)
    for j in range(c - 1, -1, -1):
        x[:, j] = -(left[j] @ x[:, j + 1])
    for i, t in enumerate(right):
        x[:, c + 1 + i] = -(t @ x[:, c + i])
    resid = h @ x - zbar * x
    if slabs > 1:
        resid[:, :-1] += upper @ x[:, 1:]
        resid[:, 1:] += lower @ x[:, :-1]
    resid[:, c] -= e
    return x, np.max(np.abs(resid), axis=(-3, -2, -1))


def resolvent_profile(mats: np.ndarray, k: int, lam: float, eps: float, x0: int,
                      couple: np.ndarray | None = None) -> np.ndarray:
    """Blocks G_z(x0, y) of (H - lam - i eps)^(-1), H with k x k site blocks,
    for every site y, shape (n_sites, k, k) per member: the only resolvent solve.

    mats holds dense matrices H, one slab each, or, with couple, the
    (..., L, m, m) diagonal slab blocks of block-tridiagonal ones
    (model.assemble's two layouts), which a run passes only for eps > 0;
    either way one sweep solves them.  One solve with (H - conj(z))
    suffices: for Hermitian H, G_z(x0, y) = [(H - conj(z))^(-1)(y, x0)]*.
    eps = 0 is allowed at finite volume (continuous disorder makes real
    energies almost surely regular); an exactly singular (H - conj(z)), or
    slab pivot, raises ResampleSignal with the mask of the singular members.
    """
    if not eps >= 0:
        raise NumericalError("resolvent_profile needs eps >= 0")
    zbar = complex(lam, -eps)
    if couple is None:  # dense members: one slab each
        lead, h = mats.shape[:-2], mats.reshape((-1, 1) + mats.shape[-2:])
    else:
        lead, h = mats.shape[:-3], mats.reshape((-1,) + mats.shape[-3:])
    sol, worst = _sweep(h, zbar, couple, k, x0)
    bad = ~(worst <= SOLVE_TOL * (1.0 + abs(zbar)))  # also catches a NaN residual
    if np.any(bad):
        member = int(np.argmax(bad))
        raise NumericalError(f"resolvent solve residual {worst[member]:.3e} too large",
                             member=member)
    cols = sol.reshape(lead + (-1, k, k))
    return np.conj(np.swapaxes(cols, -1, -2))


def opnorm_batch(blocks) -> np.ndarray:
    """Largest singular values of a stack of blocks, shape (..., k, k).

    1 x 1 blocks take abs and 2 x 2 blocks a closed form (the estimator hot
    path, much cheaper than a batched SVD); anything else a batched LAPACK
    SVD.  The result keeps the memory order of the stack's leading axes.  A
    sum over a leading axis that is slow in memory adds row by row, in the
    order of a loop; over a fast one numpy's pairwise sum reorders the adds,
    and the last bits can move.
    """
    blocks = np.asarray(blocks, dtype=np.complex128)
    shape = blocks.shape[-2:]
    if shape == (1, 1):
        return np.abs(blocks[..., 0, 0])
    if shape == (2, 2):
        # sqrt of the top eigenvalue of the Gram matrix G = M* M, written as
        # a sum of nonnegative terms so it stays accurate when the two
        # singular values nearly coincide; each length-2 sum is one explicit
        # add, cheaper than np.sum over an axis of length 2 and bit for bit equal
        sq = np.abs(blocks) ** 2
        g11 = sq[..., 0, 0] + sq[..., 1, 0]
        g22 = sq[..., 0, 1] + sq[..., 1, 1]
        cross = np.conj(blocks[..., :, 0]) * blocks[..., :, 1]
        g12 = np.abs(cross[..., 0] + cross[..., 1])
        return np.sqrt(0.5 * (g11 + g22) + np.hypot(0.5 * (g11 - g22), g12))
    return np.linalg.svd(blocks, compute_uv=False)[..., 0]


def cluster_indices(vals: np.ndarray, interval):
    """(sel, starts): the ascending indices sel of the ascending eigenvalues
    vals inside the closed interval, and the positions in sel where each
    cluster starts.

    Consecutive eigenvalues within CLUSTER_TOL * (1 + spectral radius) merge
    into one cluster (continuous disorder makes exact degeneracy measure
    zero; the tolerance guards reproducibility).
    """
    lo, hi = float(interval[0]), float(interval[1])
    sel = np.flatnonzero((vals >= lo) & (vals <= hi))
    radius = max(abs(float(vals[0])), abs(float(vals[-1])))
    tol = CLUSTER_TOL * (1.0 + radius)
    return sel, np.flatnonzero(np.diff(vals[sel], prepend=-np.inf) > tol)
