"""Spectral and resolvent computations on assembled matrices.

All dense linear algebra goes through numpy's LAPACK bindings: ``eigh`` where
eigenvectors are used, ``eigvalsh`` where only eigenvalues are, ``solve`` for
resolvent columns and a batched ``svd`` for block norms with k > 2.  All
operations are pure functions of their inputs.  A run checks two contracts,
raising NumericalError when one fails: every resolvent solve
(resolvent_profile) checks its residual against SOLVE_TOL, and every
eigensolver call first checks that the matrix is exactly Hermitian.

Every entry point takes one matrix or a (B, n, n) stack of them and returns
numpy's own results, with a leading axis of length B for a stack.  numpy
hands each member of a stack to the same LAPACK routine a single matrix goes
to, so member b's result is bit-identical to what the member alone would
give.  The checks run over the whole stack; a NumericalError reports the
first failing member by its position (``member``), which
estimators.solve_resampled turns into that sample's instance digest.
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


def resolvent_profile(mats: np.ndarray, k: int, lam: float, eps: float, x0: int) -> np.ndarray:
    """Blocks G_z(x0, y) of (H - lam - i eps)^(-1), H with k x k site blocks,
    for every site y, shape (n_sites, k, k) per member: the only resolvent solve.

    One solve with (H - conj(z)) suffices: for Hermitian H,
    G_z(x0, y) = [(H - conj(z))^(-1)(y, x0)]*.  eps = 0 is allowed at
    finite volume (continuous disorder makes real energies almost surely
    regular); an exactly singular (H - conj(z)) raises ResampleSignal with
    the mask of the singular members.
    """
    if not eps >= 0:
        raise NumericalError("resolvent_profile needs eps >= 0")
    zbar = complex(lam, -eps)
    n = mats.shape[-1]
    a = mats.astype(np.complex128)
    diag = np.arange(n)
    a[..., diag, diag] -= zbar
    rhs = np.zeros((n, k), dtype=np.complex128)
    rhs[x0 * k:(x0 + 1) * k, :] = np.eye(k)
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise ResampleSignal(_failing(a, lambda m: np.linalg.solve(m, rhs))) from None
    worst = np.atleast_1d(np.max(np.abs(a @ sol - rhs), axis=(-2, -1)))
    bad = ~(worst <= SOLVE_TOL * (1.0 + abs(zbar)))  # also catches a NaN residual
    if np.any(bad):
        member = int(np.argmax(bad))
        raise NumericalError(f"resolvent solve residual {worst[member]:.3e} too large",
                             member=member)
    cols = sol.reshape(sol.shape[:-2] + (n // k, k, k))
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
