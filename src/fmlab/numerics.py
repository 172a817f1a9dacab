"""Spectral and resolvent computations on assembled instances.

All dense linear algebra goes through numpy's LAPACK bindings: ``eigh`` where
eigenvectors are used, ``eigvalsh`` where only eigenvalues are, ``solve`` for
resolvent columns and a batched ``svd`` for block norms with k > 2.  All
operations are pure functions of their inputs.  A run checks two contracts,
raising NumericalError with the instance digest when one fails: every
resolvent solve (resolvent_profile) checks its residual against SOLVE_TOL,
and every eigensolver call first checks that the matrix is exactly
Hermitian.

Every entry point taking a HamiltonianInstance also takes a stack of them
(matrix shape (B, n, n)) and returns results with a leading axis of length
B.  numpy hands each member of a stack to the same LAPACK routine a single
matrix goes to, so member b's result is bit-identical to what the member
alone would give; the checks run over the whole stack and name the first
failing member's digest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ResampleSignal
from .model import HamiltonianInstance

SOLVE_TOL = 1e-10  # resolvent solve residual, relative to 1 + |z|
CLUSTER_TOL = 1e-8  # eigenvalue clustering scale for projector blocks


@dataclass(eq=False)
class SpectralDecomposition:
    eigenvalues: np.ndarray  # ascending, length N*k; (B, N*k) for a stack
    eigenvectors: np.ndarray  # orthonormal columns, complex128
    k: int  # block size of the source
    n_sites: int

    def __getitem__(self, b: int) -> "SpectralDecomposition":
        """Member b of a stacked decomposition."""
        return SpectralDecomposition(self.eigenvalues[b], self.eigenvectors[b], self.k, self.n_sites)

    @property
    def spectral_width(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    def site_rows(self, site: int) -> slice:
        return slice(site * self.k, (site + 1) * self.k)


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


def _first_digest(h: HamiltonianInstance, bad: np.ndarray) -> str:
    """Digest of the first member flagged in bad (member 0 if none is)."""
    return h.member(int(np.argmax(bad))).digest


def _require_hermitian(h: HamiltonianInstance) -> None:
    mats = h.matrix
    bad = np.atleast_1d(np.any(mats != np.swapaxes(mats, -1, -2).conj(), axis=(-2, -1)))
    if np.any(bad):
        raise NumericalError("instance is not exactly Hermitian", _first_digest(h, bad))


def hermitian_eig(h: HamiltonianInstance) -> SpectralDecomposition:
    """Dense Hermitian eigendecomposition by LAPACK (``np.linalg.eigh``).

    Eigenvalues ascend; eigenvector phases are LAPACK's, so callers use only
    phase-invariant products such as psi psi*.
    """
    _require_hermitian(h)
    try:
        vals, vecs = np.linalg.eigh(h.matrix)
    except np.linalg.LinAlgError as exc:
        digest = _first_digest(h, _failing(h.matrix, np.linalg.eigh))
        raise NumericalError(f"eigendecomposition failed: {exc}", digest) from None
    return SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs, k=h.k, n_sites=h.n_sites)


def hermitian_eigvals(h: HamiltonianInstance) -> np.ndarray:
    """Ascending eigenvalues only (``np.linalg.eigvalsh``), for counting estimators."""
    _require_hermitian(h)
    try:
        return np.linalg.eigvalsh(h.matrix)
    except np.linalg.LinAlgError as exc:
        digest = _first_digest(h, _failing(h.matrix, np.linalg.eigvalsh))
        raise NumericalError(f"eigenvalue computation failed: {exc}", digest) from None


def resolvent_profile(h: HamiltonianInstance, lam: float, eps: float, x0: int) -> np.ndarray:
    """Blocks G_z(x0, y) of (H - lam - i eps)^(-1) for every site y, shape
    (n_sites, k, k) per member: the library's only resolvent solve.

    One solve with (H - conj(z)) suffices: for Hermitian H,
    G_z(x0, y) = [(H - conj(z))^(-1)(y, x0)]*.  eps = 0 is allowed at
    finite volume (continuous disorder makes real energies almost surely
    regular); an exactly singular (H - conj(z)) raises ResampleSignal with
    the mask of the singular members.
    """
    if not eps >= 0:
        raise NumericalError("resolvent_profile needs eps >= 0", h.digest)
    zbar = complex(lam, -eps)
    n, k = h.matrix.shape[-1], h.k
    a = h.matrix.astype(np.complex128)
    diag = np.arange(n)
    a[..., diag, diag] -= zbar
    rhs = np.zeros((n, k), dtype=np.complex128)
    rhs[h.block_slice(x0), :] = np.eye(k)
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise ResampleSignal(_failing(a, lambda m: np.linalg.solve(m, rhs))) from None
    worst = np.atleast_1d(np.max(np.abs(a @ sol - rhs), axis=(-2, -1)))
    bad = ~(worst <= SOLVE_TOL * (1.0 + abs(zbar)))  # also catches a NaN residual
    if np.any(bad):
        raise NumericalError(
            f"resolvent solve residual {worst[np.argmax(bad)]:.3e} too large", _first_digest(h, bad)
        )
    cols = sol.reshape(sol.shape[:-2] + (h.n_sites, k, k))
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


def cluster_indices(sd: SpectralDecomposition, interval):
    """(sel, starts): the ascending indices sel of the eigenvalues inside the
    closed interval, and the positions in sel where each cluster starts.

    Consecutive eigenvalues within CLUSTER_TOL * (1 + spectral radius) merge
    into one cluster (continuous disorder makes exact degeneracy measure
    zero; the tolerance guards reproducibility).
    """
    lo, hi = float(interval[0]), float(interval[1])
    vals = sd.eigenvalues
    sel = np.flatnonzero((vals >= lo) & (vals <= hi))
    radius = max(abs(float(vals[0])), abs(float(vals[-1])))
    tol = CLUSTER_TOL * (1.0 + radius)
    return sel, np.flatnonzero(np.diff(vals[sel], prepend=-np.inf) > tol)
