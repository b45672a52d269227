"""Collocation matrices, conditioning, interpolation solves, Lebesgue constants.

Matrix orientation is fixed throughout: entry (i, j) is basis function i
evaluated at node j (rows are basis functions, columns are nodes).  The
interpolation system therefore solves with the transpose, which is the
Vandermonde-conventional orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError, NodeCountError, NonFiniteError, SingularMatrixError
from .zernike import index_to_nm, nm_to_index, zernike_matrix

__all__ = [
    "CollocationMatrix",
    "ConditionReport",
    "InterpolationResult",
    "CONDITION_CSV_HEADER",
    "assemble",
    "condition_number",
    "require_nonsingular",
    "solve_interpolation",
    "lebesgue_constant",
    "format_kappa",
]

CONDITION_CSV_HEADER = "n,scheme,basis,domain,kappa2,sigma_max,sigma_min"

# lebesgue_constant forms the Lagrange functions this many grid radii at a
# time
RADIAL_BLOCK = 8


@dataclass(frozen=True)
class CollocationMatrix:
    """Dense square matrix of basis evaluations at nodes, with provenance.

    ``metadata`` carries the node set's free-form provenance (seed, source
    file, transfer chain).
    """

    entries: np.ndarray
    order: int
    scheme: str
    basis: str
    domain: str
    metadata: str = ""

    @property
    def size(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class ConditionReport:
    """2-norm conditioning of a collocation matrix.

    kappa2 = sigma_max / sigma_min, reported as inf when sigma_min is zero
    (a singular matrix is a first-class result here, not an exception, so
    perturbation sweeps can tabulate it).
    """

    order: int
    scheme: str
    basis: str
    domain: str
    kappa2: float
    sigma_max: float
    sigma_min: float

    def csv_row(self):
        return (
            f"{self.order},{self.scheme},{self.basis},{self.domain},"
            f"{format_kappa(self.kappa2)},{self.sigma_max:.6e},{self.sigma_min:.6e}"
        )


@dataclass(frozen=True)
class InterpolationResult:
    coefficients: np.ndarray
    residual: float  # max-norm of m.T @ c - values


def format_kappa(kappa):
    """Fixed-point with 4 decimals below 1e4, scientific above, 'inf' if singular."""
    if math.isinf(kappa):
        return "inf"
    if kappa >= 1e4:
        return f"{kappa:.4e}"
    return f"{kappa:.4f}"


def assemble(basis, nodes):
    """Collocation matrix of ``basis`` at ``nodes``: row i is basis
    function i at all nodes, in node order.

    Raises DomainError if the node set is labelled with another domain than
    the basis (a disk set that was never transferred, say) or, from
    ``basis.matrix``, if any node lies outside the basis domain, and
    NonFiniteError if an evaluation produces NaN or infinity.
    """
    if nodes.domain != basis.domain:
        raise DomainError(
            f"{basis.domain} basis needs {basis.domain} nodes, got {nodes.domain} nodes"
        )
    if len(nodes) != basis.size:
        raise NodeCountError(
            f"basis of size {basis.size} needs {basis.size} nodes, got {len(nodes)}"
        )
    entries = basis.matrix(nodes)
    if not np.all(np.isfinite(entries)):
        raise NonFiniteError("collocation matrix has non-finite entries")
    entries.setflags(write=False)
    return CollocationMatrix(
        entries=entries,
        order=nodes.order,
        scheme=str(nodes.scheme),
        basis=basis.family,
        domain=basis.domain,
        metadata=nodes.metadata,
    )


def condition_number(matrix):
    """ConditionReport from a full singular value decomposition."""
    entries = matrix.entries
    if not np.all(np.isfinite(entries)):
        raise NonFiniteError("matrix has non-finite entries")
    sigma = np.linalg.svd(entries, compute_uv=False)
    s_max = float(sigma[0])
    s_min = float(sigma[-1])
    kappa = s_max / s_min if s_min > 0.0 else math.inf
    return ConditionReport(
        order=matrix.order,
        scheme=matrix.scheme,
        basis=matrix.basis,
        domain=matrix.domain,
        kappa2=kappa,
        sigma_max=s_max,
        sigma_min=s_min,
    )


def require_nonsingular(sigma, name):
    """Raise SingularMatrixError, carrying sigma_min, when the N x N matrix
    with descending singular values ``sigma`` is singular to working
    precision: sigma_min <= N eps sigma_max.  ``name`` describes the matrix
    in the message."""
    if sigma[-1] <= sigma.size * np.finfo(float).eps * sigma[0]:
        raise SingularMatrixError(
            f"{name} is singular to working precision", sigma_min=float(sigma[-1])
        )


def solve_interpolation(matrix, values):
    """Coefficients c with matrix.T @ c = values, plus the max-norm residual.

    Uses the singular value decomposition; a matrix singular to working
    precision raises SingularMatrixError (see ``require_nonsingular``).
    """
    values = np.asarray(values, dtype=float)
    a = matrix.entries.T
    if values.shape != (a.shape[0],):
        raise ValueError(f"values must have length {a.shape[0]}")
    u, sigma, vt = np.linalg.svd(a)
    require_nonsingular(
        sigma, f"collocation matrix ({matrix.scheme}, {matrix.basis}, n={matrix.order})"
    )
    coeffs = vt.T @ ((u.T @ values) / sigma)
    residual = float(np.max(np.abs(a @ coeffs - values)))
    return InterpolationResult(coefficients=coeffs, residual=residual)


def lebesgue_constant(nodes, basis, grid_shape=(200, 512)):
    """Grid approximation (a lower bound) of the Lebesgue constant.

    Maximizes the sum of absolute Lagrange functions over the image, under
    the basis map (the identity for the disk), of the polar disk grid of
    grid_shape = (n_r, n_t) points: radii k/n_r for k = 1 .. n_r crossed
    with the angles 2 pi l/n_t.  On that grid each basis function is
    separable, N_n^m R_n^|m|(r) trig_m(t) times the map's weight sqrt|J| at
    the image for a weighted family, so the map enters only through that
    weight.  With C = A^-1 for the N x N collocation matrix A, the Lagrange
    functions at radius
    r are sum over signed m of D_m(r) trig_m(t), where D_m contracts C's
    columns with the radial table of the rows of frequency m.  They are
    formed ``RADIAL_BLOCK`` radii at a time, so the largest temporaries are
    that block's N x RADIAL_BLOCK x n_t values and the n_r x N x (2n + 1)
    contraction; the N x (n_r n_t) grid matrix is never built.

    A collocation matrix with an exactly zero pivot raises
    SingularMatrixError, a grid without points ValueError.
    """
    n_r, n_t = grid_shape
    if n_r < 1 or n_t < 1:
        raise ValueError(f"grid_shape needs positive sizes, got {grid_shape}")
    r = (np.arange(n_r) + 1.0) / n_r
    t = 2.0 * np.pi * np.arange(n_t) / n_t
    matrix = assemble(basis, nodes)
    try:
        lu, piv = scipy.linalg.lu_factor(matrix.entries)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    if np.any(np.diag(lu) == 0.0):
        raise SingularMatrixError("collocation matrix is exactly singular")
    inverse = scipy.linalg.lu_solve((lu, piv), np.eye(basis.size))
    order = basis.order
    index = [index_to_nm(j) for j in range(basis.size)]
    ms = np.array([idx.m for idx in index])
    # at theta = 0 the row of (n, |m|) is N R_n^|m|(r) exactly
    at_zero = zernike_matrix(order, r, 0.0)
    radial = at_zero[[nm_to_index(idx.n, abs(idx.m)) for idx in index]]
    freqs = np.arange(-order, order + 1)
    trig = np.where(
        freqs[:, None] >= 0, np.cos(freqs[:, None] * t), np.sin(-freqs[:, None] * t)
    )
    # contracted[a, j, k]: Lagrange function j at radius r[a], coefficient
    # of trig row k (frequency freqs[k])
    contracted = np.empty((n_r, basis.size, freqs.size))
    for k, m in enumerate(freqs):
        rows = ms == m
        contracted[:, :, k] = (inverse[:, rows] @ radial[rows]).T
    weight = basis.map.image_weight(r[:, None], t) if basis.weighted else None
    best = 0.0
    for start in range(0, n_r, RADIAL_BLOCK):
        block = contracted[start : start + RADIAL_BLOCK]
        lagrange = block.reshape(-1, freqs.size) @ trig
        np.abs(lagrange, out=lagrange)
        total = lagrange.reshape(len(block), basis.size, n_t).sum(axis=1)
        if weight is not None:
            total *= weight[start : start + RADIAL_BLOCK]
        best = max(best, float(total.max()))
    return best
