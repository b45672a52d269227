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

from .errors import DomainError, NodeCountError, NonFiniteError, SingularMatrixError
from .zernike import _radial_rows

__all__ = [
    "CollocationMatrix",
    "ConditionReport",
    "InterpolationResult",
    "assemble",
    "condition_number",
    "require_nonsingular",
    "scaled_nonsingular",
    "solve_interpolation",
    "lebesgue_constant",
    "format_kappa",
]

# lebesgue_constant forms the Lagrange functions a block of grid radii at a
# time, as many radii as keep the block within this many values (512 KiB),
# but at least two
LAGRANGE_BLOCK_VALUES = 2**16
# and contracts the inverse with the radial table for the whole grid when
# that fits in this many values (4 MiB), else for chunks of as many whole
# blocks as fit, at least one.  A radius takes N (2n + 1) values, so the
# default grid is one chunk up to order 12.  Chunks of one block made the
# orders 1..10 a fifth slower: each chunk pays for 2n + 1 small products.
CONTRACT_VALUES = 2**19

# condition_number keeps the mirror split, and lebesgue_constant takes half
# the grid angles, only when the dropped off-block is within this many
# N eps sigma_max; the benchmark's cells reach 1.3
MIRROR_SLACK = 4
# From this size (order 11) on, the split's two SVDs and column change beat
# one full SVD in every timing on one BLAS thread (order 11: 0.38-0.54 ms
# against 0.59-0.73 ms); at orders 8 to 10 they were within the noise.
MIRROR_MIN_SIZE = 78
# scaled_nonsingular certifies A S, S a positive diagonal, from bounds on A's
# sigma only when the rule passes with this many times its N eps tolerance:
# the margin covers the backward errors of the SVDs and the mirror split
# (off <= MIRROR_SLACK N eps sigma_max) that the rule runs on A S, and the
# rounding of A S as assemble weighs it (<= sqrt(N) eps sigma_max).  The
# Cholesky bounds of the wavefront runs' K matrices (n = 2..20, five schemes)
# pass it with 5.3e3 (n = 20) to 4e4 to spare; random n = 20, which they
# leave undecided, takes each family's own SVD.
SCALED_MARGIN = 2**10
SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class CollocationMatrix:
    """Dense square matrix of basis evaluations at nodes.

    ``order``, ``scheme`` and ``basis`` name the matrix in the message of
    ``require_nonsingular``; ``mirror`` is the node set's mirror
    permutation, if any, for the split of ``condition_number``.
    """

    entries: np.ndarray
    order: int
    scheme: str
    basis: str
    mirror: np.ndarray | None = None

    @property
    def size(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class ConditionReport:
    """2-norm conditioning of a collocation matrix.

    kappa2 = sigma_max / sigma_min as measured, however large, and inf only
    when sigma_min is exactly zero.  A report refuses nothing, so
    perturbation sweeps can tabulate a singular matrix.  Whatever inverts a
    collocation matrix (solves, Lebesgue estimates, the zonal wavefront
    cells) is held to the one singularity rule, ``require_nonsingular``:
    sigma_min <= N eps sigma_max, where an answer has no correct digit.
    The zonal wavefront cells take theirs from ``_family_verdicts``: the
    Cholesky certificate of the K entries where it decides, else the rule
    on the family's own matrix; every other caller applies the rule.

    ``off_block`` is the Frobenius norm of the two blocks the mirror split
    of ``condition_number`` dropped, None when the full SVD ran.

    A report carries numbers only; the CLI labels its table row.
    """

    kappa2: float
    sigma_max: float
    sigma_min: float
    off_block: float | None = None


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
        mirror=nodes.mirror,
    )


def condition_number(matrix):
    """ConditionReport from the singular values: kappa2 as measured, inf
    only at sigma_min == 0.

    A matrix of at least ``MIRROR_MIN_SIZE`` rows whose node set has a
    ``mirror`` is split in two first.  Each mirror pair of columns p, q
    becomes (p + q)/sqrt2 and (p - q)/sqrt2, an orthogonal change, after
    which the rows with m >= 0 (cosine) and the even columns form one block
    and the rows with m < 0 (sine) and the odd columns the other, up to
    rounding; each block gets its own SVD.  The split is kept only when
    both blocks are square, the dropped off-block has a Frobenius norm
    ``off`` <= MIRROR_SLACK N eps sigma_max (the order of the SVD's own
    backward error) and sigma_min - off > N eps (sigma_max + off), so that
    by Weyl's inequality the verdict of ``require_nonsingular`` is the same
    for every matrix within ``off`` of the blocks.  Otherwise, as for
    smaller matrices and sets without a mirror, the full SVD runs.
    """
    entries = matrix.entries
    if not np.all(np.isfinite(entries)):
        raise NonFiniteError("matrix has non-finite entries")
    mirrored = matrix.mirror is not None and matrix.size >= MIRROR_MIN_SIZE
    split = _mirror_split(matrix) if mirrored else None
    if split is None:
        sigma = np.linalg.svd(entries, compute_uv=False)
        s_max, s_min, off = float(sigma[0]), float(sigma[-1]), None
    else:
        s_max, s_min, off = split
    kappa = s_max / s_min if s_min > 0.0 else math.inf
    return ConditionReport(kappa, s_max, s_min, off)


def _mirror_split(matrix):
    """(sigma_max, sigma_min, off) from the two mirror blocks of
    ``condition_number``, or None where its guard fails."""
    blocks = _mirror_blocks(matrix)
    if blocks is None:
        return None
    cos_block, sin_block, off = blocks
    sigma = [np.linalg.svd(b, compute_uv=False) for b in (cos_block, sin_block)]
    s_max = max(float(s[0]) for s in sigma)
    s_min = min(float(s[-1]) for s in sigma)
    tol = matrix.size * np.finfo(float).eps
    if off <= MIRROR_SLACK * tol * s_max and s_min - off > tol * (s_max + off):
        return s_max, s_min, off
    return None


def _mirror_blocks(matrix):
    """The mirror column change of a matrix whose node set has a ``mirror``:
    the cosine block, the sine block and the Frobenius norm ``off`` of the
    two blocks it drops, or None when the blocks are not square."""
    entries, mirror = matrix.entries, matrix.mirror
    index = np.arange(matrix.size)
    fixed = index[mirror == index]
    p = index[mirror > index]
    q = mirror[p]
    sine = _row_frequencies(matrix.order)[1] < 0
    # both blocks are square when there are as many sine rows as pairs
    if np.count_nonzero(sine) != p.size:
        return None
    cos_block, cos_off = _mirror_block(entries, ~sine, fixed, p, q, True)
    sin_block, sin_off = _mirror_block(entries, sine, fixed, p, q, False)
    return cos_block, sin_block, math.hypot(cos_off, sin_off)


def _mirror_block(entries, rows, fixed, p, q, even):
    """The given rows on the even columns (the fixed columns, then
    (p + q)/sqrt2) when ``even``, else on the odd columns ((p - q)/sqrt2),
    and the Frobenius norm of the rows on the other columns."""
    rows = np.flatnonzero(rows)[:, None]
    evens = entries[rows, np.concatenate([fixed, p])]
    pairs = evens[:, fixed.size :]
    a_q = entries[rows, q]
    odds = pairs - a_q
    pairs += a_q
    pairs *= SQRT_HALF
    odds *= SQRT_HALF
    return (evens, np.linalg.norm(odds)) if even else (odds, np.linalg.norm(evens))


def _mirror_holds(matrix, report):
    """Whether the node set's mirror y -> -y holds for ``matrix`` by the
    split's rule: square blocks and a dropped off-block of Frobenius norm
    at most MIRROR_SLACK N eps sigma_max, with sigma_max from ``report``,
    the matrix's ConditionReport.  A report of a kept split has passed it."""
    if report.off_block is not None:
        return True
    blocks = None if matrix.mirror is None else _mirror_blocks(matrix)
    bound = MIRROR_SLACK * matrix.size * np.finfo(float).eps * report.sigma_max
    return blocks is not None and blocks[2] <= bound


def require_nonsingular(matrix):
    """The singularity rule: raise SingularMatrixError, carrying sigma_min,
    when the N x N collocation matrix is singular to working precision,
    sigma_min <= N eps sigma_max (sigma from ``condition_number``).
    Returns the ConditionReport otherwise."""
    report = condition_number(matrix)
    if report.sigma_min <= matrix.size * np.finfo(float).eps * report.sigma_max:
        raise SingularMatrixError(
            f"collocation matrix ({matrix.scheme}, {matrix.basis}, "
            f"n={matrix.order}) is singular to working precision",
            sigma_min=report.sigma_min,
        )
    return report


def scaled_nonsingular(sigma_min, sigma_max, scale):
    """Whether the singularity rule accepts A S, for the positive diagonal
    S = diag(``scale``) of one entry per column, from bounds on the N x N
    matrix A, ``sigma_min`` <= sigma_min(A) and sigma_max(A) <=
    ``sigma_max``, as ``_cholesky_bounds`` proves them.

    sigma_i(A) min S <= sigma_i(A S) <= sigma_i(A) max S (multiplicative
    perturbation; Eisenstat & Ipsen, SIAM J. Numer. Anal. 32 (1995)), so
    sigma_min min S > SCALED_MARGIN N eps sigma_max max S certifies
    that ``require_nonsingular`` passes on A S as computed.  False means
    only that the bound is inconclusive: the caller then applies
    ``require_nonsingular`` to A S itself.
    """
    tol = SCALED_MARGIN * len(scale) * np.finfo(float).eps
    low, high = float(np.min(scale)), float(np.max(scale))
    return sigma_min * low > tol * sigma_max * high


def _cholesky_bounds(matrix):
    """(low, high) with low <= sigma_min(A) and sigma_max(A) <= high for
    the N x N entries A, proved by Cholesky factorizations, or None where
    one fails: with ``scaled_nonsingular``, a sufficient condition for the
    singularity rule, which it leaves unchanged.

    The parts B are the two blocks of ``_mirror_blocks`` where they are
    square, else A; each is k x k, k <= N.  With u = eps/2,
    g(m) = m u/(1 - m u) and eta the smallest subnormal,
    F = fl(||A||_F)^2 (1 + g(2 N^2 + 16)) bounds ||A||_F^2 and every
    ||B||_F^2 (the norm's rounding, and g(3) per entry of (p +- q) sqrt1/2).
    The shift is s = 4 t, t the sum of
      - g(N) F: the rounding of G = B B^T, |dG| <= g(k) |B| |B^T|;
      - g(N + 1)/(1 - g(N + 1)) (1 + g(N)) F: the backward error of a
        Cholesky factorization that succeeds, g(k + 1)/(1 - g(k + 1))
        tr(G - s I) (Demmel; Higham, Accuracy and Stability, Thm 10.3);
      - u (1 + g(N)) F: the rounding of G_ii - s, beside u s = 4 u t;
      - 4 N (2 N + 4 + F) eta: underflow (Rump, BIT 46 (2006) 433-452).
    If fl(G - s I) factorizes for every part, lambda_min(B B^T) >
    s - t - 4 u t > 2 t; the spare covers the rounding of these bounds.
    With Q the orthogonal column change, A Q is the parts plus the dropped
    off-block and the change's rounding, within
    off = fl(off)(1 + g(2 N^2 + 16)) + 2 g(3) sqrt F in Frobenius norm
    (fl(off) = 0 without the split), so sigma_min(A) >= sqrt(2 t) - off
    (Weyl), and sigma_max(A) <= ||A||_F <= sqrt F.
    """
    n, u = matrix.size, np.finfo(float).eps / 2

    def g(m):
        return m * u / (1 - m * u)

    fro = float(np.linalg.norm(matrix.entries))
    f = fro * fro * (1 + g(2 * n * n + 16))
    if not f < 2.0**1000:  # no overflow (or NaN) in G
        return None
    t = (g(n) + g(n + 1) / (1 - g(n + 1)) * (1 + g(n)) + u * (1 + g(n))) * f
    t += 4 * n * (2 * n + 4 + f) * np.finfo(float).smallest_subnormal
    blocks = None if matrix.mirror is None else _mirror_blocks(matrix)
    for part in (matrix.entries,) if blocks is None else blocks[:2]:
        gram = part @ part.T
        gram.flat[:: len(gram) + 1] -= 4 * t
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return None
    off = 0.0 if blocks is None else blocks[2]
    low = math.sqrt(2 * t) - off * (1 + g(2 * n * n + 16)) - 2 * g(3) * math.sqrt(f)
    return (low, math.sqrt(f)) if low > 0 else None


def _family_verdicts(matrix, scales, family_matrix):
    """The singularity rule's verdict on each family A diag(s), s in
    ``scales`` (one positive entry per column), of the collocation matrix
    A = ``matrix``: ("cholesky", low, high) where ``scaled_nonsingular``
    accepts it from the bounds of ``_cholesky_bounds`` on A, run once;
    else ("svd", sigma_min, sigma_max) from ``require_nonsingular`` on
    ``family_matrix(i)``, family i's own matrix, built only then, or the
    SingularMatrixError it raises, carrying that matrix's sigma_min."""
    bounds = _cholesky_bounds(matrix)
    verdicts = []
    for i, scale in enumerate(scales):
        if bounds and scaled_nonsingular(*bounds, scale):
            verdicts.append(("cholesky", *bounds))
            continue
        try:
            report = require_nonsingular(family_matrix(i))
        except SingularMatrixError as exc:
            verdicts.append(exc)
        else:
            verdicts.append(("svd", report.sigma_min, report.sigma_max))
    return verdicts


def solve_interpolation(matrix, values):
    """Coefficients c with matrix.T @ c = values, plus the max-norm residual.

    The singular values decide whether to solve (``require_nonsingular``
    raises SingularMatrixError); the solve itself is an LU factorization.
    """
    values = np.asarray(values, dtype=float)
    a = matrix.entries.T
    if values.shape != (a.shape[0],):
        raise ValueError(f"values must have length {a.shape[0]}")
    require_nonsingular(matrix)
    coeffs = np.linalg.solve(a, values)
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
    functions at radius r are sum over signed m of D_m(r) trig_m(t), where
    D_m contracts C's columns with the radial table of the rows of
    frequency m (one slice of each, once both are sorted by frequency).
    They are formed in blocks of max(2, LAGRANGE_BLOCK_VALUES // (N n_a))
    radii, n_a the angles evaluated, in one buffer reused by every block:
    at most 512 KiB unless two radii need more (N n_a > 2^15: from order
    10 on the whole default grid, from order 15 on its half).  The D_m are
    contracted for the whole grid if it fits CONTRACT_VALUES values (4 MiB),
    else for a chunk of whole blocks at a time.  They are stored
    frequency-major: D_m of a chunk is one contiguous (radii x N) slab,
    written by one product, and a block is read from the slabs through a
    transposed product with the trig table.  sum_j |l_j| is one more
    product, with a vector of ones.  So the largest temporaries are the
    chunk, the N x N inverse and the block; neither the N x (n_r n_t) grid
    matrix nor the n_r x N x (2n + 1) contraction of the whole grid is
    ever built.

    When the node set's ``mirror`` holds for the collocation matrix, by the
    rule of ``condition_number``'s split, only the angles l = 0 .. n_t // 2
    are evaluated.  Every map and weight commutes with y -> -y, so then
    l_j(r, -t) = l_mirror(j)(r, t): the Lebesgue function is even in t, and
    the grid angle 2 pi (n_t - l)/n_t is -2 pi l/n_t.  Other sets get the
    whole grid.

    A collocation matrix singular to working precision raises
    SingularMatrixError (``require_nonsingular``) before C is formed, a
    grid without points ValueError.
    """
    n_r, n_t = grid_shape
    if n_r < 1 or n_t < 1:
        raise ValueError(f"grid_shape needs positive sizes, got {grid_shape}")
    r = (np.arange(n_r) + 1.0) / n_r
    matrix = assemble(basis, nodes)
    report = require_nonsingular(matrix)
    n_angles = n_t // 2 + 1 if _mirror_holds(matrix, report) else n_t
    t = 2.0 * np.pi * np.arange(n_angles) / n_t
    inverse = np.linalg.inv(matrix.entries)
    order, size = basis.order, basis.size
    freqs = np.arange(-order, order + 1)
    # sorted by frequency, in index order within one, each frequency's rows
    # are one slice: frequency m has a row in degrees |m|, |m| + 2, .., order
    by_freq = np.argsort(_row_frequencies(order)[1], kind="stable")
    ends = np.cumsum((order - np.abs(freqs)) // 2 + 1)
    # rows (n, m) and (n, -m) both hold N R_n^|m|(r)
    radial = np.empty((size, n_r))
    _radial_rows(order, r, radial)
    radial = radial[by_freq]
    inverse = inverse.take(by_freq, axis=1)
    trig = np.empty((freqs.size, n_angles))
    np.cos(freqs[order:, None] * t, out=trig[order:])
    np.sin(-freqs[:order, None] * t, out=trig[:order])
    block_radii = min(n_r, _radial_block(size, n_angles))
    chunk_radii = _contract_chunk(n_r, size, freqs.size, block_radii)
    # contracted[k, a, j]: Lagrange function j at radius r[c0 + a],
    # coefficient of trig row k (frequency freqs[k])
    contracted = np.empty((freqs.size, chunk_radii, size))
    lagrange = np.empty((block_radii * size, n_angles))
    totals = np.empty((block_radii, n_angles))
    ones = np.ones(size)
    best = 0.0
    for c0 in range(0, n_r, chunk_radii):
        c1 = min(c0 + chunk_radii, n_r)
        chunk = contracted[:, : c1 - c0]
        start = 0
        for k, end in enumerate(ends):
            np.matmul(
                radial[start:end, c0:c1].T, inverse[:, start:end].T, out=chunk[k]
            )
            start = end
        weight = basis.map.image_weight(r[c0:c1, None], t) if basis.weighted else None
        for b0 in range(0, c1 - c0, block_radii):
            block = chunk[:, b0 : b0 + block_radii]
            count = block.shape[1]
            values = lagrange[: count * size]
            np.matmul(block.reshape(freqs.size, -1).T, trig, out=values)
            np.abs(values, out=values)
            total = totals[:count]
            np.matmul(ones, values.reshape(count, size, n_angles), out=total)
            if weight is not None:
                total *= weight[b0 : b0 + count]
            best = max(best, float(total.max()))
    return best


def _row_frequencies(order):
    """(degrees, frequencies) of the rows of a basis of degree <= order, in
    row order, as integers: row j = (n(n + 2) + m)/2 has degree n and
    signed frequency m = 2j - n(n + 2), so degree n holds m = -n, -n + 2,
    .., n."""
    degrees = np.repeat(np.arange(order + 1), np.arange(1, order + 2))
    return degrees, 2 * np.arange(degrees.size) - degrees * (degrees + 2)


def _radial_block(size, n_angles):
    """Grid radii per Lagrange block of ``lebesgue_constant`` for a basis of
    ``size`` functions on ``n_angles`` grid angles: as many as fit
    ``LAGRANGE_BLOCK_VALUES`` values, and at least two."""
    return max(2, LAGRANGE_BLOCK_VALUES // (size * n_angles))


def _contract_chunk(n_r, size, n_freqs, block_radii):
    """Grid radii per contraction chunk of ``lebesgue_constant`` for n_r
    radii, a basis of ``size`` functions and ``n_freqs`` frequencies: all
    n_r when they fit ``CONTRACT_VALUES`` values, else as many whole
    Lagrange blocks of ``block_radii`` radii as fit, and at least one."""
    per_radius = size * n_freqs
    if n_r * per_radius <= CONTRACT_VALUES:
        return n_r
    return block_radii * max(1, CONTRACT_VALUES // (block_radii * per_radius))
