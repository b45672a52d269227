"""Turbulence wavefronts and zonal reconstruction over a segmented aperture.

The aperture is 36 regular hexagons of side 1 in three rings of 6, 12, and
18 segments around a vacant center, edge to edge on a triangular lattice of
spacing sqrt(3).  A wavefront is a 14-coefficient Zernike combination
evaluated in the global plane (radius up to about 6.2 at the outermost
corners; the polynomials are defined for any radius).  Reconstruction is
zonal: an independent critical interpolation on every hexagon with the
transferred basis shifted to the segment center, so segment k depends
only on samples inside segment k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
# numpy loads numpy.random lazily; importing it here keeps that cost in
# set-up rather than in the first run_experiment call
import numpy.random  # noqa: F401

from .collocation import CollocationMatrix, _family_verdicts
from .domains import HexagonBasis, HexagonMap, transfer_nodes
from .errors import NonFiniteError, ZeroDenominatorError, ZernkitError
from .samplings import generate_nodes, ocs_nodes
# zernike_xy stays importable from this module for tools that wrap it here
from .zernike import cartesian_to_polar, zernike_matrix, zernike_xy  # noqa: F401

__all__ = [
    "WAVEFRONT_MODES",
    "wavefront_modes",
    "kolmogorov_covariance",
    "kolmogorov_wavefront",
    "build_aperture",
    "hexagon_grid",
    "ExperimentCell",
    "run_experiment",
    "experiment_csv",
    "EXPERIMENT_CSV_HEADER",
]

WAVEFRONT_MODES = 14

# Shared per-hexagon evaluation lattice (cell-centered over the bounding
# box); 55 x 61 leaves 2515 points strictly inside the unit hexagon.
GRID_NX = 55
GRID_NY = 61

EXPERIMENT_CSV_HEADER = "n,scheme,basis,mean_rrmse,trials"


def wavefront_modes(x, y):
    """The WAVEFRONT_MODES Zernike modes at points (x, y), shape (14,) + the
    broadcast shape of x and y; row j is Z_j.  Modes 0..13 have degree <= 4."""
    rho, theta = cartesian_to_polar(x, y)
    return zernike_matrix(4, rho, theta)[:WAVEFRONT_MODES]


@lru_cache(maxsize=1)
def kolmogorov_covariance():
    """Covariance of Zernike coefficients 1..13 under Kolmogorov turbulence.

    The standard closed form for unit-RMS Zernike modes: coefficients of
    modes (n, m) and (n', m') correlate only for equal signed m, with

        cov = c0 (-1)^((n+n'-2|m|)/2) sqrt((n+1)(n'+1))
              Gamma(14/3) Gamma((n+n'-5/3)/2) /
              [Gamma((n-n'+17/3)/2) Gamma((n'-n+17/3)/2) Gamma((n+n'+23/3)/2)]

    normalized to an aperture-diameter-to-Fried-length ratio of one, which
    puts the tip/tilt variance at the textbook 0.449.  Piston (mode 0) is
    excluded.  Returned as a (13, 13) array for single indices 1..13.
    """
    from .zernike import index_to_nm

    c0 = 0.0457654 * 0.5 ** (5.0 / 3.0) * math.pi ** (8.0 / 3.0) / 2.0
    modes = [index_to_nm(j) for j in range(1, WAVEFRONT_MODES)]
    cov = np.zeros((len(modes), len(modes)))
    for i, a in enumerate(modes):
        for k, b in enumerate(modes):
            if a.m != b.m:
                continue
            m = abs(a.m)
            sign = -1.0 if ((a.n + b.n - 2 * m) // 2) % 2 else 1.0
            g = (
                math.gamma(14.0 / 3.0)
                * math.gamma((a.n + b.n - 5.0 / 3.0) / 2.0)
                / (
                    math.gamma((a.n - b.n + 17.0 / 3.0) / 2.0)
                    * math.gamma((b.n - a.n + 17.0 / 3.0) / 2.0)
                    * math.gamma((a.n + b.n + 23.0 / 3.0) / 2.0)
                )
            )
            cov[i, k] = c0 * sign * math.sqrt((a.n + 1) * (b.n + 1)) * g
    cov.setflags(write=False)
    return cov


def kolmogorov_wavefront(seed):
    """Random wavefront: the read-only (14,) array a of its coefficients in
    wavelength-normalized optical path, deterministic per seed (PCG64).

    Single indices 1..13 are drawn from the zero-mean multivariate normal
    of ``kolmogorov_covariance`` (D/r0 = 1); piston, which carries no
    shape, is zero.  The surface lives in global polar coordinates without
    rescaling (rho up to about 6.2): its values at (x, y) are
    ``np.tensordot(a, wavefront_modes(x, y), axes=1)``.
    """
    chol = np.linalg.cholesky(kolmogorov_covariance())
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(WAVEFRONT_MODES)
    coeffs[1:] = chol @ rng.standard_normal(WAVEFRONT_MODES - 1)
    coeffs.setflags(write=False)
    return coeffs


def build_aperture():
    """Centers of the 36-segment aperture, a read-only (36, 2) array: side-1
    hexagons in a common orientation, in rings of 6, 12, 18 around a vacant
    center, flat-to-flat on the triangular lattice of spacing sqrt(3).

    Segments are ordered by ring and, within a ring, by center angle from
    the positive x axis.
    """
    s3 = math.sqrt(3.0)
    u = np.array([s3, 0.0])
    v = np.array([s3 / 2.0, s3 * s3 / 2.0])  # sqrt(3) * (cos 60, sin 60)
    centers = []
    for ring in (1, 2, 3):
        cells = []
        for q in range(-ring, ring + 1):
            for s in range(-ring, ring + 1):
                if (abs(q) + abs(s) + abs(q + s)) // 2 == ring:
                    cells.append(q * u + s * v)
        cells.sort(key=lambda c: math.atan2(c[1], c[0]) % (2.0 * math.pi))
        centers.extend(cells)
    centers = np.array(centers)
    centers.setflags(write=False)
    return centers


@lru_cache(maxsize=1)
def hexagon_grid():
    """Shared local evaluation grid: the GRID_NX x GRID_NY cell-centered
    lattice points strictly inside the unit hexagon (2515 of them)."""
    s3 = math.sqrt(3.0)
    xs = -s3 / 2.0 + (np.arange(GRID_NX) + 0.5) * (s3 / GRID_NX)
    ys = -1.0 + (np.arange(GRID_NY) + 0.5) * (2.0 / GRID_NY)
    gx, gy = np.meshgrid(xs, ys)
    gx = gx.ravel()
    gy = gy.ravel()
    inside = np.hypot(gx, gy) < HexagonMap().boundary_radius(np.arctan2(gy, gx))
    pts = np.column_stack([gx[inside], gy[inside]])
    pts.setflags(write=False)
    return pts


def _rrmse(error_sq, truth_sq):
    """sqrt(sum error_sq / sum truth_sq) over the last (segment) axis."""
    denom = np.sum(truth_sq, axis=-1)
    if np.any(denom == 0.0):
        raise ZeroDenominatorError(
            "wavefront is identically zero on the evaluation grid"
        )
    return np.sqrt(np.sum(error_sq, axis=-1) / denom)


def _grid_table(order):
    """The K family of degree <= order on the evaluation grid,
    (basis_size(order), M).  Its first basis_size(n) rows are the table at
    any n <= order, bit for bit, so one table serves every lower order."""
    grid = hexagon_grid()
    return HexagonBasis(order, "K").matrix_xy(grid[:, 0], grid[:, 1])


@lru_cache(maxsize=1)
def _grid_radius():
    """R(theta) at the hexagon_grid() points, read-only, by which
    ``HexagonMap.weigh`` divides H's grid values."""
    grid = hexagon_grid()
    radius = HexagonMap().boundary_radius(cartesian_to_polar(grid[:, 0], grid[:, 1])[1])
    radius.setflags(write=False)
    return radius


def _local_system(disk_nodes):
    """The step every family of one disk node set shares: the set moved
    onto the unit hexagon, the K family's collocation entries there,
    (N, N), rows basis functions and columns nodes, and H's node weights
    q = 1/R(theta_j), (N,): H's entries are K's times q, column by column.

    The entries pass every check of ``assemble``: ``transfer_nodes``
    labels the set with the hexagon domain, a NodeSet has basis_size(order)
    nodes, ``matrix`` raises DomainError for a node outside the hexagon,
    and non-finite entries raise NonFiniteError here.
    """
    nodes = transfer_nodes(HexagonMap(), disk_nodes)
    entries = HexagonBasis(nodes.order, "K").matrix(nodes)
    if not np.all(np.isfinite(entries)):
        raise NonFiniteError("collocation matrix has non-finite entries")
    weights = HexagonMap().weigh(np.ones(len(nodes)), nodes.rho, nodes.theta)
    return nodes, entries, weights


def _family_matrix(nodes, entries, basis):
    """The collocation matrix of ``basis`` at the local nodes, from the K
    entries of ``_local_system``, for ``_family_verdicts`` only: K's are
    the entries, H weighs a copy by 1/R(theta) with the map's ``weigh``.
    That is ``assemble``'s matrix bit for bit, since assemble weighs the
    same K values the same way."""
    if basis.weighted:
        entries = basis.map.weigh(entries.copy(), nodes.rho, nodes.theta)
    return CollocationMatrix(
        entries, nodes.order, str(nodes.scheme), basis.family, nodes.mirror
    )


def _on_grid(coefficients, bases, rows):
    """The interpolants with ``coefficients`` (F r, N), one block of r rows
    per family of ``bases``, on the evaluation grid, (F, r, M), from one
    product with ``rows``, the K family's rows of the grid table; a
    weighted family's block is divided in place by R(theta)."""
    values = (coefficients @ rows).reshape(len(bases), -1, rows.shape[1])
    for basis, block in zip(bases, values):
        if basis.weighted:
            block /= _grid_radius()
    return values


@dataclass(frozen=True)
class ExperimentCell:
    order: int
    scheme: str
    basis: str
    mean_rrmse: float
    trials: int
    error: str | None = None

    def csv_row(self):
        value = "error" if self.error else f"{self.mean_rrmse:.8e}"
        return f"{self.order},{self.scheme},{self.basis},{value},{self.trials}"


# Trial seeds are master_seed * _SEED_STRIDE + trial, distinct across
# master seeds only while trials < _SEED_STRIDE; run_experiment enforces it.
_SEED_STRIDE = 1_000_003


def _trial_seed(master_seed, trial):
    return master_seed * _SEED_STRIDE + trial


def _local_modes(points):
    """The 15 Zernike modes of degree <= 4 at local points (P, 2), (15, P)."""
    return zernike_matrix(4, *cartesian_to_polar(points[:, 0], points[:, 1]))


def _translations(centers):
    """T_k with wavefront_modes(c_k + p) = T_k @ _local_modes(p), (segments,
    14, 15), by interpolation at 15 points.

    Every wavefront mode has degree <= 4 and a shift keeps the degree, so
    wavefront_modes(c_k + p) lies in the span of the 15 local modes and any
    15 unisolvent points P fix T_k = W_k(P) Z15(P)^-1 exactly.  P is the
    order-4 OCS set (kappa_2 of Z15(P) is 2.05).  All segments' shifted
    points are evaluated in one ``wavefront_modes`` call, and Z15(P)^-1 is
    applied to each segment by one stacked matmul.
    """
    points = ocs_nodes(4).nodes
    inverse = np.linalg.inv(_local_modes(points))
    shifted = centers[:, None, :] + points  # (segments, 15, 2)
    values = wavefront_modes(shifted[..., 0], shifted[..., 1])
    return np.moveaxis(values, 0, 1) @ inverse


def _local_squares(local, root):
    """|y @ R.T|^2 = |y @ M|^2 for every row y of ``local`` (..., 15), if
    M.T = Q R: a grid sum of squares as a sum of 15 squares."""
    return np.sum(np.square(local @ root.T), axis=-1)


def _mean_rrmse(error, local, truth_sq):
    """One cell's mean reconstruction error over the trials, from its grid
    error E (15, M) of the 15 local modes, the trials' local modes
    ``local`` (trials, segments, 15) and their grid sums of squares
    ``truth_sq`` (trials, segments)."""
    root = np.linalg.qr(error.T, mode="r")
    return float(np.mean(_rrmse(_local_squares(local, root), truth_sq)))


def _shared_step(node_provider, scheme, order, seed):
    """What every family of one (order, scheme) shares: ``_local_system``
    and the 15 local modes at its nodes, (15, N).  Or the exception that
    says why they cannot be had: a ZernkitError, OSError or ValueError
    from ``node_provider``, a ZernkitError from the numerics."""
    try:
        disk_nodes = node_provider(scheme, order, seed)
    except (ZernkitError, OSError, ValueError) as exc:
        return exc
    try:
        nodes, entries, weights = _local_system(disk_nodes)
    except ZernkitError as exc:
        return exc
    return nodes, entries, weights, _local_modes(nodes.nodes)


def _report(progress, label, failure):
    if progress:
        progress(f"{label}: {type(failure).__name__}: {failure}")


def _solve_families(shared_step, bases, labels, progress):
    """Per family of ``bases``, in order, its basis or the exception that
    fails its cell; and the coefficients (15 F, N) of the F passing
    families' interpolants of the 15 local modes, 15 rows per family, or
    None.  ``labels[i]`` goes to ``progress`` as family i starts, and the
    reason of its failure right after.

    ``shared_step()`` runs once, at the first family, and
    ``_family_verdicts`` decides every family from its K entries: each
    family's matrix is K times a positive diagonal, 1 for K and the node
    weights q for H.  H's system H.T c = b is K.T c = b / q, so one
    ``np.linalg.solve`` on the K entries serves every passing family, its
    15 right-hand sides divided by its node weights.  Nothing returned
    holds the N x N entries.
    """
    if not bases:
        return [], None
    if progress:
        progress(labels[0])
    shared = shared_step()
    if isinstance(shared, Exception):
        outcomes = [shared] * len(bases)
    else:
        nodes, entries, weights, at_nodes = shared
        families = [HexagonBasis(nodes.order, family) for family in bases]
        verdicts = _family_verdicts(
            _family_matrix(nodes, entries, HexagonBasis(nodes.order, "K")),
            [weights if f.weighted else np.ones(len(weights)) for f in families],
            lambda i: _family_matrix(nodes, entries, families[i]),
        )
        outcomes = [f if isinstance(v, tuple) else v for v, f in zip(verdicts, families)]
    for i, (label, outcome) in enumerate(zip(labels, outcomes)):
        if progress and i:
            progress(label)
        if isinstance(outcome, Exception):
            _report(progress, label, outcome)
    solved = [o for o in outcomes if not isinstance(o, Exception)]
    if not solved:
        return outcomes, None
    rhs = np.concatenate([at_nodes / weights if b.weighted else at_nodes for b in solved])
    return outcomes, np.linalg.solve(entries.T, rhs.T).T


def run_experiment(
    orders,
    trials,
    schemes=("ocs",),
    bases=("K",),
    master_seed=0,
    node_seed=0,
    progress=None,
    node_provider=None,
):
    """Mean reconstruction error per (order, scheme, basis) cell.

    Each trial draws one Kolmogorov wavefront at D/r0 = 1 (seed derived
    from the master seed and the trial index, so the same wavefronts are
    reused across all cells) and reconstructs it zonally, in closed form.
    Its error is a ratio of two sums quadratic in the wavefront, so a
    turbulence strength would cancel; none is taken.  A wavefront a has
    degree <= 4, so on segment k it is exactly y = a @ T_k in the 15 local
    modes Z of degree <= 4 (a translation; Lundstrom & Unsbo, JOSA A 24,
    2007), fixed exactly by interpolation at 15 points (``_translations``).
    Interpolation is linear, so a cell's grid error is y @ E, with
    E = (interpolant of Z) - Z from one solve with 15 right-hand sides, and
    the error and truth sums on the grid are sums of 15 squares.

    Every family of one (order, scheme) shares one step: the node set is
    transferred to the hexagon once, and the K family and the 15 local
    modes are evaluated at the moved nodes once.  H is K times a positive
    diagonal, so the node set pays for one LU, every passing family's
    coefficients from one solve on the K entries, and, where the Cholesky
    certificate of the K entries decides every verdict, no SVD
    (``_solve_families``); a family it leaves undecided takes its own.
    Their grid values come from one product with the first rows of one
    K-family grid table, evaluated once per call at ``max(orders)``; an H
    block is divided by R(theta), so no cell evaluates the grid or copies
    the table.  The N x N entries are freed before any cell's QR.

    ``node_provider(scheme, order, seed)`` overrides how disk node sets are
    obtained, e.g. to load file-based schemes; it is called once per
    (order, scheme), and every basis's cell shares the set.  A cell whose
    node set cannot be had (``node_provider`` raises a ZernkitError,
    OSError or ValueError: a missing node file, an unknown scheme) or whose
    numerics raise a ZernkitError (a singular local system) is recorded as
    an error marker, not raised, and its reason goes to ``progress`` right
    after the cell's label.  A failure of the shared step marks every
    basis's cell of that (order, scheme) with the same reason; a singular
    matrix marks its own family's cell.  A failure of the grid error (a
    wavefront that is zero on the grid) is reported after the last label
    of its node set, since E comes after every family's solve.  Any other
    exception propagates.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials >= _SEED_STRIDE:
        raise ValueError(
            f"trials must be < {_SEED_STRIDE}, or trial seeds of adjacent "
            "master seeds coincide"
        )
    orders = tuple(orders)
    bases = tuple(bases)
    if not orders:
        return []
    if min(orders) < 0:
        raise ValueError(f"orders must be >= 0, got {min(orders)}")
    if node_provider is None:
        node_provider = generate_nodes
    stack = np.array([
        kolmogorov_wavefront(_trial_seed(master_seed, t))
        for t in range(trials)
    ])
    grid_modes = _local_modes(hexagon_grid())
    translations = _translations(build_aperture())
    local = np.einsum("tj,kjl->tkl", stack, translations)  # (trials, segments, 15)
    truth_sq = _local_squares(local, np.linalg.qr(grid_modes.T, mode="r"))
    table = _grid_table(max(orders))
    cells = []
    for order in orders:
        for scheme in schemes:
            labels = [f"n={order} scheme={scheme} basis={basis}" for basis in bases]
            # the N x N entries are freed with the solve, before any QR
            outcomes, coefficients = _solve_families(
                partial(_shared_step, node_provider, scheme, order, node_seed),
                bases, labels, progress,
            )
            solved = [o for o in outcomes if not isinstance(o, Exception)]
            if solved:
                errors = _on_grid(coefficients, solved, table[: coefficients.shape[1]])
                errors -= grid_modes
                errors = iter(errors)
            for basis, label, outcome in zip(bases, labels, outcomes):
                if not isinstance(outcome, Exception):
                    try:
                        mean = _mean_rrmse(next(errors), local, truth_sq)
                    except ZernkitError as exc:
                        _report(progress, label, exc)
                        outcome = exc
                    else:
                        cells.append(
                            ExperimentCell(order, str(scheme), basis, mean, trials)
                        )
                        continue
                cells.append(ExperimentCell(
                    order, str(scheme), basis, math.nan, trials,
                    error=type(outcome).__name__,
                ))
            # freed before the next node set's singularity checks
            coefficients = errors = None
    return cells


def experiment_csv(cells):
    lines = [EXPERIMENT_CSV_HEADER]
    lines += [cell.csv_row() for cell in cells]
    return "\n".join(lines) + "\n"
