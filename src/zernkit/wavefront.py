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
from functools import lru_cache

import numpy as np
import scipy.linalg

from .collocation import assemble, require_nonsingular
from .domains import HexagonBasis, HexagonMap, transfer_nodes
from .errors import ZeroDenominatorError, ZernkitError
from .samplings import generate_nodes
# zernike_xy stays importable from this module for tools that wrap it here
from .zernike import cartesian_to_polar, zernike_matrix, zernike_xy  # noqa: F401

__all__ = [
    "WAVEFRONT_MODES",
    "TRIAL_BLOCK",
    "wavefront_modes",
    "Wavefront",
    "kolmogorov_covariance",
    "kolmogorov_wavefront",
    "SegmentedAperture",
    "build_aperture",
    "hexagon_grid",
    "ZonalInterpolator",
    "ReconstructionResult",
    "zonal_interpolate",
    "rrmse",
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

# run_experiment reconstructs this many trials at a time, so the arrays of a
# cell scale with it, not with the trial count: TRIAL_BLOCK x (grid points of
# one segment) and TRIAL_BLOCK x segments x (nodes per segment).
TRIAL_BLOCK = 32


def wavefront_modes(x, y):
    """The WAVEFRONT_MODES Zernike modes at points (x, y), shape (14,) + the
    broadcast shape of x and y; row j is Z_j.  Modes 0..13 have degree <= 4."""
    rho, theta = cartesian_to_polar(x, y)
    return zernike_matrix(4, rho, theta)[:WAVEFRONT_MODES]


@dataclass(frozen=True)
class Wavefront:
    """Surface f(rho, theta) = sum_{j=1..14} a_j Z_{j-1}(rho, theta).

    Coefficients are wavelength-normalized optical path; the first entry
    (piston) is zero for generated wavefronts since it carries no shape.
    Evaluated in global polar coordinates without rescaling, per the
    aperture convention rho <= 6.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.ascontiguousarray(np.asarray(self.coefficients, dtype=float))
        if coeffs.shape != (WAVEFRONT_MODES,):
            raise ValueError(f"need exactly {WAVEFRONT_MODES} coefficients")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, x, y):
        out = np.tensordot(self.coefficients, wavefront_modes(x, y), axes=1)
        return out if out.shape else float(out)


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


def kolmogorov_wavefront(seed, strength=1.0):
    """Random wavefront with Kolmogorov-covariant coefficients.

    Modes 2..14 (single indices 1..13) are drawn from the zero-mean
    multivariate normal of ``kolmogorov_covariance`` scaled by ``strength``;
    piston is zero.  Deterministic per seed (PCG64).
    """
    if strength <= 0:
        raise ValueError("strength must be positive")
    chol = np.linalg.cholesky(kolmogorov_covariance())
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(WAVEFRONT_MODES)
    coeffs[1:] = strength * (chol @ rng.standard_normal(WAVEFRONT_MODES - 1))
    return Wavefront(coeffs)


@dataclass(frozen=True)
class SegmentedAperture:
    """Centers of side-1 hexagonal segments in a common orientation."""

    centers: np.ndarray

    def __post_init__(self):
        centers = np.ascontiguousarray(np.asarray(self.centers, dtype=float))
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)

    def __len__(self):
        return len(self.centers)


def build_aperture():
    """The 36-segment aperture: rings of 6, 12, 18 hexagons around a vacant
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
    return SegmentedAperture(np.array(centers))


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


@dataclass(frozen=True)
class ReconstructionResult:
    """Zonal reconstruction outcome: one coefficient vector per segment and
    the squared-error pieces of the relative root mean square error.  The
    reconstruction of a coefficient stack puts its trial axis first in every
    array, and the errors are then one value per trial."""

    order: int
    scheme: str
    basis: str
    coefficients: np.ndarray  # ([trials,] segments, N)
    error_sq: np.ndarray  # per-segment sum |approx - truth|^2 on the grid
    truth_sq: np.ndarray  # per-segment sum |truth|^2 on the grid

    @property
    def rrmse(self):
        denom = np.sum(self.truth_sq, axis=-1)
        if np.any(denom == 0.0):
            raise ZeroDenominatorError(
                "wavefront is identically zero on the evaluation grid"
            )
        value = np.sqrt(np.sum(self.error_sq, axis=-1) / denom)
        return value if value.shape else float(value)

    def segment_rrmse(self, k):
        if np.any(self.truth_sq[..., k] == 0.0):
            raise ZeroDenominatorError(f"wavefront vanishes on segment {k}")
        value = np.sqrt(self.error_sq[..., k] / self.truth_sq[..., k])
        return value if value.shape else float(value)


class ZonalInterpolator:
    """Per-segment critical interpolation machinery for one node layout.

    The disk node set is transferred to the unit hexagon once; because the
    basis shifts together with the nodes, every segment shares the same
    local collocation matrix, factored a single time, and the same basis
    values on the local evaluation grid.

    A wavefront is a callable f(x, y), such as a ``Wavefront``, or a
    (T, 14) stack of ``Wavefront`` coefficients, which puts a trial axis
    first in every array computed from it.
    """

    def __init__(self, aperture, disk_nodes, basis_family="K"):
        self.aperture = aperture
        self.order = disk_nodes.order
        self.scheme = str(disk_nodes.scheme)
        self.basis = HexagonBasis(disk_nodes.order, basis_family)
        self.local_nodes = transfer_nodes(HexagonMap(), disk_nodes)
        matrix = assemble(self.basis, self.local_nodes)
        require_nonsingular(
            np.linalg.svd(matrix.entries, compute_uv=False),
            f"local collocation matrix ({self.scheme}, {basis_family}, "
            f"n={self.order}), which every segment shares,",
        )
        self._lu = scipy.linalg.lu_factor(matrix.entries.T)
        grid = hexagon_grid()
        self._grid_values = self.basis.matrix_xy(grid[:, 0], grid[:, 1], check=False)

    def _at(self, wavefront, local, segment):
        """``wavefront`` at the local points ``local`` (P, 2) of ``segment``,
        or of every segment, on an axis before the points, if it is None."""
        centers = self.aperture.centers
        pts = (centers[:, None, :] if segment is None else centers[segment]) + local
        x, y = pts[..., 0], pts[..., 1]
        if callable(wavefront):
            values = wavefront(x.ravel(), y.ravel())
            return np.array(values, dtype=float).reshape(x.shape)
        return np.tensordot(wavefront, wavefront_modes(x, y), axes=1)

    def sample(self, wavefront):
        """The wavefront at every segment's nodes, ([T,] segments, N)."""
        return self._at(wavefront, self.local_nodes.nodes, None)

    def solve(self, samples):
        """Interpolation coefficients for every row of samples (..., N), all
        with one LU solve."""
        samples = np.asarray(samples, float)
        rows = samples.reshape(-1, samples.shape[-1])
        return scipy.linalg.lu_solve(self._lu, rows.T).T.reshape(samples.shape)

    def approximate(self, coefficients):
        """Reconstructed values on the evaluation grid, (..., M)."""
        return np.asarray(coefficients) @ self._grid_values

    def truth(self, wavefront, segment=None):
        """The wavefront on the evaluation grid of one segment, ([T,] M), or
        of all, ([T,] segments, M)."""
        return self._at(wavefront, hexagon_grid(), segment)

    def reconstruct(self, wavefront):
        """Interpolate the wavefront on every segment with one LU solve, then
        measure the error on the grid one segment at a time, so grid-sized
        arrays hold one segment's values per trial."""
        coeffs = self.solve(self.sample(wavefront))
        error_sq = np.empty(coeffs.shape[:-1])
        truth_sq = np.empty(coeffs.shape[:-1])
        for k in range(len(self.aperture)):
            approx = self.approximate(coeffs[..., k, :])
            truth = self.truth(wavefront, k)
            approx -= truth
            error_sq[..., k] = np.sum(np.square(approx, out=approx), axis=-1)
            truth_sq[..., k] = np.sum(np.square(truth, out=truth), axis=-1)
        return ReconstructionResult(
            order=self.order,
            scheme=self.scheme,
            basis=self.basis.family,
            coefficients=coeffs,
            error_sq=error_sq,
            truth_sq=truth_sq,
        )


def zonal_interpolate(aperture, wavefront, scheme="ocs", basis="K", order=5, seed=0):
    """Reconstruct a wavefront over the aperture by zonal interpolation.

    ``scheme`` names a generable disk sampling; nodes are transferred to
    the unit hexagon and replicated across segments.  ``basis`` is K or H.
    """
    nodes = generate_nodes(scheme, order, seed)
    return ZonalInterpolator(aperture, nodes, basis).reconstruct(wavefront)


def rrmse(approx, truth):
    """Relative root mean square error over matching value arrays."""
    approx = np.asarray(approx, dtype=float)
    truth = np.asarray(truth, dtype=float)
    denom = float(np.sum(truth * truth))
    if denom == 0.0:
        raise ZeroDenominatorError("reference values are identically zero")
    return math.sqrt(float(np.sum((approx - truth) ** 2)) / denom)


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


def run_experiment(
    orders,
    trials,
    schemes=("ocs",),
    bases=("K",),
    master_seed=0,
    strength=1.0,
    node_seed=0,
    aperture=None,
    progress=None,
    node_provider=None,
):
    """Mean reconstruction error per (order, scheme, basis) cell.

    Each trial draws one Kolmogorov wavefront (seed derived from the master
    seed and the trial index, so the same wavefronts are reused across all
    cells) and reconstructs it zonally.  The trials' coefficients are
    stacked once, and each cell reconstructs them TRIAL_BLOCK at a time.
    A cell that fails with a ZernkitError, OSError or ValueError (for
    example a singular local system or a missing node file) is recorded as
    an error marker, not raised, and its reason goes to ``progress``; any
    other exception propagates.  ``node_provider(scheme, order, seed)``
    overrides how disk node sets are obtained, e.g. to load file-based
    schemes.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials >= _SEED_STRIDE:
        raise ValueError(
            f"trials must be < {_SEED_STRIDE}, or trial seeds of adjacent "
            "master seeds coincide"
        )
    if aperture is None:
        aperture = build_aperture()
    if node_provider is None:
        node_provider = generate_nodes
    stack = np.array([
        kolmogorov_wavefront(_trial_seed(master_seed, t), strength).coefficients
        for t in range(trials)
    ])
    cells = []
    for order in orders:
        for scheme in schemes:
            for basis in bases:
                label = f"n={order} scheme={scheme} basis={basis}"
                if progress:
                    progress(label)
                try:
                    nodes = node_provider(scheme, order, node_seed)
                    zi = ZonalInterpolator(aperture, nodes, basis)
                    errors = [
                        zi.reconstruct(stack[start : start + TRIAL_BLOCK]).rrmse
                        for start in range(0, trials, TRIAL_BLOCK)
                    ]
                    mean = float(np.mean(np.concatenate(errors)))
                    cells.append(
                        ExperimentCell(order, str(scheme), basis, mean, trials)
                    )
                except (ZernkitError, OSError, ValueError) as exc:
                    if progress:
                        progress(f"{label}: {type(exc).__name__}: {exc}")
                    cells.append(
                        ExperimentCell(
                            order,
                            str(scheme),
                            basis,
                            math.nan,
                            trials,
                            error=type(exc).__name__,
                        )
                    )
    return cells


def experiment_csv(cells):
    lines = [EXPERIMENT_CSV_HEADER]
    lines += [cell.csv_row() for cell in cells]
    return "\n".join(lines) + "\n"
