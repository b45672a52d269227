"""Interpolation node sets on the unit disk.

For order n all schemes produce exactly (n+1)(n+2)/2 nodes.  The ring-based
schemes (OCS, Carnicer, Cuyt) are Bos arrays: k = floor(n/2)+1 concentric
circles with 2n - 4j + 5 equally spaced points on circle j, counted from
the outermost ring, which makes them unisolvent for degree-n interpolation.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConvergenceError,
    NodeContainmentError,
    NodeCountError,
    NodeParseError,
    RankDeficiencyError,
)
from .zernike import (
    CONTAIN_TOL,
    basis_size,
    cartesian_to_polar,
    polar_to_cartesian,
    zernike_matrix,
)

__all__ = [
    "Scheme",
    "NodeSet",
    "bos_array",
    "ring_counts",
    "ocs_radii",
    "carnicer_radii",
    "cuyt_radii",
    "legendre_derivative_zeros",
    "ocs_nodes",
    "carnicer_nodes",
    "cuyt_nodes",
    "spiral_nodes",
    "random_thinned_nodes",
    "farthest_point_thinning",
    "approximate_fekete",
    "load_nodes",
    "save_nodes",
    "GENERATORS",
    "generate_nodes",
]

# Vogel/sunflower spiral angle increment 2*pi*(1 - 1/golden ratio).
GOLDEN_ANGLE = 2.39996322972865332

CARNICER_EXPONENT = 1.46

# Uniform disk points that farthest-point thinning picks a random set from.
RANDOM_POOL = 1000


class Scheme(str, Enum):
    OCS = "ocs"
    CARNICER = "carnicer"
    CUYT = "cuyt"
    BOS_CUSTOM = "bos"
    SPIRAL = "spiral"
    RANDOM_THINNED = "random"
    APPROX_FEKETE = "approx-fekete"
    FILE_LOADED = "file"
    # the file schemes, for a set loaded under one of their names
    LEBESGUE = "lebesgue"
    FEKETE = "fekete"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class NodeSet:
    """Ordered planar point set with scheme provenance.

    ``nodes`` is an (N, 2) Cartesian array.  ``polar`` holds the matching
    (rho, theta) columns; when omitted it is derived by
    ``cartesian_to_polar``.
    Node transfer to other domains supplies ``polar`` explicitly so that
    basis evaluation can reuse the exact source coordinates.

    ``mirror``, when given, is the set's symmetry under y -> -y as an index
    permutation: node ``mirror[i]`` is the reflection of node i, up to
    rounding.  It must be an involution of 0 .. N-1 (ValueError otherwise).
    ``bos_array`` records it and ``transfer_nodes`` keeps it, so that
    ``condition_number`` can split the collocation matrix in two and
    ``lebesgue_constant`` evaluate half the grid angles; every other set
    has none.
    """

    order: int
    scheme: Scheme
    nodes: np.ndarray
    metadata: str = ""
    domain: str = "disk"
    polar: np.ndarray | None = None
    mirror: np.ndarray | None = None

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError(f"nodes must be (N, 2), got {nodes.shape}")
        expected = basis_size(self.order)
        if len(nodes) != expected:
            raise NodeCountError(
                f"order {self.order} needs {expected} nodes, got {len(nodes)}"
            )
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        if self.polar is None:
            polar = np.column_stack(cartesian_to_polar(nodes[:, 0], nodes[:, 1]))
        else:
            polar = np.ascontiguousarray(np.asarray(self.polar, dtype=float))
            if polar.shape != nodes.shape:
                raise ValueError("polar must match nodes shape")
        polar.setflags(write=False)
        object.__setattr__(self, "polar", polar)
        if self.mirror is not None:
            mirror = np.array(self.mirror)
            index = np.arange(len(nodes))
            # an involution of 0 .. N-1 is a permutation; the range check
            # comes first, as mirror[mirror] wraps negative indices
            if not (
                mirror.dtype.kind in "iu"
                and mirror.shape == index.shape
                and np.all((mirror >= 0) & (mirror < len(nodes)))
                and np.array_equal(mirror[mirror], index)
            ):
                raise ValueError("mirror must be an involution of the node indices")
            mirror.setflags(write=False)
            object.__setattr__(self, "mirror", mirror)

    def __len__(self):
        return len(self.nodes)

    @property
    def x(self):
        return self.nodes[:, 0]

    @property
    def y(self):
        return self.nodes[:, 1]

    @property
    def rho(self):
        return self.polar[:, 0]

    @property
    def theta(self):
        return self.polar[:, 1]


def ring_counts(n):
    """Points per ring, outermost first: 2n - 4j + 5 for j = 1..floor(n/2)+1."""
    k = n // 2 + 1
    return tuple(2 * n - 4 * j + 5 for j in range(1, k + 1))


def bos_array(n, radii, scheme=Scheme.BOS_CUSTOM):
    """The NodeSet of the order-n Bos array with the given ring radii,
    outermost first: ring j contributes ring_counts(n)[j] equally spaced
    points (r_j cos(2 pi i / n_j), r_j sin(2 pi i / n_j)), i = 0 .. n_j - 1.

    Every ring count is odd, so point i of a ring mirrors point
    (n_j - i) mod n_j under y -> -y; the set records that as its ``mirror``.
    """
    radii = tuple(float(r) for r in radii)
    counts = ring_counts(n)
    if len(radii) != len(counts):
        raise ValueError(f"order {n} needs {len(counts)} ring radii, got {len(radii)}")
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError(f"radii must be strictly decreasing, got {radii}")
    if radii[-1] < 0:
        raise ValueError("radii must be non-negative")
    if radii[-1] == 0.0 and counts[-1] != 1:
        raise ValueError("a zero radius is only allowed for a single-point ring")
    # every ring at once: point i of ring j is global index start_j + i
    ring = np.repeat(np.arange(len(counts)), counts)
    start = np.cumsum((0,) + counts[:-1])[ring]
    count = np.array(counts)[ring]
    i = np.arange(ring.size) - start
    ang = 2.0 * np.pi * i / count
    pts = np.column_stack(polar_to_cartesian(np.array(radii)[ring], ang))
    return NodeSet(n, scheme, pts, mirror=start + (-i) % count)


def _check_order(n):
    """Every generated sampling needs at least the degree-1 basis."""
    if n < 1:
        raise ValueError("order must be >= 1")


def ocs_radii(n):
    """Ring radii of Optimal Concentric Sampling, outermost first.

    A fitted cubic in the Chebyshev zeros xi_j = cos((2j-1) pi / (2(n+1))):
        r_j = 1.1565 xi - 0.76535 xi^2 + 0.60517 xi^3,  j = 1..floor(n/2)+1.
    """
    _check_order(n)
    k = n // 2 + 1
    j = np.arange(1, k + 1)
    xi = np.cos((2 * j - 1) * np.pi / (2 * (n + 1)))
    # for even n the innermost argument is exactly pi/2; make the zero exact
    # so the node really sits at the disk center
    xi[2 * j - 1 == n + 1] = 0.0
    return 1.1565 * xi - 0.76535 * xi**2 + 0.60517 * xi**3


def carnicer_radii(n):
    """Ring radii r_j = 1 - (2(j-1)/n)^a, outermost first.

    The exponent a = ``CARNICER_EXPONENT`` = 1.46 is the published
    all-orders choice.
    """
    _check_order(n)
    k = n // 2 + 1
    j = np.arange(1, k + 1)
    return 1.0 - (2.0 * (j - 1) / n) ** CARNICER_EXPONENT


def cuyt_radii(n):
    """Ring radii from the Legendre-polynomial extremal points, outermost first.

    The k = floor(n/2)+1 non-negative Gauss-Lobatto abscissae of the
    (n+1)-point rule: the endpoint 1 together with the non-negative zeros
    of P_n'.  Among the candidate readings of "radii expressed in terms of
    the zeros of Legendre polynomials" this is the one that reproduces the
    published condition-number column (raw or rescaled zeros of P_{n+1}
    both land well below it for n >= 3).
    """
    _check_order(n)
    if n == 1:
        return np.ones(1)
    inner = legendre_derivative_zeros(n)
    nonneg = inner[inner >= 0.0][::-1]  # decreasing
    return np.concatenate([[1.0], nonneg])


def _legendre_and_derivative(degree, x):
    """P_d(x) and P_d'(x) via the recurrence k P_k = (2k-1) x P_{k-1} - (k-1) P_{k-2}."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, degree + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = degree * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def legendre_derivative_zeros(degree, tol=1e-15, max_iter=100):
    """All zeros of P_d' on (-1, 1), increasing (the extrema of P_d).

    Newton on P_d', with P_d'' from the Legendre differential equation;
    Chebyshev-Lobatto starting points cos(k pi / d).  Only the positive half
    is iterated and the rest filled in by symmetry, so the middle zero of an
    even degree is exactly 0.
    """
    if degree < 2:
        return np.zeros(0)
    n_pos = (degree - 1) // 2
    parts = []
    if n_pos:
        k = np.arange(1, n_pos + 1)
        x = np.cos(k * np.pi / degree)  # positive half, decreasing
        for _ in range(max_iter):
            p, dp = _legendre_and_derivative(degree, x)
            ddp = (2.0 * x * dp - degree * (degree + 1) * p) / (1.0 - x * x)
            dx = dp / ddp
            x = x - dx
            if np.max(np.abs(dx)) < tol:
                break
        else:
            raise ConvergenceError(
                f"Legendre extremum search for degree {degree} did not converge"
            )
        pos = np.sort(x)
        parts = [-pos[::-1], pos]
    if degree % 2 == 0:
        parts.insert(len(parts) // 2 if parts else 0, np.zeros(1))
    return np.concatenate(parts) if parts else np.zeros(1)


def ocs_nodes(n):
    return bos_array(n, ocs_radii(n), Scheme.OCS)


def carnicer_nodes(n):
    return bos_array(n, carnicer_radii(n), Scheme.CARNICER)


def cuyt_nodes(n):
    return bos_array(n, cuyt_radii(n), Scheme.CUYT)


def spiral_nodes(n):
    """Sunflower (Vogel) spiral sampling of the disk.

    Point i (1-based) sits at radius sqrt((i - 1/2)/N), angle i times the
    golden angle.  Used as an instability baseline, not a recommended set.
    """
    _check_order(n)
    count = basis_size(n)
    i = np.arange(1, count + 1)
    rho = np.sqrt((i - 0.5) / count)
    ang = i * GOLDEN_ANGLE
    return NodeSet(n, Scheme.SPIRAL, np.column_stack(polar_to_cartesian(rho, ang)))


def random_thinned_nodes(n, seed):
    """Farthest-point thinning of a seeded uniform sample of the disk.

    Draws ``RANDOM_POOL`` points uniformly (PCG64 generator, so the set is
    reproducible bit for bit across platforms for a given seed), then keeps
    basis_size(n) of them greedily: start from the point nearest the
    boundary, then repeatedly add the candidate whose minimum distance to
    the already selected points is largest.
    """
    _check_order(n)
    count = basis_size(n)
    if count > RANDOM_POOL:
        raise NodeCountError(
            f"order {n} needs {count} nodes but the pool has only {RANDOM_POOL}"
        )
    rng = np.random.default_rng(seed)
    rho = np.sqrt(rng.random(RANDOM_POOL))
    ang = 2.0 * np.pi * rng.random(RANDOM_POOL)
    pool = np.column_stack(polar_to_cartesian(rho, ang))
    nodes = farthest_point_thinning(pool, count)
    return NodeSet(
        n, Scheme.RANDOM_THINNED, nodes, metadata=f"seed={seed} pool={RANDOM_POOL}"
    )


def farthest_point_thinning(points, count):
    """Greedy farthest-point subset of ``points``, seeded at the point of
    largest radius (nearest the boundary).  Ties break on the lower index."""
    points = np.asarray(points, dtype=float)
    if count > len(points):
        raise NodeCountError(f"cannot select {count} of {len(points)} points")
    start = int(np.argmax(points[:, 0] ** 2 + points[:, 1] ** 2))
    selected = [start]
    min_dist = np.hypot(*(points - points[start]).T)
    min_dist[start] = -np.inf
    for _ in range(count - 1):
        nxt = int(np.argmax(min_dist))
        selected.append(nxt)
        d = np.hypot(*(points - points[nxt]).T)
        np.minimum(min_dist, d, out=min_dist)
        min_dist[nxt] = -np.inf
    return points[selected]


def _flapack():
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``, loaded
    from scipy's directory without importing ``scipy`` or ``scipy.linalg``
    (whose import costs more than the rest of zernkit's start-up); an
    already imported copy is reused."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        (scipy_dir,) = importlib.util.find_spec("scipy").submodule_search_locations
        finder = importlib.machinery.FileFinder(
            os.path.join(scipy_dir, "linalg"),
            (
                importlib.machinery.ExtensionFileLoader,
                importlib.machinery.EXTENSION_SUFFIXES,
            ),
        )
        spec = finder.find_spec(name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


def approximate_fekete(n, mesh_density):
    """Approximate Fekete points selected from a fine polar mesh.

    Evaluates the degree-n Zernike Vandermonde on a tensor polar grid of at
    least ``mesh_density`` points and keeps the N mesh points picked by a
    column-pivoted QR factorization of the transposed Vandermonde.

    The factorization is LAPACK's dgeqp3, called with the workspace its
    own query returns, as scipy's pivoted ``qr`` does.  Every point of a
    mesh ring ties with the others in exact arithmetic, so which points are
    kept depends on that routine's rounding, and no other pivoted QR is
    guaranteed to pick the same ones.
    """
    _check_order(n)
    count = basis_size(n)
    if mesh_density < 10 * count:
        raise ValueError(
            f"mesh_density must be >= {10 * count} for order {n}, got {mesh_density}"
        )
    n_theta = max(4 * (n + 1), int(math.ceil(math.sqrt(2.0 * mesh_density))))
    n_r = int(math.ceil(mesh_density / n_theta))
    r = np.sqrt(np.arange(1, n_r + 1) / n_r)  # area-uniform, includes r = 1
    t = 2.0 * np.pi * np.arange(n_theta) / n_theta
    rho = np.repeat(r, n_theta)
    ang = np.tile(t, n_r)
    rho = np.concatenate([[0.0], rho])
    ang = np.concatenate([[0.0], ang])
    vand = zernike_matrix(n, rho, ang)
    geqp3 = _flapack().dgeqp3
    lwork = int(geqp3(vand, lwork=-1)[-2][0])
    rfac, piv, _, _, info = geqp3(vand, lwork=lwork)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgeqp3")
    diag = np.abs(np.diag(rfac))
    if diag.min() <= diag.max() * 1e-13:
        raise RankDeficiencyError(
            f"mesh Vandermonde is rank deficient at order {n}"
        )
    keep = np.sort(piv[:count] - 1)  # dgeqp3 counts columns from 1
    nodes = np.column_stack(polar_to_cartesian(rho[keep], ang[keep]))
    return NodeSet(
        n,
        Scheme.APPROX_FEKETE,
        nodes,
        metadata=f"approximate-fekete mesh={rho.size}",
    )


def load_nodes(path, n, scheme=Scheme.FILE_LOADED):
    """Read a node file: one ``x y`` pair per line, ``#`` comments allowed.
    The set carries ``scheme``, the name it is loaded as.

    Validates that every coordinate is finite, the point count against
    basis_size(n) and containment in the closed unit disk (tolerance
    ``CONTAIN_TOL`` on rho^2).
    """
    pts = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise NodeParseError(f"{path}: not ASCII text: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        fields = body.split()
        if len(fields) != 2:
            raise NodeParseError(
                f"{path}:{lineno}: expected two columns, got {len(fields)}"
            )
        try:
            point = (float(fields[0]), float(fields[1]))
        except ValueError as exc:
            raise NodeParseError(f"{path}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, point)):
            raise NodeParseError(f"{path}:{lineno}: non-finite coordinate in {body!r}")
        pts.append(point)
    expected = basis_size(n)
    if len(pts) != expected:
        raise NodeCountError(
            f"{path}: order {n} needs {expected} nodes, file has {len(pts)}"
        )
    nodes = np.asarray(pts, dtype=float)
    r2 = nodes[:, 0] ** 2 + nodes[:, 1] ** 2
    worst = int(np.argmax(r2))
    if r2[worst] > 1.0 + CONTAIN_TOL:
        raise NodeContainmentError(
            f"{path}: node {worst} at radius {math.sqrt(r2[worst]):.12f} "
            "lies outside the closed unit disk"
        )
    return NodeSet(n, Scheme(scheme), nodes, metadata=str(path))


def save_nodes(path_or_handle, nodeset):
    """Write a NodeSet in the node file format (full float precision)."""
    lines = [f"# scheme={nodeset.scheme} n={nodeset.order} domain={nodeset.domain}\n"]
    lines += [f"{float(x)!r} {float(y)!r}\n" for x, y in nodeset.nodes]
    if hasattr(path_or_handle, "write"):
        path_or_handle.writelines(lines)
    else:
        with open(path_or_handle, "w", encoding="ascii") as fh:
            fh.writelines(lines)


# The generable disk samplings: each scheme's order-n node set, seeded where
# random.  Approximate Fekete points come from a mesh of 30 points per node.
GENERATORS = {
    Scheme.OCS: lambda n, seed: ocs_nodes(n),
    Scheme.CARNICER: lambda n, seed: carnicer_nodes(n),
    Scheme.CUYT: lambda n, seed: cuyt_nodes(n),
    Scheme.SPIRAL: lambda n, seed: spiral_nodes(n),
    Scheme.RANDOM_THINNED: lambda n, seed: random_thinned_nodes(n, seed),
    Scheme.APPROX_FEKETE: lambda n, seed: approximate_fekete(n, 30 * basis_size(n)),
}


def generate_nodes(scheme, n, seed=0):
    """Dispatch on scheme name through ``GENERATORS``; every generator
    refuses orders below 1."""
    scheme = Scheme(scheme)
    if scheme not in GENERATORS:
        raise ValueError(f"scheme {scheme} cannot be generated (load it from a file)")
    return GENERATORS[scheme](n, seed)
