"""Diffeomorphisms from the unit disk and the bases they transport.

Each map phi sends the closed unit disk onto a target domain M (regular
hexagon, axis-aligned ellipse, circular annulus).  Composing disk Zernike
polynomials with the inverse map, optionally times a non-vanishing weight
q, yields families orthonormal on M:

    family  domain   weight q                orthonormality measure |J|/q^2
    K       hexagon  1                       dx dy / R(theta)^2
    H       hexagon  1/R(theta)              dx dy
    E       ellipse  1/sqrt(AB)              dx dy
    O       annulus  sqrt(|J|)               dx dy
    C       annulus  1                       |J| dx dy

(all inner products carry the disk convention's 1/pi prefactor), where
R(theta) is the hexagon boundary radius and J the Jacobian of the inverse
map.  Every weight that is not 1 is sqrt(|J|).

One TransferredBasis implements this construction, Z_j o phi^-1 times q,
for every map.  Each map names its families (and which carry the weight)
and owns its pull-back to the disk, its weight and its node transfer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError
from .samplings import NodeSet
from .zernike import (
    CONTAIN_TOL,
    DiskZernikeBasis,
    basis_size,
    cartesian_to_polar,
    polar_to_cartesian,
    zernike_matrix,
    zernike_polar,
)

__all__ = [
    "HEXAGON_HALF_ANGLE",
    "polygon_fold",
    "polygon_boundary_radius",
    "HexagonMap",
    "EllipseMap",
    "AnnulusMap",
    "make_map",
    "transfer_nodes",
    "TransferredBasis",
    "HexagonBasis",
    "make_basis",
    "BASIS_DOMAINS",
]

HEXAGON_HALF_ANGLE = math.pi / 6


def polygon_fold(theta, half_angle):
    """Fold an angle into the fundamental sector [-alpha, alpha):
    theta - floor((theta + alpha) / (2 alpha)) * 2 alpha."""
    theta = np.asarray(theta, dtype=float)
    two_a = 2.0 * half_angle
    return theta - np.floor((theta + half_angle) / two_a) * two_a


def polygon_boundary_radius(theta, half_angle=HEXAGON_HALF_ANGLE):
    """Distance from the center of a regular polygon to its boundary at
    angle theta: cos(alpha)/cos(fold(theta)).  Lies in [cos alpha, 1]."""
    return math.cos(half_angle) / np.cos(polygon_fold(theta, half_angle))


def _invertible_forward_radius(rho, forward, inverse):
    """Forward-map radii, nudged so the inverse returns rho exactly.

    ``forward``/``inverse`` map single radii elementwise (index-aware).
    The naive forward value can be off by one ulp from the float whose
    inverse image is the source radius; snapping onto that float keeps
    transfer-then-evaluate numerically identical to evaluating on the
    disk, which makes the condition-number invariance exact in practice.
    Where neither neighbour maps back exactly (the image radii are a
    coarser float grid than the source radii), the naive value stays.
    """
    out = np.array(forward(rho, slice(None)))
    for i in np.flatnonzero(inverse(out, slice(None)) != rho):
        for cand in (np.nextafter(out[i], np.inf), np.nextafter(out[i], -np.inf)):
            if inverse(cand, i) == rho[i]:
                out[i] = cand
                break
    return out


def _polar_nodes(rho, theta):
    """Cartesian and polar node columns of an angle-preserving transfer."""
    return (
        np.column_stack([rho * np.cos(theta), rho * np.sin(theta)]),
        np.column_stack([rho, theta]),
    )


class _RadialMap:
    """A map that scales the radius and keeps the angle.  Its pull-back is
    ``inverse_polar``, so transferred bases evaluate it in polar coordinates."""

    coordinates = "polar"

    def image_weight(self, rho, theta):
        """sqrt|J| at the images of disk polar points (rho, theta), as a
        new array of their broadcast shape."""
        s, t = self.forward_polar(rho, theta)
        return self.weigh(np.ones(np.broadcast_shapes(np.shape(s), np.shape(t))), s, t)


@dataclass(frozen=True)
class HexagonMap(_RadialMap):
    """Disk onto the regular hexagon of side 1 inscribed in the unit circle.

    In polar coordinates the forward map scales the radius by the boundary
    radius R(theta) of ``polygon_boundary_radius`` with the half angle
    pi/6; angles are preserved.  One vertex sits at theta = pi/6, an edge
    midpoint at theta = 0.
    """

    kind = "hexagon"
    families = {"K": False, "H": True}  # family -> carries the weight 1/R

    def boundary_radius(self, theta):
        return polygon_boundary_radius(theta)

    def forward_polar(self, rho, theta):
        return rho * self.boundary_radius(theta), theta

    def inverse_polar(self, rho, theta, check=True):
        u = rho / self.boundary_radius(theta)
        if check and np.any(u > 1.0 + CONTAIN_TOL):
            raise DomainError("point outside the hexagon")
        return u, theta

    pull_back = inverse_polar

    def weigh(self, values, rho, theta):
        """Multiply values in place by sqrt|J| = 1/R(theta)."""
        values /= self.boundary_radius(theta)
        return values

    def transfer(self, nodeset, inner_eps):
        theta = nodeset.theta
        scale = self.boundary_radius(theta)
        rho = _invertible_forward_radius(
            nodeset.rho, lambda r, i: r * scale[i], lambda s, i: s / scale[i]
        )
        return _polar_nodes(rho, theta)


@dataclass(frozen=True)
class EllipseMap:
    """Disk onto the axis-aligned ellipse x^2/A^2 + y^2/B^2 <= 1 by the
    affine scaling (u, v) -> (A u, B v).

    Its pull-back is ``inverse_xy``, so transferred bases evaluate it in
    Cartesian coordinates; polar points are converted first.
    """

    semi_major: float
    semi_minor: float

    kind = "ellipse"
    families = {"E": True}  # family -> carries the weight 1/sqrt(AB)
    coordinates = "xy"

    def __post_init__(self):
        if not self.semi_major >= self.semi_minor > 0:
            raise ValueError(
                f"need A >= B > 0, got A={self.semi_major}, B={self.semi_minor}"
            )

    def forward_xy(self, x, y):
        return self.semi_major * x, self.semi_minor * y

    def inverse_xy(self, x, y, check=True):
        u = x / self.semi_major
        v = y / self.semi_minor
        if check and np.any(u * u + v * v > 1.0 + CONTAIN_TOL):
            raise DomainError("point outside the ellipse")
        return u, v

    def pull_back(self, x, y, check=True):
        return cartesian_to_polar(*self.inverse_xy(x, y, check))

    def weigh(self, values, x, y):
        """Multiply values in place by sqrt|J| = 1/sqrt(AB)."""
        values *= 1.0 / math.sqrt(self.semi_major * self.semi_minor)
        return values

    def image_weight(self, rho, theta):
        """sqrt|J| at the images of disk polar points (rho, theta), as a
        new array of their broadcast shape."""
        x, y = self.forward_xy(*polar_to_cartesian(rho, theta))
        return self.weigh(np.ones(np.broadcast_shapes(x.shape, y.shape)), x, y)

    def transfer(self, nodeset, inner_eps):
        return np.column_stack(self.forward_xy(nodeset.x, nodeset.y)), None


@dataclass(frozen=True)
class AnnulusMap(_RadialMap):
    """Disk onto the annulus a <= r <= A.

    The source radius rho in [0, 1] maps affinely onto [a, A]; angles are
    preserved.  The formula is usually written with (rho, theta) named as
    the polar coordinates of the image point, which taken literally would
    make the map implicit; here they are read as the polar coordinates of
    the source point, the only reading under which this is a disk-to-annulus
    diffeomorphism.  The disk center goes to (a, 0).
    """

    inner: float
    outer: float

    kind = "annulus"
    families = {"O": True, "C": False}  # family -> carries the weight sqrt|J|

    def __post_init__(self):
        if not 0 < self.inner < self.outer:
            raise ValueError(
                f"need 0 < a < A, got a={self.inner}, A={self.outer}"
            )
        if self.inner / self.outer > 0.95:
            warnings.warn(
                "inner radius within 5% of the outer radius; the sqrt-Jacobian "
                "basis becomes numerically unstable",
                stacklevel=2,
            )

    def forward_polar(self, rho, theta):
        return self.inner + (self.outer - self.inner) * np.asarray(rho, float), theta

    def inverse_polar(self, rho, theta, check=True):
        """Disk polar coordinates; radii below the inner circle (within the
        tolerance, or any when ``check`` is off) go to the disk center."""
        t = (np.asarray(rho, float) - self.inner) / (self.outer - self.inner)
        if check and (np.any(t > 1.0 + CONTAIN_TOL) or np.any(t < -CONTAIN_TOL)):
            raise DomainError("point outside the annulus")
        return np.maximum(t, 0.0), theta

    pull_back = inverse_polar

    def weigh(self, values, rho, theta):
        """Multiply values in place by sqrt|J| = sqrt((r - a)/r) / (A - a).
        It vanishes on the inner circle, so an O collocation node there
        makes the matrix singular."""
        values *= np.sqrt(np.maximum(rho - self.inner, 0.0) / rho) / (
            self.outer - self.inner
        )
        return values

    def transfer(self, nodeset, inner_eps):
        """Source nodes at the disk center go to radius a + inner_eps when
        inner_eps is set, off the circle where the O weight vanishes."""
        a, span = self.inner, self.outer - self.inner
        rho = _invertible_forward_radius(
            nodeset.rho, lambda r, i: a + span * r, lambda s, i: (s - a) / span
        )
        if inner_eps:
            rho[nodeset.rho == 0.0] = a + inner_eps
        return _polar_nodes(rho, nodeset.theta)


# CLI/CSV codes of the basis families and the domain each lives on.
BASIS_DOMAINS = {
    "Z": "disk",
    **{f: m.kind for m in (HexagonMap, EllipseMap, AnnulusMap) for f in m.families},
}


def make_map(kind, semi_major=None, semi_minor=None, inner=None, outer=None):
    """Build a DomainMap from CLI-style parameters."""
    if kind == "hexagon":
        return HexagonMap()
    if kind == "ellipse":
        return EllipseMap(semi_major, semi_minor)
    if kind == "annulus":
        return AnnulusMap(inner, outer if outer is not None else 1.0)
    raise ValueError(f"unknown domain kind {kind!r}")


def transfer_nodes(domain_map, nodeset, inner_eps=0.01):
    """Transplant a disk NodeSet onto the map's image domain, in order.

    For the annulus, a source node exactly at the disk center would land on
    the inner circle where the sqrt-Jacobian weight vanishes; it is moved
    outward along its angle to radius a + inner_eps (pass inner_eps=0 or
    None to disable, e.g. when studying the plain composed family C, for
    which the inner circle is harmless).

    For the radial maps (hexagon, annulus) angles are kept and each
    transferred radius is nudged by at most one ulp onto a float whose
    pull-back is exactly the source radius, where such a float exists, so
    evaluating a transferred basis at transferred nodes reproduces the disk
    collocation matrix bit for bit on those nodes.  Elsewhere the pull-back
    is off by at most two steps of the image's float grid.
    """
    if nodeset.domain != "disk":
        raise DomainError(f"can only transfer disk node sets, got {nodeset.domain}")
    nodes, polar = domain_map.transfer(nodeset, inner_eps)
    return NodeSet(
        nodeset.order,
        nodeset.scheme,
        nodes,
        metadata=f"{nodeset.metadata} -> {domain_map.kind}".strip(),
        domain=domain_map.kind,
        polar=polar,
    )


class TransferredBasis:
    """A disk Zernike basis carried onto a map's image: Z_j o phi^-1, times
    the weight q = sqrt|J| for the map's weighted families.

    The map supplies the pull-back to disk polar coordinates (with the
    domain check), the weight and the coordinates it takes them in: polar
    for the angle-preserving hexagon and annulus maps, Cartesian for the
    ellipse.  Points given in the other coordinates are converted first.  A
    point is inside the domain when its pull-back lies in the closed unit
    disk (a pulled-back radius in [0, 1], or u^2 + v^2 <= 1 for the
    ellipse) with ``CONTAIN_TOL`` of slack; ``check=False`` skips the test.
    That test is the domain's only statement, and ``matrix(nodes)``, which
    ``assemble`` calls, always makes it.
    """

    def __init__(self, order, family, map):
        if map is None or family not in map.families:
            domain = BASIS_DOMAINS.get(family, "disk")
            if domain == "disk":
                raise ValueError(f"unknown transferred basis family {family!r}")
            raise ValueError(f"family {family!r} needs the {domain} map, got {map!r}")
        self.order = order
        self.family = family
        self.map = map
        self.domain = map.kind
        self.size = basis_size(order)
        self.weighted = map.families[family]

    def _values(self, zernike, a, b, coordinates, check):
        """``zernike(rho, theta)`` at the pull-back of points (a, b) given
        in ``coordinates`` ("polar" or "xy"), times the weight."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if coordinates != self.map.coordinates:
            convert = polar_to_cartesian if coordinates == "polar" else cartesian_to_polar
            a, b = convert(a, b)
        val = zernike(*self.map.pull_back(a, b, check))
        return self.map.weigh(val, a, b) if self.weighted else val

    def eval_polar(self, j, rho, theta, check=True):
        return self._values(partial(zernike_polar, j), rho, theta, "polar", check)

    def matrix_polar(self, rho, theta, check=True):
        """Every basis function at polar points, one row per function."""
        whole = partial(zernike_matrix, self.order)
        return self._values(whole, rho, theta, "polar", check)

    def matrix_xy(self, x, y, check=True):
        """Every basis function at Cartesian points, one row per function."""
        return self._values(partial(zernike_matrix, self.order), x, y, "xy", check)

    def matrix(self, nodes):
        """The collocation matrix at a NodeSet, in the map's coordinates."""
        if self.map.coordinates == "polar":
            return self.matrix_polar(nodes.rho, nodes.theta)
        return self.matrix_xy(nodes.x, nodes.y)

    def __repr__(self):
        return (
            f"{type(self).__name__}(order={self.order}, family={self.family!r}, "
            f"map={self.map!r})"
        )


class HexagonBasis(TransferredBasis):
    def __init__(self, order, family="K", map=None):
        super().__init__(order, family, HexagonMap() if map is None else map)


def make_basis(family, order, domain_map=None):
    """Build a basis object from its one-letter family code.  The hexagon
    families default to the side-1 hexagon; the others need their map."""
    if family == "Z":
        if domain_map is not None:
            raise ValueError(f"family 'Z' needs the disk map, got {domain_map!r}")
        return DiskZernikeBasis(order)
    if domain_map is None and family in HexagonMap.families:
        domain_map = HexagonMap()
    return TransferredBasis(order, family, domain_map)
