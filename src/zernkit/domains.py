"""Diffeomorphisms from the unit disk and the bases they transport.

Each map phi sends the closed unit disk onto a target domain M (the disk
itself by the identity, a regular hexagon, an axis-aligned ellipse, a
circular annulus).  Composing disk Zernike polynomials with the inverse
map, optionally times a non-vanishing weight q, yields families
orthonormal on M:

    family  domain   weight q                orthonormality measure |J|/q^2
    Z       disk     1                       dx dy
    K       hexagon  1                       dx dy / R(theta)^2
    H       hexagon  1/R(theta)              dx dy
    E       ellipse  1/sqrt(AB)              dx dy
    O       annulus  sqrt(|J|)               dx dy
    C       annulus  1                       |J| dx dy

(all inner products carry the disk convention's 1/pi prefactor), where
R(theta) is the hexagon boundary radius and J the Jacobian of the inverse
map.  Every weight that is not 1 is sqrt(|J|).

One TransferredBasis implements this construction, Z_j o phi^-1 times q,
for every map, the identity of the plain disk family Z included.  Each map
names its families (and which carry the weight) and owns its pull-back to
the disk, its weight and its node transfer.
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
    "DiskMap",
    "HexagonMap",
    "EllipseMap",
    "AnnulusMap",
    "MAPS",
    "make_map",
    "transfer_nodes",
    "TransferredBasis",
    "DiskZernikeBasis",
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


def _polar_nodes(rho, theta):
    """Cartesian and polar node columns of an angle-preserving transfer."""
    return (
        np.column_stack(polar_to_cartesian(rho, theta)),
        np.column_stack([rho, theta]),
    )


class _RadialMap:
    """A map that scales the radius and keeps the angle.  Its pull-back is
    ``inverse_polar``, so transferred bases evaluate it in polar coordinates."""

    coordinates = "polar"

    def pull_back(self, rho, theta):
        return self.inverse_polar(rho, theta)

    def image_weight(self, rho, theta):
        """sqrt|J| at the images of disk polar points (rho, theta), as a
        new array of their broadcast shape."""
        s, t = self.forward_polar(rho, theta)
        return self.weigh(np.ones(np.broadcast_shapes(np.shape(s), np.shape(t))), s, t)

    def _image_radii(self, nodeset):
        """``forward_polar`` radii of a disk NodeSet, each nudged by one ulp,
        the upper neighbour first, where the naive value misses the source
        radius on pull-back and the neighbour makes ``inverse_polar`` return
        it exactly.  Where neither does, the naive forward value stays."""
        src, theta = nodeset.rho, nodeset.theta
        naive = np.asarray(self.forward_polar(src, theta)[0], dtype=float)
        out = naive.copy()
        # a later candidate wins: the naive value, then the upper neighbour
        for cand in (np.nextafter(naive, -np.inf), np.nextafter(naive, np.inf), naive):
            exact = self.inverse_polar(cand, theta, check=False)[0] == src
            out[exact] = cand[exact]
        return out

    def transfer(self, nodeset, inner_eps):
        return _polar_nodes(self._image_radii(nodeset), nodeset.theta)


@dataclass(frozen=True)
class DiskMap(_RadialMap):
    """The identity on the closed unit disk: the plain Zernike family Z is
    the transferred family with phi = identity and q = 1."""

    kind = "disk"
    families = {"Z": False}

    def forward_polar(self, rho, theta):
        return rho, theta

    def inverse_polar(self, rho, theta, check=True):
        rho = np.asarray(rho, dtype=float)
        if check and np.any(rho * rho > 1.0 + CONTAIN_TOL):
            raise DomainError("point outside the disk")
        return rho, theta

    def transfer(self, nodeset, inner_eps):
        """The node set's own arrays; x and y rebuilt from (rho, theta)
        could differ in the last digit."""
        return nodeset.nodes, nodeset.polar


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

    def weigh(self, values, rho, theta):
        """Multiply values in place by sqrt|J| = 1/R(theta)."""
        values /= self.boundary_radius(theta)
        return values


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

    def pull_back(self, x, y):
        return cartesian_to_polar(*self.inverse_xy(x, y))

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
        tolerance, or any when ``check`` is off, as for the ulp probes of
        ``_image_radii``) go to the disk center."""
        t = (np.asarray(rho, float) - self.inner) / (self.outer - self.inner)
        if check and (np.any(t > 1.0 + CONTAIN_TOL) or np.any(t < -CONTAIN_TOL)):
            raise DomainError("point outside the annulus")
        return np.maximum(t, 0.0), theta

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
        rho = self._image_radii(nodeset)
        if inner_eps:
            rho[nodeset.rho == 0.0] = self.inner + inner_eps
        return _polar_nodes(rho, nodeset.theta)


MAPS = (DiskMap, HexagonMap, EllipseMap, AnnulusMap)

# CLI/CSV codes of the basis families and the domain each lives on.
BASIS_DOMAINS = {f: m.kind for m in MAPS for f in m.families}


def make_map(kind, semi_major=None, semi_minor=None, inner=None):
    """Build a DomainMap from CLI-style parameters; the annulus has outer
    radius 1."""
    if kind == "disk":
        return DiskMap()
    if kind == "hexagon":
        return HexagonMap()
    if kind == "ellipse":
        return EllipseMap(semi_major, semi_minor)
    if kind == "annulus":
        return AnnulusMap(inner, 1.0)
    raise ValueError(f"unknown domain kind {kind!r}")


def transfer_nodes(domain_map, nodeset, inner_eps=0.01):
    """Transplant a disk NodeSet onto the map's image domain, in order.

    For the annulus, a source node exactly at the disk center would land on
    the inner circle where the sqrt-Jacobian weight vanishes; it is moved
    outward along its angle to radius a + inner_eps (pass inner_eps=0 or
    None to disable, e.g. when studying the plain composed family C, for
    which the inner circle is harmless).

    The disk map returns the set's own node and polar arrays.  The other
    radial maps (hexagon, annulus) keep the angles, and a transferred radius
    whose naive image misses the source radius on pull-back is nudged by one
    ulp where a neighbour pulls back exactly, so evaluating a transferred
    basis at transferred nodes reproduces the disk collocation matrix bit
    for bit on the nodes that pull back exactly.  The nudge only acts where
    the image radii lie on a coarser float grid than the source radii (as
    on annuli with a = 0.3 or 0.2).  Elsewhere the pull-back is off by at
    most two steps of the image's float grid.

    The set's ``mirror`` is kept: every map keeps the node order and
    commutes with the reflection y -> -y.
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
        mirror=nodeset.mirror,
    )


class TransferredBasis:
    """A disk Zernike basis carried onto a map's image: Z_j o phi^-1, times
    the weight q = sqrt|J| for the map's weighted families.

    The map supplies the pull-back to disk polar coordinates (with the
    domain check), the weight and the coordinates it takes them in: polar
    for the angle-preserving disk, hexagon and annulus maps, Cartesian for
    the ellipse.  Points given in the other coordinates are converted
    first.  A point is inside the domain when its pull-back lies in the
    closed unit disk (rho^2 <= 1 for the disk, a pulled-back radius in
    [0, 1] for the hexagon and the annulus, u^2 + v^2 <= 1 for the ellipse)
    with ``CONTAIN_TOL`` of slack.  That test is the domain's only
    statement, and every evaluation makes it, so a point outside the domain
    raises ``DomainError``.
    """

    def __init__(self, order, family, map):
        domain = BASIS_DOMAINS.get(family)
        if domain is None:
            raise ValueError(f"unknown basis family {family!r}")
        if getattr(map, "kind", None) != domain:
            raise ValueError(f"family {family!r} needs the {domain} map, got {map!r}")
        self.order = order
        self.family = family
        self.map = map
        self.domain = map.kind
        self.size = basis_size(order)
        self.weighted = map.families[family]

    def _values(self, zernike, a, b, coordinates):
        """``zernike(rho, theta)`` at the pull-back of points (a, b) given
        in ``coordinates`` ("polar" or "xy"), times the weight."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if coordinates != self.map.coordinates:
            convert = polar_to_cartesian if coordinates == "polar" else cartesian_to_polar
            a, b = convert(a, b)
        val = zernike(*self.map.pull_back(a, b))
        return self.map.weigh(val, a, b) if self.weighted else val

    def eval_polar(self, j, rho, theta):
        return self._values(partial(zernike_polar, j), rho, theta, "polar")

    def matrix_polar(self, rho, theta):
        """Every basis function at polar points, one row per function."""
        return self._values(partial(zernike_matrix, self.order), rho, theta, "polar")

    def matrix_xy(self, x, y):
        """Every basis function at Cartesian points, one row per function."""
        return self._values(partial(zernike_matrix, self.order), x, y, "xy")

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


class DiskZernikeBasis(TransferredBasis):
    def __init__(self, order):
        super().__init__(order, "Z", DiskMap())


class HexagonBasis(TransferredBasis):
    def __init__(self, order, family):
        super().__init__(order, family, HexagonMap())


def make_basis(family, order, domain_map=None):
    """Build a basis object from its one-letter family code.  The disk
    family defaults to the disk map and the hexagon families to the side-1
    hexagon; the others need their map."""
    if domain_map is None:
        # only the maps without parameters have a default
        defaults = (m() for m in (DiskMap, HexagonMap) if family in m.families)
        domain_map = next(defaults, None)
    return TransferredBasis(order, family, domain_map)
