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
map.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError
from .samplings import NodeSet
from .zernike import basis_size, cartesian_to_polar, zernike_matrix, zernike_polar

__all__ = [
    "HEXAGON_HALF_ANGLE",
    "polygon_fold",
    "polygon_boundary_radius",
    "HexagonMap",
    "EllipseMap",
    "AnnulusMap",
    "make_map",
    "transfer_nodes",
    "HexagonBasis",
    "EllipseBasis",
    "AnnulusBasis",
    "make_basis",
    "BASIS_DOMAINS",
]

HEXAGON_HALF_ANGLE = math.pi / 6

# CLI/CSV codes of the transferred families and the domain each lives on.
BASIS_DOMAINS = {
    "Z": "disk",
    "K": "hexagon",
    "H": "hexagon",
    "E": "ellipse",
    "O": "annulus",
    "C": "annulus",
}

_CONTAIN_TOL = 1e-9  # closed-domain slack, admits nodes on the boundary


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
    """
    out = np.array(forward(rho, slice(None)))
    for i in np.flatnonzero(inverse(out, slice(None)) != rho):
        for cand in (np.nextafter(out[i], np.inf), np.nextafter(out[i], -np.inf)):
            if inverse(cand, i) == rho[i]:
                out[i] = cand
                break
    return out


@dataclass(frozen=True)
class HexagonMap:
    """Disk onto the regular hexagon of side 1 inscribed in the unit circle.

    In polar coordinates the forward map scales the radius by the boundary
    radius R(theta); angles are preserved.  One vertex sits at theta = pi/6,
    an edge midpoint at theta = 0.  The half angle is pi/6; other regular
    polygons would work the same way but only the hexagon is exercised.
    """

    half_angle: float = HEXAGON_HALF_ANGLE

    kind = "hexagon"

    def boundary_radius(self, theta):
        return polygon_boundary_radius(theta, self.half_angle)

    def forward_polar(self, rho, theta):
        return rho * self.boundary_radius(theta), theta

    def inverse_polar(self, rho, theta):
        scale = self.boundary_radius(theta)
        if np.any(rho > scale * (1.0 + _CONTAIN_TOL)):
            raise DomainError("point outside the hexagon")
        return rho / scale, theta

    def forward_xy(self, x, y):
        scale = self.boundary_radius(np.arctan2(y, x))
        return x * scale, y * scale

    def inverse_xy(self, x, y):
        theta = np.arctan2(y, x)
        scale = self.boundary_radius(theta)
        if np.any(np.hypot(x, y) > scale * (1.0 + _CONTAIN_TOL)):
            raise DomainError("point outside the hexagon")
        return x / scale, y / scale

    def contains_xy(self, x, y, tol=_CONTAIN_TOL):
        return np.hypot(x, y) <= self.boundary_radius(np.arctan2(y, x)) * (1.0 + tol)

    def inverse_jacobian_xy(self, x, y):
        """|J| of the inverse map: 1/R(theta)^2."""
        return self.boundary_radius(np.arctan2(y, x)) ** -2.0


@dataclass(frozen=True)
class EllipseMap:
    """Disk onto the axis-aligned ellipse x^2/A^2 + y^2/B^2 <= 1 by the
    affine scaling (u, v) -> (A u, B v)."""

    semi_major: float
    semi_minor: float

    kind = "ellipse"

    def __post_init__(self):
        if not self.semi_major >= self.semi_minor > 0:
            raise ValueError(
                f"need A >= B > 0, got A={self.semi_major}, B={self.semi_minor}"
            )

    def forward_xy(self, x, y):
        return self.semi_major * x, self.semi_minor * y

    def inverse_xy(self, x, y):
        u = x / self.semi_major
        v = y / self.semi_minor
        if np.any(u * u + v * v > 1.0 + _CONTAIN_TOL):
            raise DomainError("point outside the ellipse")
        return u, v

    def contains_xy(self, x, y, tol=_CONTAIN_TOL):
        u = x / self.semi_major
        v = y / self.semi_minor
        return u * u + v * v <= 1.0 + tol

    def inverse_jacobian_xy(self, x, y):
        """|J| of the inverse map: the constant 1/(AB)."""
        return np.full(np.broadcast(x, y).shape, 1.0 / (self.semi_major * self.semi_minor))


@dataclass(frozen=True)
class AnnulusMap:
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

    @property
    def radius_ratio(self):
        return self.inner / self.outer

    def forward_polar(self, rho, theta):
        return self.inner + (self.outer - self.inner) * np.asarray(rho, float), theta

    def inverse_polar(self, rho, theta):
        t = (np.asarray(rho, float) - self.inner) / (self.outer - self.inner)
        if np.any(t > 1.0 + _CONTAIN_TOL) or np.any(t < -_CONTAIN_TOL):
            raise DomainError("point outside the annulus")
        return t, theta

    def forward_xy(self, x, y):
        rho = np.hypot(x, y)
        theta = np.arctan2(y, x)
        s = self.inner + (self.outer - self.inner) * rho
        return s * np.cos(theta), s * np.sin(theta)

    def inverse_xy(self, x, y):
        s = np.hypot(x, y)
        theta = np.arctan2(y, x)
        t, _ = self.inverse_polar(s, theta)
        return t * np.cos(theta), t * np.sin(theta)

    def contains_xy(self, x, y, tol=_CONTAIN_TOL):
        s = np.hypot(x, y)
        span = self.outer - self.inner
        return (s >= self.inner - tol * span) & (s <= self.outer + tol * span)

    def inverse_jacobian_xy(self, x, y):
        """|J| of the inverse map: (r - a) / (r (A - a)^2) at image radius r."""
        s = np.hypot(x, y)
        return (s - self.inner) / (s * (self.outer - self.inner) ** 2)


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

    For the radial maps (hexagon, annulus) the transferred radius is nudged
    by at most one ulp onto the float whose inverse image is exactly the
    source radius, so evaluating a transferred basis at transferred nodes
    reproduces the disk collocation matrix bit for bit.
    """
    if nodeset.domain != "disk":
        raise DomainError(f"can only transfer disk node sets, got {nodeset.domain}")
    rho, theta = nodeset.rho, nodeset.theta
    if isinstance(domain_map, HexagonMap):
        scale = domain_map.boundary_radius(theta)
        new_rho = _invertible_forward_radius(
            rho, lambda r, i: r * scale[i], lambda s, i: s / scale[i]
        )
        polar = np.column_stack([new_rho, theta])
        nodes = np.column_stack([new_rho * np.cos(theta), new_rho * np.sin(theta)])
        return NodeSet(
            nodeset.order,
            nodeset.scheme,
            nodes,
            metadata=f"{nodeset.metadata} -> hexagon".strip(),
            domain="hexagon",
            polar=polar,
        )
    if isinstance(domain_map, EllipseMap):
        nodes = np.column_stack(
            [domain_map.semi_major * nodeset.x, domain_map.semi_minor * nodeset.y]
        )
        return NodeSet(
            nodeset.order,
            nodeset.scheme,
            nodes,
            metadata=f"{nodeset.metadata} -> ellipse".strip(),
            domain="ellipse",
            polar=None,
        )
    if isinstance(domain_map, AnnulusMap):
        a, span = domain_map.inner, domain_map.outer - domain_map.inner
        new_rho = _invertible_forward_radius(
            rho, lambda r, i: a + span * r, lambda s, i: (s - a) / span
        )
        if inner_eps:
            at_center = rho == 0.0
            new_rho[at_center] = a + inner_eps
        polar = np.column_stack([new_rho, theta])
        nodes = np.column_stack([new_rho * np.cos(theta), new_rho * np.sin(theta)])
        return NodeSet(
            nodeset.order,
            nodeset.scheme,
            nodes,
            metadata=f"{nodeset.metadata} -> annulus".strip(),
            domain="annulus",
            polar=polar,
        )
    raise ValueError(f"unsupported domain map {domain_map!r}")


class _RadialMapBasis:
    """Row and batched evaluation of a basis transferred by an
    angle-preserving map, evaluated in polar coordinates.

    Subclasses define ``_values(zernike, rho, theta, check)``: pull the
    points back to the disk (raising DomainError outside the domain when
    ``check``), call ``zernike(u, theta)`` there and apply the weight.  The
    row evaluators pass one polynomial, the batched ones the whole basis.
    """

    def eval_polar(self, j, rho, theta, check=True):
        return self._values(partial(zernike_polar, j), rho, theta, check)

    def matrix_polar(self, rho, theta, check=True):
        """Every basis function at polar points, one row per function."""
        return self._values(partial(zernike_matrix, self.order), rho, theta, check)

    def eval_xy(self, j, x, y, check=True):
        return self.eval_polar(j, np.hypot(x, y), np.arctan2(y, x), check=check)

    def matrix_xy(self, x, y, check=True):
        return self.matrix_polar(np.hypot(x, y), np.arctan2(y, x), check=check)

    def matrix(self, nodes):
        """The collocation matrix at a NodeSet on this basis' domain."""
        return self.matrix_polar(nodes.rho, nodes.theta)

    def contains_xy(self, x, y, tol=_CONTAIN_TOL):
        return self.map.contains_xy(x, y, tol)


class HexagonBasis(_RadialMapBasis):
    """Transferred families on the hexagon.

    family "K": Z_j composed with the inverse map (weight 1);
    family "H": the same divided by R(theta) (weight 1/R).
    Neither family is polynomial on the hexagon.
    """

    domain = "hexagon"

    def __init__(self, order, family="K", map=None):
        if family not in ("K", "H"):
            raise ValueError(f"hexagon families are K and H, got {family!r}")
        self.order = order
        self.family = family
        self.map = map if map is not None else HexagonMap()
        self.size = basis_size(order)

    def _values(self, zernike, rho, theta, check):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        scale = self.map.boundary_radius(theta)
        u = rho / scale
        if check and np.any(u > 1.0 + _CONTAIN_TOL):
            raise DomainError("point outside the hexagon")
        val = zernike(u, theta)
        if self.family == "H":
            val /= scale
        return val

    def __repr__(self):
        return f"HexagonBasis(order={self.order}, family={self.family!r})"


class EllipseBasis:
    """Transferred polynomials on the ellipse: Z_j(x/A, y/B)/sqrt(AB).

    The constant weight keeps the family orthonormal against the plain
    (1/pi) dx dy measure on the ellipse.
    """

    domain = "ellipse"
    family = "E"

    def __init__(self, order, map):
        self.order = order
        self.map = map
        self.size = basis_size(order)
        self.prefactor = 1.0 / math.sqrt(map.semi_major * map.semi_minor)

    def _values(self, zernike, x, y, check):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        u = x / self.map.semi_major
        v = y / self.map.semi_minor
        if check and np.any(u * u + v * v > 1.0 + _CONTAIN_TOL):
            raise DomainError("point outside the ellipse")
        val = zernike(*cartesian_to_polar(u, v))
        val *= self.prefactor
        return val

    def eval_xy(self, j, x, y, check=True):
        return self._values(partial(zernike_polar, j), x, y, check)

    def matrix_xy(self, x, y, check=True):
        """Every basis function at Cartesian points, one row per function."""
        return self._values(partial(zernike_matrix, self.order), x, y, check)

    def matrix(self, nodes):
        """The collocation matrix at a NodeSet on the ellipse."""
        return self.matrix_xy(nodes.x, nodes.y)

    def contains_xy(self, x, y, tol=_CONTAIN_TOL):
        return self.map.contains_xy(x, y, tol)

    def __repr__(self):
        return (
            f"EllipseBasis(order={self.order}, A={self.map.semi_major}, "
            f"B={self.map.semi_minor})"
        )


class AnnulusBasis(_RadialMapBasis):
    """Transferred families on the annulus a <= r <= A.

    family "C": Z_j composed with the inverse radial map (weight 1),
    orthonormal against the Jacobian-weighted measure;
    family "O": the same times sqrt((r - a)/(r (A - a)^2)), orthonormal
    against the plain measure.  The O weight vanishes on the inner circle,
    so O values there are exactly zero and a collocation node on the inner
    circle makes the matrix singular.
    """

    domain = "annulus"

    def __init__(self, order, family="C", map=None):
        if family not in ("O", "C"):
            raise ValueError(f"annulus families are O and C, got {family!r}")
        self.order = order
        self.family = family
        self.map = map
        self.size = basis_size(order)

    def _values(self, zernike, rho, theta, check):
        rho = np.asarray(rho, dtype=float)
        theta = np.asarray(theta, dtype=float)
        a, span = self.map.inner, self.map.outer - self.map.inner
        t = (rho - a) / span
        if check and (np.any(t > 1.0 + _CONTAIN_TOL) or np.any(t < -_CONTAIN_TOL)):
            raise DomainError("point outside the annulus")
        val = zernike(np.maximum(t, 0.0), theta)
        if self.family == "O":
            val *= np.sqrt(np.maximum(rho - a, 0.0) / rho) / span
        return val

    def __repr__(self):
        return (
            f"AnnulusBasis(order={self.order}, family={self.family!r}, "
            f"a={self.map.inner}, A={self.map.outer})"
        )


def make_basis(family, order, domain_map=None):
    """Build a basis object from its one-letter family code."""
    from .zernike import DiskZernikeBasis

    if family == "Z":
        return DiskZernikeBasis(order)
    if family in ("K", "H"):
        if domain_map is None:
            domain_map = HexagonMap()
        return HexagonBasis(order, family=family, map=domain_map)
    if family == "E":
        return EllipseBasis(order, domain_map)
    if family in ("O", "C"):
        return AnnulusBasis(order, family=family, map=domain_map)
    raise ValueError(f"unknown basis family {family!r}")
