"""Zernike circle polynomials on the unit disk.

The basis is indexed either by the pair (n, m) with radial order n >= 0,
azimuthal frequency |m| <= n and n - m even, or by the single index

    j = (n(n + 2) + m) / 2.

Other single-index conventions exist in the literature; this library
hard-codes the one above.  With the normalization constant
N_n^m = sqrt(2(n + 1) / (1 + delta_{m,0})) the polynomials are orthonormal
with respect to the measure dx dy / pi on the unit disk.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ZernikeIndex",
    "basis_size",
    "nm_to_index",
    "index_to_nm",
    "normalization",
    "zernike_polar",
    "zernike_xy",
    "zernike_matrix",
    "cartesian_to_polar",
    "polar_to_cartesian",
]

# The one containment slack: a point is inside its domain when its pull-back
# lies within it of the closed unit disk (on rho^2 for the disk, on u^2 + v^2
# for the ellipse, on the pulled-back radius for the hexagon and the
# annulus), so nodes on a domain's boundary are admitted.
CONTAIN_TOL = 1e-9


def basis_size(n):
    """Number of polynomials (and nodes) of total degree <= n: (n+1)(n+2)/2."""
    if n < 0:
        raise ValueError(f"order must be non-negative, got {n}")
    return (n + 1) * (n + 2) // 2


@dataclass(frozen=True)
class ZernikeIndex:
    """Radial order n, azimuthal frequency m, and single index j."""

    n: int
    m: int
    j: int

    def __post_init__(self):
        if self.n < 0 or abs(self.m) > self.n or (self.n - self.m) % 2 != 0:
            raise ValueError(f"invalid index pair n={self.n}, m={self.m}")
        if self.j != (self.n * (self.n + 2) + self.m) // 2:
            raise ValueError(
                f"j={self.j} inconsistent with (n={self.n}, m={self.m})"
            )


def nm_to_index(n, m):
    """Single index j = (n(n+2) + m)/2 in exact integer arithmetic."""
    if n < 0 or abs(m) > n or (n - m) % 2 != 0:
        raise ValueError(f"invalid index pair n={n}, m={m}")
    return (n * (n + 2) + m) // 2


def index_to_nm(j):
    """Invert the single index: the unique (n, m) with j = (n(n+2)+m)/2.

    Row n starts at j = n(n+1)/2, so n is the triangular root of j.
    """
    if j < 0:
        raise ValueError(f"single index must be non-negative, got {j}")
    n = (math.isqrt(8 * j + 1) - 1) // 2
    m = 2 * (j - n * (n + 1) // 2) - n
    return ZernikeIndex(n, m, j)


def normalization(n, m):
    """Normalization constant sqrt(2(n+1)/(1+delta_{m,0}))."""
    return math.sqrt((2 * (n + 1)) / (2.0 if m == 0 else 1.0))


def zernike_polar(j, rho, theta):
    """Z_j at polar points (rho, theta): row j of ``zernike_matrix`` at the
    radial order of Z_j, a float for scalar input."""
    out = zernike_matrix(index_to_nm(j).n, rho, theta)[j]
    return out if out.shape else float(out)


def zernike_matrix(order, rho, theta):
    """Every Zernike polynomial of total degree <= order at (rho, theta),
    shape (basis_size(order),) + the broadcast shape of rho and theta.

    Row (n, m) is N_n^m R_n^|m|(rho) cos(m theta), or sin(|m| theta) for
    m < 0, at any rho >= 0, with R_n^m = (-1)^k rho^m P_k^(m,0)(1 - 2 rho^2)
    and k = (n - m)/2: the Jacobi polynomial comes from its three-term
    recurrence.  Unlike the explicit factorial sum the recurrence keeps
    intermediates of order one: against exact rational evaluation it stays
    below 1e-14 up to n = 30, where the sum has lost seven digits to
    cancellation.

    The recurrence runs once per distinct radius (distinct bit pattern, so
    -0.0 keeps its own rows), for every |m| at once: step k advances
    P_k^(|m|,0) for each |m| <= order - 2k, and the step's (n, +m) and
    (n, -m) rows are gathered from the radii to the points.  Each value
    takes the scalar recurrence's operations for its own (n, m) in the same
    order, so a row depends neither on the order asked nor on the other
    points (a NaN's sign bit aside: numpy's vector and scalar loops pass on
    different operands' NaNs).  The angle then enters one degree at a time:
    the rows of degree n, with m = -n, -n + 2, .., n, are a stride-2 slice
    of the table of sin(|m| theta) (m < 0) and cos(m theta).
    """
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast_shapes(rho.shape, theta.shape)
    out = np.empty((basis_size(order),) + shape)
    _radial_rows(order, rho, out)
    # row order + m holds cos(m theta), row order - m sin(m theta)
    trig = np.empty((2 * order + 1,) + theta.shape)
    np.multiply.outer(np.arange(order + 1), theta, out=trig[order:])
    np.sin(trig[order + 1 :], out=trig[:order][::-1])
    np.cos(trig[order:], out=trig[order:])
    trig = trig.reshape((len(trig),) + (1,) * (len(shape) - theta.ndim) + theta.shape)
    for n in range(order + 1):
        start = n * (n + 1) // 2
        out[start : start + n + 1] *= trig[order - n : order + n + 1 : 2]
    return out


def _radial_rows(order, rho, out):
    """Fill rows (n, m) and (n, -m) of ``out`` with N_n^m R_n^|m|(rho)."""
    radii, where = np.unique(rho.view(np.uint64), return_inverse=True)
    radii = radii.view(float)
    # each point's radius, in the layout of out's points
    where = where.reshape((1,) * (out.ndim - 1 - rho.ndim) + rho.shape)
    x = 1.0 - 2.0 * radii * radii
    rho_m = np.empty((order + 1, radii.size))
    for j in range(order + 1):
        # row by row, as rho**m: one power over a column of exponents
        # rounds some rho^2 differently
        np.power(radii, j, out=rho_m[j])
    a1, a2_in, n1, a3, scale, plus, minus = _recurrence_tables(order)
    m = np.arange(order + 1.0)[:, None]
    p_prev = p = np.ones_like(rho_m)
    for step in range(order // 2 + 1):
        live = order - 2 * step + 1
        if step == 1:
            p = ((m[:live] + 2.0) * x + m[:live]) / 2.0
        elif step > 1:
            a2 = a2_in[step, :live] * x
            a2 += m[:live] * m[:live]
            a2 *= n1[step, :live]
            a2 *= p[:live]
            a2 -= a3[step, :live] * p_prev[:live]
            a2 /= a1[step, :live]
            p_prev, p = p[:live], a2
        radial = (-p if step % 2 else p) * rho_m[:live]
        radial *= scale[step, :live]
        radial = radial.take(where, axis=1)
        out[plus[step, :live]] = radial
        out[minus[step, 1:live]] = radial[1:]


# a sweep calls one order after another, the wavefront run order 4 in
# between
@functools.lru_cache(maxsize=4)
def _recurrence_tables(order):
    """The tables of ``_radial_rows`` at ``order``, read-only: step k down,
    |m| across, n = 2k + |m|.  The recurrence's a1, the factors n(n - 2)
    and n - 1 of its a2, its a3 and the normalization, each with a
    trailing axis over the radii; then the rows of (n, |m|) and of
    (n, -|m|).  Every integer product is exact in float64, and the
    normalization is the root of the exact 2(n + 1)/(1 + delta_{m,0})."""
    k = np.arange(order // 2 + 1.0)[:, None]
    m = np.arange(order + 1.0)
    n = 2.0 * k + m
    k_m = k + m
    plus = ((n * (n + 2.0) + m) / 2.0).astype(np.intp)
    tables = (
        2.0 * k * k_m * (n - 2.0),
        n * (n - 2.0),
        n - 1.0,
        (2.0 * k - 2.0) * (k_m - 1.0) * n,
        np.sqrt((n + 1.0) * np.where(m == 0.0, 1.0, 2.0)),
    )
    tables = tuple(t[:, :, None] for t in tables) + (plus, plus - m.astype(np.intp))
    for table in tables:
        table.setflags(write=False)
    return tables


def zernike_xy(j, x, y):
    """Zernike polynomial at Cartesian points, via the polar form."""
    rho, theta = cartesian_to_polar(x, y)
    return zernike_polar(j, rho, theta)


def cartesian_to_polar(x, y):
    """(x, y) -> (rho, theta) with theta = atan2(y, x) in (-pi, pi].

    The two-argument arctangent fixes the quadrant ambiguity of arctan(y/x);
    the origin gets theta = 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.hypot(x, y), np.arctan2(y, x)


def polar_to_cartesian(rho, theta):
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return rho * np.cos(theta), rho * np.sin(theta)

