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

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ZernikeIndex",
    "basis_size",
    "nm_to_index",
    "index_to_nm",
    "normalization",
    "radial_poly",
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


def _radial_family(m_abs, rho, k_max):
    """Yield R_{m+2k}^m(rho) for k = 0 .. k_max from one pass of the
    Jacobi recurrence behind ``radial_poly`` (rho an array)."""
    x = 1.0 - 2.0 * rho * rho
    rho_m = rho**m_abs if m_abs > 0 else None
    p_prev = p = np.ones_like(x)
    for k in range(k_max + 1):
        if k == 1:
            p = ((m_abs + 2) * x + m_abs) / 2.0
        elif k > 1:
            c = 2 * k + m_abs
            a1 = 2 * k * (k + m_abs) * (c - 2)
            a2 = (c - 1) * (c * (c - 2) * x + m_abs * m_abs)
            a3 = 2 * (k + m_abs - 1) * (k - 1) * c
            p_prev, p = p, (a2 * p - a3 * p_prev) / a1
        out = p if k % 2 == 0 else -p
        yield out if rho_m is None else out * rho_m


def radial_poly(n, m, rho):
    """Radial component R_n^{|m|}(rho) of the circle polynomial.

    Uses the identity R_n^m = (-1)^k rho^m P_k^{(m,0)}(1 - 2 rho^2) with
    k = (n - m)/2 and evaluates the Jacobi polynomial by its three-term
    recurrence.  Unlike the explicit factorial sum the recurrence keeps
    intermediates of order one: against exact rational evaluation it stays
    below 1e-14 up to n = 30, where the sum has lost seven digits to
    cancellation.  Valid for any rho >= 0; rho may be a scalar or an array.
    """
    m_abs = abs(m)
    if n < 0 or m_abs > n or (n - m_abs) % 2 != 0:
        raise ValueError(f"invalid index pair n={n}, m={m}")
    rho = np.asarray(rho, dtype=float)
    for out in _radial_family(m_abs, rho, (n - m_abs) // 2):
        pass
    return out if out.shape else float(out)


def zernike_polar(j, rho, theta):
    """Zernike polynomial with single index j at polar points (rho, theta).

    Cosine branch for m >= 0, sine branch (with |m|) for m < 0.  Evaluation
    is defined for any rho >= 0; orthonormality holds on rho <= 1.
    """
    idx = index_to_nm(j)
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    radial = normalization(idx.n, idx.m) * radial_poly(idx.n, idx.m, rho)
    if idx.m >= 0:
        out = radial * np.cos(idx.m * theta)
    else:
        out = radial * np.sin(-idx.m * theta)
    return out if out.shape else float(out)


def zernike_matrix(order, rho, theta):
    """Every Zernike polynomial of total degree <= order at (rho, theta).

    Returns the array of shape (basis_size(order),) + the broadcast shape
    of rho and theta whose row j equals ``zernike_polar(j, rho, theta)``
    bit for bit: the radial recurrence runs once per |m| and writes the
    (n, +m) and (n, -m) rows as it passes each n, with the same operations
    in the same order as the one-row path.
    """
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    out = np.empty((basis_size(order),) + np.broadcast_shapes(rho.shape, theta.shape))
    for m_abs in range(order + 1):
        cos_m = np.cos(m_abs * theta)
        sin_m = np.sin(m_abs * theta) if m_abs else None
        family = _radial_family(m_abs, rho, (order - m_abs) // 2)
        for k, radial in enumerate(family):
            n = m_abs + 2 * k
            radial = normalization(n, m_abs) * radial
            out[nm_to_index(n, m_abs)] = radial * cos_m
            if m_abs:
                out[nm_to_index(n, -m_abs)] = radial * sin_m
    return out


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

