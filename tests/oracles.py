"""Independent verification helpers used across the test suite.

Everything here deliberately avoids the code paths it checks: quadrature
instead of algebraic identities, the explicit factorial sum instead of the
recurrence, a one-row evaluator with its own copy of the recurrence and
the normalization instead of the batched kernel, classic hand-derived
low-order formulas, numpy's companion-matrix roots instead of our Newton
iteration, pointwise zonal reconstruction instead of the closed form,
grid least squares instead of the 15-point translation interpolation,
scipy's public pivoted QR instead of the direct LAPACK call, an
element-by-element radius snap instead of the maps' vectorised one, and
Bos arrays built ring by ring instead of in one pass.
"""

import math

import numpy as np
import scipy.linalg
from numpy.polynomial import legendre as npleg

from zernkit.zernike import basis_size, index_to_nm, zernike_matrix


def zernike_row(j, rho, theta):
    """Z_j at polar points (rho, theta), a float for scalar input.

    An independent copy of ``zernike_matrix``'s arithmetic for one row: the
    Jacobi recurrence for R_n^{|m|} = (-1)^k rho^{|m|} P_k^{(|m|,0)}(1 - 2
    rho^2), k = (n - |m|)/2, then sqrt(2(n + 1)/(1 + delta_{m,0})) times
    cos(m theta) or sin(|m| theta), with the same operations in the same
    order, so it equals the kernel's row j bit for bit.
    """
    idx = index_to_nm(j)
    n, m = idx.n, abs(idx.m)
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    x = 1.0 - 2.0 * rho * rho
    p_prev = p = np.ones_like(x)
    for k in range(1, (n - m) // 2 + 1):
        if k == 1:
            p = ((m + 2) * x + m) / 2.0
        else:
            c = 2 * k + m
            a1 = 2 * k * (k + m) * (c - 2)
            a2 = (c - 1) * (c * (c - 2) * x + m * m)
            a3 = 2 * (k + m - 1) * (k - 1) * c
            p_prev, p = p, (a2 * p - a3 * p_prev) / a1
    radial = -p if (n - m) // 2 % 2 else p
    if m:
        radial = radial * rho**m
    radial = math.sqrt(2 * (n + 1) / (2.0 if m == 0 else 1.0)) * radial
    trig = np.cos(m * theta) if idx.m >= 0 else np.sin(m * theta)
    out = radial * trig
    return out if out.shape else float(out)


def disk_gram(basis, n_radial=64, n_angular=256):
    """(1/pi) * integral over the disk of Z_i Z_j dx dy.

    Gauss-Legendre in t = rho^2 (so integral f rho drho = 1/2 integral
    f(sqrt t) dt, exact for polynomial integrands of the orders tested)
    crossed with the angular trapezoid rule.
    """
    t_nodes, t_weights = npleg.leggauss(n_radial)
    t = 0.5 * (t_nodes + 1.0)
    w_t = 0.25 * t_weights  # 1/2 from the substitution, 1/2 from [-1,1]->[0,1]
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    w_theta = 2.0 * np.pi / n_angular
    rho = np.repeat(np.sqrt(t), n_angular)
    ang = np.tile(theta, n_radial)
    weights = np.repeat(w_t, n_angular) * w_theta
    values = np.array([zernike_row(j, rho, ang) for j in range(basis.size)])
    return (values * weights) @ values.T / np.pi


def transferred_gram(basis, n_radial=64, n_angular=512):
    """(1/pi) * integral over the image domain of B_i B_j d(mu), where mu
    is the measure each family is orthonormal against.

    The integral is pulled back to the unit disk, so the area element of
    the forward map enters explicitly; the orthogonality weight is
    evaluated at the image point.
    """
    t_nodes, t_weights = npleg.leggauss(n_radial)
    rho_d = 0.5 * (t_nodes + 1.0)  # disk radius in (0, 1)
    w_r = 0.5 * t_weights
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    w_theta = 2.0 * np.pi / n_angular
    rho = np.repeat(rho_d, n_angular)
    ang = np.tile(theta, n_radial)
    base_w = np.repeat(w_r, n_angular) * w_theta

    if basis.domain == "hexagon":
        scale = basis.map.boundary_radius(ang)
        s = rho * scale
        area = rho * scale**2  # s ds/drho = rho * R(theta)^2
        mu = scale**-2.0 if basis.family == "K" else np.ones_like(s)
        values = basis.matrix_polar(s, ang)
    elif basis.domain == "ellipse":
        big_a, big_b = basis.map.semi_major, basis.map.semi_minor
        x = big_a * rho * np.cos(ang)
        y = big_b * rho * np.sin(ang)
        area = big_a * big_b * rho
        mu = np.ones_like(rho)
        values = basis.matrix_xy(x, y)
    elif basis.domain == "annulus":
        a, big_a = basis.map.inner, basis.map.outer
        s = a + (big_a - a) * rho
        area = s * (big_a - a)
        if basis.family == "C":
            mu = (s - a) / (s * (big_a - a) ** 2)  # |J| of the inverse map
        else:
            mu = np.ones_like(s)
        values = basis.matrix_polar(s, ang)
    else:
        raise TypeError(f"no quadrature rule for {basis!r}")
    weights = base_w * area * mu
    return (values * weights) @ values.T / np.pi


def _radial_coefficients(n, m_abs):
    """Integer coefficients of the radial polynomial, highest power first.

    Coefficient i multiplies rho^(n - 2i):
        (-1)^i (n-i)! / (i! ((n+m)/2 - i)! ((n-m)/2 - i)!)
    The ratio is an exact integer (a product of two binomials), so the
    coefficients carry no rounding error.
    """
    coeffs = []
    for i in range((n - m_abs) // 2 + 1):
        c = math.factorial(n - i) // (
            math.factorial(i)
            * math.factorial((n + m_abs) // 2 - i)
            * math.factorial((n - m_abs) // 2 - i)
        )
        coeffs.append(-c if i % 2 else c)
    return coeffs


def radial_poly_sum(n, m, rho):
    """Reference form of the radial component: the explicit sum

        sum_i (-1)^i (n-i)! / (i! ((n+|m|)/2-i)! ((n-|m|)/2-i)!) rho^{n-2i}

    as rho^{|m|} times a Horner polynomial in rho^2 with exact integer
    coefficients.  Cancellation grows with n (1e-9 of error around n = 22,
    about 6e-7 by n = 30), so the library evaluates the Jacobi recurrence;
    this form is the independent cross-check.
    """
    m_abs = abs(m)
    if n < 0 or m_abs > n or (n - m_abs) % 2 != 0:
        raise ValueError(f"invalid index pair n={n}, m={m}")
    rho = np.asarray(rho, dtype=float)
    u = rho * rho
    coeffs = _radial_coefficients(n, m_abs)
    acc = np.full(rho.shape, float(coeffs[0]))
    for c in coeffs[1:]:
        acc = acc * u + c
    if m_abs > 0:
        acc = acc * rho**m_abs
    return acc if acc.shape else float(acc)


# classic low-order Zernike polynomials in Cartesian form, unit-RMS
# normalization, single-index order (n rows, m from -n to n in steps of 2)
CLASSIC_ZERNIKES = {
    0: lambda x, y: np.ones_like(np.asarray(x, float)),
    1: lambda x, y: 2.0 * np.asarray(y, float),
    2: lambda x, y: 2.0 * np.asarray(x, float),
    3: lambda x, y: math.sqrt(6.0) * 2.0 * np.asarray(x) * np.asarray(y),
    4: lambda x, y: math.sqrt(3.0) * (2.0 * (np.asarray(x) ** 2 + np.asarray(y) ** 2) - 1.0),
    5: lambda x, y: math.sqrt(6.0) * (np.asarray(x) ** 2 - np.asarray(y) ** 2),
    6: lambda x, y: math.sqrt(8.0) * (3.0 * np.asarray(x) ** 2 * np.asarray(y) - np.asarray(y) ** 3),
    7: lambda x, y: math.sqrt(8.0) * (3.0 * (np.asarray(x) ** 2 + np.asarray(y) ** 2) - 2.0) * np.asarray(y),
    8: lambda x, y: math.sqrt(8.0) * (3.0 * (np.asarray(x) ** 2 + np.asarray(y) ** 2) - 2.0) * np.asarray(x),
    9: lambda x, y: math.sqrt(8.0) * (np.asarray(x) ** 3 - 3.0 * np.asarray(x) * np.asarray(y) ** 2),
    12: lambda x, y: math.sqrt(5.0) * (
        6.0 * (np.asarray(x) ** 2 + np.asarray(y) ** 2) ** 2
        - 6.0 * (np.asarray(x) ** 2 + np.asarray(y) ** 2) + 1.0
    ),
}


def reference_legendre_derivative_zeros(degree):
    """Zeros of P_d' from numpy's companion-matrix route."""
    return np.sort(npleg.Legendre.basis(degree).deriv().roots())


def bos_layout(n, radii):
    """The Bos array of order n point by point: ring j (j = 1 .. n//2 + 1,
    outermost first) has 2n - 4j + 5 points r_j (cos 2 pi i / n_j,
    sin 2 pi i / n_j), i = 0 .. n_j - 1."""
    points = []
    for j, r in enumerate(radii, start=1):
        count = 2 * n - 4 * j + 5
        for i in range(count):
            angle = 2.0 * math.pi * i / count
            points.append((r * math.cos(angle), r * math.sin(angle)))
    return np.array(points)


def bos_rings(n, radii):
    """The Bos array of order n ring by ring, with numpy's arithmetic on
    each ring's angles as ``bos_array`` does it for all rings at once:
    (nodes (N, 2), mirror), point i of a ring mirroring point
    (n_j - i) mod n_j of the same ring."""
    points, mirror, start = [], [], 0
    for j, r in enumerate(radii, start=1):
        count = 2 * n - 4 * j + 5
        i = np.arange(count)
        angle = 2.0 * np.pi * i / count
        points.append(np.column_stack([r * np.cos(angle), r * np.sin(angle)]))
        mirror.append(start + (-i) % count)
        start += count
    return np.vstack(points), np.concatenate(mirror)


def brute_force_thinning(points, count):
    """O(n^2 count) replay of greedy farthest-point selection."""
    points = np.asarray(points, float)
    chosen = [int(np.argmax(points[:, 0] ** 2 + points[:, 1] ** 2))]
    rest = [i for i in range(len(points)) if i != chosen[0]]
    while len(chosen) < count:
        best, best_d = None, -1.0
        for i in rest:
            d = min(
                math.hypot(*(points[i] - points[k])) for k in chosen
            )
            if d > best_d:
                best, best_d = i, d
        chosen.append(best)
        rest.remove(best)
    return points[chosen]


def qr_fekete_points(n, mesh_density):
    """The approximate Fekete points of order n, picked from the polar mesh
    that ``approximate_fekete`` documents by the public
    ``scipy.linalg.qr(vand, pivoting=True, mode="r")``.  The Vandermonde is
    the batched ``zernike_matrix``, so both sides pivot on the same bits."""
    n_theta = max(4 * (n + 1), math.ceil(math.sqrt(2.0 * mesh_density)))
    n_r = math.ceil(mesh_density / n_theta)
    radii = np.sqrt(np.arange(1, n_r + 1) / n_r)
    angles = 2.0 * np.pi * np.arange(n_theta) / n_theta
    rho = np.concatenate([[0.0], np.repeat(radii, n_theta)])
    ang = np.concatenate([[0.0], np.tile(angles, n_r)])
    _, piv = scipy.linalg.qr(zernike_matrix(n, rho, ang), pivoting=True, mode="r")
    keep = np.sort(piv[: basis_size(n)])
    rho, ang = rho[keep], ang[keep]
    return np.column_stack([rho * np.cos(ang), rho * np.sin(ang)])


def wavefront_sum(coefficients, x, y):
    """sum_j a_j Z_j(x, y) of a wavefront's coefficients, one
    ``zernike_row`` at a time instead of the batched mode matrix."""
    rho, theta = np.hypot(x, y), np.arctan2(y, x)
    total = np.zeros(np.broadcast(rho, theta).shape)
    for j, a in enumerate(coefficients):
        total = total + a * zernike_row(j, rho, theta)
    return total


def _hexagon_radius(theta):
    """Boundary radius of the side-1 hexagon with an edge midpoint at
    theta = 0: its apothem over the largest cosine to the six edge normals."""
    normals = np.arange(6) * (np.pi / 3.0)
    cosines = np.cos(np.asarray(theta, float)[..., None] - normals)
    return (math.sqrt(3.0) / 2.0) / np.max(cosines, axis=-1)


def _image_points(family, domain_map, rho, theta):
    """Cartesian image of disk polar points under the family's map."""
    if family == "E":
        big_a, big_b = domain_map.semi_major, domain_map.semi_minor
        return big_a * rho * np.cos(theta), big_b * rho * np.sin(theta)
    if family in "KH":
        rho = rho * _hexagon_radius(theta)
    elif family in "OC":
        rho = domain_map.inner + (domain_map.outer - domain_map.inner) * rho
    return rho * np.cos(theta), rho * np.sin(theta)


def _dense_rows(order, family, domain_map, x, y):
    """Every function of the family at image points (x, y), one
    ``zernike_row`` at a time: pull the points back to the disk,
    evaluate, multiply by the family's weight."""
    r, theta = np.hypot(x, y), np.arctan2(y, x)
    weight = 1.0
    if family in "KH":
        scale = _hexagon_radius(theta)
        u = r / scale
        if family == "H":
            weight = 1.0 / scale
    elif family == "E":
        big_a, big_b = domain_map.semi_major, domain_map.semi_minor
        u, theta = np.hypot(x / big_a, y / big_b), np.arctan2(y / big_b, x / big_a)
        weight = 1.0 / math.sqrt(big_a * big_b)
    elif family in "OC":
        a, big_a = domain_map.inner, domain_map.outer
        u = np.maximum(r - a, 0.0) / (big_a - a)
        if family == "O":
            weight = np.sqrt(np.maximum(r - a, 0.0) / r) / (big_a - a)
    else:
        u = r
    return np.array(
        [zernike_row(j, u, theta) * weight for j in range(basis_size(order))]
    )


def dense_lagrange(nodes, family, domain_map, grid_shape):
    """Every Lagrange function of the family at the nodes, on the whole
    grid, by the dense route: A^-1 G, an (N, n_r n_t) array, with G the
    whole grid matrix.

    The grid is the image under the family's map of the polar disk grid of
    radii k/n_r (k = 1 .. n_r) and angles 2 pi l/n_t, radius-major (column
    k n_t + l); the collocation matrix A and G are built the same way, from
    the image points.
    """
    n_r, n_t = grid_shape
    rho = np.repeat((np.arange(n_r) + 1.0) / n_r, n_t)
    theta = np.tile(2.0 * np.pi * np.arange(n_t) / n_t, n_r)
    x, y = _image_points(family, domain_map, rho, theta)
    grid = _dense_rows(nodes.order, family, domain_map, x, y)
    a = _dense_rows(nodes.order, family, domain_map, nodes.x, nodes.y)
    return np.linalg.solve(a, grid)


def dense_lebesgue_constant(nodes, family, domain_map, grid_shape):
    """Grid Lebesgue constant by the dense route: max over the grid of
    sum_j |l_j|, with the Lagrange functions l_j of ``dense_lagrange``."""
    lagrange = dense_lagrange(nodes, family, domain_map, grid_shape)
    return float(np.max(np.sum(np.abs(lagrange), axis=0)))


def _hexagon_grid(nx=55, ny=61):
    """The cell-centered nx x ny lattice over the side-1 hexagon's bounding
    box, keeping the points strictly inside the hexagon, as (x, y)."""
    half_width = math.sqrt(3.0) / 2.0
    xs = -half_width + (np.arange(nx) + 0.5) * (2.0 * half_width / nx)
    ys = -1.0 + (np.arange(ny) + 0.5) * (2.0 / ny)
    gx, gy = (g.ravel() for g in np.meshgrid(xs, ys))
    inside = np.hypot(gx, gy) < _hexagon_radius(np.arctan2(gy, gx))
    return gx[inside], gy[inside]


def grid_translations(centers):
    """Translation matrices T_k, (segments, 14, 15), with
    Z_j(c_k + p) = sum_l T_k[j, l] Z_l(p) for the 14 wavefront modes j and
    the 15 modes l of degree <= 4, fitted by least squares over the local
    evaluation grid of ``_hexagon_grid``: the local modes there are
    ``zernike_row`` values, each segment's shifted values are
    ``wavefront_sum`` of a unit coefficient vector, and every segment gets
    its own ``np.linalg.lstsq``."""
    gx, gy = _hexagon_grid()
    local = np.array(
        [zernike_row(l, np.hypot(gx, gy), np.arctan2(gy, gx)) for l in range(15)]
    )
    cx, cy = centers[:, :1], centers[:, 1:]
    # shifted[j, k]: mode j over segment k's grid
    shifted = np.array(
        [wavefront_sum(unit, cx + gx, cy + gy) for unit in np.eye(14)]
    )
    return np.array([
        np.linalg.lstsq(local.T, shifted[:, k].T, rcond=None)[0].T
        for k in range(len(centers))
    ])


def zonal_rrmse(coefficients, centers, disk_nodes, family):
    """Relative RMS error of pointwise zonal reconstruction, one value per
    row of wavefront ``coefficients`` (trials, 14).

    The disk nodes are carried to the unit hexagon by ``_image_points`` and
    replicated at every segment center.  Each wavefront is sampled there and
    on every segment's evaluation grid by ``wavefront_sum``; each segment is
    interpolated by ``np.linalg.solve`` with the family's dense rows, and
    the error and truth are summed over all segments' grids.
    """
    x, y = _image_points(
        family, None, np.hypot(disk_nodes.x, disk_nodes.y),
        np.arctan2(disk_nodes.y, disk_nodes.x),
    )
    gx, gy = _hexagon_grid()
    nodes = _dense_rows(disk_nodes.order, family, None, x, y)
    grid = _dense_rows(disk_nodes.order, family, None, gx, gy)
    cx, cy = centers[:, :1], centers[:, 1:]
    samples = np.concatenate([wavefront_sum(a, cx + x, cy + y) for a in coefficients])
    truth = np.array([wavefront_sum(a, cx + gx, cy + gy) for a in coefficients])
    fits = np.linalg.solve(nodes.T, samples.T)  # one column per (trial, segment)
    approx = (fits.T @ grid).reshape(truth.shape)
    error_sq = np.sum(np.square(approx - truth), axis=(1, 2))
    return np.sqrt(error_sq / np.sum(np.square(truth), axis=(1, 2)))


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


def snapped_radii(domain_map, rho, theta):
    """Transferred radii of disk polar points under a hexagon or annulus
    map, one element at a time: each map's forward and inverse radius
    written out as index-aware lambdas and snapped by the loop above."""
    if domain_map.kind == "hexagon":
        scale = domain_map.boundary_radius(theta)
        forward, inverse = (lambda r, i: r * scale[i]), (lambda s, i: s / scale[i])
    else:
        a, span = domain_map.inner, domain_map.outer - domain_map.inner
        forward, inverse = (lambda r, i: a + span * r), (lambda s, i: (s - a) / span)
    return _invertible_forward_radius(rho, forward, inverse)
